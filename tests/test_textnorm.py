"""Tokenization, MWE fusion, and n-gram term extraction."""

import random
from collections import Counter

import numpy as np

from riskdomains.porter import porter_stem
from riskdomains.textnorm import (
    extract_terms,
    fuse_mwes,
    phrase_table,
    text_to_terms,
    tokenize,
)
from riskdomains.vectorspace import Vocabulary


def phrase(*words):
    return tuple(words)


PANIC_ATTACK = phrase_table([phrase("panic", "attack")])


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Pt. reports SI.") == ["pt", "reports", "si"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t") == []

    def test_quotes_dropped(self):
        assert tokenize("feeling 'really great and excited'") == [
            "feeling", "really", "great", "and", "excited",
        ]

    def test_digits_separate(self):
        assert tokenize("ab12cd 3mg") == ["ab", "cd", "mg"]


class TestPhraseTable:
    def test_longest_first_under_the_first_word(self):
        table = phrase_table([
            phrase("train", "of"), phrase("panic", "attack"),
            phrase("train", "of", "thought"), phrase("panic", "disorder"),
        ])
        assert table == {
            "train": [phrase("train", "of", "thought"), phrase("train", "of")],
            "panic": [phrase("panic", "attack"), phrase("panic", "disorder")],
        }

    def test_each_phrase_once(self):
        table = phrase_table([phrase("panic", "attack")] * 2)
        assert table == {"panic": [phrase("panic", "attack")]}

    def test_empty(self):
        assert phrase_table([]) == {}


class TestFuseMwes:
    def test_single_phrase(self):
        stems = fuse_mwes(["panic", "attack"], PANIC_ATTACK)
        assert stems == ["panic_attack"]

    def test_no_match_identity(self):
        stems = fuse_mwes(["calm", "patient"], PANIC_ATTACK)
        assert stems == [porter_stem("calm"), porter_stem("patient")]

    def test_longest_match_wins(self):
        phrases = [phrase("attention", "span"), phrase("short", "attention", "span")]
        stems = fuse_mwes(["short", "attention", "span"], phrase_table(phrases))
        assert stems == ["short_attention_span"]

    def test_non_overlapping_left_to_right(self):
        # After "panic attack" is consumed, "attack dog" cannot match.
        phrases = [phrase("panic", "attack"), phrase("attack", "dog")]
        stems = fuse_mwes(["panic", "attack", "dog"], phrase_table(phrases))
        assert stems == ["panic_attack", porter_stem("dog")]

    def test_mwe_token_invariants(self):
        # A fused phrase keeps its joined surface unstemmed; other words stem.
        stems = fuse_mwes(["panic", "attack", "today"], PANIC_ATTACK)
        assert stems == ["panic_attack", porter_stem("today")]

    def test_phrases_sharing_a_first_word(self):
        phrases = [phrase("panic", "attack"), phrase("panic", "disorder")]
        stems = fuse_mwes(
            ["panic", "disorder", "panic", "attack", "panic"], phrase_table(phrases)
        )
        assert stems == ["panic_disorder", "panic_attack", porter_stem("panic")]

    def test_three_word_phrase_over_its_two_word_prefix(self):
        phrases = [phrase("train", "of"), phrase("train", "of", "thought")]
        words = ["train", "of", "thought", "train", "of", "time", "train", "of"]
        stems = fuse_mwes(words, phrase_table(phrases))
        assert stems == ["train_of_thought", "train_of", porter_stem("time"), "train_of"]

    def test_token_count_bound(self):
        rng = random.Random(3)
        vocabulary = ["alpha", "beta", "gamma", "delta", "panic", "attack"]
        phrases = [phrase("panic", "attack"), phrase("alpha", "beta", "gamma")]
        for _ in range(50):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 20))]
            stems = fuse_mwes(words, phrase_table(phrases))
            assert len(stems) <= len(words)
            fused = any("_" in s for s in stems)
            assert (len(stems) == len(words)) == (not fused)


def loop_terms(stems):
    """Reference n-gram multiset: one index loop per n-gram order."""
    terms = Counter(stems)
    for i in range(len(stems) - 1):
        terms[f"{stems[i]} {stems[i + 1]}"] += 1
    for i in range(len(stems) - 2):
        terms[f"{stems[i]} {stems[i + 1]} {stems[i + 2]}"] += 1
    return terms


class TestExtractTerms:
    def test_bigram_example(self):
        terms = extract_terms(fuse_mwes(tokenize("linear thinking"), {}))
        assert dict(terms) == {"linear": 1, "think": 1, "linear think": 1}

    def test_single_token(self):
        terms = extract_terms(fuse_mwes(["patient"], {}))
        assert dict(terms) == {"patient": 1}

    def test_fused_terms(self):
        stems = fuse_mwes(["panic", "attack", "today"], PANIC_ATTACK)
        terms = extract_terms(stems)
        assert dict(terms) == {
            "panic_attack": 1,
            "todai": 1,
            "panic_attack todai": 1,
        }

    def test_multiset_counts_repeats(self):
        terms = extract_terms(fuse_mwes(["sad", "sad", "sad"], {}))
        assert terms["sad"] == 3
        assert terms["sad sad"] == 2
        assert terms["sad sad sad"] == 1

    def test_matches_loop_oracle(self):
        rng = random.Random(11)
        vocabulary = ["calm", "sad", "panic_attack", "todai", "a"]
        for _ in range(100):
            stems = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
            terms = extract_terms(stems)
            expected = loop_terms(stems)
            assert terms == expected
            assert list(terms.items()) == list(expected.items())

    def test_size_property(self):
        rng = random.Random(7)
        vocabulary = ["one", "two", "three", "four", "five"]
        for _ in range(50):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 15))]
            stems = fuse_mwes(words, {})
            u = len(stems)
            expected = u + max(0, u - 1) + max(0, u - 2)
            assert sum(extract_terms(stems).values()) == expected


def test_text_to_terms_composes():
    text = "Panic attack today!"
    terms = text_to_terms(text, PANIC_ATTACK)
    assert terms == extract_terms(fuse_mwes(tokenize(text), PANIC_ATTACK))


def in_vocabulary(terms, vocabulary):
    return {t: n for t, n in terms.items() if t in vocabulary.index}


class TestVocabularyPruning:
    # "a b c" is a term, but none of its words and neither of its bigrams is.
    VOCABULARY = Vocabulary(terms=("a b c", "d"), df=np.ones(2, dtype=np.int64))

    def test_words_are_the_words_of_the_terms(self):
        assert self.VOCABULARY.words == {"a", "b", "c", "d"}

    def test_trigram_of_non_terms_is_counted(self):
        terms = extract_terms(["x", "a", "b", "c", "d", "a", "b", "c"], self.VOCABULARY)
        assert in_vocabulary(terms, self.VOCABULARY) == {"a b c": 2, "d": 1}

    def test_no_ngram_through_an_unknown_word(self):
        terms = extract_terms(["a", "b", "x", "c", "d"], self.VOCABULARY)
        assert terms == Counter(["a", "b", "c", "d", "a b", "c d"])

    def test_matches_unpruned_on_vocabulary_terms(self):
        rng = random.Random(5)
        words = ["a", "b", "c", "d", "x", "y"]
        for _ in range(200):
            stems = [rng.choice(words) for _ in range(rng.randint(0, 12))]
            assert in_vocabulary(
                extract_terms(stems, self.VOCABULARY), self.VOCABULARY
            ) == in_vocabulary(extract_terms(stems), self.VOCABULARY)

    def test_words_unread_when_every_stem_is_a_term(self):
        vocabulary = Vocabulary(terms=("d", "d d"), df=np.ones(2, dtype=np.int64))
        terms = extract_terms(["d", "d", "d"], vocabulary)
        assert terms == extract_terms(["d", "d", "d"])
        assert "words" not in vars(vocabulary)
