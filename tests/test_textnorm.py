"""Tokenization, MWE fusion, and n-gram term extraction."""

import random
from collections import Counter

import numpy as np
import scipy.sparse as sp

from riskdomains.porter import porter_stem
from riskdomains.textnorm import (
    extract_terms,
    fuse_mwes,
    phrase_table,
    text_to_terms,
    tokenize,
)
from riskdomains.vectorspace import (
    TfidfModel,
    Vocabulary,
    fit_tfidf,
    vectorize_all,
    vectorize_texts,
)
from sparse_rows import as_csr


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


def tfidf_of(*terms):
    return TfidfModel(
        Vocabulary(terms=terms, df=np.ones(len(terms), dtype=np.int64)), corpus_size=1
    )


def csr_bits(matrix):
    return matrix.indptr.tolist(), matrix.indices.tolist(), matrix.data.tobytes()


def reference_bits(tfidf, table, texts):
    """The CSR of extracting every n-gram as a string."""
    return csr_bits(vectorize_all(tfidf, (text_to_terms(t, table) for t in texts)))


class TestVocabularyPruning:
    """classify's integer-key path counts exactly the vocabulary's terms."""

    # "a b c" is a term, but none of its words and neither of its bigrams is.
    # Words of at most two letters stem to themselves.
    TFIDF = tfidf_of("a b c", "d")

    def rows(self, texts, table=PANIC_ATTACK):
        """The key path's dense rows, after checking its bits."""
        matrix = vectorize_texts(self.TFIDF, table, texts)
        assert csr_bits(matrix) == reference_bits(self.TFIDF, table, texts)
        return as_csr(matrix).toarray()

    def test_words_are_the_words_of_the_terms(self):
        keys = self.TFIDF.vocabulary.key_table
        assert keys.word_ids == {"a": 1, "b": 2, "c": 3, "d": 4}
        assert keys.unknown == 5
        # "d" is 4 and "a b c" is (1 * 6 + 2) * 6 + 3, in base 6.
        assert keys.keys.tolist() == [4, 51]
        assert keys.columns.tolist() == [1, 0]

    def test_trigram_of_non_terms_is_counted(self):
        # Both terms have the same idf, so the row is (2, 1) normalized.
        rows = self.rows(["x a b c d a b c"])
        assert np.allclose(rows, [[2 / 5**0.5, 1 / 5**0.5]], rtol=0, atol=1e-15)

    def test_no_ngram_through_an_unknown_word(self):
        assert self.rows(["a b x c d", "a x b c"]).tolist() == [[0, 1], [0, 0]]

    def test_no_ngram_or_phrase_across_two_texts(self):
        # "a b c" spans the texts, and so would the phrase "c d".
        table = phrase_table([phrase("c", "d")])
        tfidf = tfidf_of("a b c", "c_d", "d")
        texts = ["a b", "c", "d", "c d"]
        matrix = vectorize_texts(tfidf, table, texts)
        assert csr_bits(matrix) == reference_bits(tfidf, table, texts)
        assert matrix.indptr.tolist() == [0, 0, 0, 1, 2]
        assert matrix.indices.tolist() == [2, 1]

    def test_empty_and_all_unknown_texts(self):
        texts = ["", "x y z", "  ", "d", "zzyzx qwfp"]
        matrix = vectorize_texts(self.TFIDF, {}, texts)
        assert csr_bits(matrix) == reference_bits(self.TFIDF, {}, texts)
        assert np.diff(matrix.indptr).tolist() == [0, 0, 0, 1, 0]
        assert vectorize_texts(self.TFIDF, {}, []).shape == (0, 2)

    def test_fused_stems(self):
        tfidf = tfidf_of("panic_attack", "panic_attack todai", "todai")
        texts = ["Panic attack today!", "panic, today; attack", "today panic attack"]
        matrix = vectorize_texts(tfidf, PANIC_ATTACK, texts)
        assert csr_bits(matrix) == reference_bits(tfidf, PANIC_ATTACK, texts)
        assert matrix.indices.tolist() == [0, 1, 2, 2, 0, 2]

    def test_chunk_equals_stacked_single_texts(self):
        texts = ["a b c", "", "d a b c x", "x", "a b c d"]
        chunk = vectorize_texts(self.TFIDF, {}, texts)
        singles = sp.vstack(
            [as_csr(vectorize_texts(self.TFIDF, {}, [t])) for t in texts]
        )
        assert csr_bits(chunk) == csr_bits(singles.tocsr())

    def test_matches_unpruned_on_vocabulary_terms(self):
        rng = random.Random(5)
        words = ["a", "b", "c", "d", "x", "y"]
        tfidf = tfidf_of("a b c", "a d", "b", "c c", "d", "d x y")
        texts = [
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 12)))
            for _ in range(200)
        ]
        expected = reference_bits(tfidf, {}, texts)
        assert csr_bits(vectorize_texts(tfidf, {}, texts)) == expected
        for i in range(0, 200, 37):
            assert csr_bits(vectorize_texts(tfidf, {}, texts[i : i + 37])) == (
                reference_bits(tfidf, {}, texts[i : i + 37])
            )

    def test_key_table_built_on_first_use_only(self):
        docs = [text_to_terms("d d d", {})]
        tfidf = fit_tfidf(docs)
        vectorize_all(tfidf, docs)
        assert "key_table" not in vars(tfidf.vocabulary)
        first = vectorize_texts(tfidf, {}, ["d d d"])
        keys = tfidf.vocabulary.key_table
        assert csr_bits(vectorize_texts(tfidf, {}, ["d d d"])) == csr_bits(first)
        assert tfidf.vocabulary.key_table is keys
