"""Weak labeling, megadocuments, the synthetic generator, and file formats."""

import json
from collections import Counter

import pytest

from riskdomains.corpus import (
    AnnotatedParagraph,
    KeywordLexicon,
    Paragraph,
    default_synthetic_config,
    generate_synthetic_corpus,
    lexicon_hits,
    load_gold,
    load_lexicon,
    load_paragraphs,
    require_field,
    validate_labels,
    weak_label,
    write_gold,
    write_lexicon,
    write_paragraphs,
)
from riskdomains.corpus import build_megadocuments
from riskdomains.domains import CLASSIFIED_DOMAINS, Domain
from riskdomains.errors import ConfigError, DataError
from riskdomains.evaluation import write_annotations
from riskdomains.porter import porter_stem
from riskdomains.textnorm import extract_terms, text_to_terms, tokenize


def tiny_lexicon():
    entries = {
        Domain.APPEARANCE: (["disheveled"], []),
        Domain.THOUGHT_CONTENT: (["delusion"], []),
        Domain.INTERPERSONAL: (["roommate"], []),
        Domain.MOOD: (["anxious"], [("feeling", "down")]),
        Domain.OCCUPATION: (["job"], []),
        Domain.THOUGHT_PROCESS: (["tangential"], []),
        Domain.SUBSTANCE: (
            ["cocaine", "marijuana"],
            [("getting", "high")],
        ),
    }
    return KeywordLexicon(entries)


class TestWeakLabel:
    def test_substance_example(self):
        paragraph = Paragraph(
            id="p1",
            text="Patient used marijuana once which he believes triggered "
            "the current episode.",
        )
        corpus = weak_label([paragraph], tiny_lexicon())
        assert corpus.entries == [(paragraph, Domain.SUBSTANCE)]

    def test_no_hits_excluded(self):
        paragraph = Paragraph(id="p1", text="Nothing relevant here at all.")
        assert weak_label([paragraph], tiny_lexicon()).entries == []

    def test_tie_excluded(self):
        paragraph = Paragraph(id="p1", text="anxious about marijuana")
        assert weak_label([paragraph], tiny_lexicon()).entries == []

    def test_keyphrase_breaks_tie(self):
        # 1 Mood keyword + 1 Mood phrase vs 1 Substance keyword.
        paragraph = Paragraph(id="p1", text="anxious, feeling down, marijuana")
        corpus = weak_label([paragraph], tiny_lexicon())
        assert corpus.entries == [(paragraph, Domain.MOOD)]

    def test_phrase_matching_is_pre_stemming(self):
        # "getting high" only matches as the raw word sequence.
        paragraph = Paragraph(id="p1", text="He admitted getting high daily.")
        corpus = weak_label([paragraph], tiny_lexicon())
        assert corpus.entries == [(paragraph, Domain.SUBSTANCE)]

    def test_never_other_and_order_invariant(self):
        paragraphs = [
            Paragraph(id=f"p{i}", text=text)
            for i, text in enumerate(
                ["marijuana use", "anxious today", "roommate conflict", "no match"]
            )
        ]
        forward = weak_label(paragraphs, tiny_lexicon())
        backward = weak_label(paragraphs[::-1], tiny_lexicon())
        assert all(d is not Domain.OTHER for _, d in forward.entries)
        assert sorted((p.id, d.value) for p, d in forward.entries) == sorted(
            (p.id, d.value) for p, d in backward.entries
        )

    def test_empty_domain_lexicon_rejected(self):
        entries = {d: (["word"], []) for d in CLASSIFIED_DOMAINS}
        entries[Domain.MOOD] = ([], [])
        with pytest.raises(ConfigError):
            weak_label([Paragraph(id="p", text="word")], KeywordLexicon(entries))

    def test_lexicon_hits_counts_occurrences(self):
        hits = lexicon_hits(
            tokenize("marijuana and cocaine and marijuana"), tiny_lexicon()
        )
        assert hits[Domain.SUBSTANCE] == 3
        assert hits[Domain.MOOD] == 0


    def test_lexicon_hits_matches_per_entry_oracle(self, small_corpus):
        paragraphs, _, lexicon = small_corpus
        for lex in (lexicon, lexicon.without_keyphrases()):
            for paragraph in paragraphs:
                words = tokenize(paragraph.text)
                assert lexicon_hits(words, lex) == oracle_hits(words, lex)

    def test_phrase_counts_do_not_overlap_themselves(self):
        # "feeling feeling" fits once in "feeling feeling feeling" without
        # overlapping itself; "feeling down" and the keyword overlap it and
        # still count.
        lexicon = KeywordLexicon({
            Domain.MOOD: (
                [],
                [
                    ("feeling", "feeling"),
                    ("feeling", "down"),
                ],
            ),
            Domain.SUBSTANCE: (
                ["feeling"], [("feeling", "feeling")]
            ),
        })
        words = tokenize("feeling feeling feeling down")
        hits = lexicon_hits(words, lexicon)
        assert hits[Domain.MOOD] == 2
        assert hits[Domain.SUBSTANCE] == 4
        assert hits == oracle_hits(words, lexicon)


def oracle_hits(words, lexicon):
    """Reference hit counts: every keyword occurrence, plus each phrase's own
    non-overlapping left-to-right count, one pass per phrase."""

    def count(phrase):
        n = i = 0
        while i + len(phrase) <= len(words):
            if tuple(words[i : i + len(phrase)]) == phrase:
                n += 1
                i += len(phrase)
            else:
                i += 1
        return n

    return {
        d: sum(w in lexicon.keywords[d] for w in words)
        + sum(count(p) for p in lexicon.keyphrases[d])
        for d in CLASSIFIED_DOMAINS
    }


class TestLexiconTables:
    def lexicon(self):
        return KeywordLexicon({
            Domain.MOOD: (["low"], [("train", "of"), ("panic", "attack")]),
            Domain.THOUGHT_PROCESS: (["low"], [("train", "of", "thought")]),
            Domain.SUBSTANCE: ([], [("panic", "disorder")]),
        })

    def test_fusion_is_longest_first_by_first_word(self):
        assert self.lexicon().fusion == {
            "train": [("train", "of", "thought"), ("train", "of")],
            "panic": [("panic", "attack"), ("panic", "disorder")],
        }

    def test_hit_table_lists_each_entry_with_its_domains(self):
        assert self.lexicon().hit_table == {
            ("low",): [Domain.MOOD, Domain.THOUGHT_PROCESS],
            ("train", "of"): [Domain.MOOD],
            ("panic", "attack"): [Domain.MOOD],
            ("train", "of", "thought"): [Domain.THOUGHT_PROCESS],
            ("panic", "disorder"): [Domain.SUBSTANCE],
        }

    def test_keyword_only_copy_fuses_nothing(self):
        keyword_only = self.lexicon().without_keyphrases()
        assert keyword_only.fusion == {}
        assert keyword_only.hit_table == {
            ("low",): [Domain.MOOD, Domain.THOUGHT_PROCESS]
        }

    def test_text_to_terms_matches_per_paragraph_oracle(self, small_corpus):
        paragraphs, _, lexicon = small_corpus
        phrases = [p for d in CLASSIFIED_DOMAINS for p in lexicon.keyphrases[d]]
        for paragraph in paragraphs:
            assert text_to_terms(paragraph.text, lexicon.fusion) == oracle_terms(
                paragraph.text, phrases
            )


def oracle_terms(text, phrases):
    """Reference terms: at each word, the longest of all phrases that matches,
    found by trying every phrase there."""
    words = tokenize(text)
    stems = []
    i = 0
    while i < len(words):
        matches = [p for p in phrases if tuple(words[i : i + len(p)]) == p]
        if matches:
            longest = max(matches, key=len)
            stems.append("_".join(longest))
            i += len(longest)
        else:
            stems.append(porter_stem(words[i]))
            i += 1
    return extract_terms(stems)


class TestMegadocuments:
    def build_corpus(self, counts):
        texts = {
            Domain.APPEARANCE: "disheveled",
            Domain.THOUGHT_CONTENT: "delusion",
            Domain.INTERPERSONAL: "roommate",
            Domain.MOOD: "anxious",
            Domain.OCCUPATION: "job",
            Domain.THOUGHT_PROCESS: "tangential",
            Domain.SUBSTANCE: "marijuana",
        }
        paragraphs = []
        for domain, n in counts.items():
            for i in range(n):
                paragraphs.append(
                    Paragraph(id=f"{domain.value}-{i}", text=texts[domain])
                )
        return weak_label(paragraphs, tiny_lexicon())

    def megadocuments(self, corpus):
        term_docs = [text_to_terms(p.text, {}) for p, _ in corpus.entries]
        return build_megadocuments(corpus, term_docs)

    def test_counts_and_id_union(self):
        counts = {d: 1 for d in CLASSIFIED_DOMAINS}
        counts[Domain.SUBSTANCE] = 2
        corpus = self.build_corpus(counts)
        megadocs = self.megadocuments(corpus)
        assert len(megadocs) == 7
        assert megadocs[Domain.SUBSTANCE] == {"marijuana": 2}
        total = sum(megadocs.values(), Counter())
        assert total == sum(
            (text_to_terms(p.text, {}) for p, _ in corpus.entries), Counter()
        )

    def test_one_paragraph_each(self):
        corpus = self.build_corpus({d: 1 for d in CLASSIFIED_DOMAINS})
        megadocs = self.megadocuments(corpus)
        for paragraph, domain in corpus.entries:
            assert megadocs[domain] == text_to_terms(paragraph.text, {})

    def test_empty_domain_is_named(self):
        counts = {d: 1 for d in CLASSIFIED_DOMAINS}
        counts[Domain.MOOD] = 0
        corpus = self.build_corpus(counts)
        with pytest.raises(DataError, match="Mood"):
            self.megadocuments(corpus)

    def test_empty_corpus(self):
        corpus = self.build_corpus({d: 0 for d in CLASSIFIED_DOMAINS})
        with pytest.raises(DataError):
            self.megadocuments(corpus)


class TestSyntheticGenerator:
    def test_deterministic(self):
        config = default_synthetic_config(8, 2, 4)
        first = generate_synthetic_corpus(config, seed=5)
        second = generate_synthetic_corpus(config, seed=5)
        assert [p.text for p in first[0]] == [p.text for p in second[0]]
        assert [g.labels for g in first[1]] == [g.labels for g in second[1]]

    def test_seed_changes_output(self):
        config = default_synthetic_config(8, 2, 4)
        one = generate_synthetic_corpus(config, seed=1)
        two = generate_synthetic_corpus(config, seed=2)
        assert [p.text for p in one[0]] != [p.text for p in two[0]]

    def test_label_counts_exact(self):
        config = default_synthetic_config(10, 3, 6)
        _, gold, _ = generate_synthetic_corpus(config, seed=9)
        primary = [g.labels[0] for g in gold]
        for domain in CLASSIFIED_DOMAINS:
            assert primary.count(domain) == 10
        assert primary.count(Domain.OTHER) == 6
        multilabel = [g for g in gold if len(g.labels) == 2]
        assert len(multilabel) == 7 * 3

    def test_every_label_backed_by_domain_signal(self):
        config = default_synthetic_config(10, 3, 4)
        paragraphs, gold, _ = generate_synthetic_corpus(config, seed=11)
        by_id = {p.id: p for p in paragraphs}
        for record in gold:
            words = tokenize(by_id[record.paragraph.id].text)
            for domain in record.labels:
                if domain is Domain.OTHER:
                    continue
                pool_hit = any(w in config.domain_words[domain] for w in words)
                joined = " ".join(words)
                phrase_hit = any(
                    " ".join(p) in joined for p in config.domain_phrases[domain]
                )
                assert pool_hit or phrase_hit, (record.paragraph.id, domain)

    def test_other_paragraphs_carry_no_domain_words(self):
        config = default_synthetic_config(6, 1, 8)
        paragraphs, gold, _ = generate_synthetic_corpus(config, seed=13)
        by_id = {p.id: p for p in paragraphs}
        domain_vocabulary = {
            w for pool in config.domain_words.values() for w in pool
        }
        for record in gold:
            if record.labels != (Domain.OTHER,):
                continue
            words = set(tokenize(by_id[record.paragraph.id].text))
            assert not words & domain_vocabulary

    def test_mwe_rich_paragraphs_have_no_keywords(self):
        # A slice of single-label paragraphs must rely on phrases alone, so
        # the ablation without fusion genuinely loses them.
        config = default_synthetic_config(20, 2, 4)
        paragraphs, gold, lexicon = generate_synthetic_corpus(config, seed=17)
        by_id = {p.id: p for p in paragraphs}
        keyword_free = 0
        for record in gold:
            if len(record.labels) != 1 or record.labels[0] is Domain.OTHER:
                continue
            words = tokenize(by_id[record.paragraph.id].text)
            hits = lexicon_hits(words, lexicon.without_keyphrases())
            if all(v == 0 for v in hits.values()):
                keyword_free += 1
        assert keyword_free >= 7 * 20 * 0.25  # about half of 18 per domain

    def test_weak_labels_recover_gold_primary(self):
        config = default_synthetic_config(10, 2, 5)
        paragraphs, gold, lexicon = generate_synthetic_corpus(config, seed=23)
        corpus = weak_label(paragraphs, lexicon)
        labels = {p.id: d for p, d in corpus.entries}
        for record in gold:
            if record.labels == (Domain.OTHER,):
                assert record.paragraph.id not in labels
            else:
                assert labels[record.paragraph.id] == record.labels[0]


class TestValidation:
    def test_paragraph_empty_text(self):
        with pytest.raises(DataError):
            Paragraph(id="p", text="")

    def test_label_rules(self):
        validate_labels("x", (Domain.MOOD, Domain.SUBSTANCE))
        with pytest.raises(DataError):
            validate_labels("x", ())
        with pytest.raises(DataError):
            validate_labels("x", (Domain.MOOD, Domain.MOOD))
        with pytest.raises(DataError):
            validate_labels("x", (Domain.OTHER, Domain.MOOD))

    def test_annotated_paragraph_checks_labels(self):
        paragraph = Paragraph(id="p", text="text")
        with pytest.raises(DataError):
            AnnotatedParagraph(paragraph=paragraph, labels=(Domain.OTHER, Domain.MOOD))

    @pytest.mark.parametrize("word", ["Anxious", "self-harm", "mood2", "", "a b"])
    def test_keyword_must_be_a_word_tokenize_gives(self, word):
        with pytest.raises(ConfigError, match="not a run of letters a-z"):
            KeywordLexicon({Domain.MOOD: ([word], [])})

    @pytest.mark.parametrize("word", ["Down", "self-harm", "mood2", ""])
    def test_keyphrase_words_must_be_words_tokenize_gives(self, word):
        phrase = ("low", word)
        with pytest.raises(ConfigError, match="not a run of letters a-z"):
            KeywordLexicon({Domain.MOOD: ([], [phrase])})

    @pytest.mark.parametrize("phrase", [("solo",), ()], ids=["one_word", "no_word"])
    def test_keyphrase_needs_two_words(self, phrase):
        with pytest.raises(ConfigError, match="of Mood has fewer than 2 words"):
            KeywordLexicon({Domain.MOOD: ([], [phrase])})


class TestRequireField:
    def test_missing_field_is_named(self):
        with pytest.raises(DataError, match="here: missing field 'k'"):
            require_field({}, "k", "here")

    @pytest.mark.parametrize(
        "value, expected",
        [(True, int), (1, bool), ("1", float), (1.5, int), (None, str), ([], dict)],
    )
    def test_other_json_type_is_refused(self, value, expected):
        with pytest.raises(DataError, match="here: field 'k' must be"):
            require_field({"k": value}, "k", "here", expected)

    def test_int_read_as_number_is_a_float(self):
        value = require_field({"k": 2}, "k", "here", float)
        assert value == 2.0 and type(value) is float

    def test_value_is_returned_as_is(self):
        table = {"a": 1}
        assert require_field({"k": table}, "k", "here", dict) is table
        assert require_field({"k": None}, "k", "here") is None


class TestFileFormats:
    def test_paragraph_round_trip(self, tmp_path):
        paragraphs = [
            Paragraph(id="a", text="First paragraph.", source="synthetic"),
            Paragraph(id="b", text="Second one.", source="training"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_paragraphs(path, paragraphs)
        assert load_paragraphs(path) == paragraphs

    def test_duplicate_paragraph_ids_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = json.dumps({"id": "a", "text": "x", "source": "synthetic"})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DataError):
            load_paragraphs(path)

    def test_json_lines_writers_bytes(self, tmp_path):
        paragraph = Paragraph(id="a", text="caf\u00e9 \"x\"", source="synthetic")
        write_paragraphs(tmp_path / "corpus.jsonl", [paragraph])
        gold = [AnnotatedParagraph(paragraph, (Domain.MOOD, Domain.SUBSTANCE))]
        write_gold(tmp_path / "gold.jsonl", gold)
        write_annotations(
            tmp_path / "annotations.jsonl", {"a": [[Domain.MOOD], [Domain.OTHER]]}
        )
        assert (tmp_path / "corpus.jsonl").read_bytes() == (
            b'{"id": "a", "text": "caf\\u00e9 \\"x\\"", "source": "synthetic"}\n'
        )
        assert (tmp_path / "gold.jsonl").read_bytes() == (
            b'{"id": "a", "labels": ["Mood", "Substance"]}\n'
        )
        assert (tmp_path / "annotations.jsonl").read_bytes() == (
            b'{"id": "a", "annotators": [["Mood"], ["Other"]]}\n'
        )

    def test_gold_round_trip(self, tmp_path):
        paragraphs = [Paragraph(id="a", text="t"), Paragraph(id="b", text="t")]
        gold = [
            AnnotatedParagraph(paragraphs[0], (Domain.MOOD, Domain.SUBSTANCE)),
            AnnotatedParagraph(paragraphs[1], (Domain.OTHER,)),
        ]
        path = tmp_path / "gold.jsonl"
        write_gold(path, gold)
        loaded = load_gold(path)
        assert loaded == {
            "a": [Domain.MOOD, Domain.SUBSTANCE],
            "b": [Domain.OTHER],
        }

    def test_gold_bad_domain_name(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "a", "labels": ["Moods"]}) + "\n")
        with pytest.raises(DataError):
            load_gold(path)

    def test_lexicon_round_trip(self, tmp_path):
        lexicon = tiny_lexicon()
        path = tmp_path / "lexicon.json"
        write_lexicon(path, lexicon)
        loaded = load_lexicon(path)
        assert loaded.keywords == lexicon.keywords
        assert loaded.keyphrases == lexicon.keyphrases

    def test_malformed_jsonl_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(DataError, match="2"):
            load_paragraphs(path)
