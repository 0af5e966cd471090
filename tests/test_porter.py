"""Stemmer tests against a frozen reference vocabulary.

The data file was produced with an independent port of the canonical
algorithm, so these tests catch any drift in the in-tree implementation.
"""

from pathlib import Path

import pytest

from riskdomains.porter import STEM_CACHE_SIZE, porter_stem

REFERENCE = Path(__file__).parent / "data" / "porter_reference.txt"


def load_reference():
    pairs = []
    for line in REFERENCE.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        word, stem = line.split()
        pairs.append((word, stem))
    return pairs


def test_reference_vocabulary_exact():
    pairs = load_reference()
    assert len(pairs) >= 500
    mismatches = [
        (word, expected, porter_stem(word))
        for word, expected in pairs
        if porter_stem(word) != expected
    ]
    assert mismatches == []


def test_stem_cache_is_bounded_and_transparent():
    assert porter_stem.cache_info().maxsize == STEM_CACHE_SIZE
    for word, _ in load_reference():
        assert porter_stem(word) == porter_stem.__wrapped__(word)


@pytest.mark.parametrize(
    "word,stem",
    [
        ("caresses", "caress"),
        ("sky", "sky"),
        ("hallucinations", "hallucin"),
        ("ponies", "poni"),
        ("cats", "cat"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("hopping", "hop"),
        ("happy", "happi"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("feeling", "feel"),
        ("anxious", "anxiou"),
        ("depressed", "depress"),
        ("suicidal", "suicid"),
        ("ideation", "ideat"),
    ],
)
def test_known_pairs(word, stem):
    assert porter_stem(word) == stem


def test_short_words_unchanged():
    # Words of length <= 2 are returned as-is by the canonical algorithm.
    for word in ["a", "is", "be", "on", "it", "pt"]:
        assert porter_stem(word) == word


def test_output_is_lowercase_alpha():
    for word, _ in load_reference()[:100]:
        stem = porter_stem(word)
        assert stem == stem.lower()
        assert stem.isalpha()
