"""Raw paragraph text to stemmed, phrase-fused term sequences.

The normalization order matters: multiword expressions are matched on the
unstemmed lowercase word sequence, then fused into single underscore-joined
stems that bypass stemming, and only the remaining words are stemmed.
Uni/bi/trigram term multisets are built over the post-fusion stem sequence.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import DataError
from .porter import porter_stem

_WORD_RE = re.compile(r"[a-z]+")

MWE_JOINER = "_"


@dataclass(frozen=True)
class MwePhrase:
    """A multiword expression owned by one risk-factor domain."""

    words: tuple[str, ...]
    domain: str

    def __post_init__(self):
        if len(self.words) < 2:
            raise DataError(f"MWE phrase needs at least 2 words: {self.words!r}")
        if any(not w for w in self.words):
            raise DataError(f"MWE phrase contains an empty word: {self.words!r}")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase words.

    Maximal runs of ASCII letters, lowercased; digits and punctuation act
    as separators. Empty or whitespace input yields an empty list.
    """
    return _WORD_RE.findall(text.lower())


def fuse_mwes(words: list[str], phrases: list[MwePhrase]) -> list[str]:
    """Fuse phrase occurrences into single stems and stem the rest.

    Matching is longest-match, left-to-right, non-overlapping, on the
    unstemmed lowercase words. Fused phrases join their words with "_" and
    are not stemmed.
    """
    phrase_set = {p.words for p in phrases}
    lengths = sorted({len(p) for p in phrase_set}, reverse=True)
    stems: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        fused = False
        for length in lengths:
            candidate = tuple(words[i : i + length])
            if len(candidate) == length and candidate in phrase_set:
                stems.append(MWE_JOINER.join(candidate))
                i += length
                fused = True
                break
        if not fused:
            stems.append(porter_stem(words[i]))
            i += 1
    return stems


def extract_terms(stems: list[str]) -> Counter:
    """Uni/bi/trigram multiset over a post-fusion stem sequence.

    Bigrams and trigrams are space-joined consecutive stems.
    """
    terms: Counter = Counter(stems)
    for i in range(len(stems) - 1):
        terms[f"{stems[i]} {stems[i + 1]}"] += 1
    for i in range(len(stems) - 2):
        terms[f"{stems[i]} {stems[i + 1]} {stems[i + 2]}"] += 1
    return terms


def text_to_terms(text: str, phrases: list[MwePhrase]) -> Counter:
    """Full normalization: tokenize, fuse MWEs, stem, extract n-gram terms."""
    return extract_terms(fuse_mwes(tokenize(text), phrases))
