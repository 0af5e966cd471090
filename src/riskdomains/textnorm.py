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
    are not stemmed. Only a word that begins some phrase is tried as the
    start of one.
    """
    # Phrases by their first word, longest first: the first match is longest.
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for phrase in sorted({p.words for p in phrases}, key=len, reverse=True):
        by_first.setdefault(phrase[0], []).append(phrase)
    stems: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        for candidate in by_first.get(words[i], ()):
            if tuple(words[i : i + len(candidate)]) == candidate:
                stems.append(MWE_JOINER.join(candidate))
                i += len(candidate)
                break
        else:
            stems.append(porter_stem(words[i]))
            i += 1
    return stems


def extract_terms(stems: list[str]) -> Counter:
    """Uni/bi/trigram multiset over a post-fusion stem sequence.

    Bigrams and trigrams are space-joined consecutive stems.
    """
    bigrams = [f"{a} {b}" for a, b in zip(stems, stems[1:])]
    trigrams = [f"{a} {b} {c}" for a, b, c in zip(stems, stems[1:], stems[2:])]
    return Counter(stems + bigrams + trigrams)


def text_to_terms(text: str, phrases: list[MwePhrase]) -> Counter:
    """Full normalization: tokenize, fuse MWEs, stem, extract n-gram terms."""
    return extract_terms(fuse_mwes(tokenize(text), phrases))
