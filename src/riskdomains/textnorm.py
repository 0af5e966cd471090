"""Raw paragraph text to stemmed, phrase-fused term sequences.

The normalization order matters: multiword expressions are matched on the
unstemmed lowercase word sequence, then fused into single underscore-joined
stems that bypass stemming, and only the remaining words are stemmed.
fuse_mwes stems a word sequence that holds no phrase's first word in one map,
without trying a phrase. Uni/bi/trigram term multisets are built over the
post-fusion stem sequence; training counts them as strings.

Classify builds no term strings: vectorspace.vectorize_texts maps each stem
to its id in the vocabulary's key table (vectorspace.KeyTable), so its
n-grams are integer keys.

A phrase is a tuple of words. fuse_mwes reads its phrases from a table that
phrase_table builds once per lexicon (corpus.KeywordLexicon.fusion).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable

from .porter import porter_stem

_WORD_RE = re.compile(r"[a-z]+")

MWE_JOINER = "_"

PhraseTable = dict[str, list[tuple[str, ...]]]


def tokenize(text: str) -> list[str]:
    """Split text into lowercase words.

    Maximal runs of ASCII letters, lowercased; digits and punctuation act
    as separators. Empty or whitespace input yields an empty list.
    """
    return _WORD_RE.findall(text.lower())


def phrase_table(phrases: Iterable[tuple[str, ...]]) -> PhraseTable:
    """Each distinct phrase under its first word, longest first.

    fuse_mwes tries a word's phrases in this order, so the first that
    matches is the longest.
    """
    table: PhraseTable = {}
    for phrase in sorted(dict.fromkeys(phrases), key=len, reverse=True):
        table.setdefault(phrase[0], []).append(phrase)
    return table


def fuse_mwes(words: list[str], table: PhraseTable) -> list[str]:
    """Fuse phrase occurrences into single stems and stem the rest.

    Matching is longest-match, left-to-right, non-overlapping, on the
    unstemmed lowercase words. Fused phrases join their words with "_" and
    are not stemmed. Only a word that begins some phrase of the table is
    tried as the start of one, and a sequence that holds no phrase's first
    word is stemmed in one map.
    """
    if table.keys().isdisjoint(words):
        return list(map(porter_stem, words))
    stems: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        for candidate in table.get(words[i], ()):
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


def text_to_terms(text: str, table: PhraseTable) -> Counter:
    """Full normalization: tokenize, fuse MWEs, stem, extract n-gram terms."""
    return extract_terms(fuse_mwes(tokenize(text), table))
