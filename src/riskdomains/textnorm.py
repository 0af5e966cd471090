"""Raw paragraph text to stemmed, phrase-fused term sequences.

The normalization order matters: multiword expressions are matched on the
unstemmed lowercase word sequence, then fused into single underscore-joined
stems that bypass stemming, and only the remaining words are stemmed.
Uni/bi/trigram term multisets are built over the post-fusion stem sequence.

Given a vocabulary, extract_terms builds no n-gram that holds a stem outside
every vocabulary term (Vocabulary.words), since no such n-gram can be a
term; the counts of the terms the vocabulary holds are unchanged. A stem
sequence whose every stem is itself a term is extracted in full, without
reading words.

A phrase is a tuple of words. fuse_mwes reads its phrases from a table that
phrase_table builds once per lexicon (corpus.KeywordLexicon.fusion).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .porter import porter_stem

if TYPE_CHECKING:
    from .vectorspace import Vocabulary

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
    tried as the start of one.
    """
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


def extract_terms(stems: list[str], vocabulary: Vocabulary | None = None) -> Counter:
    """Uni/bi/trigram multiset over a post-fusion stem sequence.

    Bigrams and trigrams are space-joined consecutive stems. Given a
    vocabulary, an n-gram through a stem outside vocabulary.words is left
    out: the counts of vocabulary terms are the same, and fewer strings are
    built for a text whose words the vocabulary never saw.
    """
    if vocabulary is not None and not all(map(vocabulary.index.__contains__, stems)):
        words = vocabulary.words
        # None marks a stem that no vocabulary term contains; stems are
        # never empty, so truth tests tell the two apart.
        kept = [s if s in words else None for s in stems]
        terms = list(filter(None, kept))
        terms += [f"{a} {b}" for a, b in zip(kept, kept[1:]) if a and b]
        terms += [
            f"{a} {b} {c}" for a, b, c in zip(kept, kept[1:], kept[2:]) if a and b and c
        ]
        return Counter(terms)
    bigrams = [f"{a} {b}" for a, b in zip(stems, stems[1:])]
    trigrams = [f"{a} {b} {c}" for a, b, c in zip(stems, stems[1:], stems[2:])]
    return Counter(stems + bigrams + trigrams)


def text_to_terms(
    text: str, table: PhraseTable, vocabulary: Vocabulary | None = None
) -> Counter:
    """Full normalization: tokenize, fuse MWEs, stem, extract n-gram terms.

    With a vocabulary, only n-grams it could hold are built (extract_terms).
    """
    return extract_terms(fuse_mwes(tokenize(text), table), vocabulary)
