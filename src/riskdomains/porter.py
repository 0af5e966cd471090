"""Porter suffix-stripping stemmer.

Implements the canonical algorithm (steps 1a through 5b) as distributed in
the author's reference implementation, including its three departures from
the 1980 paper: step 2 maps "bli" to "ble" instead of "abli" to "able",
step 2 gains the "logi" to "log" rule, and words of length <= 2 are
returned unchanged.

As in the paper, steps 1a, 1c, 2, 3, 4, 5a and 5b are rule tables:
(suffix, replacement) rows, longest suffix first, and a condition on the
stem left once the suffix is removed. _apply runs any of them: the first
listed suffix the word ends with decides the step, and the word keeps that
suffix unless the condition holds. Step 1b is the one step that is not a
table, because a removed -ed or -ing is followed by a clean-up of the stem.
The conditions read each letter as consonant or vowel from one left-to-right
pass over the stem, so a long run of y's costs time linear in its length.

All functions are pure; input words are expected to be lowercase.
porter_stem memoizes the most recently used STEM_CACHE_SIZE words, because
paragraphs repeat words far more often than they introduce new ones.
"""

from __future__ import annotations

import functools
from typing import Callable

_VOWELS = "aeiou"
# Distinct words porter_stem remembers: three times the 20 000-odd words of a
# large note set, and at about 150 bytes a word at most 10 MB.
STEM_CACHE_SIZE = 1 << 16


def _forms(word: str) -> str:
    """Each letter as "c" (consonant) or "v" (vowel), in one pass.

    y is a consonant at the start of the word or after a vowel, and a vowel
    after a consonant, so a run of y's alternates.
    """
    forms = []
    form = "v"  # so a leading y is a consonant
    for c in word:
        form = "v" if c in _VOWELS or (c == "y" and form == "c") else "c"
        forms.append(form)
    return "".join(forms)


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    return _forms(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _forms(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _forms(word)[-1] == "c"


def _ends_cvc(stem: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x or y."""
    return _forms(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return word[:-1] if _measure(stem) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix) and _contains_vowel(word[: -len(suffix)]):
            stem = word[: -len(suffix)]
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_consonant(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


_Condition = Callable[[str], bool]
_RuleTable = tuple[tuple[str, ...], dict[str, tuple[str, _Condition]]]


def _table(condition: _Condition, *rows: tuple) -> _RuleTable:
    """A step's suffixes in order, and each one's replacement and condition.

    A row is (suffix, replacement) under the step's condition, or
    (suffix, replacement, condition) under its own.
    """
    rules = {row[0]: (row[1], row[2] if len(row) == 3 else condition) for row in rows}
    return tuple(rules), rules


def _apply(word: str, table: _RuleTable) -> str:
    suffixes, rules = table
    if not word.endswith(suffixes):
        return word
    suffix = next(filter(word.endswith, suffixes))
    replacement, holds = rules[suffix]
    stem = word[: -len(suffix)]
    return stem + replacement if holds(stem) else word


def _m_above_0(stem: str) -> bool:
    return _measure(stem) > 0


def _m_above_1(stem: str) -> bool:
    return _measure(stem) > 1


def _drops_e(stem: str) -> bool:
    m = _measure(stem)
    return m > 1 or (m == 1 and not _ends_cvc(stem))


_STEP1A = _table(
    lambda stem: True, ("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")
)

_LATER_STEPS = (
    _table(_contains_vowel, ("y", "i")),  # step 1c
    _table(  # step 2
        _m_above_0,
        ("ational", "ate"),
        ("ization", "ize"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("tional", "tion"),
        ("biliti", "ble"),
        ("entli", "ent"),
        ("ousli", "ous"),
        ("alism", "al"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("ation", "ate"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("alli", "al"),
        ("ator", "ate"),
        ("logi", "log"),
        ("bli", "ble"),
        ("eli", "e"),
    ),
    _table(  # step 3
        _m_above_0,
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ness", ""),
        ("ful", ""),
    ),
    _table(  # step 4
        _m_above_1,
        ("ement", ""),
        ("ance", ""),
        ("ence", ""),
        ("able", ""),
        ("ible", ""),
        ("ment", ""),
        ("ant", ""),
        ("ent", ""),
        # No later suffix ends a word that ends in "ion", so a failing
        # "ion" may end the step.
        ("ion", "", lambda stem: stem.endswith(("s", "t")) and _m_above_1(stem)),
        ("ism", ""),
        ("ate", ""),
        ("iti", ""),
        ("ous", ""),
        ("ive", ""),
        ("ize", ""),
        ("al", ""),
        ("er", ""),
        ("ic", ""),
        ("ou", ""),
    ),
    _table(_drops_e, ("e", "")),  # step 5a
    _table(lambda stem: _measure(stem + "l") > 1, ("ll", "l")),  # step 5b
)


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    """Stem one lowercase word.

    Words of one or two letters are returned unchanged.
    """
    if len(word) <= 2:
        return word
    word = _step1b(_apply(word, _STEP1A))
    for table in _LATER_STEPS:
        word = _apply(word, table)
    return word
