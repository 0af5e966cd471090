"""Porter suffix-stripping stemmer.

Implements the canonical algorithm (steps 1a through 5b) as distributed in
the author's reference implementation, including its three departures from
the 1980 paper: step 2 maps "bli" to "ble" instead of "abli" to "able",
step 2 gains the "logi" to "log" rule, and words of length <= 2 are
returned unchanged.

All functions are pure; input words are expected to be lowercase.
porter_stem memoizes the most recently used STEM_CACHE_SIZE words, because
paragraphs repeat words far more often than they introduce new ones.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"
# Distinct words porter_stem remembers: three times the 20 000-odd words of a
# large note set, and at about 150 bytes a word at most 10 MB.
STEM_CACHE_SIZE = 1 << 16


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a consonant at the start of a word or after a vowel
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    in_vowel_run = False
    for i in range(len(stem)):
        if not _is_consonant(stem, i):
            in_vowel_run = True
        elif in_vowel_run:
            m += 1
            in_vowel_run = False
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x or y."""
    n = len(stem)
    return (
        n >= 3
        and _is_consonant(stem, n - 3)
        and not _is_consonant(stem, n - 2)
        and _is_consonant(stem, n - 1)
        and stem[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-3] + "i"
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


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


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# Ordered longest suffix first; the first matching suffix consumes the step
# even when its measure condition fails, as in the reference implementation.
_STEP2_RULES = (
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
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _step2(word: str) -> str:
    for suffix, repl in _STEP2_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step3(word: str) -> str:
    for suffix, repl in _STEP3_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue  # "ion" only strips after s or t; keep scanning
            return stem if _measure(stem) > 1 else word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("l") and _ends_double_consonant(word) and _measure(word[:-1]) > 1:
        return word[:-1]
    return word


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    """Stem one lowercase word.

    Words of one or two letters are returned unchanged.
    """
    if len(word) <= 2:
        return word
    for step in (
        _step1a,
        _step1b,
        _step1c,
        _step2,
        _step3,
        _step4,
        _step5a,
        _step5b,
    ):
        word = step(word)
    return word
