"""Seeded input generation for the benchmark workloads.

Every corpus comes from the package's own synthetic generator, so the
program under test receives ordinary JSONL files. The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import random
import string
from pathlib import Path

# Sub-seed offsets keep the training corpora, the held-out corpus and the
# pseudo-word pool of one run independent of each other. Training corpus i
# of seed s has seed s + i * TRAIN_STRIDE.
HELD_OUT_OFFSET = 7919
POOL_OFFSET = 104729
TRAIN_STRIDE = 1_000_003

STD_COUNTS = dict(paragraphs_per_domain=200, multilabel_per_domain=30, other_paragraphs=100)
BULK_COUNTS = dict(paragraphs_per_domain=2000, multilabel_per_domain=300, other_paragraphs=1000)
PSEUDO_WORDS = 20_000


def pseudo_words(n: int, seed: int, reserved: set[str]) -> tuple[str, ...]:
    """n distinct lowercase letter strings, none of them in reserved."""
    rng = random.Random(seed)
    letters = string.ascii_lowercase
    out: set[str] = set()
    while len(out) < n:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(5, 10)))
        if word not in reserved:
            out.add(word)
    return tuple(sorted(out))


def synth_config(counts: dict, noise_seed: int | None = None, pseudo: int = PSEUDO_WORDS):
    """The default synthetic config; with noise_seed, a wide pseudo-word noise pool."""
    from riskdomains.corpus import default_synthetic_config

    config = default_synthetic_config(**counts)
    if noise_seed is None:
        return config
    reserved = set(config.noise_words)
    for words in config.domain_words.values():
        reserved.update(words)
    extra = pseudo_words(pseudo, noise_seed, reserved)
    return dataclasses.replace(config, noise_words=config.noise_words + extra)


def write_corpus(directory: Path, name: str, config, seed: int) -> dict:
    """Generate one corpus and write corpus, gold and lexicon files."""
    from riskdomains.corpus import (
        generate_synthetic_corpus,
        write_gold,
        write_lexicon,
        write_paragraphs,
    )

    paragraphs, gold, lexicon = generate_synthetic_corpus(config, seed)
    files = {
        "corpus": directory / f"{name}.corpus.jsonl",
        "gold": directory / f"{name}.gold.jsonl",
        "lexicon": directory / f"{name}.lexicon.json",
    }
    write_paragraphs(files["corpus"], paragraphs)
    write_gold(files["gold"], gold)
    write_lexicon(files["lexicon"], lexicon)
    return {
        "seed": seed,
        "paragraphs": len(paragraphs),
        **{key: str(path) for key, path in files.items()},
    }
