"""Shared fixtures: one small synthetic corpus and one trained model per kind.

Session scope keeps the expensive training runs to one apiece; every test
that mutates nothing may share them.
"""

import pytest

from riskdomains import (
    PipelineOptions,
    default_synthetic_config,
    generate_synthetic_corpus,
    train_pipeline,
)

SMALL_COUNTS = dict(
    paragraphs_per_domain=60, multilabel_per_domain=9, other_paragraphs=30
)
SMALL_SEED = 21
TRAIN_SEED = 42


@pytest.fixture(scope="session")
def small_corpus():
    config = default_synthetic_config(**SMALL_COUNTS)
    return generate_synthetic_corpus(config, seed=SMALL_SEED)


@pytest.fixture(scope="session")
def trained_mlp(small_corpus):
    paragraphs, _, lexicon = small_corpus
    options = PipelineOptions(kind="mlp", seed=TRAIN_SEED)
    return train_pipeline(paragraphs, lexicon, options)


@pytest.fixture(scope="session")
def trained_mlp_nomwe(small_corpus):
    paragraphs, _, lexicon = small_corpus
    options = PipelineOptions(kind="mlp", seed=TRAIN_SEED, use_mwes=False)
    return train_pipeline(paragraphs, lexicon, options)


@pytest.fixture(scope="session")
def trained_rbf(small_corpus):
    paragraphs, _, lexicon = small_corpus
    options = PipelineOptions(kind="rbf", seed=TRAIN_SEED)
    return train_pipeline(paragraphs, lexicon, options)


@pytest.fixture(scope="session")
def trained_cosine(small_corpus):
    paragraphs, _, lexicon = small_corpus
    options = PipelineOptions(kind="cosine", seed=TRAIN_SEED)
    return train_pipeline(paragraphs, lexicon, options)


@pytest.fixture(scope="session")
def corpus_files(tmp_path_factory, small_corpus):
    """The small corpus written out in the CLI file formats."""
    from riskdomains.corpus import write_gold, write_lexicon, write_paragraphs

    paragraphs, gold, lexicon = small_corpus
    directory = tmp_path_factory.mktemp("corpus")
    write_paragraphs(directory / "corpus.jsonl", paragraphs)
    write_gold(directory / "gold.jsonl", gold)
    write_lexicon(directory / "lexicon.json", lexicon)
    return directory
