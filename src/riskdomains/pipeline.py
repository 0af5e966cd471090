"""End-to-end training: weak labels to calibrated classifier.

The stages run in a fixed order: weak-label the corpus with the lexicon,
fit TF-IDF over the labeled paragraphs, reduce with truncated SVD, train the
chosen scorer, then calibrate thresholds on the scorer's outputs for the
full training corpus. Only the cosine scorer sums the paragraph term
multisets into megadocuments; mlp and rbf never build them.
Disabling MWEs removes the keyphrases from both weak labeling and fusion,
which is the ablation arm. This is the one place that decides the lexicon a
pipeline fuses with: the trained Pipeline carries it, and bundles store it.
The Pipeline is built last, from the finished stages, and checks them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .classify import SCORER_TYPES, CosineModel, Pipeline, calibrate, score_vectors
from .corpus import KeywordLexicon, Paragraph, build_megadocuments, weak_label
from .domains import CLASSIFIED_DOMAINS, DOMAIN_INDEX
from .errors import ConfigError, DataError, RiskDomainsError
from .networks import (
    TrainConfig,
    build_rbf_prototypes,
    compute_rbf_width,
    one_hot,
    train_mlp,
    train_rbf,
)
from .textnorm import text_to_terms
from .vectorspace import fit_svd, fit_tfidf, project_all, vectorize_all

# The cosine baseline needs a wider margin than the trained models: its
# scores ride the corpus-wide noise direction, so pure-noise paragraphs
# sit close under the domain means. 2.2 rejects them while the assignment
# quality stays on the flat part of the alpha curve.
DEFAULT_ALPHA = {"mlp": 0.78, "rbf": 1.2, "cosine": 2.2}
DEFAULT_EPOCHS = {"mlp": 30, "rbf": 50}
# Summed binary cross entropy is the default for the MLP: the true-class-only
# categorical variant has no gradient pushing non-target sigmoids down, so
# every output saturates high and the calibrated thresholds stop separating
# anything. The categorical variant stays available as loss="cce".
DEFAULT_LOSS = {"mlp": "bce", "rbf": "mse"}


@dataclass
class PipelineOptions:
    kind: str = "mlp"
    svd_k: int = 100
    alpha: float | None = None       # None = per-kind default
    use_mwes: bool = True
    epochs: int | None = None        # None = per-kind default
    batch_size: int = 128
    loss: str | None = None          # None = per-kind default
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in SCORER_TYPES:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.svd_k < 1:
            raise ConfigError(f"svd_k must be >= 1, got {self.svd_k}")
        alpha = self.effective_alpha()
        if not np.isfinite(alpha):
            raise ConfigError(f"alpha must be finite, got {alpha}")
        self.train_config().validate()

    def effective_alpha(self) -> float:
        return DEFAULT_ALPHA[self.kind] if self.alpha is None else float(self.alpha)

    def train_config(self) -> TrainConfig:
        """Network training settings with the per-kind defaults filled in.

        cosine trains no network; validate checks its settings all the same.
        """
        epochs = DEFAULT_EPOCHS.get(self.kind, 1) if self.epochs is None else self.epochs
        loss = DEFAULT_LOSS.get(self.kind, "cce") if self.loss is None else self.loss
        return TrainConfig(
            epochs=epochs, batch_size=self.batch_size, seed=self.seed, loss=loss
        )


@dataclass
class TrainedPipeline:
    pipeline: Pipeline
    loss_history: list[float] = field(default_factory=list)


@contextmanager
def _stage(name: str):
    """Prefix any pipeline error with the stage it came from."""
    try:
        yield
    except RiskDomainsError as e:
        raise type(e)(f"stage {name}: {e}") from e


def train_pipeline(
    paragraphs: list[Paragraph],
    lexicon: KeywordLexicon,
    options: PipelineOptions,
) -> TrainedPipeline:
    options.validate()
    if not options.use_mwes:
        lexicon = lexicon.without_keyphrases()

    with _stage("weak_label"):
        corpus = weak_label(paragraphs, lexicon)
        labeled = {d for _, d in corpus.entries}
        for domain in CLASSIFIED_DOMAINS:
            if domain not in labeled:
                raise DataError(f"no training paragraphs for domain {domain}")
    with _stage("fit_tfidf"):
        term_docs = [text_to_terms(p.text, lexicon.fusion) for p, _ in corpus.entries]
        tfidf = fit_tfidf(term_docs)
        rows = vectorize_all(tfidf, term_docs)
    with _stage("fit_svd"):
        svd = fit_svd(rows, k=options.svd_k)
        vectors = project_all(svd, rows)

    history: list[float] = []
    if options.kind == "cosine":
        with _stage("megadocuments"):
            megadocs = build_megadocuments(corpus, term_docs)
        with _stage("megadocument_vectors"):
            megadoc_terms = [megadocs[d] for d in CLASSIFIED_DOMAINS]
            scorer = CosineModel(project_all(svd, vectorize_all(tfidf, megadoc_terms)))
    else:
        labels = np.array([DOMAIN_INDEX[d] for _, d in corpus.entries])
        targets = one_hot(labels)
        config = options.train_config()
        if options.kind == "mlp":
            with _stage("train_mlp"):
                scorer, history = train_mlp(vectors, targets, config)
        else:
            with _stage("rbf_prototypes"):
                by_domain = {
                    d: vectors[labels == DOMAIN_INDEX[d]] for d in CLASSIFIED_DOMAINS
                }
                prototypes = build_rbf_prototypes(by_domain, seed=options.seed)
                width = compute_rbf_width(prototypes)
            with _stage("train_rbf"):
                scorer, history = train_rbf(prototypes, width, vectors, targets, config)

    with _stage("calibrate"):
        scores = score_vectors(scorer, vectors)
        thresholds = calibrate(scores, options.effective_alpha())
    pipeline = Pipeline(
        kind=options.kind, use_mwes=options.use_mwes, lexicon=lexicon, tfidf=tfidf,
        svd=svd, thresholds=thresholds, scorer=scorer,
    )
    return TrainedPipeline(pipeline=pipeline, loss_history=history)
