"""Per-domain scoring, threshold calibration, and open-world assignment.

A paragraph is assigned every domain whose score clears that domain's
calibrated threshold min_d = mean_d + alpha * sigma_d (population sigma,
computed over the scorer's outputs for the whole calibration corpus).
Paragraphs clearing no threshold become Other. The per-domain correction
exists because some domains score systematically higher than others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import KeywordLexicon
from .domains import CLASSIFIED_DOMAINS, Domain, N_CLASSIFIED
from .errors import ConfigError, DataError, NumericalError
from .networks import MlpModel, RbfModel
from .vectorspace import SvdProjection, TfidfModel, project_all, vectorize_texts


@dataclass(frozen=True)
class CosineModel:
    """The cosine baseline: one megadocument vector per classified domain."""

    vectors: np.ndarray  # (7, k), no zero row

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != N_CLASSIFIED:
            raise DataError(
                f"expected {N_CLASSIFIED} megadocument vectors, "
                f"got an array of shape {list(self.vectors.shape)}"
            )
        for domain, row in zip(CLASSIFIED_DOMAINS, self.vectors):
            if not row.any():
                raise DataError(f"megadocument vector for {domain} is the zero vector")

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Row-normalized products with the vectors, clipped to [-1, 1]."""
        vectors = self.vectors
        if x.shape[1] != vectors.shape[1]:
            raise DataError(
                f"cosine input dimension {x.shape[1]} does not match "
                f"megadocument vectors {vectors.shape[1]}"
            )
        norms = np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(vectors, axis=1))
        if np.any(norms == 0.0):
            raise DataError("cosine of a zero vector is undefined")
        return np.clip(x @ vectors.T / norms, -1.0, 1.0)


# The scorer type each model kind holds.
SCORER_TYPES = {"cosine": CosineModel, "mlp": MlpModel, "rbf": RbfModel}
Scorer = CosineModel | MlpModel | RbfModel


@dataclass(frozen=True)
class ThresholdSet:
    alpha: float
    means: np.ndarray       # (7,)
    sigmas: np.ndarray      # (7,)
    thresholds: np.ndarray = field(init=False)  # (7,) min_d

    def __post_init__(self):
        for arr in (self.means, self.sigmas):
            if arr.shape != (N_CLASSIFIED,):
                raise ConfigError(
                    f"threshold arrays must have shape ({N_CLASSIFIED},)"
                )
        with np.errstate(all="ignore"):  # a non-finite threshold is refused below
            thresholds = self.means + self.alpha * self.sigmas
        object.__setattr__(self, "thresholds", thresholds)
        values = (self.alpha, self.thresholds, self.means, self.sigmas)
        if not all(np.isfinite(v).all() for v in values):
            raise DataError("thresholds hold non-finite values")
        if np.any(self.sigmas < 0):
            raise DataError("thresholds hold a negative sigma")


def calibrate(scores: np.ndarray, alpha: float) -> ThresholdSet:
    """min_d = mean_d + alpha * population sigma_d per domain.

    scores is the (N, 7) calibration score matrix, one column per domain.
    """
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != N_CLASSIFIED:
        raise DataError(
            f"calibration scores must be an (N, {N_CLASSIFIED}) matrix, "
            f"got shape {scores.shape}"
        )
    if scores.shape[0] == 0:
        raise DataError("empty calibration score matrix")
    columns = [scores[:, i] for i in range(N_CLASSIFIED)]
    means = np.array([float(np.mean(c)) for c in columns])
    sigmas = np.array([float(np.std(c)) for c in columns])
    return ThresholdSet(alpha=float(alpha), means=means, sigmas=sigmas)


def assign(
    scores: np.ndarray, thresholds: ThresholdSet, known: np.ndarray
) -> list[list[Domain]]:
    """Labels for each row of the (N, 7) score matrix.

    A row gets the domains clearing their thresholds, by descending margin,
    else [Other]. Margin ties break on fixed domain index order. A row whose
    known flag is False is [Other] without consulting the thresholds.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != N_CLASSIFIED:
        raise DataError(
            f"expected an (N, {N_CLASSIFIED}) score matrix, got {scores.shape}"
        )
    t = thresholds.thresholds
    qualifies = (scores >= t) & np.asarray(known, dtype=bool)[:, None]
    order = np.argsort(t - scores, axis=1, kind="stable")
    return [
        [CLASSIFIED_DOMAINS[i] for i in row if q[i]] or [Domain.OTHER]
        for row, q in zip(order.tolist(), qualifies.tolist())
    ]


@dataclass(frozen=True)
class Pipeline:
    """Everything needed to classify raw text, complete and checked when built.

    lexicon is the lexicon the pipeline fuses phrases with: its keyphrases
    are already dropped when use_mwes is false. scorer is of the type
    SCORER_TYPES gives for kind (ConfigError otherwise); svd projects the
    tfidf vocabulary, and scorer scores the svd.k-dimensional vectors the
    SVD gives (DataError otherwise).
    """

    kind: str  # cosine | mlp | rbf
    use_mwes: bool
    lexicon: KeywordLexicon
    tfidf: TfidfModel
    svd: SvdProjection
    thresholds: ThresholdSet
    scorer: Scorer

    def __post_init__(self):
        expected = SCORER_TYPES.get(self.kind)
        if expected is None:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if not isinstance(self.scorer, expected):
            raise ConfigError(
                f"{self.kind} pipeline needs a {expected.__name__} scorer, "
                f"got {type(self.scorer).__name__}"
            )
        terms = len(self.tfidf.vocabulary)
        if self.svd.components.shape[1] != terms:
            raise DataError(
                f"svd components of shape {list(self.svd.components.shape)} "
                f"do not fit {terms} terms"
            )
        # Each scorer checks the width of what it scores; probe it once. Only
        # the width is checked here: classify_batch refuses non-finite scores.
        with np.errstate(all="ignore"):
            self.scorer.scores(np.eye(1, self.svd.k))


def score_vectors(scorer: Scorer, x: np.ndarray) -> np.ndarray:
    """Batch scores (N, 7) of a scorer for projected document vectors."""
    return scorer.scores(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def embed(pipeline: Pipeline, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Normalize, vectorize and project texts: (N, k) vectors and (N,) known.

    known[i] is False when text i has no term in the vocabulary; its vector
    is all zero.
    """
    rows = vectorize_texts(pipeline.tfidf, pipeline.lexicon.fusion, texts)
    indptr = rows.indptr
    return project_all(pipeline.svd, rows), indptr[1:] > indptr[:-1]


def classify_paragraph(
    pipeline: Pipeline, text: str
) -> tuple[list[Domain], np.ndarray]:
    """Normalize, vectorize, project, score, and assign one paragraph.

    A paragraph with no known terms takes the zero-vector path: all scores
    are reported as 0 and the label is [Other] without consulting the
    thresholds.
    """
    labels, scores = classify_batch(pipeline, [text])
    return labels[0], scores[0]


def classify_batch(
    pipeline: Pipeline, texts: Sequence[str]
) -> tuple[list[list[Domain]], np.ndarray]:
    """Classify texts in order; output order equals input order.

    NumericalError if the scorer gives a non-finite score, which a bundle
    whose weights are finite but huge can do.
    """
    vectors, known = embed(pipeline, texts)
    scores = np.zeros((len(texts), N_CLASSIFIED))
    with np.errstate(all="ignore"):  # a non-finite score is refused below
        scores[known] = score_vectors(pipeline.scorer, vectors[known])
    if not np.isfinite(scores).all():
        raise NumericalError("the scorer gave non-finite scores")
    return assign(scores, pipeline.thresholds, known), scores
