"""Per-domain scoring, threshold calibration, and open-world assignment.

A paragraph is assigned every domain whose score clears that domain's
calibrated threshold min_d = mean_d + alpha * sigma_d (population sigma,
computed over the scorer's outputs for the whole calibration corpus).
Paragraphs clearing no threshold become Other. The per-domain correction
exists because some domains score systematically higher than others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import KeywordLexicon
from .domains import CLASSIFIED_DOMAINS, Domain, N_CLASSIFIED
from .errors import ConfigError, DataError
from .networks import MlpModel, RbfModel, mlp_forward, rbf_forward
from .textnorm import text_to_terms
from .vectorspace import SvdProjection, TfidfModel, project_all, vectorize_all

# The scorer each model kind holds: the (7, k) megadocument vectors for
# cosine, a trained network for mlp and rbf.
SCORER_TYPES = {"cosine": np.ndarray, "mlp": MlpModel, "rbf": RbfModel}


@dataclass(frozen=True)
class ThresholdSet:
    alpha: float
    thresholds: np.ndarray  # (7,) min_d
    means: np.ndarray       # (7,) retained for audit
    sigmas: np.ndarray      # (7,)

    def __post_init__(self):
        for arr in (self.thresholds, self.means, self.sigmas):
            if arr.shape != (N_CLASSIFIED,):
                raise ConfigError(
                    f"threshold arrays must have shape ({N_CLASSIFIED},)"
                )
        if np.any(self.sigmas < 0):
            raise ConfigError("negative sigma in threshold set")


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
    return ThresholdSet(
        alpha=float(alpha),
        thresholds=means + alpha * sigmas,
        means=means,
        sigmas=sigmas,
    )


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


@dataclass
class Pipeline:
    """Everything needed to classify raw text; all stages immutable once set.

    lexicon is the lexicon the pipeline fuses phrases with: its keyphrases
    are already dropped when use_mwes is false. scorer is of the type
    SCORER_TYPES gives for kind.
    """

    kind: str                          # cosine | mlp | rbf
    use_mwes: bool = True
    lexicon: KeywordLexicon | None = None
    tfidf: TfidfModel | None = None
    svd: SvdProjection | None = None
    thresholds: ThresholdSet | None = None
    scorer: np.ndarray | MlpModel | RbfModel | None = None

    def _require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"pipeline stage {name!r} is not fitted")
        return value

    def checked_scorer(self):
        """The scorer, after checking that it is the one kind calls for."""
        expected = SCORER_TYPES.get(self.kind)
        if expected is None:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if not isinstance(self.scorer, expected):
            raise ConfigError(
                f"{self.kind} pipeline needs a fitted {expected.__name__} scorer, "
                f"got {type(self.scorer).__name__}"
            )
        return self.scorer


def score_vectors(pipeline: Pipeline, x: np.ndarray) -> np.ndarray:
    """Batch scores (N, 7) for projected document vectors.

    The cosine scores are the row-normalized products with the megadocument
    vectors, clipped to [-1, 1].
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scorer = pipeline.checked_scorer()
    if pipeline.kind == "mlp":
        return mlp_forward(scorer, x)
    if pipeline.kind == "rbf":
        return rbf_forward(scorer, x)
    if scorer.shape[0] != N_CLASSIFIED:
        raise DataError(
            f"expected {N_CLASSIFIED} megadocument vectors, got {scorer.shape[0]}"
        )
    norms = np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(scorer, axis=1))
    if np.any(norms == 0.0):
        raise DataError("cosine of a zero vector is undefined")
    return np.clip(x @ scorer.T / norms, -1.0, 1.0)


def embed(pipeline: Pipeline, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Normalize, vectorize and project texts: (N, k) vectors and (N,) known.

    known[i] is False when text i has no term in the vocabulary; its vector
    is all zero.
    """
    tfidf = pipeline._require("tfidf")
    svd = pipeline._require("svd")
    phrases = pipeline._require("lexicon").all_phrases()
    matrix = vectorize_all(tfidf, [text_to_terms(text, phrases) for text in texts])
    return project_all(svd, matrix), np.diff(matrix.indptr) > 0


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
    """Classify texts in order; output order equals input order."""
    vectors, known = embed(pipeline, texts)
    thresholds = pipeline._require("thresholds")
    scores = np.zeros((len(texts), N_CLASSIFIED))
    scores[known] = score_vectors(pipeline, vectors[known])
    return assign(scores, thresholds, known), scores
