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

from .domains import CLASSIFIED_DOMAINS, Domain, N_CLASSIFIED
from .errors import ConfigError, DataError
from .networks import MlpModel, RbfModel, mlp_forward, rbf_forward
from .textnorm import MwePhrase, text_to_terms
from .vectorspace import (
    SvdProjection,
    TfidfModel,
    cosine,
    project_all,
    vectorize_all,
)

# The cosine baseline needs a wider margin than the trained models: its
# scores ride the corpus-wide noise direction, so pure-noise paragraphs
# sit close under the domain means. 2.2 rejects them while the assignment
# quality stays on the flat part of the alpha curve.
DEFAULT_ALPHA = {"mlp": 0.78, "rbf": 1.2, "cosine": 2.2}


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


def assign(scores: np.ndarray, thresholds: ThresholdSet) -> list[Domain]:
    """Domains clearing their thresholds, by descending margin; else [Other].

    Margin ties break on fixed domain index order.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape != (N_CLASSIFIED,):
        raise DataError(f"expected {N_CLASSIFIED} scores, got {scores.shape}")
    margins = scores - thresholds.thresholds
    qualifying = [i for i in range(N_CLASSIFIED) if scores[i] >= thresholds.thresholds[i]]
    if not qualifying:
        return [Domain.OTHER]
    qualifying.sort(key=lambda i: (-margins[i], i))
    return [CLASSIFIED_DOMAINS[i] for i in qualifying]


def cosine_baseline_scores(
    doc: np.ndarray, megadoc_vectors: np.ndarray
) -> np.ndarray:
    """Cosine similarity of the document against each domain megadocument."""
    megadoc_vectors = np.asarray(megadoc_vectors, dtype=np.float64)
    if megadoc_vectors.shape[0] != N_CLASSIFIED:
        raise DataError(
            f"expected {N_CLASSIFIED} megadocument vectors, "
            f"got {megadoc_vectors.shape[0]}"
        )
    return np.array([cosine(doc, megadoc_vectors[i]) for i in range(N_CLASSIFIED)])


@dataclass
class Pipeline:
    """Everything needed to classify raw text; all stages immutable once set."""

    kind: str                          # cosine | mlp | rbf
    use_mwes: bool = True
    phrases: list[MwePhrase] | None = None
    tfidf: TfidfModel | None = None
    svd: SvdProjection | None = None
    thresholds: ThresholdSet | None = None
    mlp: MlpModel | None = None
    rbf: RbfModel | None = None
    megadoc_vectors: np.ndarray | None = None

    def _require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"pipeline stage {name!r} is not fitted")
        return value

    def scorer_inputs(self):
        if self.kind == "cosine":
            return self._require("megadoc_vectors")
        if self.kind == "mlp":
            return self._require("mlp")
        if self.kind == "rbf":
            return self._require("rbf")
        raise ConfigError(f"unknown model kind {self.kind!r}")


def score_vectors(pipeline: Pipeline, x: np.ndarray) -> np.ndarray:
    """Batch scores (N, 7) for projected document vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pipeline.kind == "cosine":
        megadocs = pipeline.scorer_inputs()
        return np.vstack([cosine_baseline_scores(row, megadocs) for row in x])
    if pipeline.kind == "mlp":
        return mlp_forward(pipeline.scorer_inputs(), x)
    if pipeline.kind == "rbf":
        return rbf_forward(pipeline.scorer_inputs(), x)
    raise ConfigError(f"unknown model kind {pipeline.kind!r}")


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
    tfidf = pipeline._require("tfidf")
    svd = pipeline._require("svd")
    thresholds = pipeline._require("thresholds")
    pipeline.scorer_inputs()
    phrases = (pipeline.phrases or []) if pipeline.use_mwes else []

    term_docs = [text_to_terms(text, phrases) for text in texts]
    matrix = vectorize_all(tfidf, term_docs)
    row_norms = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    nonzero = row_norms > 0.0
    scores = np.zeros((len(texts), N_CLASSIFIED))
    if np.any(nonzero):
        projected = project_all(svd, matrix[np.flatnonzero(nonzero)])
        scores[nonzero] = score_vectors(pipeline, projected)
    labels: list[list[Domain]] = []
    for i in range(len(texts)):
        if nonzero[i]:
            labels.append(assign(scores[i], thresholds))
        else:
            labels.append([Domain.OTHER])
    return labels, scores
