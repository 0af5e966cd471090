"""TF-IDF over uni/bi/trigram terms, truncated SVD, cosine, and 2-d LDA.

Documents are term multisets (paragraphs at training time, megadocuments for
the cosine baseline). The idf is the smoothed plus-one variant
ln((1+N)/(1+df))+1 and document vectors are L2-normalized, so every idf is
strictly positive and every non-empty known vector has unit norm.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .domains import Domain
from .errors import DataError

# Above this element count the dense SVD working set stops being desk-sized
# and fit_svd switches to the Gram-matrix path.
_DENSE_SVD_LIMIT = 2_000_000


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    index: dict[str, int]
    df: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: Vocabulary
    idf: np.ndarray
    corpus_size: int


@dataclass(frozen=True)
class SvdProjection:
    components: np.ndarray       # (k, V), rows orthonormal
    singular_values: np.ndarray  # (k,), non-increasing

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_tfidf(docs: Sequence[Mapping[str, int]]) -> TfidfModel:
    """Fit vocabulary, document frequencies and idf over term multisets."""
    if not docs:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    df_counter: Counter = Counter()
    for doc in docs:
        df_counter.update(set(doc))
    if not df_counter:
        raise DataError("cannot fit TF-IDF: no document has any term")
    terms = tuple(sorted(df_counter))
    index = {t: i for i, t in enumerate(terms)}
    df = np.array([df_counter[t] for t in terms], dtype=np.int64)
    n = len(docs)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return TfidfModel(
        vocabulary=Vocabulary(terms=terms, index=index, df=df),
        idf=idf,
        corpus_size=n,
    )


def vectorize_all(
    model: TfidfModel, docs: Iterable[Mapping[str, int]]
) -> sp.csr_matrix:
    """L2-normalized count*idf weights, one sparse N x V row per document.

    Unknown terms are ignored; a document with no known terms yields an
    all-zero row. That is the all-unknown flag every caller checks before
    scoring.
    """
    index = model.vocabulary.index
    idf = model.idf
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for doc in docs:
        cols = []
        vals = []
        for term, count in doc.items():
            i = index.get(term)
            if i is not None:
                cols.append(i)
                vals.append(count * idf[i])
        if cols:
            order = np.argsort(cols)
            cols = np.asarray(cols, dtype=np.int64)[order]
            vals = np.asarray(vals, dtype=np.float64)[order]
            norm = float(np.sqrt(np.dot(vals, vals)))
            if norm > 0.0:
                vals = vals / norm
            indices.extend(cols.tolist())
            data.extend(vals.tolist())
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr)),
        shape=(len(indptr) - 1, len(model.vocabulary)),
    )


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each row positive (deterministic)."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _fill_orthonormal(rows: np.ndarray, k: int) -> np.ndarray:
    """Extend orthonormal rows to k rows with Gram-Schmidt over basis vectors."""
    r, v = rows.shape
    out = np.zeros((k, v))
    out[:r] = rows
    have = r
    j = 0
    while have < k:
        if j >= v:
            raise DataError("cannot complete orthonormal basis: k exceeds dimension")
        e = np.zeros(v)
        e[j] = 1.0
        e -= out[:have].T @ (out[:have] @ e)
        norm = float(np.linalg.norm(e))
        if norm > 0.5:
            out[have] = e / norm
            have += 1
        j += 1
    return out


def fit_svd(matrix: sp.spmatrix, k: int = 100) -> SvdProjection:
    """Top-k right singular vectors and singular values of a sparse matrix.

    Small matrices go through the exact dense factorization. Larger ones use
    the Gram matrix of the shorter side plus one Rayleigh-Ritz refinement
    pass, which restores the accuracy the squaring loses. Both paths are
    fully deterministic.
    """
    matrix = sp.csr_matrix(matrix, dtype=np.float64)
    n, v = matrix.shape
    if n < 1 or v < 1:
        raise DataError("cannot run SVD on an empty matrix")
    if matrix.nnz == 0:
        raise DataError("cannot run SVD on an all-zero matrix")
    if k < 1:
        raise DataError(f"svd k must be >= 1, got {k}")
    limit = min(n, v)
    if k > limit:
        warnings.warn(
            f"svd k={k} exceeds min(N,V)={limit}; clamping to {limit}",
            stacklevel=2,
        )
        k = limit

    if n * v <= _DENSE_SVD_LIMIT:
        _, s, vt = scipy.linalg.svd(matrix.toarray(), full_matrices=False)
        components = vt[:k]
        singular = s[:k]
    else:
        components, singular = _gram_svd(matrix, k)

    components = _fix_signs(np.ascontiguousarray(components))
    return SvdProjection(
        components=components, singular_values=np.ascontiguousarray(singular)
    )


def _gram_svd(matrix: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    n, v = matrix.shape
    if n <= v:
        gram = (matrix @ matrix.T).toarray()
        w, u = scipy.linalg.eigh(gram)
        w = w[::-1][:k]
        u = u[:, ::-1][:, :k]
        tol = max(w[0], 0.0) * n * np.finfo(np.float64).eps
        good = w > max(tol, 1e-300)
        r = int(np.count_nonzero(good))
        basis = (matrix.T @ u[:, :r]) / np.sqrt(w[:r])
        basis = basis.T  # (r, V)
    else:
        gram = (matrix.T @ matrix).toarray()
        w, q = scipy.linalg.eigh(gram)
        w = w[::-1][:k]
        q = q[:, ::-1][:, :k]
        tol = max(w[0], 0.0) * v * np.finfo(np.float64).eps
        good = w > max(tol, 1e-300)
        r = int(np.count_nonzero(good))
        basis = q[:, :r].T  # (r, V)

    # Rayleigh-Ritz: re-orthonormalize the recovered subspace and take the
    # exact SVD of the projected matrix, which repairs the squared
    # conditioning of the Gram step.
    q, _ = np.linalg.qr(basis.T)  # (V, r)
    b = matrix @ q  # (N, r) dense
    _, s, wt = scipy.linalg.svd(b, full_matrices=False)
    components = wt @ q.T  # (r, V)
    if r < k:
        components = _fill_orthonormal(components, k)
        s = np.concatenate([s, np.zeros(k - r)])
    return components[:k], s[:k]


def project_all(projection: SvdProjection, matrix: sp.spmatrix) -> np.ndarray:
    """Map each row of an N x V matrix to its k-dim coordinates."""
    if matrix.shape[1] != projection.components.shape[1]:
        raise DataError(
            f"cannot project matrix with {matrix.shape[1]} columns "
            f"using {projection.components.shape[1]}-column components"
        )
    return np.asarray(matrix @ projection.components.T)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DataError("cosine of a zero vector is undefined")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def lda_2d(vectors: np.ndarray, labels: Sequence[Domain]) -> np.ndarray:
    """Two-component linear discriminant coordinates for labeled vectors.

    Axes are the top generalized eigenvectors of (S_b, S_w + 1e-6 I), each
    scaled by the square root of its eigenvalue so that degenerate axes
    (identical class means) collapse to zero instead of echoing the input.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise DataError("lda_2d needs one label per row vector")
    classes = sorted({d for d in labels}, key=lambda d: d.value)
    if len(classes) < 2:
        raise DataError("lda_2d needs at least 2 distinct classes")
    n, dim = x.shape
    mean = x.mean(axis=0)
    s_w = np.zeros((dim, dim))
    s_b = np.zeros((dim, dim))
    label_arr = np.array([labels[i].value for i in range(n)])
    for c in classes:
        xc = x[label_arr == c.value]
        mu = xc.mean(axis=0)
        centered = xc - mu
        s_w += centered.T @ centered
        diff = (mu - mean).reshape(-1, 1)
        s_b += xc.shape[0] * (diff @ diff.T)
    s_w_reg = s_w + 1e-6 * np.eye(dim)
    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w_reg)
    top = eigvecs[:, ::-1][:, :2]
    lam = np.maximum(eigvals[::-1][:2], 0.0)
    coords = (x - mean) @ top * np.sqrt(lam)
    for axis in range(coords.shape[1]):
        j = int(np.argmax(np.abs(coords[:, axis])))
        if coords[j, axis] < 0:
            coords[:, axis] = -coords[:, axis]
    return coords
