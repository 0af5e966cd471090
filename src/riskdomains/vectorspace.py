"""TF-IDF over uni/bi/trigram terms, truncated SVD, and 2-d LDA.

Documents are term multisets (paragraphs at training time, megadocuments for
the cosine baseline). The idf is the smoothed plus-one variant
ln((1+N)/(1+df))+1 and document vectors are L2-normalized, so every idf is
strictly positive and every non-empty known vector has unit norm.

A fitted model holds only its sources, the sorted terms, their df and N:
Vocabulary derives the term index and TfidfModel the idf, the same way for a
trained and a loaded model. Vocabulary.words, the words its terms are made
of, is built on first use only: classify reads it, training never does.

vectorize_all reads its documents once, collecting each term's column and
count, and builds the CSR rows in bulk: one sort, counts times idf, and one
dot product per row for its norm, which keeps every value bit-identical to
a term-by-term loop.

The truncated SVD is one Lanczos run (ARPACK) on the smaller Gram matrix of
the sparse matrix, plus one sparse-dense product that turns its eigenvectors
into the components; only k = min(N, V), which ARPACK cannot return, takes
the exact dense SVD.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .domains import Domain
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]  # strictly increasing
    df: np.ndarray  # (V,)
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        n, df = len(self.terms), self.df
        if df.shape != (n,):
            raise DataError(
                f"vocabulary size {n} does not match df array of shape {list(df.shape)}"
            )
        if any(map(operator.ge, self.terms, self.terms[1:])):
            raise DataError("vocabulary terms are not in strictly increasing order")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    # cached_property writes the instance __dict__, which a frozen dataclass
    # leaves open.
    @cached_property
    def words(self) -> frozenset[str]:
        """Every word some term contains: a term's stems, split on spaces."""
        return frozenset(chain.from_iterable(map(str.split, self.terms)))


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: Vocabulary
    corpus_size: int
    idf: np.ndarray = field(init=False)  # (V,)

    def __post_init__(self):
        n, df = self.corpus_size, self.vocabulary.df
        if not n < 2**63 or np.any((df < 1) | (df > n)):
            raise DataError(
                f"document frequencies must lie in [1, corpus_size {n}] "
                "and corpus_size below 2**63"
            )
        object.__setattr__(self, "idf", np.log((1.0 + n) / (1.0 + df)) + 1.0)


@dataclass(frozen=True)
class SvdProjection:
    """Top-k right singular vectors and their singular values.

    components is held in Fortran order, so components.T is C-contiguous
    and project_all multiplies by it without copying the (k, V) matrix.
    """

    components: np.ndarray       # (k, V), rows orthonormal
    singular_values: np.ndarray  # (k,), non-increasing

    def __post_init__(self):
        components, singular_values = self.components, self.singular_values
        if components.ndim != 2 or singular_values.shape != components.shape[:1]:
            raise DataError(
                f"svd components of shape {list(components.shape)} and singular "
                f"values of shape {list(singular_values.shape)} do not fit together"
            )

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_tfidf(docs: Sequence[Mapping[str, int]]) -> TfidfModel:
    """Fit the vocabulary and its document frequencies over term multisets."""
    if not docs:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    df_counter: Counter = Counter()
    for doc in docs:
        df_counter.update(set(doc))
    if not df_counter:
        raise DataError("cannot fit TF-IDF: no document has any term")
    terms = tuple(sorted(df_counter))
    df = np.array([df_counter[t] for t in terms], dtype=np.int64)
    return TfidfModel(vocabulary=Vocabulary(terms=terms, df=df), corpus_size=len(docs))


def vectorize_all(
    model: TfidfModel, docs: Iterable[Mapping[str, int]]
) -> sp.csr_matrix:
    """L2-normalized count*idf weights, one sparse N x V row per document.

    Unknown terms are ignored; a document with no known terms yields an
    all-zero row. That is the all-unknown flag every caller checks before
    scoring. docs is read once, one document at a time, so a generator
    serves without holding every document.
    """
    index = model.vocabulary.index
    cols: list[int] = []  # vocabulary column of each term, -1 if unknown
    counts: list[int] = []
    lengths: list[int] = []
    for doc in docs:
        cols += map(index.get, doc, repeat(-1))
        counts += doc.values()
        lengths.append(len(doc))
    n = len(lengths)
    rows = np.repeat(np.arange(n), lengths)
    cols, counts = np.array(cols, dtype=np.int64), np.array(counts, dtype=np.int64)
    known = cols >= 0
    rows, cols, counts = rows[known], cols[known], counts[known]
    order = np.lexsort((cols, rows))
    cols = cols[order]
    data = counts[order] * model.idf[cols]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # One dot per row, not a reduceat over all rows: that sums in another
    # order and would move the last bit of some norms.
    bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
    norms = np.array([math.sqrt(np.dot(data[a:b], data[a:b])) for a, b in bounds])
    data /= np.repeat(np.where(norms > 0.0, norms, 1.0), np.diff(indptr))
    return sp.csr_matrix((data, cols, indptr), shape=(n, len(model.vocabulary)))


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make each row's largest-magnitude entry positive, in place.

    Each row is multiplied by an exact +1 or -1, so only signs change and
    the (k, V) array is not copied. The peaks are found a row at a time:
    np.abs(components).argmax(axis=1) would hold two more (k, V) arrays, the
    absolute values and the C-ordered copy argmax makes of a Fortran array.
    """
    peaks = [np.abs(row).argmax() for row in components]
    negative = components[np.arange(len(peaks)), peaks] < 0
    components *= np.where(negative, -1.0, 1.0)[:, None]
    return components


def _release_free_heap() -> None:
    """Hand the C heap's free memory back to the OS, where glibc allows it.

    glibc raises its mmap threshold to the largest block a process frees, so
    after one training run blocks of the SVD's size come from the heap, and
    the heap keeps freed pages. A second training run in the same process
    then reused that memory or mapped more, depending on whether its
    vocabulary was the larger, and its peak moved by a whole SVD-sized
    array. Trimming first makes the peak the live memory plus the SVD's own
    workspace.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim(0)


def fit_svd(matrix: sp.spmatrix, k: int = 100) -> SvdProjection:
    """Top-k right singular vectors and singular values of a sparse matrix.

    One Lanczos run (ARPACK's eigsh, from a fixed start vector) finds the
    top-k eigenvectors of the smaller Gram matrix, XX^T or X^TX, as scipy's
    svds would; NumericalError if it does not converge. When N < V, one
    product X^T Q then gives the components and their norms the singular
    values; a singular value at the numerical-rank floor has no direction to
    divide out, so a QR of that product completes the basis instead. When
    V <= N the eigenvectors are the components. Deterministic at a fixed
    BLAS thread count. Rows come by descending singular value, each signed
    by _fix_signs. The C heap's free memory goes back to the OS first, so
    the SVD's workspace, training's peak, lands on live memory only.
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

    _release_free_heap()
    if k == limit:
        _, singular, components = scipy.linalg.svd(
            matrix.toarray(), full_matrices=False
        )
    else:
        # Imported here: loading ARPACK adds ~50 ms to every classify start-up.
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        # The CSC view matrix.T multiplies without a transposed copy.
        wide = n < v
        left, right = (matrix, matrix.T) if wide else (matrix.T, matrix)
        gram = LinearOperator(
            (limit, limit), matvec=lambda x: left @ (right @ x), dtype=np.float64
        )
        v0 = np.full(limit, 1.0 / np.sqrt(limit))
        try:
            _, eigenvectors = eigsh(gram, k=k, tol=0, which="LM", v0=v0)
        except ArpackError as e:
            raise NumericalError(f"truncated SVD did not converge: {e}")
        # ARPACK's vectors are not exactly orthonormal; eigsh returns them by
        # ascending eigenvalue.
        q = np.linalg.qr(eigenvectors)[0][:, ::-1]
        if wide:
            components = (matrix.T @ q).T  # Fortran-ordered (k, V)
            # einsum sums the squares without a (k, V) temporary.
            singular = np.sqrt(np.einsum("ij,ij->i", components, components))
            if singular.min() > singular.max() * max(n, v) * np.finfo(float).eps:
                components /= singular[:, None]
            else:
                basis, r = np.linalg.qr(components.T)
                components, singular = basis.T, np.abs(np.diag(r))
        else:
            components, singular = q.T, np.linalg.norm(matrix @ q, axis=0)
        order = np.argsort(-singular, kind="stable")
        if np.any(order != np.arange(k)):
            components, singular = components[order], singular[order]

    components = _fix_signs(np.asfortranarray(components))
    return SvdProjection(components=components, singular_values=singular)


def project_all(projection: SvdProjection, matrix: sp.spmatrix) -> np.ndarray:
    """Map each row of an N x V matrix to its k-dim coordinates."""
    if matrix.shape[1] != projection.components.shape[1]:
        raise DataError(
            f"cannot project matrix with {matrix.shape[1]} columns "
            f"using {projection.components.shape[1]}-column components"
        )
    return np.asarray(matrix @ projection.components.T)


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
