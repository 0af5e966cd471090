"""TF-IDF over uni/bi/trigram terms, truncated SVD, and 2-d LDA.

Documents are term multisets (paragraphs at training time, megadocuments for
the cosine baseline). The idf is the smoothed plus-one variant
ln((1+N)/(1+df))+1 and document vectors are L2-normalized, so every idf is
strictly positive and every non-empty known vector has unit norm.

A fitted model holds only its sources: the sorted terms or their key table,
their df and N. TfidfModel derives the idf, the same way for a trained and a
loaded model. Vocabulary derives the term index, and the key table from the
terms or the terms from a stored key table (a format 5 bundle); each is
built on first use only: training reads the index and classify the key
table, so classify with a format 5 bundle splits no term string. The key
table gives each distinct word of the terms an id in 1..W and each term the
key of its word ids in base B = W + 2.
The sentinel id U = W + 1 stands for both a stem outside every term and the
end of a document. No term holds U, so a key through it is never a term:
an n-gram through an unknown stem or across two documents matches nothing,
and nothing needs masking.

Document vectors are SparseRows: three numpy arrays in CSR layout (indptr,
indices, data) and the N x V shape, so classify needs no SciPy.
vectorize_all turns term multisets into rows. vectorize_texts turns texts
into the same rows without building a term string: it maps each stem to its
word id, builds the uni/bi/trigram keys of a whole batch in one numpy pass,
finds the terms among them with one searchsorted, and counts them with one
np.unique. Both end in _tfidf_rows: counts times idf, and one dot product
per row for its norm, which keeps every value bit-identical to a
term-by-term loop.

The truncated SVD is one Lanczos run (ARPACK) on the N x N Gram matrix XX^T
of the sparse matrix, plus one sparse-dense product that turns its
eigenvectors into the components; only k = min(N, V), which ARPACK cannot
return, takes the exact dense SVD. fit_svd alone imports SciPy.

project_all, for training and classify alike, adds each row's products
data[j] * components.T[indices[j]] onto 0.0 in entry order. That is the order
of SciPy's own CSR-times-dense product, so its result is SciPy's bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .domains import Domain
from .errors import DataError, NumericalError
from .textnorm import PhraseTable, fuse_mwes, tokenize


# Terms Vocabulary.key_table splits at a time.
_KEY_BLOCK = 4096

# project_all steps through the rows _GROUP_ROWS at a time, so that a group's
# sums stay in cache (256 x k = 100 doubles is 200 KiB), until no more than
# _TAIL_ROWS have entries left; it finishes each of those alone, _TAIL_BLOCK
# products per block.
_GROUP_ROWS = 256
_TAIL_ROWS = 8
_TAIL_BLOCK = 1024


class SparseRows(NamedTuple):
    """N x V sparse rows in CSR layout, as plain numpy arrays.

    Row i holds the entries indptr[i]:indptr[i + 1]: the column indices[j]
    and the value data[j] of each, by increasing column.
    """

    indptr: np.ndarray   # (N + 1,)
    indices: np.ndarray  # (nnz,)
    data: np.ndarray     # (nnz,) float64
    shape: tuple[int, int]


def _key_base(word_count: int, where: str = "the training vocabulary") -> int:
    """B = W + 2, the base of the term keys over W distinct words.

    Every key is below B**3, so DataError, naming where the words come
    from, if B**3 reaches 2**63: then not every key would fit an int64.
    """
    base = word_count + 2
    if base**3 >= 2**63:
        raise DataError(
            f"{where} holds {word_count} distinct words: its term keys "
            "would not fit in 64 bits"
        )
    return base


def _sized(df: np.ndarray, n: int) -> np.ndarray:
    if df.shape != (n,):
        raise DataError(
            f"vocabulary size {n} does not match df array of shape {list(df.shape)}"
        )
    return df


def _digits(keys: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three base-B digits of each key below B**3, highest first."""
    high, low = np.divmod(keys, base)
    return (*np.divmod(high, base), low)


def _check_increasing(terms: Sequence[str]) -> None:
    if any(map(operator.ge, terms, terms[1:])):
        raise DataError("vocabulary terms are not in strictly increasing order")


@dataclass(frozen=True)
class KeyTable:
    """The terms of a vocabulary as integer keys.

    words[i] is the word of id i + 1, so the W words of the terms have the
    ids 1..W. A term's key is its ids in base B = W + 2: a uni/bi/trigram
    key lies in [1, B), [B, B**2) or [B**2, B**3). The sentinel
    unknown = W + 1 is a digit of no key.

    Building one checks what a format 5 bundle stores: the words distinct,
    none empty or holding a space; the keys strictly increasing, each made
    of one to three word ids in 1..W; the columns a permutation of 0..V-1.
    """

    words: tuple[str, ...]
    keys: np.ndarray     # (V,) strictly increasing
    columns: np.ndarray  # (V,) the vocabulary column of each key
    word_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        words, keys, columns = self.words, self.keys, self.columns
        word_ids = dict(zip(words, range(1, len(words) + 1)))
        if len(word_ids) < len(words):
            raise DataError("the vocabulary's word list holds a word twice")
        if "" in word_ids or any(" " in word for word in words):
            raise DataError("the vocabulary's word list holds an empty word or a space")
        object.__setattr__(self, "word_ids", word_ids)
        base = _key_base(len(words), "the vocabulary's word list")
        if keys.ndim != 1 or columns.shape != keys.shape:
            raise DataError(
                f"term keys of shape {list(keys.shape)} and columns of shape "
                f"{list(columns.shape)} do not fit together"
            )
        if np.any(keys[1:] <= keys[:-1]):
            raise DataError("term keys are not strictly increasing")
        n = len(keys)
        if n and keys[-1] >= base**3:
            raise DataError(
                f"term key {int(np.searchsorted(keys, base**3))}: "
                "a term of more than 3 words"
            )
        first, middle, low = _digits(keys, base)
        # A leading 0 is no word; a 0 after a word is an empty word.
        empty = (keys < 1) | (low == 0) | ((middle == 0) & (first != 0))
        if np.any(empty):
            raise DataError(
                f"term key {int(np.argmax(empty))}: a term with an empty word"
            )
        outside = np.maximum(np.maximum(first, middle), low) > len(words)
        if np.any(outside):
            raise DataError(
                f"term key {int(np.argmax(outside))}: a word id outside "
                f"1..{len(words)}"
            )
        if n and (
            columns.min() < 0 or columns.max() >= n
            or not np.bincount(columns, minlength=n).all()
        ):
            raise DataError(f"term columns are not a permutation of 0..{n - 1}")

    @property
    def unknown(self) -> int:
        return len(self.words) + 1


class Vocabulary:
    """A fit's terms, strictly increasing, and the df of each.

    A vocabulary is built from its terms (a fit, or a bundle of format 4 or
    older) or, by from_key_table, from their key table (a format 5 bundle).
    terms, index and key_table are each built on first read only, then
    kept: training reads the index, classify the key table, a save the key
    table. So a format 5 load splits no term string, and a fit builds its
    key table only when it is saved or classifies.
    """

    def __init__(self, terms: Sequence[str], df: np.ndarray):
        # An instance attribute, so the terms cached_property never runs.
        self.terms = tuple(terms)
        self.df = _sized(df, len(self.terms))  # (V,)
        _check_increasing(self.terms)

    @classmethod
    def from_key_table(cls, key_table: KeyTable, df: np.ndarray) -> Vocabulary:
        vocabulary = cls.__new__(cls)
        vocabulary.key_table = key_table
        vocabulary.df = _sized(df, len(key_table.keys))
        return vocabulary

    def __len__(self) -> int:
        return len(self.df)

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Each column's term: the words of its key, joined by spaces.

        DataError if they are not strictly increasing, the one check of a
        stored key table that waits for this first read.
        """
        table = self.key_table
        at = np.empty_like(table.columns)  # where each column's key is
        at[table.columns] = np.arange(len(at))
        first, middle, low = _digits(table.keys[at], table.unknown + 1)
        words = np.array(["", *table.words], dtype=object)
        # A key checked by KeyTable has a first word only if it has a middle one.
        terms = words[low]
        for digit in (middle, first):
            more = digit > 0
            terms[more] = words[digit[more]] + " " + terms[more]
        terms = tuple(terms.tolist())
        _check_increasing(terms)
        return terms

    @cached_property
    def index(self) -> dict[str, int]:
        """Each term's column."""
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def key_table(self) -> KeyTable:
        """Each term's key and column, derived from the terms by
        derive_key_table where the vocabulary was built from them."""
        return derive_key_table(self.terms)


def derive_key_table(terms: Sequence[str]) -> KeyTable:
    """The key table of strictly increasing terms: each term's word ids in
    base B, sorted, and its column.

    The one derivation of a key table: a save calls it, and the first
    classify of a fit or of a format 1-4 bundle. DataError, naming the
    bundle's vocabulary.txt where a loaded vocabulary comes from, for a term
    of more than three words or with an empty word; training makes neither.
    """
    word_ids: dict[str, int] = {}
    # Each term's ids, right-aligned in a row of 3: a leading 0 adds
    # nothing to the key.
    digits = np.zeros((len(terms), 3), dtype=np.int64)
    # The terms are split a block at a time, so no more than a block's
    # words are held as strings at once.
    for start in range(0, len(terms), _KEY_BLOCK):
        block = terms[start : start + _KEY_BLOCK]
        sizes = np.fromiter(map(str.count, block, repeat(" ")), np.int64) + 1
        if sizes.max() > 3:
            line = start + int(np.argmax(sizes > 3)) + 1
            raise DataError(f"vocabulary.txt line {line}: a term of more than 3 words")
        words = " ".join(block).split(" ")
        for word in dict.fromkeys(words):
            word_ids.setdefault(word, len(word_ids) + 1)
        ends = np.cumsum(sizes)
        at = np.repeat(3 * (start + np.arange(len(block))) + 3 - ends, sizes)
        ids = np.fromiter(map(word_ids.__getitem__, words), np.int64, len(words))
        digits.flat[at + np.arange(len(words))] = ids
    if "" in word_ids:
        line = next(i for i, t in enumerate(terms, 1) if "" in t.split(" "))
        raise DataError(f"vocabulary.txt line {line}: a term with an empty word")
    base = _key_base(len(word_ids))
    keys = (digits[:, 0] * base + digits[:, 1]) * base + digits[:, 2]
    columns = np.argsort(keys)
    return KeyTable(words=tuple(word_ids), keys=keys[columns], columns=columns)


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
    Building one makes it so, copying only components held in another
    order, such as those of a bundle older than format 4.
    """

    components: np.ndarray       # (k, V), rows orthonormal
    singular_values: np.ndarray  # (k,), non-negative, non-increasing

    def __post_init__(self):
        object.__setattr__(self, "components", np.asfortranarray(self.components))
        components, singular_values = self.components, self.singular_values
        if components.ndim != 2 or singular_values.shape != components.shape[:1]:
            raise DataError(
                f"svd components of shape {list(components.shape)} and singular "
                f"values of shape {list(singular_values.shape)} do not fit together"
            )
        if np.any(singular_values < 0) or np.any(np.diff(singular_values) > 0):
            raise DataError(
                "svd_singular_values must be non-negative and non-increasing"
            )

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_tfidf(docs: Sequence[Mapping[str, int]]) -> TfidfModel:
    """Fit the vocabulary and its document frequencies over term multisets."""
    if not docs:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    # A document yields each of its terms once, so counting them counts df.
    df_counter = Counter(chain.from_iterable(docs))
    if not df_counter:
        raise DataError("cannot fit TF-IDF: no document has any term")
    terms = tuple(sorted(df_counter))
    df = np.array([df_counter[t] for t in terms], dtype=np.int64)
    return TfidfModel(vocabulary=Vocabulary(terms=terms, df=df), corpus_size=len(docs))


def vectorize_all(
    model: TfidfModel, docs: Iterable[Mapping[str, int]]
) -> SparseRows:
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
    return _tfidf_rows(model, rows[order], cols[order], counts[order], n)


def vectorize_texts(
    model: TfidfModel, table: PhraseTable, texts: Iterable[str]
) -> SparseRows:
    """The rows vectorize_all gives for text_to_terms of each text, bit for bit.

    Each text's stems become their ids in the key table, U for a stem
    outside every term, and one U ends the text. Then every text's
    uni/bi/trigram keys are built, looked up and counted at once.
    """
    key_table = model.vocabulary.key_table
    word_id, unknown = key_table.word_ids.get, key_table.unknown
    ids: list[int] = []
    lengths: list[int] = []
    for text in texts:
        stems = fuse_mwes(tokenize(text), table)
        ids += map(word_id, stems, repeat(unknown))
        ids.append(unknown)
        lengths.append(len(stems) + 1)
    base, v, n = unknown + 1, len(model.vocabulary), len(lengths)
    unigrams = np.array(ids, dtype=np.int64)
    bigrams = unigrams[:-1] * base + unigrams[1:]
    trigrams = bigrams[:-1] * base + unigrams[2:]
    doc = np.repeat(np.arange(n), lengths)
    grams = np.concatenate((unigrams, bigrams, trigrams))
    rows = np.concatenate((doc, doc[:-1], doc[:-2]))
    at = np.minimum(np.searchsorted(key_table.keys, grams), v - 1)
    hit = key_table.keys[at] == grams
    cells = rows[hit] * v + key_table.columns[at[hit]]
    cells, counts = np.unique(cells, return_counts=True)
    return _tfidf_rows(model, *np.divmod(cells, v), counts, n)


def _tfidf_rows(
    model: TfidfModel, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray, n: int
) -> SparseRows:
    """The n x V SparseRows of L2-normalized count*idf rows.

    Entry j is counts[j] of term cols[j] in document rows[j]; the entries
    come sorted by row, then column, each (row, column) once. indptr and
    indices are int32 when every index fits: half the memory of int64, and
    the index type SciPy itself picks, so fit_svd wraps them without a copy.
    """
    v = len(model.vocabulary)
    index = np.int32 if max(n, v, len(cols)) < 2**31 else np.int64
    data = counts * model.idf[cols]
    sizes = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(sizes, out=indptr[1:])
    # One dot per row, not a reduceat over all rows: that sums in another
    # order and would move the last bit of some norms.
    bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
    norms = np.array([math.sqrt(np.dot(data[a:b], data[a:b])) for a, b in bounds])
    data /= np.repeat(np.where(norms > 0.0, norms, 1.0), sizes)
    return SparseRows(indptr, cols.astype(index), data, (n, v))


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


def fit_svd(rows: SparseRows, k: int = 100) -> SvdProjection:
    """Top-k right singular vectors and singular values of sparse rows.

    One Lanczos run (ARPACK's eigsh, from a fixed start vector) finds the
    top-k eigenvectors Q of the N x N Gram matrix XX^T; NumericalError if it
    does not converge. One product X^T Q then gives the components, and
    their norms the singular values; a singular value at the numerical-rank
    floor has no direction to divide out, so a QR of that product completes
    the basis instead. k = min(N, V), which ARPACK cannot return, takes the
    exact dense SVD. Deterministic at a fixed BLAS thread count. Rows come
    by descending singular value, each signed by _fix_signs.

    rows may also be a SciPy CSR matrix: only its indptr, indices, data and
    shape are read, and they become the CSR matrix the solvers multiply by.
    """
    # Imported here: classify never fits an SVD and need not load SciPy.
    import scipy.sparse as sp

    matrix = sp.csr_matrix(
        (rows.data, rows.indices, rows.indptr), shape=rows.shape, dtype=np.float64
    )
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

    if k == limit:
        import scipy.linalg

        _, singular, components = scipy.linalg.svd(
            matrix.toarray(), full_matrices=False
        )
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        # The CSC view matrix.T multiplies without a transposed copy.
        gram = LinearOperator(
            (n, n), matvec=lambda x: matrix @ (matrix.T @ x), dtype=np.float64
        )
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            _, eigenvectors = eigsh(gram, k=k, tol=0, which="LM", v0=v0)
        except ArpackError as e:
            raise NumericalError(f"truncated SVD did not converge: {e}")
        # ARPACK's vectors are not exactly orthonormal; eigsh returns them by
        # ascending eigenvalue.
        q = np.linalg.qr(eigenvectors)[0][:, ::-1]
        components = (matrix.T @ q).T  # Fortran-ordered (k, V)
        # einsum sums the squares without a (k, V) temporary.
        singular = np.sqrt(np.einsum("ij,ij->i", components, components))
        if singular.min() > singular.max() * max(n, v) * np.finfo(float).eps:
            components /= singular[:, None]
        else:
            basis, r = np.linalg.qr(components.T)
            components, singular = basis.T, np.abs(np.diag(r))
    order = np.argsort(-singular, kind="stable")
    if np.any(order != np.arange(k)):
        components, singular = components[order], singular[order]
    return SvdProjection(components=_fix_signs(components), singular_values=singular)


def project_all(projection: SvdProjection, rows: SparseRows) -> np.ndarray:
    """Map each of N sparse rows to its k-dim coordinates: rows @ components.T.

    Row i is the sum of data[j] * components.T[indices[j]] over its entries
    j, added onto 0.0 in entry order: the order of SciPy's CSR-times-dense
    product, so the (N, k) result is SciPy's bit for bit. rows may also be a
    SciPy CSR matrix; only its indptr, indices, data and shape are read.

    The rows go longest first, _GROUP_ROWS at a time. Step p adds the p-th
    product of every row of the group that has one, in one numpy operation,
    until at most _TAIL_ROWS rows are left; each of those finishes
    _TAIL_BLOCK products at a time, summed down a block whose first row is
    the sum so far. No temporary outgrows _GROUP_ROWS x k or _TAIL_BLOCK x k.
    """
    ct = projection.components.T  # (V, k), C-contiguous
    n, v = rows.shape
    if v != ct.shape[0]:
        raise DataError(
            f"cannot project matrix with {v} columns "
            f"using {ct.shape[0]}-column components"
        )
    k = ct.shape[1]
    indptr, indices, data = rows.indptr, rows.indices, rows.data
    sizes = indptr[1:] - indptr[:-1]
    order = np.argsort(-sizes)
    sizes, starts = sizes[order], indptr[:-1][order]
    out = np.zeros((n, k))
    steps = 0
    if n > _TAIL_ROWS:
        steps = int(sizes[_TAIL_ROWS])
        # The rows with a p-th entry are the first live[p] in this order.
        live = np.searchsorted(-sizes, -np.arange(steps)).tolist()
        for g in range(0, n, _GROUP_ROWS):
            for p, m in enumerate(live):
                m = min(m, g + _GROUP_ROWS)
                if m <= g:
                    break
                at = starts[g:m] + p
                out[g:m] += data[at, None] * ct[indices[at]]
    tail = int(sizes[0]) - steps if n else 0
    # sum(axis=0) adds down the rows one at a time only for two or more
    # columns; a single column it sums pairwise, so k = 1 gets a zero column.
    block = np.zeros((min(tail, _TAIL_BLOCK) + 1, max(k, 2)))
    for i in range(min(n, _TAIL_ROWS)):
        end = int(starts[i] + sizes[i])
        for a in range(int(starts[i]) + steps, end, _TAIL_BLOCK):
            b = min(a + _TAIL_BLOCK, end)
            block[0, :k] = out[i]
            np.multiply(data[a:b, None], ct[indices[a:b]], out=block[1 : b - a + 1, :k])
            out[i] = block[: b - a + 1].sum(axis=0)[:k]
    result = np.empty_like(out)
    result[order] = out
    return result


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
    # Imported here: classify never projects to 2-d and need not load scipy.linalg.
    import scipy.linalg

    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w_reg)
    top = eigvecs[:, ::-1][:, :2]
    lam = np.maximum(eigvals[::-1][:2], 0.0)
    coords = (x - mean) @ top * np.sqrt(lam)
    for axis in range(coords.shape[1]):
        j = int(np.argmax(np.abs(coords[:, axis])))
        if coords[j, axis] < 0:
            coords[:, axis] = -coords[:, axis]
    return coords
