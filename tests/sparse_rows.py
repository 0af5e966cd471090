"""SparseRows as a SciPy CSR matrix, for tests that index, stack or densify
rows: the package's rows are plain arrays with no such methods."""

import scipy.sparse as sp


def as_csr(rows) -> sp.csr_matrix:
    """The CSR matrix over rows' own indptr, indices and data."""
    return sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)
