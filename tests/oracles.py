"""Reference implementations kept only to check the package against.

`dense_rank_mod_p` is the dense modular Gaussian elimination that `rank_mod_p`
used before ranks moved to sparse column reduction. `dict_locate` and
`loop_coboundary` are the per-row dictionary lookup and coboundary loop that
`TupleSet.locate` and `build_coboundary` replaced. `simplex_coface_matrix`
spells out the coface matrices whose ranks `_blockwise_ranks` takes in
closed form.
"""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from nlhodge.cochains import CochainError
from nlhodge.cohomology import PRIME_MAIN

_CHUNK_ROWS = 1024


def dense_rank_mod_p(matrix, prime: int = PRIME_MAIN) -> int:
    """Exact rank over GF(prime) by in-place row elimination on a dense copy.

    Entries are reduced mod prime; int64 intermediates stay below 2^63 because
    prime < 2^31.5. Row updates run in chunks to bound temporary memory.
    """
    if sp.issparse(matrix):
        A = np.asarray(matrix.todense(), dtype=np.int64)
    else:
        A = np.array(matrix, dtype=np.int64, copy=True)
    if A.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    if A.size == 0:
        return 0
    A %= prime
    m, n = A.shape
    if n > m:
        A = np.ascontiguousarray(A.T)
        m, n = n, m
    rank = 0
    for col in range(n):
        colvals = A[rank:, col]
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv], col:] = A[[piv, rank], col:]
        inv = pow(int(A[rank, col]), prime - 2, prime)
        if inv != 1:
            A[rank, col:] = (A[rank, col:] * inv) % prime
        tail = A[rank + 1 :, col]
        nzr = np.nonzero(tail)[0] + rank + 1
        if nzr.size:
            prow = A[rank, col:]
            for start in range(0, nzr.size, _CHUNK_ROWS):
                rows_idx = nzr[start : start + _CHUNK_ROWS]
                block = A[rows_idx, col:]
                block -= block[:, 0][:, None] * prow
                block %= prime
                A[rows_idx, col:] = block
        rank += 1
        if rank == m:
            break
    return rank


def dict_locate(stored, queries) -> np.ndarray:
    """Row of each query row in the stored rows through a tuple dict, -1 if absent."""
    index = {tuple(row): i for i, row in enumerate(np.asarray(stored).tolist())}
    return np.array([index.get(tuple(row), -1) for row in np.asarray(queries).tolist()],
                    dtype=np.int64)


def loop_coboundary(source, target) -> sp.csr_matrix:
    """Signed face-sum matrix, one dict lookup per face."""
    index = {tuple(row): i for i, row in enumerate(source.tuples.tolist())}
    rows, cols, data = [], [], []
    for r, row in enumerate(target.tuples.tolist()):
        for i in range(len(row)):
            face = tuple(row[:i] + row[i + 1 :])
            if face not in index:
                raise CochainError(
                    f"face {face} of tuple {tuple(row)} is missing: tuple sets not face-closed"
                )
            rows.append(r)
            cols.append(index[face])
            data.append(1 if i % 2 == 0 else -1)
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)),
        shape=(target.size, source.size),
    )


def simplex_coface_matrix(s: int, q: int) -> np.ndarray:
    """Coface matrix of the full simplex on s vertices, level q to q+1.

    Rows are (q+2)-subsets, columns (q+1)-subsets, both in lexicographic
    order; dropping the i-th vertex of a row subset hits its face column
    with sign (-1)^i.
    """
    los = list(combinations(range(s), q + 1))
    his = list(combinations(range(s), q + 2))
    lo_index = {c: k for k, c in enumerate(los)}
    M = np.zeros((len(his), len(los)), dtype=np.int64)
    for r, hi in enumerate(his):
        for i in range(len(hi)):
            M[r, lo_index[hi[:i] + hi[i + 1 :]]] += (-1) ** i
    return M
