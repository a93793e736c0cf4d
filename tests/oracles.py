"""Reference implementations kept only to check the package against.

`dense_rank_mod_p` is the dense modular Gaussian elimination that `rank_mod_p`
used before ranks moved to sparse column reduction.
"""

import numpy as np
import scipy.sparse as sp

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
