"""Exact Betti numbers from coboundary ranks over a large prime field.

betti_p = dim C^p - rank(B_p) - rank(B_{p-1}). Ranks come from sparse column
reduction mod p with clearing (Chen & Kerber, 2011): B_0..B_pmax are reduced
in increasing degree, and a column of B_p that is a pivot row of B_{p-1}
would reduce to zero since B_p B_{p-1} = 0, so it is skipped. Weights never
enter, so this is the weight-independent oracle the spectral counts are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

PRIME_MAIN = 2**31 - 1
PRIME_FALLBACK = 2**31 - 19


def _to_int_array(matrix) -> np.ndarray:
    if sp.issparse(matrix):
        arr = np.asarray(matrix.todense(), dtype=np.int64)
    else:
        arr = np.array(matrix, dtype=np.int64, copy=True)
    if arr.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    return arr


def _pivot_columns(matrix, prime: int, cleared=frozenset()) -> dict:
    """Column reduction mod prime, left to right, skipping the columns in `cleared`.

    A column's pivot is its largest nonzero row. Returns the reduced columns
    ({row: value}, pivot entry 1) keyed by pivot row; their number is the rank.
    """
    if not sp.issparse(matrix):
        matrix = _to_int_array(matrix)
    A = sp.csc_matrix(matrix, dtype=np.int64, copy=True)
    A.sum_duplicates()
    A.data %= prime
    A.eliminate_zeros()
    ptr, rows, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    reduced: dict = {}
    for j in range(A.shape[1]):
        if j in cleared:
            continue
        col = dict(zip(rows[ptr[j] : ptr[j + 1]], vals[ptr[j] : ptr[j + 1]]))
        while col and (low := max(col)) in reduced:
            c = col[low]
            for r, v in reduced[low].items():
                x = (col.pop(r, 0) - c * v) % prime
                if x:
                    col[r] = x
        if col:
            inv = pow(col[low], -1, prime)
            reduced[low] = {r: v * inv % prime for r, v in col.items()}
    return reduced


def rank_exact_rational(matrix) -> int:
    """Fraction-based elimination; exact over the rationals, small inputs only."""
    A = _to_int_array(matrix)
    if A.size == 0:
        return 0
    rows = [[Fraction(int(v)) for v in row] for row in A]
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _cleared_rank(matrix, escalate: bool, cleared: dict) -> int:
    """`rank_exact` that skips the columns in `cleared[prime]`, then stores its pivot rows there."""
    primes = (PRIME_MAIN, PRIME_FALLBACK) if escalate else (PRIME_MAIN,)
    for prime in primes:
        cleared[prime] = set(_pivot_columns(matrix, prime, cleared.get(prime, frozenset())))
    ranks = {len(cleared[prime]) for prime in primes}
    return ranks.pop() if len(ranks) == 1 else rank_exact_rational(matrix)


def rank_exact(matrix, escalate: bool = False) -> int:
    """Rank over the main prime; optionally confirm with the fallback prime.

    Disagreement between primes escalates to rational arithmetic.
    """
    return _cleared_rank(matrix, escalate, {})


@dataclass(frozen=True)
class BettiReport:
    betti: tuple
    dims: tuple
    ranks: tuple  # rank of B_p for p = 0..p_max
    prime: int
    parameters: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "betti": list(self.betti),
            "dims": list(self.dims),
            "coboundary_ranks": list(self.ranks),
            "prime": self.prime,
            "parameters": self.parameters,
        }


def exact_betti(complex_, escalate: bool = False, parameters: dict | None = None) -> BettiReport:
    """Betti numbers for degrees 0..p_max of a weighted complex."""
    p_max = complex_.p_max
    dims = [complex_.dim(p) for p in range(p_max + 1)]
    cleared: dict = {}
    ranks = [
        _cleared_rank(complex_.coboundary(p).matrix, escalate, cleared) for p in range(p_max + 1)
    ]
    betti = []
    for p in range(p_max + 1):
        below = ranks[p - 1] if p >= 1 else 0
        betti.append(dims[p] - ranks[p] - below)
    return BettiReport(
        tuple(betti), tuple(dims), tuple(ranks), PRIME_MAIN, dict(parameters or {})
    )


@dataclass(frozen=True)
class AgreementReport:
    degrees: tuple
    spectral: tuple
    exact: tuple
    agree: tuple
    all_agree: bool

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "degrees": list(self.degrees),
            "spectral": list(self.spectral),
            "exact": list(self.exact),
            "agree": list(self.agree),
            "all_agree": self.all_agree,
        }


def compare_numeric_exact(hodge_reports, betti_report: BettiReport) -> AgreementReport:
    """Per-degree agreement between spectral harmonic counts and exact Betti."""
    degrees = tuple(r.degree for r in hodge_reports)
    spectral = tuple(r.harmonic_dim for r in hodge_reports)
    exact = tuple(betti_report.betti[p] for p in degrees)
    agree = tuple(s == e for s, e in zip(spectral, exact))
    return AgreementReport(degrees, spectral, exact, agree, all(agree))
