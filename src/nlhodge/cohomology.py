"""Exact Betti numbers from coboundary ranks over two large prime fields.

betti_p = dim C^p - rank(B_p) - rank(B_{p-1}). Ranks come from sparse column
reduction mod p with clearing (Chen & Kerber, 2011): B_0..B_pmax are reduced
in increasing degree, and a column of B_p that is a pivot row of B_{p-1}
would reduce to zero since B_p B_{p-1} = 0, so it is skipped. Degree 0 is
cleared too, when every row of B_0 holds one -1 and one +1 (a signed
incidence matrix, as every coboundary B_0 and every Cech D_0 is): the
highest column of each connected component is minus the sum of the
component's other columns, which all lie to its left, so it reduces to zero
over every field. A column whose pivot row is still free is an apparent
pivot (Bauer, "Ripser", 2021): it is kept as its column index and read from
the matrix only if a later column reduces against it. Each rank is reduced
over both primes; a rank on which they disagree, and that is too large to
settle over the rationals, makes the degrees that read it uncertain. Weights
never enter, so this is the weight-independent oracle the spectral counts
are checked against.

How many pivots are apparent depends on the order of rows and columns, and
the stored order is the order of the point labels. So `exact_betti` reduces
in one locality order per degree, taken from the complex: the points in the
reverse Cuthill-McKee order of the 1-skeleton (Cuthill & McKee, 1969), and
the tuples of degree p >= 1 in the lexicographic order of their members'
new positions. On a sample of a circle or a sphere almost every pivot is
then apparent, however the points are labelled. Each order is both the row
order of B_{p-1} and the column order of B_p, so the pivot rows that clear
B_p are read in the order B_p is reduced in, and the components' highest
columns are taken in the new order of the points. Ranks over a field, and
the rational fallback, do not see a permutation of rows or columns, so
every rank and flag is that of the stored order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

PRIME_MAIN = 2**31 - 1
PRIME_FALLBACK = 2**31 - 19
PRIMES = (PRIME_MAIN, PRIME_FALLBACK)
# Most entries of a matrix whose rank rational elimination may settle.
RATIONAL_RANK_CAP = 4096


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

    A column's pivot is its largest nonzero row. Returns the pivot columns
    keyed by pivot row; their number is the rank. An apparent pivot, a column
    whose pivot row was free when it was reached, is stored as its column
    index; the first column that reduces against it reads it as
    ({row: value}, inverse of its pivot entry), the form every reduced column
    is stored in. Columns are kept unscaled: the multiple that clears a pivot
    is taken through the stored inverse instead.
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
        if j in cleared or ptr[j] == ptr[j + 1]:
            continue
        low = rows[ptr[j + 1] - 1]  # sum_duplicates sorted each column's rows
        if low not in reduced:
            reduced[low] = j
            continue
        col = dict(zip(rows[ptr[j] : ptr[j + 1]], vals[ptr[j] : ptr[j + 1]]))
        while low in reduced:
            if isinstance(reduced[low], int):  # an apparent pivot, read once
                a, b = ptr[reduced[low]], ptr[reduced[low] + 1]
                reduced[low] = dict(zip(rows[a:b], vals[a:b])), pow(vals[b - 1], -1, prime)
            other, inv = reduced[low]
            c = col[low] * inv % prime
            for r, v in other.items():
                x = (col.pop(r, 0) - c * v) % prime
                if x:
                    col[r] = x
            if not col:
                break
            low = max(col)
        if col:
            reduced[low] = col, pow(col[low], -1, prime)
    return reduced


def _incidence_graph(D0):
    """The graph on D_0's columns with one edge per row, or None when some row
    of D_0 is not one -1 and one +1."""
    A = sp.csr_matrix(D0, dtype=np.int64, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    signs, n = A.data, A.shape[1]
    if np.any(np.diff(A.indptr) != 2) or np.any(signs[::2] + signs[1::2]) or np.any(abs(signs) != 1):
        return None
    ends = A.indices.reshape(-1, 2)
    return sp.csr_matrix((np.ones(len(ends), dtype=bool), (ends[:, 0], ends[:, 1])), shape=(n, n))


def _tops(graph, order) -> frozenset:
    """The highest position in each connected component of `graph` once its
    vertices take the positions 0, 1, ... in `order`."""
    # scipy.sparse does not load csgraph: importing it here keeps its ~1 MB
    # out of every process that only imports this module
    from scipy.sparse.csgraph import connected_components

    labels = connected_components(graph, directed=False)[1][order]
    last = np.unique(labels[::-1], return_index=True)[1]
    return frozenset((len(labels) - 1 - last).tolist())


def _component_tops(D0) -> frozenset:
    """The highest column of each connected component of D_0's graph, or
    nothing when some row of D_0 is not one -1 and one +1.

    On a signed incidence matrix the columns of a component sum to zero, so
    its highest column reduces to zero in `_pivot_columns` over every field.
    """
    graph = _incidence_graph(D0)
    return frozenset() if graph is None else _tops(graph, np.arange(graph.shape[0]))


def _positions(order: np.ndarray) -> np.ndarray:
    """The position of each index in `order`, the inverse permutation."""
    position = np.empty_like(order)
    position[order] = np.arange(order.size, dtype=order.dtype)
    return position


def _tuple_order(tuples: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The rows of `tuples` in the lexicographic order of their members'
    positions, each tuple's positions sorted."""
    members = position[tuples.T]  # row i: the i-th member of every tuple
    k, n = members.shape[0], position.size
    for i in range(k):  # odd-even transposition sort, a row pair at a time
        for j in range(i % 2, k - 1, 2):
            low = np.minimum(members[j], members[j + 1])
            np.maximum(members[j], members[j + 1], out=members[j + 1])
            members[j] = low
    if n**k > 2**63:  # no room for one int64 key
        return np.lexsort(members[::-1])
    key = members[0].astype(np.int64)
    for column in members[1:]:
        key *= n
        key += column
    return np.argsort(key)


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


def _cleared_rank(matrix, cleared: dict) -> tuple[int, bool]:
    """(rank, certain) over both primes, skipping the columns in `cleared[prime]`,
    whose pivot rows it then stores there.

    Primes that disagree are settled by rational elimination when the matrix
    has at most RATIONAL_RANK_CAP entries; above it the main prime's rank is
    returned as uncertain, and nothing is densified.
    """
    for prime in PRIMES:
        cleared[prime] = set(_pivot_columns(matrix, prime, cleared.get(prime, frozenset())))
    ranks = [len(cleared[prime]) for prime in PRIMES]
    if ranks[0] == ranks[1]:
        return ranks[0], True
    if matrix.shape[0] * matrix.shape[1] <= RATIONAL_RANK_CAP:
        return rank_exact_rational(matrix), True
    return ranks[0], False


def rank_exact(matrix) -> int:
    """Rank over the main prime."""
    return len(_pivot_columns(matrix, PRIME_MAIN))


@dataclass(frozen=True)
class BettiReport:
    betti: tuple
    dims: tuple
    ranks: tuple  # rank of B_p for p = 0..p_max
    certain: tuple  # per rank: both primes (or the rational fallback) settled it
    parameters: dict

    @property
    def uncertain(self) -> tuple:
        """Per degree: betti_p reads an unsettled rank of B_p or B_{p-1}."""
        return tuple(
            not (self.certain[p] and (p == 0 or self.certain[p - 1]))
            for p in range(len(self.betti))
        )

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "betti": list(self.betti),
            "dims": list(self.dims),
            "coboundary_ranks": list(self.ranks),
            "primes": list(PRIMES),
            "uncertain": list(self.uncertain),
            "parameters": self.parameters,
        }


def _betti(differences: list, parameters: dict, tops: frozenset | None = None) -> BettiReport:
    """Betti numbers of the cochain complex with differences D_0, D_1, ...

    dim_q is D_q.shape[1], and beta_q = dim_q - rank D_q - rank D_{q-1}. Each
    rank is reduced over both primes, with clearing across degrees; D_0's
    cleared columns are `tops`, by default its components' highest columns.
    """
    cleared = dict.fromkeys(PRIMES, _component_tops(differences[0]) if tops is None else tops)
    ranks, certain = zip(*(_cleared_rank(D, cleared) for D in differences))
    dims = tuple(D.shape[1] for D in differences)
    betti = tuple(dims[q] - ranks[q] - (ranks[q - 1] if q else 0) for q in range(len(dims)))
    return BettiReport(betti, dims, ranks, certain, parameters)


def _reindexed(D: sp.csr_matrix, rows: np.ndarray, position: np.ndarray, k: int) -> sp.csc_matrix:
    """D, whose rows each hold k entries, with its rows taken in the order
    `rows` and its column j moved to position[j]: gathered row by row, then
    converted to CSC once, the form `_pivot_columns` copies for each prime."""
    data = D.data.reshape(-1, k).take(rows, axis=0).ravel()
    indices = position.take(D.indices.reshape(-1, k).take(rows, axis=0).ravel())
    return sp.csr_matrix((data, indices, D.indptr), shape=D.shape).tocsc()


def exact_betti(complex_, parameters: dict | None = None) -> BettiReport:
    """Betti numbers for degrees 0..p_max of a weighted complex, each rank
    over two primes.

    Each B_p is reduced in the locality order of the module docstring, rows
    in the degree-(p+1) order and columns in the degree-p order. The stored
    order is kept when B_0 is not a signed incidence matrix or some B_p has
    a row without p + 2 entries, which no built coboundary has.
    """
    parameters = dict(parameters or {})
    differences = [complex_.coboundary(p).matrix for p in range(complex_.p_max + 1)]
    graph = _incidence_graph(differences[0])
    if graph is None or any(np.any(np.diff(D.indptr) != p + 2) for p, D in enumerate(differences)):
        return _betti(differences, parameters)
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(graph, symmetric_mode=False)
    vertex = position = _positions(order)
    reordered = []
    for p, D in enumerate(differences):
        rows = _tuple_order(complex_.coboundary(p).target.tuples, vertex)
        reordered.append(_reindexed(D, rows, position, p + 2))
        position = _positions(rows)
    return _betti(reordered, parameters, _tops(graph, order))


@dataclass(frozen=True)
class AgreementReport:
    degrees: tuple
    spectral: tuple
    exact: tuple
    status: tuple
    all_agree: bool

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "degrees": list(self.degrees),
            "spectral": list(self.spectral),
            "exact": list(self.exact),
            "status": list(self.status),
            "all_agree": self.all_agree,
        }


def compare_numeric_exact(hodge_reports, betti_report: BettiReport) -> AgreementReport:
    """Per-degree status of the spectral harmonic counts against exact Betti:
    'uncertain' when either count is (no spectral count, or an unsettled
    rank), else 'agree' or 'disagree'. This is the one place a status is
    decided."""
    degrees = tuple(r.degree for r in hodge_reports)
    spectral = tuple(r.harmonic_dim for r in hodge_reports)
    exact = tuple(betti_report.betti[p] for p in degrees)
    status = tuple(
        "uncertain" if s is None or betti_report.uncertain[p]
        else "agree" if s == e else "disagree"
        for p, s, e in zip(degrees, spectral, exact)
    )
    return AgreementReport(degrees, spectral, exact, status, all(s == "agree" for s in status))
