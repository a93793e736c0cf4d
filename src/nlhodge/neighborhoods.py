"""Systems of diagonal neighborhoods: which point tuples a cochain may see.

Admissible tuples at degree p have p+1 distinct entries; we store only the
strictly increasing representative of each orbit (the antisymmetric basis),
so repeated-index tuples are excluded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .space import _SWEEP_ROWS, MetricMeasureSpace


class AdmissibilityError(ValueError):
    """Raised for malformed systems or tuple sets."""


@dataclass(frozen=True, eq=False)
class NeighborhoodSystem:
    """Admissibility rule for point tuples.

    kind:
      full        -- every tuple of distinct points
      rips        -- max pairwise distance < eps (<= eps with strict=False)
      hausdorff   -- some sample point is within eps of every entry

    The hausdorff rule is a discrete stand-in for the distance to the
    diagonal: centers are restricted to sample points, which
    under-approximates but keeps face closure and symmetry exact.
    """

    kind: str
    eps: float | None = None
    strict: bool = True

    def __post_init__(self):
        if self.kind not in ("full", "rips", "hausdorff"):
            raise AdmissibilityError(f"unknown system kind {self.kind!r}")
        if self.kind in ("rips", "hausdorff"):
            if self.eps is None or not (self.eps > 0):
                raise AdmissibilityError(f"{self.kind} system needs eps > 0")


def full_system() -> NeighborhoodSystem:
    return NeighborhoodSystem("full")


def rips_system(eps: float, strict: bool = True) -> NeighborhoodSystem:
    return NeighborhoodSystem("rips", eps=eps, strict=strict)


def hausdorff_system(eps: float) -> NeighborhoodSystem:
    return NeighborhoodSystem("hausdorff", eps=eps)


@dataclass(frozen=True, eq=False)
class TupleSet:
    """Strictly increasing (p+1)-tuples of point indices in lexicographic order.

    `locate` is the one batched map from tuple rows to row indices. Its search
    keys are built on the first `locate` and kept; a set that is never searched
    never builds them.
    """

    degree: int
    tuples: np.ndarray  # shape (m, degree+1), int64

    def __post_init__(self):
        # a view, frozen here: a C-contiguous int64 input shares its buffer
        # uncopied and stays writable, and its owner must not write to it
        t = np.ascontiguousarray(np.asarray(self.tuples, dtype=np.int64)).view()
        if t.ndim != 2 or t.shape[1] != self.degree + 1:
            raise AdmissibilityError(
                f"tuple array shape {t.shape} does not match degree {self.degree}"
            )
        # neighbours compared directly: np.diff overflows on wide int64 rows
        if not (t[:, 1:] > t[:, :-1]).all():
            raise AdmissibilityError("tuples must be strictly increasing")
        # each row above the one before it, decided from the last column to
        # the first: a column settles the rows it does not tie
        above = np.zeros(t[1:].shape[0], dtype=bool)
        for c in range(t.shape[1] - 1, -1, -1):
            a, b = t[1:, c], t[:-1, c]
            above = (a > b) | ((a == b) & above)
        if not above.all():
            if (~above & (t[1:] != t[:-1]).any(axis=1)).any():
                raise AdmissibilityError("tuples must be lexicographically sorted")
            raise AdmissibilityError("duplicate tuples")
        t.setflags(write=False)
        object.__setattr__(self, "tuples", t)

    @cached_property
    def _keys(self) -> tuple[np.ndarray, int]:
        """(search keys, radix): the largest member + 1, or 0 if one is negative."""
        t = self.tuples
        radix = int(t[:, -1].max()) + 1 if t[:, 0].min() >= 0 else 0
        return _sort_keys(t, radix), radix

    @property
    def size(self) -> int:
        return self.tuples.shape[0]

    def locate(self, rows) -> np.ndarray:
        """Row index of each query row, -1 where a row is absent.

        rows has shape (..., degree+1); the result has shape rows.shape[:-1].
        Rows are searched as keys that sort like the rows themselves (see
        _sort_keys), so one binary search answers every query. A row with a
        member outside [0, radix), whose int64 key may wrap, is absent.
        """
        q = np.asarray(rows, dtype=np.int64)
        k = self.degree + 1
        if q.shape[-1:] != (k,) or self.size == 0:
            return np.full(q.shape[:-1], -1, dtype=np.int64)
        flat = q.reshape(-1, k)
        keys, radix = self._keys
        want = _sort_keys(flat, radix)
        pos = np.searchsorted(keys, want)
        np.minimum(pos, self.size - 1, out=pos)
        found = keys[pos] == want
        for c in range(k if radix else 0):  # as uint64 a negative member is huge
            found &= flat[:, c].view(np.uint64) < radix
        return np.where(found, pos, -1).reshape(q.shape[:-1])

    def index_of(self, sorted_tuple) -> int:
        """Row index of a strictly increasing tuple; KeyError if absent."""
        row = int(self.locate(sorted_tuple))
        if row < 0:
            raise KeyError(tuple(int(v) for v in sorted_tuple))
        return row

    def contains(self, sorted_tuple) -> bool:
        return bool(self.locate(sorted_tuple) >= 0)


def _sort_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """(m, k) integer rows as m keys in the rows' lexicographic order.

    When every member lies in [0, radix) and radix**k <= 2**63, the key is
    the row read as a k-digit number in base radix, an int64; a single
    column is its own key. Otherwise (radix 0 stands for members of any
    sign) the rows become byte strings whose bytewise order is the rows'
    order: sign bit flipped, then big-endian. These cannot overflow, and
    numpy compares them natively (memcmp), but slower than int64.
    """
    k = rows.shape[1]
    if radix and radix**k <= 2**63:
        key = rows[:, 0].astype(np.int64)
        for c in range(1, k):
            key *= radix
            key += rows[:, c]
        return key
    return np.ascontiguousarray(rows ^ np.int64(-(2**63)), dtype=">i8").view(f"S{8 * k}").ravel()


def _member_product(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[rows[:, 0]] * values[rows[:, 1]] * ... for each row, multiplied left
    to right as np.prod multiplies a row (the same bits), with no (m, k) gather."""
    prod = values[rows[:, 0]]
    for c in range(1, rows.shape[1]):
        prod *= values[rows[:, c]]
    return prod


def faces(rows: np.ndarray) -> np.ndarray:
    """(m, k) rows -> (m, k, k-1): entry [r, i] is row r without its i-th member."""
    k = rows.shape[1]
    j = np.arange(k - 1)
    return rows[:, j + (j >= np.arange(k)[:, None])]


def enumerate_tuples(space: MetricMeasureSpace, system: NeighborhoodSystem, p: int) -> TupleSet:
    """All admissible degree-p tuples, as sorted strictly increasing rows.

    Starting from the empty row, each round extends every row by each point
    above its last member that the row's witnesses allow. Clique rule (full,
    rips): the witnesses are the points adjacent to every member, and they are
    the allowed points. Set-family rule (hausdorff balls): the witnesses are
    the sets holding every member, and a point is allowed when one of them
    holds it. Witnesses are sparse boolean rows, so memory follows their
    count. Admissibility is closed under faces, so every tuple grows from its
    own prefix, and the row-major nonzero order of the sorted candidate matrix
    keeps the rows in lexicographic order. Round p-1 of `_row_rounds` grows
    once more by `_grow`, so the returned round's witnesses are never formed.
    """
    if p < 0:
        raise AdmissibilityError("degree must be nonnegative")
    n = space.n
    if p == 0:
        # every point: the clique rule's empty row allows each, and each lies in
        # its own hausdorff ball, as validation holds d(i, i) to 0 within METRIC_TOL
        return TupleSet(0, np.arange(n)[:, None])
    # full: every pair; hausdorff: balls around sample points, see NeighborhoodSystem
    eps = np.inf if system.kind == "full" else system.eps
    admits = np.less if system.kind == "rips" and system.strict else np.less_equal
    set_family = system.kind == "hausdorff"
    # the CSR of holds, a block of rows at a time: no n x n temporary
    indices, counts = [], []
    for r0 in range(0, n, _SWEEP_ROWS):
        block = admits(space.dist[r0 : r0 + _SWEEP_ROWS], eps)
        rows, cols = np.divmod(np.flatnonzero(block), n)
        if not set_family:  # a clique row grows only by points above its members
            above = cols > rows + r0
            rows, cols = rows[above], cols[above]
        indices.append(cols.astype(np.int32))
        counts.append(np.bincount(rows, minlength=block.shape[0]))
    indices = np.concatenate(indices)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    holds = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n))
    sets = holds.T.tocsr() if set_family else None
    rows, witnesses = next(islice(_row_rounds(holds, sets), p - 1, None))
    return TupleSet(p, _grow(rows, witnesses, sets)[0])


def _row_rounds(holds: sp.csr_matrix, sets: sp.csr_matrix | None):
    """(rows, witnesses) of 1, 2, 3, ... members, one pair per round, by the
    rules of enumerate_tuples; holds[v, w] says that witness w admits item v,
    and sets is holds transposed, or None for the clique rule. Under that rule
    holds keeps only the w > v entries, so a row's witnesses are the points
    above its members and every one extends it. Under the set-family rule the
    rows are the item combos that some witness admits in full, and a row's
    witnesses are those admitting all its members, in canonical CSR: on a
    cover's (ball x point) or (ball x tuple) masks, the Cech levels. Rows are
    (K, round) int64 arrays; a round is computed only when it is asked for.
    The one-member row (v) has the witnesses holds[v] under both rules; under
    the clique rule the rows are every v in order, so holds itself serves.
    A set-family entry (c, j) extends to row c + b for each item b after c's
    last member that j admits, a range of sets[j], found by one searchsorted
    of the sorted keys r * n + v; work and memory follow the entries, where
    the clique rule's product would gather every parent row.
    """
    # the empty row allows every point under the clique rule, and under the
    # set-family rule every item that some set holds
    v = np.arange(holds.shape[0]) if sets is None else np.flatnonzero(holds.getnnz(axis=1))
    rows, witnesses = v[:, None], holds if sets is None else holds[v]
    if sets is not None:  # the sorted keys w * n + v of the witness-item pairs
        n = sets.shape[1]
        held = np.repeat(np.arange(sets.shape[0]) * n, np.diff(sets.indptr)) + sets.indices
    while True:
        yield rows, witnesses
        grown, r, v = _grow(rows, witnesses, sets)
        if sets is None:
            witnesses = witnesses[r].multiply(holds[v])
        else:
            c, j = (x.astype(np.int64) for x in witnesses.nonzero())
            after = np.searchsorted(held, j * n + rows[c, -1], side="right")
            e, k = _ranges(after, sets.indptr[j + 1])
            found = np.searchsorted(r.astype(np.int64) * n + v, c[e] * n + sets.indices[k])
            witnesses = sp.csr_matrix((np.ones(e.size, dtype=bool), (found, j[e])),
                                      shape=(r.size, witnesses.shape[1]))
        rows = grown


def _grow(rows: np.ndarray, witnesses: sp.csr_matrix, sets: sp.csr_matrix | None):
    """(next round's rows, r, v): rows[r] extended by v, in lexicographic
    order. Under the set-family rule a boolean product ORs a row's sets."""
    allowed = witnesses if sets is None else witnesses @ sets
    allowed.sort_indices()
    r, v = allowed.nonzero()
    if sets is not None:  # a set may also hold items below a row's last member
        above = v > rows[r, -1]
        r, v = r[above], v[above]
    return np.column_stack([rows[r], v]), r, v


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, k) with start[i] <= k < stop[i], ordered by i, then k."""
    n = stop - start
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(i.size) + np.repeat(start - (np.cumsum(n) - n), n)
