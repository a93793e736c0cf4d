"""Ball covers, partitions of unity, Mayer-Vietoris rows, and slice homotopies.

A cover is built from sample-point centers: shrunken balls of radius eps+eta
and big balls of radius eps+2*eta, with linear bump hats between the two
radii. Telescoped tensor powers of the hats give a partition of unity on
every admissible tuple, which drives both the Mayer-Vietoris reconstruction
and the local Poincare homotopy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import comb

import numpy as np
import scipy.sparse as sp

from .space import MetricMeasureSpace
from .neighborhoods import NeighborhoodSystem, TupleSet, _row_rounds, faces
from .cochains import _signed_face_csr
from .cohomology import BettiReport, _betti, _cleared_rank, compare_numeric_exact, exact_betti
from .hodge import WeightedComplex, hodge_report


# Mayer-Vietoris rows whose assembled matrices hold at most this many rows
# are also ranked as a whole.
MV_CROSSCHECK_CUTOFF = 2000
# Bytes of slice operators (their Psi and local coboundary entries) whose
# homotopy residuals are formed together. The Poincare suite of interval32
# peaks at 3.28 MB of allocations (tracemalloc) with 512 KB groups and at
# 3.69 MB with 640 KB groups, at the same speed.
RESIDUAL_GROUP_BYTES = 512 << 10


class CoverError(ValueError):
    """Raised for covers that fail their structural preconditions."""


class SliceEmptyError(RuntimeError):
    """Raised when no admissible slice point exists for an intersection."""


@dataclass(eq=False)
class CoverSystem:
    """Ball cover around sample-point centers.

    big ball alpha  = { x : dist(x, center_alpha) < eps + 2*eta }
    small ball alpha = { x : dist(x, center_alpha) < eps + eta }
    bump_alpha(x) = clip((eps + 2*eta - dist(x, center_alpha)) / eta, 0, 1),
    so each hat is 1 on its small ball and 0 outside its big ball.
    """

    space: MetricMeasureSpace
    system: NeighborhoodSystem
    eps: float
    eta: float
    centers: np.ndarray
    big_masks: np.ndarray = field(init=False)
    bumps: np.ndarray = field(init=False)
    _membership: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        centers = np.asarray(self.centers)
        if centers.ndim != 1:
            raise CoverError(f"centers must be a 1-D index array, got shape {centers.shape}")
        if centers.size == 0:
            raise CoverError("cover needs at least one center")
        if centers.dtype.kind not in "iu":
            raise CoverError(f"centers must be integer point indices, got {centers.tolist()[:8]}")
        centers = centers.astype(int)
        outside = centers[(centers < 0) | (centers >= self.space.n)]
        if outside.size:
            raise CoverError(f"centers {outside.tolist()} outside 0..{self.space.n - 1}")
        if not (self.eps > 0 and 0 < self.eta < np.inf):  # NaN fails every comparison
            raise CoverError(
                f"eps and eta must be positive, eta finite: eps={self.eps}, eta={self.eta}"
            )
        d = self.space.dist[centers]  # (n_balls, n)
        covered = (d < self.eta).any(axis=0)
        if not covered.all():
            missing = np.nonzero(~covered)[0]
            raise CoverError(
                f"eta-balls around centers do not cover points {missing.tolist()[:8]}"
            )
        self.centers = centers
        self.big_masks = d < self.eps + 2.0 * self.eta
        self.bumps = np.clip((self.eps + 2.0 * self.eta - d) / self.eta, 0.0, 1.0)

    @property
    def n_balls(self) -> int:
        return self.centers.size


def default_cover(space: MetricMeasureSpace, system: NeighborhoodSystem, every: int = 1,
                  eps: float | None = None) -> CoverSystem:
    """Cover centered on every `every`-th sample point.

    eta is just above the centers' covering radius, keeping balls as small as
    the sample allows (tight balls keep the slice sets nonempty). eps defaults
    to the system's scale; systems without one (full) need it passed
    explicitly.
    """
    if isinstance(every, bool) or not isinstance(every, (int, np.integer)):
        raise CoverError(f"every must be an integer stride, got {every!r}")
    if every < 1:
        raise CoverError(f"every must be at least 1, got {every}")
    centers = np.arange(0, space.n, every)
    cov_radius = float(space.dist[centers].min(axis=0).max())
    base = cov_radius if cov_radius > 0 else space.mesh_width() / 2.0
    eta = 1.02 * base if base > 0 else 1e-3
    eps = system.eps if eps is None else eps
    if eps is None:
        raise CoverError("system carries no scale; pass eps explicitly")
    return CoverSystem(space, system, eps, eta, centers)


@dataclass(eq=False)
class LocalComplex:
    """A weighted complex restricted to an intersection.

    global_rows[p] holds the sorted global ids of the degree-p tuples inside
    the intersection; local degree-p coordinates follow that order. Degree 0
    is the point set, so global_rows[0] lists the intersection's points.
    """

    alphas: tuple
    complex_: WeightedComplex
    global_rows: list[np.ndarray]

    def dim(self, p: int) -> int:
        return self.global_rows[p].size if p < len(self.global_rows) else 0

    def coboundary_entries(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entries of delta_p restricted here: (row, col, sign, removed point).

        Read from the global CSR rows of the inside (p+1)-tuples, which hold
        one entry per face; every face of an inside tuple is inside, so each
        global column has a local one. `cochains._signed_face_csr` writes each
        row as its faces dropping the last member first, so the removed points
        are the row tuple's members in reverse. Local ids take the global
        CSR's index dtype.
        """
        rows, cols = self.global_rows[p + 1], self.global_rows[p]
        mat = self.complex_.coboundary(p).matrix
        k = p + 2
        index = mat.indices.dtype  # local ids are below the global ones
        local = np.empty(mat.shape[1], dtype=index)  # read only at inside columns
        local[cols] = np.arange(cols.size, dtype=index)
        return (
            np.repeat(np.arange(rows.size, dtype=index), k),
            local[mat.indices.reshape(-1, k)[rows].ravel()],
            mat.data.reshape(-1, k)[rows].ravel(),
            self.complex_.tuple_sets[p + 1].tuples[rows, ::-1].ravel(),
        )


def restrict_complex(cover: CoverSystem, complex_: WeightedComplex, alphas,
                     max_degree: int) -> LocalComplex:
    """Restrict a complex to the tuples supported inside an intersection: those
    that every ball of the intersection holds, an AND of membership rows."""
    alphas = tuple(sorted(int(a) for a in alphas))
    if not alphas:
        raise CoverError("an intersection needs at least one ball")
    outside = [a for a in alphas if not 0 <= a < cover.n_balls]
    if outside:
        raise CoverError(f"ball indices {outside} outside 0..{cover.n_balls - 1}")
    global_rows = []
    for p in range(max_degree + 1):
        membership = _tuple_ball_membership(complex_, cover, p)
        inside = membership[alphas[0]]
        for a in alphas[1:]:
            inside = inside & membership[a]
        global_rows.append(np.nonzero(inside)[0])
    return LocalComplex(alphas, complex_, global_rows)


def partition_of_unity(cover: CoverSystem, tuples: np.ndarray) -> np.ndarray:
    """(n_balls, m) partition values on the given tuple rows: telescoped
    tensor-power hats, chi_alpha = t_alpha * prod_{beta<alpha} (1 - t_beta)."""
    if tuples.size == 0:
        return np.zeros((cover.n_balls, 0))
    t = cover.bumps[:, tuples].prod(axis=2)  # (n_balls, m)
    chi = np.empty_like(t)
    carry = np.ones(t.shape[1])
    for a in range(t.shape[0]):
        chi[a] = t[a] * carry
        carry = carry * (1.0 - t[a])
    return chi


def _levels(masks: np.ndarray):
    """Cech levels 0, 1, 2, ... of the balls' (n_balls, m) item masks: the
    set-family rounds (combos, inside), inside[c, j] saying that every ball
    of combo c holds item j; only combos whose intersection holds an item."""
    holds = sp.csr_matrix(masks)
    return _row_rounds(holds, holds.T.tocsr())


# ---------------------------------------------------------------------------
# Mayer-Vietoris rank certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MVCertificate:
    degree: int
    injective: bool
    rows: tuple  # per-q dicts: dim, rank_in, dim_kernel, exact
    reconstruction_ok: bool
    exact: bool
    crosscheck: str = "skipped"  # global-assembly rank comparison: pass/skipped/fail/uncertain


def _cech_differences(levels) -> list[sp.csr_matrix]:
    """Signed Cech differences between consecutive levels, as int64 CSR matrices.

    levels[k] is (combos, inside): combos a (K, k) int64 array in lexicographic
    order and inside a (K, m) bool CSR matrix, inside[c, j] saying that item j
    lies in every ball of combo c. The level's coordinates are the nonzeros of
    inside in row-major order. Every face of a combo of level k+1 is a combo
    of level k, whose inside holds every item of the combo's. Coordinate
    (c, j) maps to (face, j) for each face, found by one `TupleSet.locate` of
    all faces, one face position after another as in `build_coboundary`, and
    one `np.searchsorted` per face position of the flat keys row*m + item.
    Dropping the i-th ball gives sign (-1)^i; a combo of one ball has the
    level of width 0 as its only face. Level sizes are the shapes. A combo's
    faces sort as dropping its last ball first, so `_signed_face_csr` writes
    the CSR arrays directly, k entries a row.
    """
    deltas = []
    for (lo_combos, lo_inside), (up_combos, up_inside) in zip(levels, levels[1:]):
        K, k = up_combos.shape
        m = up_inside.shape[1]
        if k == 1:
            face_rows = np.zeros((K, 1), dtype=np.int64)
        else:
            face_rows = TupleSet(k - 2, lo_combos).locate(faces(up_combos).swapaxes(0, 1)).T
        lo_r, lo_j = lo_inside.nonzero()
        up_r, up_j = up_inside.nonzero()
        lo_keys = lo_r.astype(np.int64) * m + lo_j
        deltas.append(_signed_face_csr(
            lambda i: np.searchsorted(lo_keys, face_rows[up_r, i] * m + up_j),
            k, (up_r.size, lo_r.size),
        ))
    return deltas


def _tuple_ball_membership(complex_: WeightedComplex, cover: CoverSystem, p: int) -> np.ndarray:
    """(n_balls, m) bool, read-only: tuple row fully inside the big ball.

    Memoized on the cover per tuple set, which the memo keeps alive so that
    its id stays unique.
    """
    ts = complex_.tuple_sets[p]
    if id(ts) not in cover._membership:
        inside = cover.big_masks[:, ts.tuples].all(axis=2)
        inside.setflags(write=False)
        cover._membership[id(ts)] = ts, inside
    return cover._membership[id(ts)][1]


def _enumerate_blocks(membership: np.ndarray, depth: int) -> tuple[list, list[sp.csr_matrix]]:
    """Restriction row through level `depth`: (levels, differences).

    membership is `_tuple_ball_membership` of the row's degree. levels[0] is
    level -1, the global cochains: one combo of width 0 holding every tuple.
    levels[q + 1] is level q of `_levels(membership)`: the combos whose
    intersection holds a tuple, inside[c, t] saying that global tuple t lies
    in intersection c. differences[0] is the restriction R, differences[q + 1]
    the Cech difference from level q to level q+1.
    """
    everything = sp.csr_matrix(np.ones((1, membership.shape[1]), dtype=bool))
    levels = [(np.empty((1, 0), dtype=np.int64), everything)]
    levels += islice(_levels(membership), depth + 1)
    return levels, _cech_differences(levels)


def mayer_vietoris_check(
    complex_: WeightedComplex,
    cover: CoverSystem,
    p: int,
    q_max: int = 1,
) -> MVCertificate:
    """Exactness certificate for the degree-p Mayer-Vietoris restriction row.

    0 -> C^p(global) -> prod_a C^p(U_a) -> prod_{a<b} C^p(U_ab) -> ...

    With count[s] the number of degree-p tuples in exactly s balls, level q
    holds sum_s count[s] C(s, q+1) coordinates, and the map into it (R for
    q = 0) has rank sum_s count[s] C(s-1, q): the row splits over tuples into
    coface complexes of full simplices, which are contractible. Each row's
    dim_kernel therefore equals rank_in by Pascal's rule, so `exact` on a row
    holds by construction and the crosscheck is the independent witness: when
    the assembled matrices hold at most MV_CROSSCHECK_CUTOFF rows they are
    eliminated as a whole over both primes and must reproduce both sums.
    The levels are `_levels` of the tuple membership: only the combos whose
    intersection holds a degree-p tuple, the others having no coordinate.
    Preimages are reconstructed through the partition of unity and checked
    numerically, on seeded random cochains.
    """
    m_global = complex_.tuple_sets[p].size
    membership = _tuple_ball_membership(complex_, cover, p)
    count = np.bincount(membership.sum(axis=0)).tolist()
    dims = [sum(c * comb(s, q + 1) for s, c in enumerate(count)) for q in range(q_max + 2)]
    ranks = [sum(c * comb(s - 1, q) for s, c in enumerate(count) if s) for q in range(q_max + 2)]
    rows = tuple(
        {"q": q, "dim": dims[q], "rank_in": ranks[q], "dim_kernel": dims[q] - ranks[q + 1],
         "exact": dims[q] - ranks[q + 1] == ranks[q]}
        for q in range(q_max + 1)
    )
    injective = ranks[0] == m_global
    exact = injective and all(row["exact"] for row in rows)

    run_crosscheck = sum(dims) + m_global <= MV_CROSSCHECK_CUTOFF
    levels, deltas = _enumerate_blocks(membership, q_max + run_crosscheck)
    chi = partition_of_unity(cover, complex_.tuple_sets[p].tuples)
    recon_ok = _check_reconstructions(chi, levels, deltas[: q_max + 1], np.random.default_rng(0))

    crosscheck = "skipped"
    if run_crosscheck:
        # each matrix from scratch: clearing would assume D_{q+1} D_q = 0
        whole_ranks, certain = zip(*(_cleared_rank(D, {}) for D in deltas))
        agree = list(whole_ranks) == ranks and [D.shape[0] for D in deltas] == dims
        crosscheck = "uncertain" if not all(certain) else "pass" if agree else "fail"
        exact = exact and agree and all(certain)

    return MVCertificate(p, injective, rows, recon_ok, bool(exact and recon_ok), crosscheck)


def _check_reconstructions(chi, levels, deltas, rng) -> bool:
    """Partition-of-unity preimages of random Cech coboundaries.

    chi holds the partition values on the global tuples, (n_balls, m); levels
    and deltas come from `_enumerate_blocks`. For each difference D (level
    q-1 to q, R for q = 0) the partition matrix K maps level q back:
    (K F)_B = sum_a sign * chi_a * F_{a u B}. K is D transposed with each entry
    scaled by chi_a of its tuple, a being the ball whose removal gives the
    face (the difference of the two combos' index sums). Exactness of the row
    makes D K F = F for F = D x, checked on a random x per level.
    """
    coords = []  # per level: global tuple id and combo index sum of each coordinate
    for combos, inside in levels:
        r, t = inside.nonzero()
        coords.append((t, combos.sum(axis=1)[r]))
    ok = True
    for D, (_, lo_sum), (up_tuple, up_sum) in zip(deltas, coords, coords[1:]):
        E = D.tocoo()
        weights = E.data * chi[up_sum[E.row] - lo_sum[E.col], up_tuple[E.row]]
        K = sp.csr_matrix((weights, (E.col, E.row)), shape=D.shape[::-1])
        F = D @ rng.standard_normal(D.shape[1])
        resid = np.abs(D @ (K @ F) - F).max(initial=0.0)
        ok = ok and resid <= 1e-12 * max(np.abs(F).max(initial=0.0), 1.0)
    return bool(ok)


# ---------------------------------------------------------------------------
# Cech cohomology of the cover on locally constant cochains
# ---------------------------------------------------------------------------


def _nerve_differences(cover: CoverSystem, q_max: int) -> list[sp.csr_matrix]:
    """Nerve differences from level q to q+1, q = 0..q_max, on locally constant cochains.

    The point-level row (inside = the intersection masks) is compressed to
    one coordinate per eps-connected component. One connected_components call
    per level, on the eps-graphs of all its intersections kept apart, labels
    the components by combo and then by smallest point. A component's row is
    the point difference at its smallest point, with columns read through
    the lower level's labels.
    """
    # scipy.sparse does not load csgraph: importing it here keeps its ~0.9 MB
    # out of every process that only imports this module
    from scipy.sparse.csgraph import connected_components

    near = sp.csr_matrix(cover.space.dist < cover.eps)
    levels = list(islice(_levels(cover.big_masks), q_max + 2))
    components = []
    for _, inside in levels:
        r, x = inside.nonzero()
        index = np.full(inside.shape, -1)
        index[r, x] = np.arange(r.size)
        a, y = near[x].nonzero()  # the point of coordinate a is eps-close to point y
        b = index[r[a], y]  # y's coordinate in a's intersection, -1 outside it
        a, b = a[b >= 0], b[b >= 0]
        graph = sp.csr_matrix((np.ones(a.size, dtype=bool), (a, b)), shape=(r.size, r.size))
        components.append(connected_components(graph, directed=False))
    deltas = []
    for D, (lo_count, lo_labels), (up_count, up_labels) in zip(
        _cech_differences(levels), components, components[1:]
    ):
        smallest = np.unique(up_labels, return_index=True)[1]
        E = D[smallest].tocoo()
        deltas.append(
            sp.csr_matrix((E.data, (E.row, lo_labels[E.col])), shape=(up_count, lo_count))
        )
    return deltas


def cech_nerve_betti(cover: CoverSystem, q_max: int = 2) -> BettiReport:
    """Cech cohomology of the cover with real coefficients.

    Cochains are locally constant on each intersection: one coordinate per
    connected component (eps-connectivity), so disconnected overlaps are
    handled correctly. The Betti numbers come from the Cech differentials by
    the formula of `exact_betti`: exact ranks over both primes, with clearing
    across levels, and a degree that reads an unsettled rank is uncertain.
    """
    return _betti(
        _nerve_differences(cover, q_max),
        {"route": "cech-nerve", "eps": cover.eps, "eta": cover.eta, "n_balls": cover.n_balls},
    )


# ---------------------------------------------------------------------------
# Slices and the averaged homotopy operator
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HomotopyOperator:
    """Averaging homotopy over a slice set W of an intersection.

    (Psi F)(x_0..x_{p-1}) = (1/mass(W)) * sum_{t in W} w_t F(t, x_0..x_{p-1});
    valid whenever prepending any t in W to an admissible tuple with at most
    `level` points stays admissible (checked constructively at build time).
    delta[p] holds the entries (row, col, sign) of the local delta_p,
    p = 0..level-1, as `LocalComplex.coboundary_entries` gives them. psi[p - 1]
    holds the entries (row, col, value) of Psi from local degree p to p-1 in
    the order of delta_{p-1}'s entries, so sorted by column: the transpose of
    the local delta_{p-1}, each entry weighted by w_t/mass of its removed
    point t and kept only for t in W.
    """

    alphas: tuple
    level: int
    W: np.ndarray
    local: LocalComplex
    psi: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    delta: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def psi_matrix(self, p: int) -> sp.csr_matrix:
        """CSR matrix of Psi: local degree p -> degree p-1 (1 <= p <= level)."""
        if not (1 <= p <= self.level):
            raise CoverError(f"Psi valid for degrees 1..{self.level}")
        row, col, value = self.psi[p - 1]
        return sp.csr_matrix((value, (row, col)), shape=(self.local.dim(p - 1), self.local.dim(p)))


def build_slice_and_psi(
    cover: CoverSystem, complex_: WeightedComplex, alphas, level: int
) -> HomotopyOperator:
    """Slice W and Psi_1..Psi_level, read from the local coboundary entries of
    degrees 0..level-1, each computed once and kept on the operator.

    t is in W when prepending it keeps every local tuple of at most `level`
    points admissible. An entry of the local delta_{ell-1} joins an ell-tuple
    to its face without the removed point t, so the entries removing t are the
    admissible augmentations of the local (ell-1)-tuples that avoid t. t is
    kept when, at every ell, they number all (ell-1)-tuples avoiding t.

    Psi_ell is delta_{ell-1}^T weighted by w_t/mass of the removed point t,
    keeping the entries with t in W; an entry's sign is the insertion parity
    of its t, and sign * (w_t/mass) is (sign * w_t)/mass to the bit.

    Raises SliceEmptyError when no such t exists (the contractibility
    assumption fails at this scale for this intersection).
    """
    if level + 1 > len(complex_.tuple_sets):
        raise CoverError(
            f"slice level {level} needs tuple sets to degree {level}; "
            f"rebuild the complex with p_max >= {level - 1}"
        )
    loc = restrict_complex(cover, complex_, alphas, level)
    if loc.dim(0) == 0:
        raise CoverError(f"intersection {tuple(alphas)} is empty")
    n = cover.space.n
    entries = [loc.coboundary_entries(p) for p in range(level)]
    in_W = np.zeros(n, dtype=bool)
    in_W[loc.global_rows[0]] = True
    holding = in_W.astype(np.int64)  # local (ell-1)-tuples holding each point
    for ell, (_, _, _, removed) in enumerate(entries, 1):
        # every local ell-tuple has one entry removing each of its members
        count = np.bincount(removed, minlength=n)
        in_W &= count == loc.dim(ell - 1) - holding
        holding = count
    if not in_W.any():
        raise SliceEmptyError(
            f"slice set empty for intersection {tuple(alphas)} at level {level}"
        )
    W = np.nonzero(in_W)[0]
    mass = float(cover.space.weights[W].sum())
    share = cover.space.weights / mass
    psi = []
    for row, col, sign, removed in entries:
        hit = np.nonzero(in_W[removed])[0]
        psi.append((col[hit], row[hit], sign[hit] * share[removed[hit]]))
    return HomotopyOperator(loc.alphas, level, W, loc, psi, [e[:3] for e in entries])


def _block_csr(entries, n_rows, n_cols) -> sp.csr_matrix:
    """Block-diagonal CSR of one (row, col, value) block per operator, each
    block sorted by row and of shape (n_rows[k], n_cols[k]). Every row keeps
    its entries in the order given: nothing is sorted or summed. Indices are
    int32 when they fit, so that scipy takes them without a scan."""
    rows, cols, vals = zip(*entries)
    sizes = [r.size for r in rows]
    shape = (sum(n_rows), sum(n_cols))
    index = np.int32 if max(*shape, sum(sizes)) <= np.iinfo(np.int32).max else np.int64
    row_start, col_start = (np.cumsum(n) - n for n in (np.asarray(n_rows, index),
                                                       np.asarray(n_cols, index)))
    rows = np.concatenate(rows, dtype=index) + np.repeat(row_start, sizes)
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    cols = np.concatenate(cols, dtype=index) + np.repeat(col_start, sizes)
    return sp.csr_matrix((np.concatenate(vals), cols, indptr), shape=shape)


def homotopy_identity_residual(ops) -> list[tuple]:
    """Max-abs residuals of Psi delta + delta Psi = identity on local degrees
    1..level-1, one tuple per operator of `ops`, which share one level.

    The operators' delta_0..delta_{level-1} and Psi_1..Psi_level are laid
    out as block-diagonal CSR matrices, each built once, from the entry
    arrays with no canonicalising step, and dropped after its last product;
    each Psi, stored by column, reaches row order by scipy's transpose, a
    stable counting sort. At degree p, Psi_{p+1} delta_p + delta_{p-1} Psi_p
    is formed by two sparse products (Gustavson's row-wise algorithm) and
    one sum, and 1 is subtracted from its diagonal entries in place: nothing
    of size m x m, and every entry formed from entries, off the diagonal too.
    A row with no diagonal entry holds -1 there, so it counts as 1.

    The bits are those of one operator's products on their own, summed entry
    by entry into a dense accumulator. A product adds an entry's terms from 0
    in the order of the left factor's row, then of the right factor's row,
    and blocks of other operators add no term. The sum gives s1 + s2 where
    an accumulator gives (0 + s1) + s2, which differ only in the sign of a
    zero, and the identity is subtracted last in both. Each operator's
    residual is the max |entry| over its own rows. The interval32 suite
    peaks at 3.28 MB of allocations, against 3.32 MB for a call per degree.
    """
    if len({op.level for op in ops}) > 1:
        raise CoverError("a residual group holds operators of one level")
    level = ops[0].level if ops else 1
    dims = [[op.local.dim(q) for op in ops] for q in range(level + 1)]

    def psi(q):  # Psi_q is stored by column: the CSR of its transpose, transposed
        entries = [(col, row, value) for row, col, value in (op.psi[q - 1] for op in ops)]
        return _block_csr(entries, dims[q], dims[q - 1]).T.tocsr()

    def delta(q):
        return _block_csr([op.delta[q] for op in ops], dims[q + 1], dims[q])

    worst = np.zeros((len(ops), level - 1))
    delta_prev = psi_p = None  # delta_{p-1} and Psi_p, kept from the degree below
    for p in range(1, level):
        psi_next, delta_p = psi(p + 1), delta(p)
        lhs = psi_next @ delta_p
        if p == level - 1:  # no later product: dropped before the sum
            psi_next = delta_p = None
        other = delta_prev @ psi_p if p > 1 else delta(0) @ psi(1)
        delta_prev, psi_p = delta_p, psi_next
        lhs = lhs + other
        row = np.repeat(np.arange(lhs.shape[0], dtype=lhs.indices.dtype), np.diff(lhs.indptr))
        diagonal = lhs.indices == row
        lhs.data[diagonal] -= 1.0
        row_start = np.cumsum(dims[p]) - dims[p]
        start, stop = lhs.indptr[row_start], lhs.indptr[row_start + dims[p]]
        some, found = stop > start, np.zeros(len(ops), dtype=np.intp)
        worst[some, p - 1] = np.maximum.reduceat(np.abs(lhs.data), start[some])
        found[some] = np.add.reduceat(diagonal, start[some], dtype=np.intp)
        np.maximum(worst[:, p - 1], found < dims[p], out=worst[:, p - 1])
        del lhs, other  # before the next degree's products
    return [tuple(r) for r in worst.tolist()]


@dataclass(frozen=True)
class PoincareCheck:
    alphas: tuple
    level: int
    residuals: tuple  # per degree 1..level-1

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def _operator_bytes(op: HomotopyOperator) -> int:
    return sum(a.nbytes for part in (*op.psi, *op.delta) for a in part)


def poincare_suite(
    cover: CoverSystem, complex_: WeightedComplex, p_check: int, max_depth: int = 2
) -> list[PoincareCheck]:
    """Homotopy identity on every nonempty intersection up to max_depth balls.

    The tuple membership of each ball is formed once per degree (memoized on
    the cover), and every intersection's restriction ANDs its balls' rows.
    Slices are built one intersection at a time, in nerve order: the combos
    of `_levels` on the big-ball masks, levels 0..max_depth-1. Once the
    operators built since the last group hold RESIDUAL_GROUP_BYTES, their
    residuals at every degree are formed by one `homotopy_identity_residual`
    call and the operators are dropped, so no more than one group of them is
    alive at a time (a 3.28 MB tracemalloc peak on interval32).
    """
    out, group, size = [], [], 0
    level = p_check + 1

    def flush():
        residuals = homotopy_identity_residual(group)
        out.extend(PoincareCheck(op.alphas, level, r) for op, r in zip(group, residuals))
        group.clear()

    for combos, _ in islice(_levels(cover.big_masks), max(max_depth, 0)):
        for combo in combos.tolist():
            group.append(build_slice_and_psi(cover, complex_, combo, level))
            size += _operator_bytes(group[-1])
            if size >= RESIDUAL_GROUP_BYTES:
                flush()
                size = 0
    if group:
        flush()
    return out


# ---------------------------------------------------------------------------
# Recovery report: three Betti routes against the generator's reference
# ---------------------------------------------------------------------------

REFERENCE_BETTI = {
    "circle": (1, 1, 0, 0),
    "interval": (1, 0, 0, 0),
    "sphere": (1, 0, 1, 0),
}


def reference_betti(space: MetricMeasureSpace, p_max: int) -> tuple:
    gen = space.metadata.get("generator")
    if gen not in REFERENCE_BETTI:
        raise CoverError(f"no reference Betti numbers for generator {gen!r}")
    ref = REFERENCE_BETTI[gen]
    return tuple(ref[p] if p < len(ref) else 0 for p in range(p_max + 1))


def derham_recovery_report(complex_: WeightedComplex, cover: CoverSystem | None = None) -> dict:
    """Compare spectral, exact-field, and (optionally) Cech-nerve Betti numbers.

    The spectral counts match the exact ones only when every degree's status
    is 'agree': a disagreement or an uncertain count fails the comparison.
    The Cech numbers, in degrees up to min(2, p_max), match the reference only
    when no nerve degree is uncertain.
    """
    betti = exact_betti(complex_)
    reports = [
        hodge_report(complex_, p, oracle=betti.betti[p]) for p in range(complex_.p_max + 1)
    ]
    agreement = compare_numeric_exact(reports, betti)
    ref = reference_betti(complex_.space, complex_.p_max)
    out = {
        "schema": 2,
        "reference": list(ref),
        "exact": list(betti.betti),
        "spectral": list(agreement.spectral),
        "spectral_flagged": [r.flagged for r in reports],
        "status": list(agreement.status),
        "exact_matches_reference": tuple(betti.betti) == ref,
        "spectral_matches_exact": agreement.all_agree,
    }
    if cover is not None:
        nerve = cech_nerve_betti(cover, q_max=min(2, complex_.p_max))
        nerve_trunc = tuple(nerve.betti[: complex_.p_max + 1])
        out["cech"] = list(nerve.betti)
        out["cech_uncertain"] = list(nerve.uncertain)
        out["cech_matches_reference"] = nerve_trunc == ref[: len(nerve_trunc)] and not any(
            nerve.uncertain
        )
    out["all_agree"] = out["exact_matches_reference"] and out["spectral_matches_exact"] and (
        cover is None or out["cech_matches_reference"]
    )
    return out
