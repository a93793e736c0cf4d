"""Reference implementations kept only to check the package against.

`dense_rank_mod_p` is the dense modular Gaussian elimination that `rank_mod_p`
used before ranks moved to sparse column reduction. `dict_locate` and
`loop_coboundary` are the per-row dictionary lookup and coboundary loop that
`TupleSet.locate` and `build_coboundary` replaced. `simplex_coface_matrix`
spells out the coface matrices whose ranks `mayer_vietoris_check` sums in
closed form. `intersection_mask` is the AND of an intersection's big-ball
masks, which the package reads as the degree-0 rows of `restrict_complex`.
`assembled_matrices` and `loop_nerve_differences` are
per-intersection Cech builders, one block and one face lookup at a time; the
package builds each level at once instead (combos from the tuple
enumerator's rounds, faces by one `TupleSet.locate`, nerve components from
one `connected_components` call per level). `nerve_combos` lists the nerve
by brute force, and `cech_sign` is the sign rule of the partition-of-unity
preimage.
`restrict_tuple_sets` and `poincare_check` are the per-intersection
restriction (its own tuple sets and coboundaries) and the dense slice
homotopy on it that the global-row slices of `restrict_complex` replaced;
`slice_oracle` and `psi_oracle` are its point-by-point slice test and
insertion-built Psi, which the local coboundary entries replaced.
`dense_coboundary` and `dense_psi` densify a local coboundary and a Psi, as
the package did before the residual was summed from entries; `dense_levels`
is the dense AND that built each nerve level's inside before the sparse
products of `_nerve_levels`. `residual_oracle` is `homotopy_identity_residual`
for one operator before intersections were grouped: Gustavson products by
`_join`, summed into a dense accumulator RESIDUAL_BLOCK entries at a time.
`triangle_scan` is the one-intermediate-point-per-pass triangle check that
the blocked min-plus scan of `_check_metric` replaced, and `full_asymmetry`
the symmetry check over the whole square before it read only the blocks on
and above the diagonal. `mesh_width` is
`MetricMeasureSpace.mesh_width` before it took row minima block by block:
three n x n temporaries (the identity, its scaled copy and the masked sum).
`dense_low_spectrum` is the dense branch of `hodge._low_spectrum` before it
solved in place: a whole |S| temporary for the Gershgorin bound and numpy's
`eigvalsh`, which solves a private copy, so two m x m arrays are live at once.
`dense_masses` is `assemble_weights` before it evaluated the kernel on the
tuples' own pairs: the dense kernel matrix (distances plus the identity,
raised to the power, truncated, zero diagonal), read at every ordered member
pair.
`capacity_energy` is the energy of `build_capacity_problem` before it was
written from the pair list: a degree-0 complex, a float copy of B_0 and two
sparse products. `exact_capacity` is the clamped minimum of a capacity
problem's weighted graph, assembled from its float masses and solved in
40-digit arithmetic.
`multiplicity_histogram`, `slice_mass` and `slice_size` are the
`MVCertificate.multiplicity_histogram`, `HomotopyOperator.mass` (later its
`weights`) and `PoincareCheck.w_size` that every Mayer-Vietoris or Poincaré
call computed for the tests alone.
`partition_supported`, `system_dominates`, `sym_project` and `eval_kernel` are
helpers that only the tests use.
`cover_system` and `admissible_tuples` are the cover-set neighbourhood
system, whose tuples lie in one set of a family; they run the package's
set-family rounds on that family. `capacity_of_hole` is the capacity of a
point or interval hole in the unit interval, built from `gen_interval`,
`build_capacity_problem` and `capacity` like the benchmark's ladder.
`weighted_laplacian` is the unsymmetrized Laplacian L_p whose conjugate
W_p^{1/2} L_p W_p^{-1/2} the package builds, and `laplacian_oracle` is
`hodge._laplacian_csr` before each term became one product: the chain
D X diag(w) X^T D of sparse products, and a transpose for the skew guard and
another for the symmetrization. `pivot_columns_oracle` is
`cohomology._pivot_columns` before apparent pivots were kept as column
indices: every column becomes a dict and a modular inverse. `rank_mod_p`, `is_admissible`,
`rescaled`, `tensor_evaluator`, `insert_points`, `cone_contraction`,
`check_kernel_conditions`, `permuted` and `total_mass` are no longer in the
package, which never called them; the tests that checked them check them
here.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from nlhodge.capacity import build_capacity_problem, capacity
from nlhodge.cochains import Cochain, CochainError, build_coboundary
from nlhodge.cohomology import PRIME_MAIN, _pivot_columns
from nlhodge.covers import _ranges, build_slice_and_psi
from nlhodge.hodge import HodgeError, build_weighted_complex
from nlhodge.kernels import KernelError, KernelModel, fractional_kernel, kernel_matrix
from nlhodge.neighborhoods import TupleSet, _row_rounds, enumerate_tuples, rips_system
from nlhodge.space import METRIC_TOL, MetricMeasureSpace, SpaceValidationError, gen_interval

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


def triangle_scan(dist, tol: float = METRIC_TOL) -> None:
    """Raise on the most negative slack at the first intermediate point j that has one."""
    n = dist.shape[0]
    # Triangle inequality, one intermediate point per pass to keep memory at O(n^2).
    for j in range(n):
        slack = dist[:, j, None] + dist[None, j, :] - dist
        if slack.min() < -tol:
            i, k = np.unravel_index(np.argmin(slack), slack.shape)
            raise SpaceValidationError(
                f"triangle inequality violated for ({i}, {j}, {k}): "
                f"d({i},{k})={float(dist[i, k])!r} > d({i},{j})+d({j},{k})="
                f"{float(dist[i, j] + dist[j, k])!r}"
            )


def full_asymmetry(dist):
    """max |d_ij - d_ji| and the (i, j) of its first maximum in row-major order."""
    gap = np.abs(dist - dist.T)
    worst = gap.max()
    return (worst, np.unravel_index(np.argmax(gap), gap.shape)) if worst > 0 else (0, (0, 0))


def mesh_width(space) -> float:
    """Largest nearest-neighbour distance, with the diagonal masked by max d + 1."""
    if space.n == 1:
        return 0.0
    masked = space.dist + np.eye(space.n) * (space.dist.max() + 1.0)
    return float(masked.min(axis=1).max())


def dense_low_spectrum(S) -> tuple[np.ndarray, float]:
    """Every eigenvalue of the symmetric CSR matrix S and max(Gershgorin bound, top one)."""
    S = S.toarray()
    gersh = float(abs(S).sum(axis=1).max())
    eigs = np.linalg.eigvalsh(S)
    return eigs, max(gersh, float(eigs[-1]))


def dense_masses(model, space, tuples: np.ndarray) -> np.ndarray:
    """Tuple masses of degree >= 1 through the dense n x n kernel matrix."""
    if model.kind == "constant":
        kmat = np.full_like(space.dist, model.scale)
    elif model.kind == "custom":
        kmat = model.table.copy()
    else:
        with np.errstate(divide="ignore", over="ignore"):
            rho = space.dist + np.eye(space.n)
            kmat = model.scale * rho ** (-(model.d + model.alpha))
        if model.kind == "truncated_fractional":
            kmat = np.where(space.dist < model.eps_trunc, kmat, model.floor)
    np.fill_diagonal(kmat, 0.0)
    m, k = tuples.shape
    density = np.zeros(m)
    for a in range(k):
        prod = np.ones(m)
        for b in range(k):
            if b != a:
                prod = prod * kmat[tuples[:, a], tuples[:, b]]
        density += prod
    density /= k
    return math.factorial(k) * density * np.prod(space.weights[tuples], axis=1)


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


def intersection_mask(cover, alphas) -> np.ndarray:
    """Points inside every big ball of the intersection, one AND per ball."""
    return np.logical_and.reduce(cover.big_masks[list(alphas)], axis=0)


def nerve_combos(cover, q: int) -> list[tuple]:
    """Every (q+1)-combo of balls with a nonempty big-ball intersection, by brute force."""
    return [c for c in combinations(range(cover.n_balls), q + 1)
            if intersection_mask(cover, c).any()]


def restrict_tuple_sets(cover, complex_, alphas, max_degree: int):
    """(tuple sets, global rows) of an intersection, degrees 0..max_degree.

    Each degree gets its own TupleSet of the tuples inside the intersection;
    global rows are the ids of those tuples in the complex.
    """
    mask = intersection_mask(cover, alphas)
    sets, rows = [], []
    for p in range(max_degree + 1):
        ts = complex_.tuple_sets[p]
        sel = np.nonzero(mask[ts.tuples].all(axis=1))[0]
        sets.append(TupleSet(p, ts.tuples[sel].reshape(-1, p + 1)))
        rows.append(sel)
    return sets, rows


def slice_oracle(cover, complex_, alphas, level: int):
    """(local tuple sets, W, weights of W, mass of W) of an intersection, None for an empty slice.

    The slice keeps each intersection point whose prepending keeps every
    local tuple of at most `level` points admissible, tried point by point.
    """
    sets, _ = restrict_tuple_sets(cover, complex_, alphas, level)
    pts = np.nonzero(intersection_mask(cover, alphas))[0]
    keep = np.ones(pts.size, dtype=bool)
    for ell in range(1, level + 1):
        keys, _, hit = insert_points(sets[ell - 1].tuples, pts)
        keep &= (hit | (complex_.tuple_sets[ell].locate(keys) >= 0)).all(axis=0)
    if not keep.any():
        return None
    W = pts[keep]
    weights = cover.space.weights[W]
    return sets, W, weights, float(weights.sum())


def psi_oracle(sets, W, weights, mass, p: int) -> np.ndarray:
    """Dense Psi from local degree p to p-1: each slice point inserted into each lower tuple."""
    src, dst = sets[p], sets[p - 1]
    keys, sign, hit = insert_points(dst.tuples, W)
    r, j = np.nonzero(~hit)
    out = np.zeros((dst.size, src.size))
    out[r, src.locate(keys[r, j])] = sign[r, j] * weights[j] / mass
    return out


def dense_coboundary(loc, p: int) -> np.ndarray:
    """Dense float delta_p of a LocalComplex, scattered from its entries."""
    row, col, sign, _ = loc.coboundary_entries(p)
    out = np.zeros((loc.dim(p + 1), loc.dim(p)))
    out[row, col] = sign
    return out


def dense_psi(op, p: int) -> np.ndarray:
    """Dense Psi_p of a HomotopyOperator, from its CSR matrix."""
    return op.psi_matrix(p).toarray()


# entries of the dense accumulator of `residual_oracle`, one block of rows at a time
RESIDUAL_BLOCK = 1 << 13


def _join(keys: np.ndarray, sorted_keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j) with keys[i] == sorted_keys[j], all keys below `size`,
    ordered by i, then j."""
    count = np.bincount(sorted_keys, minlength=size)
    start = np.cumsum(count) - count
    return _ranges(start[keys], (start + count)[keys])


def residual_oracle(op, p: int) -> float:
    """Max-abs residual of Psi delta + delta Psi = identity on local degree p
    of one operator.

    Psi_{p+1} delta_p joins each Psi entry (a, r), in row order, to the
    entries (r, b) of delta_p's row r, and delta_{p-1} Psi_p each delta entry
    (a, c) to the Psi entries (c, b) of row c. A block of rows is summed into
    a dense accumulator of at most RESIDUAL_BLOCK entries by one bincount per
    product on the keys a*m + b, then the identity is subtracted.
    """
    loc = op.local
    m = loc.dim(p)
    if m == 0:
        return 0.0

    def psi(q):  # stored by column; a stable sort puts it in row order
        row, col, value = op.psi[q - 1]
        order = np.argsort(row, kind="stable")
        return row[order].astype(np.int64), col[order], value[order]

    psi_row, psi_col, psi_val = psi(p + 1)  # Psi_{p+1} delta_p
    row, col, sign, _ = loc.coboundary_entries(p)
    i, j = _join(psi_col, row, loc.dim(p + 1))
    products = [(psi_row[i], psi_row[i] * m + col[j], psi_val[i] * sign[j])]
    row, col, sign, _ = loc.coboundary_entries(p - 1)  # delta_{p-1} Psi_p
    row = row.astype(np.int64)
    psi_row, psi_col, psi_val = psi(p)
    i, j = _join(col, psi_row, loc.dim(p - 1))
    products.append((row[i], row[i] * m + psi_col[j], sign[i] * psi_val[j]))
    rows = max(1, RESIDUAL_BLOCK // m)
    worst = 0.0
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        lhs = np.zeros((stop - start) * m)
        for a, keys, vals in products:
            part = slice(*np.searchsorted(a, (start, stop)))
            lhs += np.bincount(keys[part] - start * m, vals[part], lhs.size)
        lhs[np.arange(stop - start) * (m + 1) + start] -= 1.0
        worst = max(worst, float(np.abs(lhs).max()))
    return worst


def dense_levels(masks: np.ndarray, nerve) -> list[tuple]:
    """(combos, inside) per nerve level, each inside the CSR of a dense
    K x k x m AND of the combos' mask rows."""
    return [(c, sp.csr_matrix(masks[c].all(axis=1))) for c in nerve]


def poincare_check(cover, complex_, alphas, level: int):
    """(|W|, residuals at degrees 1..level-1) of the slice homotopy, None for an empty slice.

    Psi and the local coboundaries are built on the intersection's own tuple
    sets, densely, and the residual is max |Psi delta + delta Psi - id|.
    """
    found = slice_oracle(cover, complex_, alphas, level)
    if found is None:
        return None
    sets, W, weights, mass = found

    def psi(p):
        return psi_oracle(sets, W, weights, mass, p)

    residuals = []
    for p in range(1, level):
        m = sets[p].size
        if m == 0:
            residuals.append(0.0)
            continue
        up = build_coboundary(sets[p], sets[p + 1]).matrix.astype(float).toarray()
        down = build_coboundary(sets[p - 1], sets[p]).matrix.astype(float).toarray()
        lhs = psi(p + 1) @ up + down @ psi(p)
        residuals.append(float(np.abs(lhs - np.eye(m)).max()))
    return int(W.size), residuals


def multiplicity_histogram(complex_, cover, p: int) -> tuple:
    """(#covering balls, #tuples) pairs, in increasing order, over the degree-p
    tuples that lie in at least one big ball."""
    counts = Counter()
    for t in complex_.tuple_sets[p].tuples:
        counts[int(cover.big_masks[:, t].all(axis=1).sum())] += 1
    return tuple(sorted((s, c) for s, c in counts.items() if s > 0))


def slice_mass(op) -> float:
    """mass(W): the total weight of a homotopy operator's slice points."""
    return float(op.local.complex_.space.weights[op.W].sum())


def slice_size(cover, complex_, check) -> int:
    """|W| of the slice behind one `PoincareCheck`."""
    return int(build_slice_and_psi(cover, complex_, check.alphas, check.level).W.size)


def assembled_matrices(complex_, cover, p: int, depth: int) -> list[sp.csr_matrix]:
    """[R, delta_0, ..., delta_{depth-1}] of the degree-p restriction row.

    Every intersection is restricted to its own tuple sets, and each face
    coordinate is looked up in the face's tuple set.
    """
    levels = []
    for q in range(depth + 1):
        blocks = [(c, restrict_tuple_sets(cover, complex_, c, p)) for c in nerve_combos(cover, q)]
        levels.append([(c, (sets[p], rows[p])) for c, (sets, rows) in blocks if sets[p].size])
    offsets = []
    for blocks in levels:
        off, total = {}, 0
        for combo, (ts, _) in blocks:
            off[combo] = total
            total += ts.size
        offsets.append((off, total))

    dim0 = offsets[0][1]
    cols = np.concatenate([np.empty(0, dtype=int)] + [rows for _, (_, rows) in levels[0]])
    R = sp.csr_matrix(
        (np.ones(dim0, dtype=np.int64), (np.arange(dim0), cols)),
        shape=(dim0, complex_.tuple_sets[p].size),
    )
    deltas = []
    for q in range(depth):
        off_lo, dim_lo = offsets[q]
        off_hi, dim_hi = offsets[q + 1]
        lo_lookup = dict(levels[q])
        rws, cls, dat = [], [], []
        for combo, (ts, _) in levels[q + 1]:
            for i in range(len(combo)):
                face = combo[:i] + combo[i + 1 :]
                c = lo_lookup[face][0].locate(ts.tuples)
                rws.append(off_hi[combo] + np.arange(c.size))
                cls.append(off_lo[face] + c)
                dat.append(np.full(c.size, (-1) ** i, dtype=np.int64))
        none = [np.empty(0, dtype=np.int64)]
        rws, cls, dat = (np.concatenate(none + v) for v in (rws, cls, dat))
        deltas.append(sp.csr_matrix((dat, (rws, cls)), shape=(dim_hi, dim_lo)))
    return [R] + deltas


def loop_nerve_differences(cover, q_max: int) -> list[sp.csr_matrix]:
    """Nerve differences on locally constant cochains, levels 0..q_max+1.

    Components come from scipy's connected_components, ordered by their
    smallest point; each component's smallest point is searched for in the
    components of every face.
    """
    levels = []
    for q in range(q_max + 2):
        blocks = []
        for combo in nerve_combos(cover, q):
            pts = np.nonzero(intersection_mask(cover, combo))[0]
            graph = sp.csr_matrix(cover.space.dist[np.ix_(pts, pts)] < cover.eps)
            k, labels = connected_components(graph, directed=False)
            comps = sorted((pts[labels == j] for j in range(k)), key=lambda c: int(c[0]))
            blocks.append((combo, comps))
        levels.append(blocks)
    offsets = []
    for blocks in levels:
        off, total = {}, 0
        for combo, comps in blocks:
            off[combo] = total
            total += len(comps)
        offsets.append((off, total))
    deltas = []
    for q in range(q_max + 1):
        off_lo, dim_lo = offsets[q]
        off_hi, dim_hi = offsets[q + 1]
        lo_lookup = dict(levels[q])
        rws, cls, dat = [], [], []
        for combo, comps in levels[q + 1]:
            for ci, comp in enumerate(comps):
                rep = int(comp[0])
                for i in range(len(combo)):
                    face = combo[:i] + combo[i + 1 :]
                    target = next(
                        k for k, fc in enumerate(lo_lookup[face]) if rep in set(fc.tolist())
                    )
                    rws.append(off_hi[combo] + ci)
                    cls.append(off_lo[face] + target)
                    dat.append((-1) ** i)
        deltas.append(
            sp.csr_matrix((np.array(dat, dtype=np.int64), (rws, cls)), shape=(dim_hi, dim_lo))
        )
    return deltas


def cech_sign(alpha: int, rest: tuple) -> tuple[tuple, int]:
    """Sorted index set and sign for the component F_{alpha, rest...}; 0 on repeats."""
    if alpha in rest:
        return (), 0
    pos = sum(1 for r in rest if r < alpha)
    merged = tuple(sorted((alpha,) + rest))
    return merged, (-1) ** pos


def partition_supported(cover, tuples: np.ndarray) -> bool:
    """Whether every tuple lies wholly inside some small ball (sum-to-1 condition)."""
    if tuples.size == 0:
        return True
    small = cover.space.dist[cover.centers] < cover.eps + cover.eta
    inside = small[:, tuples].all(axis=2)  # (n_balls, m)
    return bool(inside.any(axis=0).all())


@dataclass(frozen=True, eq=False)
class CoverSets:
    """Cover-set system: a tuple is admissible when one set holds all its members."""

    sets: tuple
    kind = "cover"


def cover_system(sets) -> CoverSets:
    return CoverSets(tuple(frozenset(int(v) for v in s) for s in sets))


def admissible_tuples(space, system, p: int) -> TupleSet:
    """`enumerate_tuples`, or for a CoverSets system the package's set-family
    rounds on its sets (holds[v, i] says that set i holds point v)."""
    if not isinstance(system, CoverSets):
        return enumerate_tuples(space, system, p)
    holds = np.zeros((space.n, len(system.sets)), dtype=bool)
    for i, s in enumerate(system.sets):
        holds[sorted(s), i] = True
    return TupleSet(p, next(islice(_row_rounds(sp.csr_matrix(holds), set_family=True), p, None)))


def system_dominates(finer, coarser, space, p_max: int) -> tuple[bool, tuple | None]:
    """Whether every finer-admissible tuple (degree <= p_max) is coarser-admissible.

    Returns (ok, witness tuple on failure).
    """
    for p in range(p_max + 1):
        ts = enumerate_tuples(space, finer, p)
        for row in ts.tuples.tolist():
            if not is_admissible(coarser, space, row):
                return False, tuple(row)
    return True, None


def sym_project(evaluator, tuple_set) -> Cochain:
    """Symmetrize an evaluator: mean over all orderings of each tuple."""
    p = tuple_set.degree
    fact = math.factorial(p + 1)
    vals = np.zeros(tuple_set.size)
    for r, row in enumerate(tuple_set.tuples.tolist()):
        acc = 0.0
        for perm in itertools.permutations(row):
            acc += evaluator(perm)
        vals[r] = acc / fact
    return Cochain(p, tuple_set, vals)


def eval_kernel(model, space, i: int, j: int) -> float:
    """Kernel value for one ordered pair of distinct points."""
    if i == j:
        raise KernelError("kernel is undefined on the diagonal")
    rho = space.dist[i, j]
    if model.kind == "constant":
        return model.scale
    if model.kind == "custom":
        return float(model.table[i, j])
    val = model.scale * rho ** (-(model.d + model.alpha))
    if model.kind == "truncated_fractional" and rho >= model.eps_trunc:
        return model.floor
    return float(val)


def weighted_laplacian(complex_, p: int) -> np.ndarray:
    """Dense L_p = B_{p-1} W_{p-1}^{-1} B_{p-1}^T W_p + W_p^{-1} B_p^T W_{p+1} B_p."""
    m = complex_.dim(p)
    out = sp.csr_matrix((m, m))
    if m == 0:
        return out.toarray()
    wp = complex_.weights[p]
    if p >= 1 and complex_.dim(p - 1) > 0:
        Bdn = complex_.coboundary(p - 1).matrix.astype(float)
        out = out + Bdn @ sp.diags(1.0 / complex_.weights[p - 1]) @ Bdn.T @ sp.diags(wp)
    if p <= complex_.p_max and complex_.dim(p + 1) > 0:
        Bup = complex_.coboundary(p).matrix.astype(float)
        out = out + sp.diags(1.0 / wp) @ Bup.T @ sp.diags(complex_.weights[p + 1]) @ Bup
    return out.toarray()


def laplacian_oracle(complex_, p: int) -> sp.csr_matrix:
    """W_p^{1/2} L_p W_p^{-1/2} in canonical CSR, term by term as a chain of products."""
    m = complex_.dim(p)
    out = sp.csr_matrix((m, m))
    wp = complex_.weights[p]
    if m == 0:
        return out
    terms = []  # (d, X, w) of each term D X diag(w) X^T D, D = diag(d)
    if p >= 1 and complex_.dim(p - 1) > 0:
        terms.append((np.sqrt(wp), complex_.coboundary(p - 1).matrix,
                      1.0 / complex_.weights[p - 1]))
    if p <= complex_.p_max and complex_.dim(p + 1) > 0:
        terms.append((1.0 / np.sqrt(wp), complex_.coboundary(p).matrix.T,
                      complex_.weights[p + 1]))
    for d, X, w in terms:
        D, X = sp.diags(d), X.astype(float)
        out = out + D @ X @ sp.diags(w) @ X.T @ D
    skew = abs(out - out.T).max()
    scale = max(abs(out).max(), 1.0)
    if skew > 1e-12 * scale:
        raise HodgeError(f"symmetrized Laplacian has asymmetry {skew:.3e}")
    out = 0.5 * (out + out.T)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def pivot_columns_oracle(matrix, prime: int, cleared=frozenset()) -> dict:
    """Column reduction mod prime, left to right, skipping the columns in `cleared`:
    every pivot column as ({row: value}, inverse of its pivot entry), keyed by pivot row."""
    if not sp.issparse(matrix):
        matrix = np.array(matrix, dtype=np.int64)
    A = sp.csc_matrix(matrix, dtype=np.int64, copy=True)
    A.sum_duplicates()
    A.data %= prime
    A.eliminate_zeros()
    ptr, rows, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    reduced: dict = {}
    for j in range(A.shape[1]):
        if j in cleared or ptr[j] == ptr[j + 1]:
            continue
        col = dict(zip(rows[ptr[j] : ptr[j + 1]], vals[ptr[j] : ptr[j + 1]]))
        low = rows[ptr[j + 1] - 1]
        while low in reduced:
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


def rank_mod_p(matrix, prime: int = PRIME_MAIN) -> int:
    """Exact rank over GF(prime) by the package's sparse column reduction."""
    return len(_pivot_columns(matrix, prime))


def is_admissible(system, space, idx) -> bool:
    """Whether the distinct-index tuple idx is admissible under system (any order)."""
    idx = np.asarray(idx, dtype=int)
    if len(set(idx.tolist())) != idx.size:
        return False
    if system.kind == "full":
        return True
    if system.kind == "rips":
        if idx.size == 1:
            return True
        m = float(space.dist[np.ix_(idx, idx)].max())
        return m < system.eps if system.strict else m <= system.eps
    if system.kind == "hausdorff":
        # some sample point lies within eps of every entry
        return bool(space.dist[:, idx].max(axis=1).min() <= system.eps)
    members = set(idx.tolist())
    return any(members <= s for s in system.sets)


def rescaled(model, c: float):
    """The kernel multiplied by c > 0; degree-p masses scale by c**p."""
    if c <= 0:
        raise KernelError("rescaling factor must be positive")
    if model.kind == "custom":
        return KernelModel("custom", table=model.table * c)
    return KernelModel(
        model.kind, d=model.d, alpha=model.alpha, scale=model.scale * c,
        eps_trunc=model.eps_trunc, floor=model.floor * c,
    )


def tensor_evaluator(fs):
    """Evaluator for f_0 x f_1 x ... x f_p acting on ordered index tuples."""
    fs = [np.asarray(f, dtype=float) for f in fs]

    def ev(idx):
        out = 1.0
        for f, i in zip(fs, idx):
            out *= f[i]
        return out

    return ev


def insert_points(rows: np.ndarray, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each strictly increasing row with each point put in its sorted place.

    Returns (merged, sign, hit) of shapes (m, w, k+1), (m, w), (m, w): sign
    (+-1.0) is the parity of moving the point from the front into place, and
    hit marks points that are already members (their merged row has a repeat).
    """
    pts = np.asarray(points, dtype=np.int64)
    m, k = rows.shape
    merged = np.empty((m, pts.size, k + 1), dtype=np.int64)
    merged[:, :, :k] = rows[:, None, :]
    merged[:, :, k] = pts
    merged.sort(axis=2)
    sign = np.where((rows[:, None, :] < pts[:, None]).sum(axis=2) % 2, -1.0, 1.0)
    hit = (rows[:, None, :] == pts[:, None]).any(axis=2)
    return merged, sign, hit


def cone_contraction(F, apex: int, lower) -> Cochain:
    """Contract along an apex: G(x_0..x_{p-1}) = F(apex, x_0..x_{p-1}).

    Needs every apex-augmented lower tuple to be admissible at degree p, which
    holds on full systems; on anything narrower a missing tuple is an error.
    """
    if F.degree < 1:
        raise CochainError("cannot contract a degree-0 cochain")
    if lower.degree != F.degree - 1:
        raise CochainError("lower tuple set must sit one degree below")
    keys, sign, hit = (a[:, 0] for a in insert_points(lower.tuples, [apex]))
    idx = F.tuple_set.locate(keys)
    missing = np.flatnonzero(~hit & (idx < 0))
    if missing.size:
        raise CochainError(
            f"augmented tuple {tuple(keys[missing[0]].tolist())} is not admissible; "
            "cone contraction needs a full system"
        )
    vals = np.zeros(lower.size)
    vals[~hit] = sign[~hit] * F.values[idx[~hit]]
    return Cochain(F.degree - 1, lower, vals)


@dataclass(frozen=True)
class KernelConditionsReport:
    """Discrete analogues of the near/far integrability and lower-bound checks."""

    near_sup: float
    far_sup: float
    pair_inf: float | None
    vacuous: bool


def check_kernel_conditions(model, space, eps: float) -> KernelConditionsReport:
    """Report sup_x of the near-field rho^2-moment and far-field kernel mass.

    near: sum over 0 < rho < eps of rho^2 j(x, y) w_y;  far: sum over rho >= eps
    of j(x, y) w_y; pair_inf: min kernel value over pairs with rho < eps
    (None, flagged vacuous, when no such pair exists).
    """
    kmat = kernel_matrix(model, space)
    off = ~np.eye(space.n, dtype=bool)
    near = off & (space.dist < eps)
    far = off & (space.dist >= eps)
    near_sup = float((np.where(near, space.dist**2 * kmat, 0.0) @ space.weights).max())
    far_sup = float((np.where(far, kmat, 0.0) @ space.weights).max())
    if near.any():
        return KernelConditionsReport(near_sup, far_sup, float(kmat[near].min()), False)
    return KernelConditionsReport(near_sup, far_sup, None, True)


def permuted(space, perm):
    """Relabeled copy of a space; all intrinsic quantities must be invariant under this."""
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(space.n)):
        raise SpaceValidationError("not a permutation")
    return MetricMeasureSpace(
        space.dist[np.ix_(perm, perm)], space.weights[perm], dict(space.metadata)
    )


def total_mass(space) -> float:
    return float(space.weights.sum())


def capacity_energy(space, system, kernel) -> sp.csr_matrix:
    """W_0 + B_0^T W_1 B_0 through a degree-0 complex and sparse products."""
    cx = build_weighted_complex(space, system, kernel, 0)
    B0 = cx.coboundary(0).matrix.astype(float)
    W0 = sp.diags(cx.weights[0])
    W1 = sp.diags(cx.weights[1])
    return (W0 + B0.T @ W1 @ B0).tocsr()


def capacity_of_hole(n: int, eps: float, alpha: float, hole_center: float = 0.5,
                     hole_radius: float = 0.0):
    """Capacity of a hole in the n-point unit interval, rips at eps, fractional order alpha.

    The hole is every grid point within hole_radius of hole_center, or the
    one nearest it when there is none (hole_radius = 0).
    """
    space = gen_interval(n)
    offset = np.abs(space.metadata["points"] - hole_center)
    target = np.nonzero(offset <= hole_radius)[0] if hole_radius > 0 else []
    if len(target) == 0:
        target = [int(np.argmin(offset))]
    return capacity(
        build_capacity_problem(space, rips_system(eps), fractional_kernel(1.0, alpha), target)
    )


def exact_capacity(problem, dps: int = 40):
    """The clamped minimum of `problem`'s weighted graph in dps-digit arithmetic.

    The graph takes the float point masses (the space's weights) and the
    pair masses, read off the energy's upper triangle where they are stored
    exactly as -w_e, as exact numbers, so each diagonal is w_i plus its pair
    masses without rounding. The free block is symmetric positive definite
    and banded in point order, so Gaussian elimination without pivoting
    stays inside the band. The energy at the solution is summed term by
    term. Returns an mpf.
    """
    n = problem.space.n
    upper = sp.triu(problem.energy, 1).tocoo()
    pairs, w1 = np.stack([upper.row, upper.col], axis=1), -upper.data
    free = np.setdiff1d(np.arange(n), problem.clamp)
    pos = np.full(n, -1)
    pos[free] = np.arange(free.size)
    with mpmath.workdps(dps):
        zero = mpmath.mpf(0)
        A = [[zero] * free.size for _ in free]
        rhs = [zero] * free.size
        for k, i in enumerate(free):
            A[k][k] = mpmath.mpf(float(problem.space.weights[i]))
        band = 0
        for (a, b), w in zip(pairs.tolist(), w1.tolist()):
            for i, j in ((pos[a], pos[b]), (pos[b], pos[a])):
                if i < 0:
                    continue
                A[i][i] += w
                if j < 0:
                    rhs[i] += w  # the clamped neighbour holds u = 1
                else:
                    A[i][j] -= w
                    band = max(band, abs(int(i) - int(j)))
        N = free.size
        for k in range(N):
            hi = min(N, k + band + 1)
            for i in range(k + 1, hi):
                if A[i][k]:
                    f = A[i][k] / A[k][k]
                    for j in range(k, hi):
                        A[i][j] -= f * A[k][j]
                    rhs[i] -= f * rhs[k]
        x = [zero] * N
        for k in reversed(range(N)):
            hi = min(N, k + band + 1)
            x[k] = (rhs[k] - mpmath.fsum(A[k][j] * x[j] for j in range(k + 1, hi))) / A[k][k]
        u = [mpmath.mpf(1)] * n
        for k, i in enumerate(free):
            u[i] = x[k]
        return mpmath.fsum(
            [mpmath.mpf(float(w)) * u[i] ** 2 for i, w in enumerate(problem.space.weights)]
            + [mpmath.mpf(w) * (u[a] - u[b]) ** 2
               for (a, b), w in zip(pairs.tolist(), w1.tolist())]
        )
