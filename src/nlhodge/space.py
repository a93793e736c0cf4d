"""Finite metric measure spaces: validated distance matrices plus point weights.

Every distance matrix is checked exactly, up to METRIC_TOL roundoff: square,
finite, symmetric, zero diagonal, positive off the diagonal, and the triangle
inequality fl(fl(d_ij + d_jk) - d_ik) >= -tol for every triple. The triangle
check is a blocked min-plus scan (`_triangle_holds`): d is a metric iff
d_ik <= min_j (d_ij + d_jk), and rounding is monotone, so testing the minimum
decides exactly what testing every j does. It scans only the upper triangle
k >= i, and only when d is exactly symmetric; a matrix that is symmetric only
within tolerance gets the full square.

The scan runs on a copy of d relabelled by a greedy nearest-neighbour walk
from point 0 (`_locality_order`), so a block of rows I and a chunk of
intermediate points J are each a few nearby points. For each tile (I, J) it
adds into min_j only the columns from the first to the last k that is live,
fl(lo[I, J] + cm[J, k]) < cM[I, k], where lo is the least d_ij over I x J, cm
the least d_jk over j in J and cM the largest d_ik over i in I
(`_tile_bounds`). Rounding is monotone, so a column that is not live has
fl(d_ij + d_jk) >= fl(lo + cm) >= cM >= d_ik, a slack >= 0, for all of
I x J: the verdict is the full scan's for every input. On samples of a
circle or an interval, where a triple is tight only for j near a short path
from i to k, most tiles are skipped.

On a violation the one-point-per-pass scan runs again on the original matrix
to name the first intermediate point j with a violation and its most
negative (i, k). Before the scan, each row i with a negative diagonal entry
tests its degenerate triples (i, i, k) and (k, i, i), which fail on d_ii
alone; a failure there is reported as that diagonal entry, and the scan would
reject the matrix too. The row blocks run on min(NLH_THREADS, blocks) worker
threads (`nlhodge.thread_cap`; unset, one per CPU the process may run on); a
single block of n <= 16 rows starts none. The verdict does not depend on the
thread count.

Before the scan, `_witness_certified` tries to prove the check passes from a
metric read off d itself. If rho is a pseudometric with |d_ij - rho_ij| <= delta
for every pair, the diagonal included, then d_ij + d_jk - d_ik >= -3 delta;
with u = 2^-53 and D = max |d_ik|, the sum's rounding costs at most 2uD and
the difference's a factor 1 + u, so
fl(fl(d_ij + d_jk) - d_ik) >= -(3 delta + 2uD)(1 + u) for every triple. The
witness is a cycle read from the rows of a, the point farthest from point 0,
and of b, the nearest neighbour of a: phi_i = d_ai where d_bi < d_ai and
-d_ai elsewhere, L = fl(d_ab + max_i fl(d_ai + d_bi)), and
rho_ij = min(g, L - g) with g = |phi_i - phi_j|. It is tried only when
max phi - min phi <= L, compared exactly: then every g <= L, and rho is the
metric of R/LZ between the points phi_i. It is a pseudometric whatever d is,
so a poor anchor, sign or L only makes delta large. On a line, a is an end,
so phi_i = d_ai (-0 at a) and L >= 2 max d: min(g, L - g) = g is the line's
own metric.

The witness is evaluated in floats, rho^, one block of _SWEEP_ROWS rows at a
time. A rounded operation gives fl(x op y) = (x op y)/(1 + eta) with
|eta| <= u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
SIAM 2002, ch. 2), so with M the largest computed fl|d_ij - rho^_ij|,
|d - rho^| <= (1 + u) M. Two operations round: g^ = fl(g) <= L because
rounding is monotone, so
|rho^ - rho| <= max(|g^ - g|, |fl(L - g^) - (L - g)|) <= u g^ + u fl(L - g^)
<= u (1 + u) L. Then delta = (1 + u) M plus that rounding, the bound is
evaluated exactly in rational arithmetic, and the matrix is certified iff
it is at most METRIC_TOL; otherwise the scan decides. Either way the verdict
is the scan's. The witness stops at the first block that puts M past the
tolerance, so a sphere sample declines after one block. Circles of either
parity, equally spaced intervals, two components and punctured intervals are
certified, generated, loaded or relabelled alike. Before any misfit the
bound is about 3uL + 2uD, so 8uD on a line: line data with max d past
METRIC_TOL/(8u), about 1126, is left to the scan, which gives the same
verdict more slowly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import thread_cap

METRIC_TOL = 1e-12
MIN_SEPARATION_WARN = 1e-9
# Tiling of the triangle scan: rows per block and intermediate points per
# NumPy call; each worker's scratch holds _scratch_size(n, itemsize) entries.
_ROW_BLOCK = 16
_J_CHUNK = 16
# Rows per step of the O(n^2) sweeps that would otherwise make an n x n temporary.
_SWEEP_ROWS = 64
# Unit roundoff of float64.
_U = Fraction(1, 2**53)


class SpaceValidationError(ValueError):
    """Raised when a distance matrix or weight vector fails validation."""


def _check_metric(dist: np.ndarray) -> None:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceValidationError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if n < 1:
        raise SpaceValidationError("empty space")
    # NaN and +-inf reach the min or the max, so no n x n mask is formed to
    # find them; the mask only names the first bad entry
    low, top = dist.min(), dist.max()
    if not (np.isfinite(low) and np.isfinite(top)):
        bad = np.argwhere(~np.isfinite(dist))[0]
        raise SpaceValidationError(f"non-finite distance at ({bad[0]}, {bad[1]})")
    worst, (i, j) = _asymmetry(dist)
    if worst > METRIC_TOL:
        raise SpaceValidationError(
            f"asymmetric distances at ({i}, {j}): "
            f"{float(dist[i, j])!r} vs {float(dist[j, i])!r}"
        )
    diag = np.abs(np.diagonal(dist))
    if diag.max(initial=0.0) > METRIC_TOL:
        i = int(np.argmax(diag))
        raise SpaceValidationError(f"nonzero diagonal at ({i}, {i}): {float(dist[i, i])!r}")
    if n > 1:
        off = _off_diagonal(dist)
        min_off = off.min()
        if min_off <= 0.0:
            r, c = np.unravel_index(np.argmin(off), off.shape)
            i, j = divmod(1 + int(r) * (n + 1) + int(c), n)
            raise SpaceValidationError(f"non-positive distance between distinct points ({i}, {j})")
    for i in np.flatnonzero(np.diagonal(dist) < 0):
        # the triples (i, i, k) and (k, i, i) fail on d_ii alone, so they name it
        row, col = dist[i], dist[:, i]
        if min(((dist[i, i] + row) - row).min(), ((col + dist[i, i]) - col).min()) < -METRIC_TOL:
            raise SpaceValidationError(f"nonzero diagonal at ({i}, {i}): {float(dist[i, i])!r}")
    certified = _witness_certified(dist, max(float(top), -float(low)))
    if not (certified or _triangle_holds(dist, METRIC_TOL, symmetric=worst == 0)):
        raise SpaceValidationError(_triangle_violation(dist, METRIC_TOL))
    if n > 1:
        min_sep = min(min_off, np.diagonal(dist).min() + top)
        if min_sep < MIN_SEPARATION_WARN:
            warnings.warn(
                f"minimum point separation {min_sep:.3e} below {MIN_SEPARATION_WARN:.0e}; "
                "kernel weights may overflow",
                RuntimeWarning,
                stacklevel=3,
            )


def _asymmetry(dist: np.ndarray):
    """max |d_ij - d_ji| and the (i, j) of its first maximum in row-major order.

    The gap is symmetric, so that maximum lies at j >= i: each block of rows
    i reads only the columns j from its first row on. The block's gap is
    formed as (j, i), so the operand read transposed is the block's own rows:
    the other way round ran about twice as slow at n = 1024, 2048 and 4096.
    """
    worst, at = 0, (0, 0)
    for r0 in range(0, dist.shape[0], _SWEEP_ROWS):
        gap = np.abs(dist[r0:, r0 : r0 + _SWEEP_ROWS] - dist[r0 : r0 + _SWEEP_ROWS, r0:].T).T
        top = gap.max()
        if top > worst:
            r, c = np.unravel_index(np.argmax(gap), gap.shape)
            worst, at = top, (r0 + r, r0 + c)
    return worst, at


def _off_diagonal(dist: np.ndarray) -> np.ndarray:
    """Every off-diagonal entry of an n x n matrix (n > 1) once, as an (n-1) x n view.

    Entry (r, c) is flat entry 1 + r*(n+1) + c, so row-major order is kept.
    """
    n = dist.shape[0]
    return dist.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _witness_certified(dist: np.ndarray, top: float) -> bool:
    """Whether the cycle metric read off d proves the triangle check passes
    (module docstring), given top = max |d_ij|; False leaves the verdict to
    the scan."""
    if dist.dtype != np.float64:
        return False
    # the cycle through a, the point farthest from point 0, and its nearest neighbour b
    a = int(np.argmax(dist[0]))
    x = dist[a]
    ring = x.copy()
    ring[a] = np.inf
    b = int(np.argmin(ring))
    phi = np.where(dist[b] < x, x, -x)
    wrap = float(dist[a, b] + (x + dist[b]).max())
    return (
        wrap < math.inf
        and Fraction(phi.max()) - Fraction(phi.min()) <= wrap
        and _witness_fits(dist, phi, wrap, _U * (1 + _U) * Fraction(wrap), Fraction(top))
    )


def _witness_fits(dist, coords, wrap, rounding: Fraction, top: Fraction) -> bool:
    """Whether (3 delta + 2u top)(1 + u) <= METRIC_TOL for the witness
    rho^_ij = min(g^, wrap - g^), g^ = fl|c_i - c_j|, with
    delta = (1 + u) max fl|d - rho^| + `rounding`, the bound on |rho^ - rho|."""
    n, worst = dist.shape[0], 0.0
    block, back = np.empty((2, min(n, _SWEEP_ROWS), n))
    for r0 in range(0, n, _SWEEP_ROWS):
        rho, wrapped = block[: n - r0], back[: n - r0]  # the last block may be short
        np.subtract(coords[r0 : r0 + _SWEEP_ROWS, None], coords, out=rho)
        np.abs(rho, out=rho)
        np.subtract(wrap, rho, out=wrapped)
        np.minimum(rho, wrapped, out=rho)
        np.subtract(dist[r0 : r0 + _SWEEP_ROWS], rho, out=rho)
        worst = max(worst, float(np.abs(rho, out=rho).max()))
        if worst > METRIC_TOL:
            return False
    delta = (1 + _U) * Fraction(worst) + rounding
    return (3 * delta + 2 * _U * top) * (1 + _U) <= METRIC_TOL


def _triangle_holds(dist: np.ndarray, tol: float, symmetric: bool) -> bool:
    """Whether fl(fl(d_ij + d_jk) - d_ik) >= -tol for every triple (i, j, k).

    The scan runs on `near`, d relabelled by `_locality_order`, and skips
    the tiles that `_tile_bounds` proves pass. The blocks of _ROW_BLOCK rows
    are dealt round-robin to min(thread_cap(), number of blocks) workers, so
    each gets a like share of the shrinking upper-triangle widths; NumPy's
    add and minimum release the GIL, so the workers overlap. The first
    violating block sets `stop`, which is also the verdict, and the other
    workers stop at their next block.
    """
    import threading

    n = dist.shape[0]
    order = _locality_order(dist)
    near = np.ascontiguousarray(dist[np.ix_(order, order)])
    bounds = _tile_bounds(near)
    starts = range(0, n, min(_ROW_BLOCK, n))
    workers = min(thread_cap(), len(starts))
    # Allocated in the calling thread: a buffer a worker thread allocates stays
    # in that thread's malloc arena and raised peak RSS by about 3 MB at n=1024.
    scratch = np.empty((workers, _scratch_size(n, dist.itemsize)), dtype=dist.dtype)
    stop = threading.Event()
    if workers == 1:
        _scan_rows(near, tol, symmetric, bounds, starts, stop, scratch[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # list() re-raises a worker's exception here
            list(pool.map(
                lambda w: _scan_rows(
                    near, tol, symmetric, bounds, starts[w::workers], stop, scratch[w]
                ),
                range(workers),
            ))
    return not stop.is_set()


def _locality_order(dist: np.ndarray) -> np.ndarray:
    """Greedy walk from point 0 to the nearest point not yet visited (ties: lowest index)."""
    n = dist.shape[0]
    order = np.zeros(n, dtype=np.intp)
    visited, row = np.zeros(n), np.empty(n)
    for t in range(1, n):
        visited[order[t - 1]] = np.inf
        np.add(dist[order[t - 1]], visited, out=row)
        order[t] = row.argmin()
    return order


def _tile_bounds(near: np.ndarray):
    """The scan's bounds (lo, cm, cM) for row blocks I and j-chunks J of `near`.

    lo[I, J] is the least d_ij over I x J, cm[J, k] the least d_jk over j in J
    and cM[I, k] the largest d_ik over i in I.
    """
    n = near.shape[0]
    rows, chunk = min(_ROW_BLOCK, n), min(_J_CHUNK, n)
    lo = np.minimum.reduceat(_row_groups(np.minimum, near, rows), np.arange(0, n, chunk), axis=1)
    return lo, _row_groups(np.minimum, near, chunk), _row_groups(np.maximum, near, rows)


def _row_groups(ufunc, a: np.ndarray, size: int) -> np.ndarray:
    """ufunc over each run of `size` rows of `a` (the last run may be shorter)."""
    return np.stack([ufunc.reduce(a[g : g + size], axis=0) for g in range(0, a.shape[0], size)])


def _scratch_size(n: int, itemsize: int) -> int:
    """Entries of one worker's scratch, in a dtype of `itemsize` bytes.

    It holds the sums (first lo + cm of the live test), best and its slack,
    and, as bytes, the live test and its mirror image.
    """
    rows, chunk = min(_ROW_BLOCK, n), min(_J_CHUNK, n)
    chunks = -(-n // chunk)
    return max(chunk * rows, chunks) * n + 2 * rows * n + -(-2 * chunks * n // itemsize)


def _scan_rows(
    dist: np.ndarray, tol: float, symmetric: bool, bounds, starts, stop, scratch
) -> None:
    """Scan the row blocks beginning at `starts`; set `stop` at the first violation.

    Each block keeps best[i, k], which starts at d_ik (slack 0) and takes the
    minimum with fl(d_ij + d_jk), adding _J_CHUNK intermediate points per
    NumPy call into this worker's `scratch`, and tests best - d against -tol
    once. Chunk J adds only the columns from its first to its last live k
    (`bounds` = `_tile_bounds(dist)`, see the module docstring); a chunk
    with no live column adds nothing. With `symmetric` a block scans only the
    columns k >= its first row: there (k, j, i) gives the same sums as
    (i, j, k).
    """
    lo, cm, cM = bounds
    n, chunks = dist.shape[0], cm.shape[0]
    rows, chunk = min(_ROW_BLOCK, n), min(_J_CHUNK, n)
    tail = scratch.size - -(-2 * chunks * n // dist.itemsize)
    sums, acc, part, flags = np.split(scratch, [tail - 2 * rows * n, tail - rows * n, tail])
    ahead, behind = np.split(flags.view(np.bool_)[: 2 * chunks * n], 2)
    for i0 in starts:
        if stop.is_set():
            return
        i1 = min(i0 + rows, n)
        k0 = i0 if symmetric else 0
        m, width = i1 - i0, n - k0
        best, tmp = acc[: m * width].reshape(m, width), part[: m * width].reshape(m, width)
        np.copyto(best, dist[i0:i1, k0:])
        reach = sums[: chunks * width].reshape(chunks, width)
        np.add(lo[i0 // rows, :, None], cm[:, k0:], out=reach)
        live = ahead[: chunks * width].reshape(chunks, width)
        np.less(reach, cM[i0 // rows, k0:], out=live)
        # each row reversed, so its first live entry is the chunk's last live column
        mirror = behind[: chunks * width].reshape(chunks, width)
        np.copyto(mirror[:, ::-1], live)
        first, end = live.argmax(axis=1), width - mirror.argmax(axis=1)
        hit = live.any(axis=1)
        lead = dist[i0:i1].T
        for c, a, b in zip(np.flatnonzero(hit).tolist(), first[hit].tolist(), end[hit].tolist()):
            j0, j1 = c * chunk, min(c * chunk + chunk, n)
            block = sums[: (j1 - j0) * m * (b - a)].reshape(j1 - j0, m, b - a)
            np.add(lead[j0:j1, :, None], dist[j0:j1, None, k0 + a : k0 + b], out=block)
            span = part[: m * (b - a)].reshape(m, b - a)
            np.minimum.reduce(block, axis=0, out=span)
            np.minimum(best[:, a:b], span, out=best[:, a:b])
        np.subtract(best, dist[i0:i1, k0:], out=tmp)
        if tmp.min() < -tol:
            stop.set()
            return


def _triangle_violation(dist: np.ndarray, tol: float) -> str:
    """Name the most negative slack at the first intermediate point j that has one."""
    for j in range(dist.shape[0]):
        slack = dist[:, j, None] + dist[None, j, :] - dist
        if slack.min() < -tol:
            i, k = np.unravel_index(np.argmin(slack), slack.shape)
            lhs, rhs = float(dist[i, k]), float(dist[i, j] + dist[j, k])
            return (
                f"triangle inequality violated for ({i}, {j}, {k}): "
                f"d({i},{k})={lhs!r} > d({i},{j})+d({j},{k})={rhs!r}"
            )
    raise AssertionError("the min-plus scan found a violation the per-j scan does not")


def _check_weights(weights: np.ndarray, n: int) -> None:
    if weights.shape != (n,):
        raise SpaceValidationError(f"weights shape {weights.shape} does not match {n} points")
    if not np.isfinite(weights).all():
        i = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise SpaceValidationError(f"non-finite weight at {i}")
    if weights.min() <= 0.0:
        i = int(np.argmin(weights))
        raise SpaceValidationError(f"non-positive weight at {i}: {float(weights[i])}")


@dataclass(frozen=True, eq=False)
class MetricMeasureSpace:
    """Point set given by pairwise distances and strictly positive weights.

    The distance matrix must be a genuine metric up to 1e-12 roundoff:
    symmetric, zero diagonal, positive off the diagonal, triangle inequality.
    `dist` and `weights` are read-only views; a C-contiguous float64 input
    shares its buffer with them (no copy), so writing to it later changes
    the space.
    """

    dist: np.ndarray
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        # views: read-only here, while the caller's own array stays writable
        dist = np.ascontiguousarray(np.asarray(self.dist, dtype=float)).view()
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float)).view()
        _check_metric(dist)
        _check_weights(weights, dist.shape[0])
        dist.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def mesh_width(self) -> float:
        """Largest nearest-neighbor distance (covering scale of the sample)."""
        if self.n == 1:
            return 0.0
        widest = 0.0
        for r0 in range(0, self.n, _SWEEP_ROWS):
            block = self.dist[r0 : r0 + _SWEEP_ROWS].copy()
            diag = np.arange(block.shape[0])
            block[diag, r0 + diag] = np.inf
            widest = max(widest, float(block.min(axis=1).max()))
        return widest


def gen_circle(n: int, radius: float = 1.0) -> MetricMeasureSpace:
    """n equally spaced points on a circle with arc-length (geodesic) distances.

    dist(i, j) = radius * (2*pi/n) * min(|i-j|, n-|i-j|); every weight is
    2*pi*radius/n so the total mass is the circumference.
    """
    if n < 3:
        raise SpaceValidationError("circle needs at least 3 points")
    if radius <= 0:
        raise SpaceValidationError("radius must be positive")
    idx = np.arange(n)
    step = radius * (2.0 * np.pi / n)
    dist = np.empty((n, n))
    for r0 in range(0, n, _SWEEP_ROWS):
        k = np.abs(idx[r0 : r0 + _SWEEP_ROWS, None] - idx[None, :])
        np.multiply(step, np.minimum(k, n - k, out=k), out=dist[r0 : r0 + _SWEEP_ROWS])
    weights = np.full(n, 2.0 * np.pi * radius / n)
    return MetricMeasureSpace(dist, weights, {"generator": "circle", "n": n, "radius": radius, "dim": 1})


def _line(x: np.ndarray, weights: np.ndarray, **metadata) -> MetricMeasureSpace:
    """The points x on the real line with distances |x_i - x_j|."""
    return MetricMeasureSpace(
        np.abs(x[:, None] - x[None, :]), weights, {**metadata, "dim": 1, "points": x}
    )


def gen_interval(n: int) -> MetricMeasureSpace:
    """n equally spaced points on [0, 1], weight 1/n each (total mass 1)."""
    if n < 2:
        raise SpaceValidationError("interval needs at least 2 points")
    return _line(np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n), generator="interval", n=n)


def gen_two_components(n_each: int, gap: float) -> MetricMeasureSpace:
    """Two unit intervals separated by `gap` along the line, n_each points each."""
    if n_each < 2:
        raise SpaceValidationError("each component needs at least 2 points")
    if gap <= 0:
        raise SpaceValidationError("gap must be positive")
    left = np.linspace(0.0, 1.0, n_each)
    right = np.linspace(1.0 + gap, 2.0 + gap, n_each)
    return _line(
        np.concatenate([left, right]), np.full(2 * n_each, 1.0 / n_each),
        generator="two_components", n_each=n_each, gap=gap,
    )


def gen_punctured_interval(n: int, hole_center: float, hole_radius: float) -> MetricMeasureSpace:
    """Equally spaced [0, 1] grid with points strictly inside the hole removed.

    The hole is the open band (hole_center - hole_radius, hole_center + hole_radius);
    hole_radius = 0 removes nothing.
    """
    if n < 2:
        raise SpaceValidationError("interval needs at least 2 points")
    if not (0.0 < hole_center < 1.0):
        raise SpaceValidationError("hole center must lie strictly inside (0, 1)")
    if hole_radius < 0:
        raise SpaceValidationError("hole radius must be nonnegative")
    x = np.linspace(0.0, 1.0, n)
    keep = np.abs(x - hole_center) >= hole_radius if hole_radius > 0 else np.ones(n, bool)
    x = x[keep]
    if x.size < 2:
        raise SpaceValidationError("hole removes too many points")
    return _line(
        x, np.full(x.size, 1.0 / n), generator="punctured_interval", n=n,
        hole_center=hole_center, hole_radius=hole_radius,
    )


def gen_sphere(n: int) -> MetricMeasureSpace:
    """Fibonacci point set on the unit 2-sphere with geodesic distances.

    Weights are 4*pi/n each. Distances use atan2 of cross/dot products, which
    stays accurate for nearly coincident and nearly antipodal pairs.
    """
    if n < 4:
        raise SpaceValidationError("sphere needs at least 4 points")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = 2.0 * np.pi * i / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    crosses = np.linalg.norm(np.cross(pts[:, None, :], pts[None, :, :]), axis=2)
    dist = np.arctan2(crosses, dots)
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)
    weights = np.full(n, 4.0 * np.pi / n)
    return MetricMeasureSpace(
        dist, weights, {"generator": "sphere", "n": n, "dim": 2, "points": pts}
    )


def load_distance_matrix(path, weights_path=None) -> MetricMeasureSpace:
    """Load a space from a dense CSV distance matrix plus optional weight sidecar.

    The matrix file holds one comma-separated row per line; the sidecar holds one
    positive weight per line (uniform 1/n if absent). All validation failures
    raise SpaceValidationError naming the offending entries.
    """
    dist = _read_table(path, "distance matrix", delimiter=",", ndmin=2)
    if dist.size == 0:
        raise SpaceValidationError("empty space")
    if weights_path is not None:
        weights = _read_table(weights_path, "weights", ndmin=1)
    else:
        weights = np.full(dist.shape[0], 1.0 / dist.shape[0])
    return MetricMeasureSpace(dist, weights, {"generator": "file", "path": str(path)})


def _read_table(path, what: str, **kwargs) -> np.ndarray:
    """np.loadtxt with parse errors raised as SpaceValidationError.

    An empty file reads as an empty array, without numpy's warning: the
    callers' checks reject it with their own error.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise SpaceValidationError(f"cannot parse {what} {path}: {exc}") from exc
