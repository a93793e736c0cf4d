"""Variational capacities of clamped point sets and removability trends.

The capacity of a target set K is the minimum of the degree-0 graph energy

    u^T (W_0 + B_0^T W_1 B_0) u

over functions u clamped to 1 on K plus a one-mesh-width ring. Shrinking
capacities along a resolution ladder indicate a removable singularity; flat
ladders indicate positive capacity.

The energy is the weighted Laplacian of the admissible pairs, written from the
pair list with each diagonal summed in pair order, as the row-wise product
B_0^T W_1 B_0 sums it, so it equals W_0 + B_0^T W_1 B_0 entry for entry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .space import _SWEEP_ROWS, MetricMeasureSpace, gen_interval
from .neighborhoods import NeighborhoodSystem, enumerate_tuples, rips_system
from .kernels import KernelModel, assemble_weights, fractional_kernel
from .hodge import NumericalError

DIRECT_SOLVE_CUTOFF = 4000
# Direct solves of free blocks with at least this share of stored entries
# (nnz / m^2) go to a dense Cholesky, sparser ones to SuperLU. Timed with one
# BLAS thread on rips interval rungs, m = 47..3197 and density 0.05..0.44: the
# two cross between densities 0.077 and 0.095 at m = 397 and 797, and between
# 0.058 and 0.078 at m = 1597 and 3197; at the ladder's 0.44 the Cholesky is
# 3.1-5.7x faster from m = 197 on (m = 797: 6.5 ms against 20 ms). Under
# DIRECT_SOLVE_CUTOFF its one dense m x m float64 array is at most 128 MB.
DENSE_SOLVE_DENSITY = 0.08
CG_RTOL = 1e-10
# The removability ladder: rips scale, hole position, verdict thresholds.
LADDER_EPS = 0.25
HOLE_CENTER = 0.5
SLOPE_THRESHOLD = -0.2
RATIO_THRESHOLD = 1.25


class CapacityError(ValueError):
    """Raised for degenerate clamp configurations."""


@dataclass(eq=False)
class CapacityProblem:
    space: MetricMeasureSpace
    clamp: np.ndarray  # the target set K plus the one-mesh-width ring
    energy: sp.csr_matrix  # the weighted pair Laplacian, entry for entry W_0 + B_0^T W_1 B_0


def build_capacity_problem(
    space: MetricMeasureSpace,
    system: NeighborhoodSystem,
    kernel: KernelModel,
    target,
) -> CapacityProblem:
    """Assemble the quadratic form and the clamp ring around the target set.

    The clamp set is every point within one mesh width of the target.
    """
    target = np.asarray(sorted(set(int(i) for i in np.atleast_1d(target))), dtype=int)
    if target.size == 0:
        raise CapacityError("target set is empty")
    if target.min() < 0 or target.max() >= space.n:
        raise CapacityError("target indices out of range")
    d_to_target = space.dist[:, target].min(axis=1)
    clamp = np.nonzero(d_to_target <= space.mesh_width() * (1.0 + 1e-9))[0]
    # degree 0 is the point set under every system, its masses the point weights
    w0, n = space.weights, space.n
    pairs = enumerate_tuples(space, system, 1)
    w1, t = assemble_weights(kernel, space, pairs), pairs.tuples
    diag = w0 + np.bincount(t.ravel(), np.repeat(w1, 2), minlength=n)
    # pairs (a, b) sorted by a, then b: the upper triangle's CSR in pair order
    upper = sp.csr_matrix((-w1, t[:, 1], np.searchsorted(t[:, 0], np.arange(n + 1))), shape=(n, n))
    energy = (upper + upper.T + sp.diags(diag)).tocsr()
    return CapacityProblem(space, clamp, energy)


@dataclass(frozen=True)
class CapacityResult:
    value: float
    potential: np.ndarray
    max_principle_ok: bool


def capacity(problem: CapacityProblem) -> CapacityResult:
    """Minimize the clamped energy by solving its free block A_ff u = rhs.

    Three branches, by the block's size m and share of stored entries: CG
    above DIRECT_SOLVE_CUTOFF points; a dense Cholesky, factored in place,
    when nnz / m^2 >= DENSE_SOLVE_DENSITY (every default ladder rung, 43-44 %
    dense); SuperLU otherwise. A dense block that is not numerically positive
    definite, or CG that does not converge, raises NumericalError. The
    minimizer satisfies 0 <= u <= 1 up to solver tolerance (reported as
    max_principle_ok); u is identically 1 when the clamp covers everything.
    """
    n = problem.space.n
    A = problem.energy
    u = np.zeros(n)
    u[problem.clamp] = 1.0
    free = np.setdiff1d(np.arange(n), problem.clamp)
    m = free.size
    if m:
        # A_fc is A_cf^T (the energy is symmetric), and the clamp's few rows are
        # cheaper to index than the free ones
        Acf = A[np.ix_(problem.clamp, free)]
        rhs = -(np.ones(problem.clamp.size) @ Acf)
        nnz = int(np.diff(A.indptr)[free].sum()) - Acf.nnz  # stored entries of A_ff
        if m > DIRECT_SOLVE_CUTOFF:
            sol, info = spla.cg(A[np.ix_(free, free)], rhs, rtol=CG_RTOL, maxiter=100 * m)
            if info != 0:
                raise NumericalError(f"capacity CG did not converge (info={info})")
        elif nnz >= DENSE_SOLVE_DENSITY * m * m:
            sol = _cholesky_solve(A, free, rhs)
        else:
            sol = spla.spsolve(A[np.ix_(free, free)].tocsc(), rhs)
        u[free] = sol
    # the energy as a sum of one-signed terms, w_e (u_a - u_b)^2 from each
    # off-diagonal entry (-w_e, twice per pair) and w0_i u_i^2: u @ (A @ u)
    # would cancel the pair terms out of each diagonal, which swamp w0_i
    d = np.repeat(u, np.diff(A.indptr)) - u[A.indices]  # u_row - u_col per entry
    value = float(problem.space.weights @ u**2 - 0.5 * (A.data @ (d * d)))
    ok = bool(u.min() >= -1e-10 and u.max() <= 1.0 + 1e-10)
    return CapacityResult(value, u, ok)


def _cholesky_solve(A: sp.csr_matrix, free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A_ff x = rhs by a Cholesky factorization of one dense A_ff.

    The block is written _SWEEP_ROWS rows at a time, so no sparse copy of it
    lives beside the dense one, and LAPACK factors it in place through the
    Fortran-ordered view D.T (A_ff is symmetric); C order would be copied.
    cho_factor skips the condition estimate of solve(assume_a="pos"), a
    quarter of its time at m = 797, with the same factor and solution bits.
    """
    m = free.size
    D = np.empty((m, m))
    for r0 in range(0, m, _SWEEP_ROWS):
        A[free[r0 : r0 + _SWEEP_ROWS]][:, free].toarray(out=D[r0 : r0 + _SWEEP_ROWS])
    try:
        factor = la.cho_factor(D.T, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise NumericalError(
            f"capacity free block of {m} points is not numerically positive definite"
        ) from exc
    return la.cho_solve(factor, rhs, check_finite=False)


@dataclass(frozen=True)
class SweepRow:
    resolution: int
    alpha: float
    epsilon: float
    capacity: float
    slope: float
    verdict: str


@dataclass(frozen=True)
class RemovabilityReport:
    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["resolution", "alpha", "epsilon", "capacity", "slope", "verdict"])
        for r in self.rows:
            writer.writerow(
                [r.resolution, f"{r.alpha:.17g}", f"{r.epsilon:.17g}",
                 f"{r.capacity:.17g}", f"{r.slope:.17g}", r.verdict]
            )
        return buf.getvalue()

    def verdict_for(self, alpha: float) -> str:
        for r in self.rows:
            if math.isclose(r.alpha, alpha):
                return r.verdict
        raise KeyError(alpha)


def removability_sweep(
    resolutions=(50, 100, 200, 400, 800), alphas=(0.5, 1.5)
) -> RemovabilityReport:
    """Capacity ladder over grid resolutions for each fractional order.

    Each rung clamps the grid point nearest HOLE_CENTER of the n-point unit
    interval, under the rips system at LADDER_EPS. verdict: 'removable' when
    capacities decrease with log-log slope below SLOPE_THRESHOLD,
    'non-removable' when max/min stays under RATIO_THRESHOLD, 'inconclusive'
    otherwise.
    """
    spaces = [gen_interval(n) for n in resolutions]
    holes = [[int(np.argmin(np.abs(s.metadata["points"] - HOLE_CENTER)))] for s in spaces]
    rows = []
    for alpha in alphas:
        kernel = fractional_kernel(1.0, alpha)
        caps = np.array([
            capacity(build_capacity_problem(s, rips_system(LADDER_EPS), kernel, hole)).value
            for s, hole in zip(spaces, holes)
        ])
        slope = float(
            np.polyfit(np.log(np.asarray(resolutions, dtype=float)), np.log(caps), 1)[0]
        )
        decreasing = bool(np.all(np.diff(caps) < 0))
        ratio = float(caps.max() / caps.min())
        if decreasing and slope < SLOPE_THRESHOLD:
            verdict = "removable"
        elif ratio < RATIO_THRESHOLD:
            verdict = "non-removable"
        else:
            verdict = "inconclusive"
        for n, c in zip(resolutions, caps):
            rows.append(SweepRow(int(n), float(alpha), LADDER_EPS, float(c), slope, verdict))
    return RemovabilityReport(tuple(rows))
