"""Variational capacities of clamped point sets and removability trends.

The capacity of a target set K is the minimum of the degree-0 graph energy

    u^T (W_0 + B_0^T W_1 B_0) u

over functions u clamped to 1 on K plus a one-mesh-width ring. Shrinking
capacities along a resolution ladder indicate a removable singularity; flat
ladders indicate positive capacity.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .space import MetricMeasureSpace, gen_interval
from .neighborhoods import NeighborhoodSystem, rips_system
from .kernels import KernelModel, fractional_kernel
from .hodge import build_weighted_complex, NumericalError

DIRECT_SOLVE_CUTOFF = 4000
CG_RTOL = 1e-10


class CapacityError(ValueError):
    """Raised for degenerate clamp configurations."""


@dataclass(eq=False)
class CapacityProblem:
    space: MetricMeasureSpace
    system: NeighborhoodSystem
    kernel: KernelModel
    target: np.ndarray  # K, point indices
    clamp: np.ndarray  # K plus the one-mesh-width ring
    energy: sp.csr_matrix  # W_0 + B_0^T W_1 B_0


def build_capacity_problem(
    space: MetricMeasureSpace,
    system: NeighborhoodSystem,
    kernel: KernelModel,
    target,
    clamp_radius: float | None = None,
) -> CapacityProblem:
    """Assemble the quadratic form and the clamp ring around the target set.

    clamp_radius defaults to the mesh width of the sample; the clamp set is
    every point within that distance of the target.
    """
    target = np.asarray(sorted(set(int(i) for i in np.atleast_1d(target))), dtype=int)
    if target.size == 0:
        raise CapacityError("target set is empty")
    if target.min() < 0 or target.max() >= space.n:
        raise CapacityError("target indices out of range")
    if clamp_radius is None:
        clamp_radius = space.mesh_width()
    d_to_target = space.dist[:, target].min(axis=1)
    clamp = np.nonzero(d_to_target <= clamp_radius * (1.0 + 1e-9))[0]
    cx = build_weighted_complex(space, system, kernel, 0)
    B0 = cx.coboundary(0).matrix.astype(float)
    W0 = sp.diags(cx.mass_vector(0))
    W1 = sp.diags(cx.mass_vector(1))
    energy = (W0 + B0.T @ W1 @ B0).tocsr()
    return CapacityProblem(space, system, kernel, target, clamp, energy)


@dataclass(frozen=True)
class CapacityResult:
    value: float
    potential: np.ndarray
    max_principle_ok: bool


def capacity(problem: CapacityProblem) -> CapacityResult:
    """Minimize the clamped energy; direct solve when small, CG when large.

    The minimizer satisfies 0 <= u <= 1 up to solver tolerance (reported as
    max_principle_ok); u is identically 1 when the clamp covers everything.
    """
    n = problem.space.n
    A = problem.energy
    u = np.zeros(n)
    u[problem.clamp] = 1.0
    free = np.setdiff1d(np.arange(n), problem.clamp)
    if free.size:
        Aff = A[np.ix_(free, free)]
        rhs = -A[np.ix_(free, problem.clamp)] @ np.ones(problem.clamp.size)
        if free.size <= DIRECT_SOLVE_CUTOFF:
            sol = spla.spsolve(Aff.tocsc(), rhs)
        else:
            sol, info = spla.cg(Aff, rhs, rtol=CG_RTOL, maxiter=100 * free.size)
            if info != 0:
                raise NumericalError(f"capacity CG did not converge (info={info})")
        u[free] = sol
    value = float(u @ (A @ u))
    ok = bool(u.min() >= -1e-10 and u.max() <= 1.0 + 1e-10)
    return CapacityResult(value, u, ok)


def capacity_of_hole(
    n: int,
    eps: float,
    alpha: float,
    hole_center: float = 0.5,
    hole_radius: float = 0.0,
    scale: float = 1.0,
) -> CapacityResult:
    """Capacity of a hole in the n-point unit interval at scale eps.

    hole_radius = 0 clamps the single grid point nearest the center.
    """
    return _hole_capacity(gen_interval(n), eps, alpha, hole_center, hole_radius, scale)


def _hole_capacity(space, eps, alpha, hole_center, hole_radius, scale=1.0) -> CapacityResult:
    x = space.metadata["points"]
    if hole_radius > 0:
        target = np.nonzero(np.abs(x - hole_center) <= hole_radius)[0]
        if target.size == 0:
            target = np.array([int(np.argmin(np.abs(x - hole_center)))])
    else:
        target = np.array([int(np.argmin(np.abs(x - hole_center)))])
    problem = build_capacity_problem(
        space, rips_system(eps), fractional_kernel(1.0, alpha, scale=scale), target
    )
    return capacity(problem)


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
    resolutions=(50, 100, 200, 400, 800),
    alphas=(0.5, 1.5),
    eps: float = 0.25,
    hole_center: float = 0.5,
    hole_radius: float = 0.0,
    slope_threshold: float = -0.2,
    ratio_threshold: float = 1.25,
) -> RemovabilityReport:
    """Capacity ladder over grid resolutions for each fractional order.

    verdict: 'removable' when capacities decrease with log-log slope below
    slope_threshold, 'non-removable' when max/min stays under ratio_threshold,
    'inconclusive' otherwise.
    """
    spaces = [gen_interval(n) for n in resolutions]
    rows = []
    for alpha in alphas:
        caps = np.array(
            [_hole_capacity(space, eps, alpha, hole_center, hole_radius).value
             for space in spaces]
        )
        slope = float(
            np.polyfit(np.log(np.asarray(resolutions, dtype=float)), np.log(caps), 1)[0]
        )
        decreasing = bool(np.all(np.diff(caps) < 0))
        ratio = float(caps.max() / caps.min())
        if decreasing and slope < slope_threshold:
            verdict = "removable"
        elif ratio < ratio_threshold:
            verdict = "non-removable"
        else:
            verdict = "inconclusive"
        for n, c in zip(resolutions, caps):
            rows.append(SweepRow(int(n), float(alpha), float(eps), float(c), slope, verdict))
    return RemovabilityReport(tuple(rows))
