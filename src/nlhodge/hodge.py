"""Weighted complexes, Hodge Laplacians, harmonic counts, and decompositions.

The inner product at degree p is diagonal in the sorted-tuple basis with the
assembled tuple masses W_p, so the adjoint of the coboundary B_p is
W_p^{-1} B_p^T W_{p+1} and the degree-p Laplacian is

    L_p = B_{p-1} W_{p-1}^{-1} B_{p-1}^T W_p  +  W_p^{-1} B_p^T W_{p+1} B_p.

All spectra are computed on the symmetrized conjugate W_p^{1/2} L_p W_p^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .space import _SWEEP_ROWS, MetricMeasureSpace
from .neighborhoods import NeighborhoodSystem, TupleSet, enumerate_tuples
from .kernels import KernelModel, _pair_kernel, assemble_weights
from .cochains import Cochain, CoboundaryOperator, build_coboundary, multiply_power

# Largest Laplacian solved densely: above it one shift-invert eigsh is faster.
DENSE_EIG_CUTOFF = 700
# Eigenvalues asked of eigsh first; doubled until the low end shows a gap.
EIGSH_K = 16
# eigsh's shift as a fraction of the Gershgorin bound: far enough below the
# harmonic zeros that S - sigma I is well conditioned.
EIGSH_SHIFT = -1e-3
# Largest entry of |V^T V - I| that the Ritz vectors of eigsh may show.
RITZ_ORTH_TOL = 1e-8
HARMONIC_TOL_FACTOR = 2.0**-45
GAP_AMBIGUITY_FACTOR = 1e3
CG_RTOL = 1e-12
CG_MAXITER_FACTOR = 10


class HodgeError(ValueError):
    """Raised on structural misuse of a weighted complex."""


class NumericalError(RuntimeError):
    """Raised when an iterative solve fails to reach its residual target."""


@dataclass(eq=False)
class WeightedComplex:
    """Tuple sets, masses, and coboundaries for degrees 0..p_max.

    Tuple sets and weights extend one degree above p_max so that top-degree
    up-Laplacians and Betti numbers see the correct codomain.
    """

    space: MetricMeasureSpace
    system: NeighborhoodSystem
    kernel: KernelModel
    p_max: int
    tuple_sets: list[TupleSet]
    weights: list[np.ndarray]  # read-only tuple masses W_p
    coboundaries: list[CoboundaryOperator]  # B_p: degree p -> p+1, p = 0..p_max

    def dim(self, p: int) -> int:
        return self.tuple_sets[p].size if 0 <= p <= self.p_max + 1 else 0

    def mass_vector(self, p: int) -> np.ndarray:
        return self.weights[p]

    def coboundary(self, p: int) -> CoboundaryOperator:
        if not (0 <= p <= self.p_max):
            raise HodgeError(f"no coboundary stored for degree {p}")
        return self.coboundaries[p]

    def inner(self, p: int, F: np.ndarray, G: np.ndarray) -> float:
        return float(np.sum(self.mass_vector(p) * F * G))


def build_weighted_complex(
    space: MetricMeasureSpace,
    system: NeighborhoodSystem,
    kernel: KernelModel,
    p_max: int,
) -> WeightedComplex:
    """Enumerate tuples to degree p_max+1, assemble masses and coboundaries.

    Face closure is verified during matrix assembly (a missing face raises),
    and B_{p+1} B_p = 0 is asserted in exact integer arithmetic.
    """
    if p_max < 0:
        raise HodgeError("p_max must be nonnegative")
    tuple_sets = [enumerate_tuples(space, system, p) for p in range(p_max + 2)]
    weights = [assemble_weights(kernel, space, ts) for ts in tuple_sets]
    coboundaries = [build_coboundary(tuple_sets[p], tuple_sets[p + 1]) for p in range(p_max + 1)]
    for p in range(p_max):
        prod = coboundaries[p + 1].matrix @ coboundaries[p].matrix
        if prod.nnz and np.any(prod.data != 0):
            raise HodgeError(f"coboundary composition at degree {p} is nonzero")
    return WeightedComplex(space, system, kernel, p_max, tuple_sets, weights, coboundaries)


def adjoint_matrix(complex_: WeightedComplex, p: int) -> sp.csr_matrix:
    """Adjoint of B_p in the weighted inner products: W_p^{-1} B_p^T W_{p+1}."""
    B = complex_.coboundary(p).matrix
    wp = complex_.mass_vector(p)
    wq = complex_.mass_vector(p + 1)
    return sp.diags(1.0 / wp) @ B.T.astype(float) @ sp.diags(wq)


def _laplacian_csr(complex_: WeightedComplex, p: int) -> sp.csr_matrix:
    """W_p^{1/2} L_p W_p^{-1/2} as CSR in canonical form (no explicit zeros, sorted indices)."""
    m = complex_.dim(p)
    out = sp.csr_matrix((m, m))
    wp = complex_.mass_vector(p)
    if m == 0:
        return out
    if p >= 1 and complex_.dim(p - 1) > 0:
        Bdn = complex_.coboundary(p - 1).matrix.astype(float)
        wdn = complex_.mass_vector(p - 1)
        sq = sp.diags(np.sqrt(wp))
        out = out + sq @ Bdn @ sp.diags(1.0 / wdn) @ Bdn.T @ sq
    if p <= complex_.p_max and complex_.dim(p + 1) > 0:
        Bup = complex_.coboundary(p).matrix.astype(float)
        wup = complex_.mass_vector(p + 1)
        inv_sq = sp.diags(1.0 / np.sqrt(wp))
        out = out + inv_sq @ Bup.T @ sp.diags(wup) @ Bup @ inv_sq
    skew = abs(out - out.T).max()
    scale = max(abs(out).max(), 1.0)
    if skew > 1e-12 * scale:
        raise HodgeError(f"symmetrized Laplacian has asymmetry {skew:.3e}")
    out = 0.5 * (out + out.T)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def hodge_laplacian(complex_: WeightedComplex, p: int) -> np.ndarray:
    """Dense copy of the symmetrized degree-p Laplacian.

    The spectral route keeps it sparse above DENSE_EIG_CUTOFF.
    """
    return _laplacian_csr(complex_, p).toarray()


def _low_spectrum(S: sp.csr_matrix) -> tuple[np.ndarray, float]:
    """Eigenvalues from the low end, ascending, plus an upper bound on the largest one.

    Up to DENSE_EIG_CUTOFF the whole spectrum comes from one dense array,
    solved in place. Above it, shift-invert `eigsh` runs on one SuperLU factor
    of S - sigma I, ordered by minimum degree on its symmetric pattern and
    pivoted on the diagonal, which every k doubling reuses. It starts from a
    fixed-seed vector, so repeated runs give identical eigenvalues, and its
    Ritz pairs are checked. A Ritz value theta within its residual
    ||S v - theta v|| of the harmonic threshold (its eigenvalue may then sit on
    the other side of it), Ritz vectors that are not orthonormal (a ghost copy
    counts one eigenvalue twice), or a factorization or eigsh that fails
    outright raise NumericalError. The zero operator needs no solve.
    """
    m = S.shape[0]
    if m == 0:
        return np.empty(0), 0.0
    if m <= DENSE_EIG_CUTOFF:
        A = S.toarray()
        rows = range(0, m, _SWEEP_ROWS)
        gersh = max(float(np.abs(A[i : i + _SWEEP_ROWS]).sum(axis=1).max()) for i in rows)
        # A is a fresh symmetric array: dsyevd may overwrite it, through the
        # Fortran-ordered view A.T that LAPACK takes without a copy
        eigs = la.eigh(A.T, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False)
        return eigs, max(gersh, float(eigs[-1]))
    gersh = float(abs(S).sum(axis=1).max())
    if gersh == 0.0:
        # the zero operator: every eigenvalue is 0, and a shift of 0 would
        # leave eigsh a singular matrix to factor
        return np.zeros(m), 0.0
    tau = m * gersh * HARMONIC_TOL_FACTOR
    k = min(m - 1, EIGSH_K)
    v0 = np.random.default_rng(0).standard_normal(m)
    sigma = EIGSH_SHIFT * gersh
    OPinv = None  # one factor of S - sigma I serves every k
    while True:
        try:
            if OPinv is None:
                # S is positive semidefinite and sigma < 0, so S - sigma I is
                # symmetric positive definite: diagonal pivots are safe without
                # a threshold, and a minimum-degree ordering of A^T + A keeps
                # L and U symmetric in pattern (scipy has no sparse Cholesky)
                lu = spla.splu(
                    (S - sigma * sp.identity(m, format="csr")).tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                OPinv = spla.LinearOperator((m, m), matvec=lu.solve, dtype=float)
            vals, V = spla.eigsh(S, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
        except RuntimeError as exc:  # a singular factorization or no convergence
            raise NumericalError(f"eigsh failed: {exc}") from exc
        # an eigenvalue of S lies within ||S v - theta v|| of each Ritz value theta
        residual = np.array([np.linalg.norm(S @ v - t * v) for t, v in zip(vals, V.T)])
        drift = float(np.abs(V.T @ V - np.eye(k)).max())
        if (np.abs(vals - tau) <= residual).any() or drift > RITZ_ORTH_TOL:
            raise NumericalError(
                f"eigsh Ritz pairs fail the guard: residual {residual.max():.3e} "
                f"against threshold {tau:.3e}, orthogonality {drift:.3e}"
            )
        vals = np.sort(vals)
        if vals[-1] > tau * GAP_AMBIGUITY_FACTOR or k == m - 1:
            return vals, gersh
        k = min(m - 1, 2 * k)


@dataclass(frozen=True, eq=False)
class HodgeReport:
    degree: int
    dimension: int  # m, the cochain dimension of the degree
    harmonic_dim: int | None  # None: the eigensolve failed its guard, so there is no count
    eigenvalues: np.ndarray  # read-only, every computed eigenvalue, ascending; the JSON keeps 32
    threshold: float | None
    flagged: bool
    oracle_betti: int | None
    oracle_used: bool

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "degree": self.degree,
            "dimension": self.dimension,
            "harmonic_dim": self.harmonic_dim,
            "eigenvalues_low": [float(v) for v in self.eigenvalues[:32]],
            "threshold": self.threshold,
            "flagged": self.flagged,
            "oracle_betti": self.oracle_betti,
            "oracle_used": self.oracle_used,
        }


def harmonic_dimension(
    complex_: WeightedComplex, p: int, oracle: int | None = None
) -> HodgeReport:
    """Count eigenvalues of the symmetrized Laplacian below the tiny-eigenvalue cut.

    The threshold is dim * max_eig * 2^-45. A spectral gap of less than 10^3
    around the threshold flags the count. The count is always the spectral
    one: `oracle_used` marks a flagged count that a provided exact oracle
    contradicts, which then stands for the degree. A sparse eigensolve that
    fails its Ritz guard gives no count at all (harmonic_dim None).
    """
    m = complex_.dim(p)
    try:
        eigs, max_eig = _low_spectrum(_laplacian_csr(complex_, p))
    except NumericalError:
        eigs, max_eig = np.empty(0), None
    eigs.flags.writeable = False
    if max_eig is None:
        return HodgeReport(p, m, None, eigs, None, False, oracle, False)
    if max_eig == 0.0:
        # identically zero operator (or no tuples): everything is harmonic
        return HodgeReport(p, m, m, eigs, 0.0, False, oracle, False)
    tau = m * max_eig * HARMONIC_TOL_FACTOR
    count = int(np.searchsorted(eigs, tau))  # the eigenvalues ascend
    below, above = eigs[:count], eigs[count:]
    flagged = bool(
        below.size and above.size and below[-1] > 0
        and above[0] / below[-1] < GAP_AMBIGUITY_FACTOR
    )
    oracle_used = flagged and oracle is not None and oracle != count
    return HodgeReport(p, m, count, eigs, tau, flagged, oracle, oracle_used)


def hodge_report(complex_: WeightedComplex, p: int, oracle: int | None = None) -> HodgeReport:
    """The degree-p report, the very object `harmonic_dimension` returns.

    The two names stay apart only because perfbench/tracing.py times them as
    separate spans (`hodge.eigensolve_s`, `hodge.report_s`) and counts the
    eigensolve's branch and `.flagged` on the inner one; ROADMAP item 1 folds
    them into one once the package records its own trace.
    """
    return harmonic_dimension(complex_, p, oracle=oracle)


def _cgnr(A: sp.spmatrix, b: np.ndarray, rtol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Conjugate gradient on the normal equations A^T A x = A^T b.

    Returns (x, relative residual of the normal equations). Handles rank
    deficiency: CG on a consistent singular SPD system stays in range(A^T).
    Residuals are measured against max(||A^T b||, eps * ||A||_F ||b||) so that
    an input with no component in range(A) returns x = 0 instead of iterating
    on rounding noise.
    """
    At_b = A.T @ b
    fro = float(np.sqrt((A.multiply(A)).sum())) if sp.issparse(A) else float(np.linalg.norm(A))
    floor = 64.0 * np.finfo(float).eps * fro * float(np.linalg.norm(b))
    x = np.zeros(A.shape[1])
    r = At_b.copy()
    d = r.copy()
    rs = float(r @ r)
    norm0 = max(np.sqrt(rs), floor, np.finfo(float).tiny)
    if np.sqrt(rs) <= floor:
        return x, 0.0
    for _ in range(maxiter):
        Ad = A @ d
        denom = float(Ad @ Ad)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x += alpha * d
        r -= alpha * (A.T @ Ad)
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= max(rtol * norm0, floor):
            return x, np.sqrt(rs_new) / norm0
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x, np.sqrt(rs) / norm0


@dataclass(frozen=True)
class HodgeDecomposition:
    harmonic: Cochain
    exact: Cochain
    coexact: Cochain
    residuals: dict


def hodge_decompose(complex_: WeightedComplex, p: int, F: Cochain) -> HodgeDecomposition:
    """Split F into harmonic + coboundary + adjoint-coboundary parts.

    Both potentials come from least-squares solves in the weighted metric via
    conjugate gradients on the normal equations; the harmonic part is the
    remainder. Orthogonality and reconstruction residuals are reported and a
    failed solve raises NumericalError.
    """
    if F.degree != p:
        raise HodgeError("cochain degree mismatch")
    m = complex_.dim(p)
    wp = complex_.mass_vector(p)
    sq = np.sqrt(wp)
    f = F.values
    norm_f = float(np.sqrt(np.sum(wp * f * f)))
    exact = np.zeros(m)
    coexact = np.zeros(m)
    maxiter = CG_MAXITER_FACTOR * max(m, 1)
    if p >= 1 and complex_.dim(p - 1) > 0:
        Bdn = complex_.coboundary(p - 1).matrix.astype(float)
        wdn = complex_.mass_vector(p - 1)
        A = sp.diags(sq) @ Bdn @ sp.diags(1.0 / np.sqrt(wdn))
        z, res = _cgnr(A, sq * f, CG_RTOL, maxiter)
        if res > 1e-8:
            raise NumericalError(f"exact-part CG stalled at relative residual {res:.3e}")
        exact = (A @ z) / sq
    if p <= complex_.p_max and complex_.dim(p + 1) > 0:
        Bup = complex_.coboundary(p).matrix.astype(float)
        wup = complex_.mass_vector(p + 1)
        A = sp.diags(1.0 / sq) @ Bup.T @ sp.diags(np.sqrt(wup))
        z, res = _cgnr(A, sq * f, CG_RTOL, maxiter)
        if res > 1e-8:
            raise NumericalError(f"coexact-part CG stalled at relative residual {res:.3e}")
        coexact = (A @ z) / sq
    harmonic = f - exact - coexact
    denom = max(norm_f * norm_f, np.finfo(float).tiny)
    residuals = {
        "orth_exact_coexact": abs(float(np.sum(wp * exact * coexact))) / denom,
        "orth_harmonic_exact": abs(float(np.sum(wp * harmonic * exact))) / denom,
        "orth_harmonic_coexact": abs(float(np.sum(wp * harmonic * coexact))) / denom,
        "reconstruction": float(
            np.sqrt(np.sum(wp * (f - harmonic - exact - coexact) ** 2))
        )
        / max(norm_f, np.finfo(float).tiny),
    }
    ts = F.tuple_set
    return HodgeDecomposition(
        Cochain(p, ts, harmonic), Cochain(p, ts, exact), Cochain(p, ts, coexact), residuals
    )


def energy_norms(complex_: WeightedComplex, p: int, F: Cochain) -> tuple[float, float, float]:
    """(||F||^2, ||delta F||^2, their sum) in the weighted inner products."""
    wp = complex_.mass_vector(p)
    l2 = float(np.sum(wp * F.values**2))
    if p <= complex_.p_max and complex_.dim(p + 1) > 0:
        B = complex_.coboundary(p).matrix
        dF = B @ F.values
        q = float(np.sum(complex_.mass_vector(p + 1) * dF**2))
    else:
        q = 0.0
    return l2, q, l2 + q


@dataclass(frozen=True)
class MultiplierCheck:
    passed: bool
    lhs: float
    rhs: float
    constant: float


def multiplier_constant(complex_: WeightedComplex, p: int, chi: np.ndarray) -> float:
    """Graph-norm bound constant for the action of chi^x(p+1) on degree p.

    ||chi||_sup^p * (1 + ||chi||_sup + (p+1) * sup_x sqrt(sum over admissible
    pairs (x, y) of (chi(y) - chi(x))^2 j(x, y) w_y)).
    """
    chi = np.asarray(chi, dtype=float)
    sup = float(np.abs(chi).max())
    pairs = complex_.tuple_sets[1].tuples
    n = complex_.space.n
    acc = np.zeros(n)
    if pairs.size:
        w = complex_.space.weights
        for a, b in ((0, 1), (1, 0)):
            x = pairs[:, a]
            y = pairs[:, b]
            kxy = _pair_kernel(complex_.kernel, complex_.space, x, y)
            np.add.at(acc, x, (chi[y] - chi[x]) ** 2 * kxy * w[y])
    grad_sup = float(np.sqrt(acc.max(initial=0.0)))
    return sup**p * (1.0 + sup + (p + 1) * grad_sup)


def multiplier_bound_check(
    complex_: WeightedComplex, p: int, chi: np.ndarray, F: Cochain
) -> MultiplierCheck:
    """Verify the graph-norm bound for the tensor-power action of chi."""
    c = multiplier_constant(complex_, p, chi)
    _, _, graph_f = energy_norms(complex_, p, F)
    chiF = multiply_power(chi, F)
    _, _, graph_chif = energy_norms(complex_, p, chiF)
    lhs = float(np.sqrt(graph_chif))
    rhs = c * float(np.sqrt(graph_f))
    return MultiplierCheck(lhs <= rhs * (1.0 + 1e-12) + 1e-300, lhs, rhs, c)
