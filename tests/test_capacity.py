import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlhodge.cochains
import nlhodge.hodge
import nlhodge.neighborhoods
from nlhodge.space import MetricMeasureSpace, gen_circle, gen_interval, gen_sphere
from nlhodge.neighborhoods import hausdorff_system, rips_system
from nlhodge.kernels import fractional_kernel, truncated_fractional_kernel
from nlhodge import capacity as capacity_module
from nlhodge.capacity import (
    LADDER_EPS,
    CapacityError,
    RemovabilityReport,
    build_capacity_problem,
    capacity,
    removability_sweep,
)
from nlhodge.hodge import NumericalError

from oracles import capacity_energy, capacity_of_hole, exact_capacity, permuted, total_mass


def interval_problem(target, eps=0.25, alpha=0.5, n=40):
    return build_capacity_problem(
        gen_interval(n), rips_system(eps), fractional_kernel(1.0, alpha), target
    )


# --- the quadratic form and its minimizer ---------------------------------------


def test_clamping_everything_gives_the_total_mass():
    # u == 1 kills the coboundary term exactly, leaving sum of point weights.
    space = gen_interval(20)
    problem = build_capacity_problem(
        space, rips_system(0.3), fractional_kernel(1.0, 0.5), range(20)
    )
    assert problem.clamp.size == 20
    result = capacity(problem)
    assert np.array_equal(result.potential, np.ones(20))
    assert result.value == pytest.approx(total_mass(space), rel=1e-14)
    assert result.max_principle_ok


def test_potential_is_one_on_the_clamp_and_bounded():
    problem = interval_problem([20])
    result = capacity(problem)
    assert (result.potential[problem.clamp] == 1.0).all()
    assert result.max_principle_ok
    assert result.value > 0.0


def test_clamp_ring_is_one_mesh_width():
    space = gen_interval(40)
    problem = interval_problem([20], n=40)
    d = space.dist[:, [20]].min(axis=1)
    want = np.nonzero(d <= space.mesh_width() * (1.0 + 1e-9))[0]
    assert np.array_equal(problem.clamp, want)
    assert set([19, 20, 21]) <= set(problem.clamp.tolist())


def test_capacity_value_matches_dense_quadratic_minimum():
    # Brute-force oracle: solve the clamped minimization with dense algebra.
    problem = interval_problem([20], n=30)
    result = capacity(problem)
    A = problem.energy.toarray()
    clamp = problem.clamp
    free = np.setdiff1d(np.arange(30), clamp)
    u = np.zeros(30)
    u[clamp] = 1.0
    u[free] = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, clamp)].sum(axis=1))
    want = float(u @ A @ u)
    assert result.value == pytest.approx(want, rel=1e-10)
    assert np.allclose(result.potential, u, atol=1e-10)


def spy_branches(monkeypatch):
    """The direct branch ('dense' or 'superlu') of each solve capacity() runs."""
    calls = []
    for owner, name, branch in (
        (capacity_module.la, "cho_factor", "dense"),
        (capacity_module.spla, "spsolve", "superlu"),
    ):
        solve = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, _s=solve, _b=branch, **k: calls.append(_b) or _s(*a, **k)
        )
    return calls


ORACLE_CASES = [
    (50, 0.5, rips_system(0.25)),
    (50, 1.5, rips_system(0.25)),
    (100, 0.5, rips_system(0.25)),
    (100, 1.5, rips_system(0.25)),
    (100, 1.5, hausdorff_system(0.1)),
]


@pytest.mark.parametrize("n, alpha, system, branch", [
    # every case is dense enough for the Cholesky; each runs again with SuperLU forced
    pytest.param(n, alpha, system, branch,
                 id=f"{n}-{alpha}-system{i}" + ("-superlu" if branch == "superlu" else ""))
    for branch in ("dense", "superlu")
    for i, (n, alpha, system) in enumerate(ORACLE_CASES)
])
def test_capacity_value_matches_the_exact_graph_minimum(monkeypatch, n, alpha, system, branch):
    # The same float masses, assembled and solved in 40 digits: the value,
    # summed as nonnegative edge and point terms, is good to a few ulp.
    if branch == "superlu":
        monkeypatch.setattr(capacity_module, "DENSE_SOLVE_DENSITY", math.inf)
    calls = spy_branches(monkeypatch)
    kernel = fractional_kernel(1.0, alpha)
    problem = build_capacity_problem(gen_interval(n), system, kernel, [n // 2])
    exact = exact_capacity(problem)
    assert abs(capacity(problem).value - exact) <= 1e-14 * exact
    assert calls == [branch]


def test_the_quadratic_form_misses_the_exact_graph_minimum():
    # u @ (A @ u) on the same potential: each diagonal of A is w0_i plus its
    # pair masses, and at alpha = 1.5 its rounding swamps w0_i (1.2e-12 off).
    problem = interval_problem([50], alpha=1.5, n=100)
    exact = exact_capacity(problem)
    u = capacity(problem).potential
    assert abs(float(u @ (problem.energy @ u)) - exact) > 1e-14 * exact


@pytest.mark.parametrize("n, alpha", [(200, 0.5), (400, 1.5)])
def test_cg_branch_matches_the_direct_solve(monkeypatch, n, alpha):
    # With the cutoff at 0 every free set goes through CG.
    direct = capacity_of_hole(n, 0.25, alpha)
    calls = []
    cg_solve = capacity_module.spla.cg
    monkeypatch.setattr(capacity_module, "DIRECT_SOLVE_CUTOFF", 0)
    monkeypatch.setattr(
        capacity_module.spla, "cg", lambda *a, **k: calls.append(1) or cg_solve(*a, **k)
    )
    cg = capacity_of_hole(n, 0.25, alpha)
    assert calls == [1]
    assert cg.max_principle_ok
    assert abs(cg.value - direct.value) <= 1e-9 * direct.value
    assert np.abs(cg.potential - direct.potential).max() <= 1e-8


def test_every_default_ladder_rung_takes_the_dense_branch(monkeypatch):
    calls = spy_branches(monkeypatch)
    removability_sweep()
    assert calls == ["dense"] * 10


def test_a_sparse_free_block_takes_superlu(monkeypatch):
    # rips 0.01 on 400 points: about 9 stored entries a row, 2 % of the block
    calls = spy_branches(monkeypatch)
    result = capacity_of_hole(400, 0.01, 0.5)
    assert calls == ["superlu"]
    assert result.max_principle_ok


def test_the_dense_branch_holds_one_block_factored_in_place(monkeypatch):
    # The n = 800 rung: one m x m float64 array, no sparse copy of the block
    # beside it. LAPACK copies a C-ordered array outside tracemalloc's view,
    # so the spy checks that the factor overwrote the array it was handed.
    problem = build_capacity_problem(
        gen_interval(800), rips_system(LADDER_EPS), fractional_kernel(1.0, 0.5), [400]
    )
    m = 800 - problem.clamp.size
    overwritten = []
    cho_factor = capacity_module.la.cho_factor

    def spy(a, **kwargs):
        last = a[:, -1].copy()
        factor = cho_factor(a, **kwargs)
        overwritten.append(not np.array_equal(a[:, -1], last))
        return factor

    monkeypatch.setattr(capacity_module.la, "cho_factor", spy)
    tracemalloc.start()
    try:
        capacity(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert overwritten == [True]
    assert peak <= 1.25 * m * m * 8


def test_an_indefinite_free_block_raises_a_numerical_error():
    problem = interval_problem([20])
    problem.energy[5, 5] = -1.0
    m = 40 - problem.clamp.size
    with pytest.raises(NumericalError, match=f"free block of {m} points is not numerically positive"):
        capacity(problem)


def test_minimizer_beats_other_feasible_candidates():
    rng = np.random.default_rng(3)
    problem = interval_problem([20], n=40)
    result = capacity(problem)
    A = problem.energy
    for _ in range(20):
        v = rng.uniform(0.0, 1.0, 40)
        v[problem.clamp] = 1.0
        assert result.value <= float(v @ (A @ v)) * (1.0 + 1e-12)


# --- the energy written from the pair list ----------------------------------------


def _assert_energy_bits(space, system, kernel):
    got = build_capacity_problem(space, system, kernel, [0]).energy
    want = capacity_energy(space, system, kernel)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([gen_interval, gen_circle, gen_sphere]),
    n=st.integers(8, 60),
    seed=st.integers(0, 2**32 - 1),
    rule=st.sampled_from([rips_system, hausdorff_system]),
    scale=st.sampled_from([0.5, 2.0, 6.0]),
    kernel=st.sampled_from([
        fractional_kernel(1.0, 0.5),
        truncated_fractional_kernel(1.0, 1.5, eps_trunc=0.2, floor=0.5),
    ]),
)
def test_energy_equals_the_coboundary_formula_bit_for_bit(kind, n, seed, rule, scale, kernel):
    # Relabelled points; eps in mesh widths, where half a width admits no pair
    # on the evenly spaced interval and circle.
    space = permuted(kind(n), np.random.default_rng(seed).permutation(n))
    _assert_energy_bits(space, rule(scale * space.mesh_width()), kernel)


class _EndpointMajor:
    """numpy, but bincount sums a pair list's first members, then its second."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def bincount(x, weights, minlength):
        return sum(np.bincount(x[k::2], weights[k::2], minlength=minlength) for k in (0, 1))


def test_endpoint_major_diagonals_fail_the_bit_check(monkeypatch):
    monkeypatch.setattr(capacity_module, "np", _EndpointMajor())
    with pytest.raises(AssertionError, match="data"):
        _assert_energy_bits(gen_interval(20), rips_system(0.25), fractional_kernel(1.0, 0.5))


def test_energy_needs_no_complex_or_coboundary(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the energy built a complex or a coboundary")

    for original in (nlhodge.cochains.build_coboundary, nlhodge.hodge.build_weighted_complex):
        # every module binding, from-imports included
        for module in [m for k, m in sys.modules.items() if k.startswith("nlhodge")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    space, kernel = gen_interval(800), fractional_kernel(1.0, 0.5)
    tracemalloc.start()
    try:
        problem = build_capacity_problem(space, rips_system(0.25), kernel, [400])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6  # the complex and its float B_0 took 25 MB
    assert capacity(problem).value > 0.0


def test_a_capacity_rung_builds_no_search_keys(monkeypatch):
    # capacity never locates a tuple, so its pair set never builds the keys
    def refuse(rows):
        raise AssertionError("the capacity rung built TupleSet search keys")

    monkeypatch.setattr(nlhodge.neighborhoods, "_sort_keys", refuse)
    assert capacity(interval_problem([20])).value > 0.0


# --- monotonicity ----------------------------------------------------------------


def test_capacity_grows_with_the_target_set():
    small = capacity(interval_problem([20])).value
    large = capacity(interval_problem([14, 20, 26])).value
    assert small <= large * (1.0 + 1e-12)
    assert large > small  # strictly, for a genuinely bigger clamp


def test_capacity_grows_with_the_neighborhood_scale():
    # More admissible pairs mean more nonnegative energy terms.
    tight = capacity(interval_problem([20], eps=0.1)).value
    wide = capacity(interval_problem([20], eps=0.3)).value
    assert tight <= wide * (1.0 + 1e-12)
    assert wide > tight


def test_capacity_scales_linearly_under_exact_mass_doubling():
    # Doubling point weights and halving the kernel scale doubles every tuple
    # mass (all float operations are exact powers of two), so the capacity
    # doubles exactly.
    space = gen_interval(40)
    doubled = MetricMeasureSpace(space.dist, 2.0 * space.weights)
    base = capacity(
        build_capacity_problem(space, rips_system(0.25), fractional_kernel(1.0, 0.5), [20])
    )
    scaled = capacity(
        build_capacity_problem(
            doubled, rips_system(0.25), fractional_kernel(1.0, 0.5, scale=0.5), [20]
        )
    )
    assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-12)
    assert np.allclose(scaled.potential, base.potential, atol=1e-10)


# --- the resolution ladder --------------------------------------------------------


def test_single_point_capacities_decrease_with_resolution():
    caps = [capacity_of_hole(n, 0.25, 0.5).value for n in (50, 100, 200, 400)]
    assert all(b < a for a, b in zip(caps, caps[1:]))


def test_ladder_verdicts():
    report = removability_sweep(resolutions=(50, 100, 200, 400), alphas=(0.5, 1.5))
    assert report.verdict_for(0.5) == "removable"
    assert report.verdict_for(1.5) == "non-removable"
    slopes = {r.alpha: r.slope for r in report.rows}
    assert slopes[0.5] < -0.2
    assert abs(slopes[1.5]) < 0.05
    with pytest.raises(KeyError):
        report.verdict_for(0.7)


def test_high_order_capacities_stay_flat():
    caps = [capacity_of_hole(n, 0.25, 1.5).value for n in (50, 100, 200)]
    assert max(caps) / min(caps) < 1.01


def test_report_csv_round_trip():
    report = removability_sweep(resolutions=(50, 100), alphas=(0.5,))
    lines = report.to_csv().splitlines()
    assert lines[0] == "resolution,alpha,epsilon,capacity,slope,verdict"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "50"
    assert float(first[3]) == pytest.approx(report.rows[0].capacity)
    assert first[5] == report.rows[0].verdict


def test_hole_radius_clamps_an_interval_of_points():
    wide = capacity_of_hole(101, 0.25, 0.5, hole_center=0.5, hole_radius=0.03)
    point = capacity_of_hole(101, 0.25, 0.5, hole_center=0.5, hole_radius=0.0)
    assert wide.value > point.value
    assert int(np.sum(wide.potential == 1.0)) > int(np.sum(point.potential == 1.0))


# --- guards -----------------------------------------------------------------------


def test_degenerate_targets_are_rejected():
    with pytest.raises(CapacityError, match="empty"):
        interval_problem([])
    with pytest.raises(CapacityError, match="out of range"):
        interval_problem([40], n=40)
    with pytest.raises(CapacityError, match="out of range"):
        interval_problem([-1])


@pytest.mark.parametrize(
    "target, shown",
    [([20.7], r"\[20\.7\]"), ([True], r"\[True\]"), (np.array([2.0]), r"\[2\.0\]")],
    ids=["fraction", "bool", "float-array"],
)
def test_targets_must_be_point_indices(target, shown):
    # an int cast would clamp [19, 20, 21] for 20.7 and [0, 1, 2] for True
    with pytest.raises(CapacityError, match=rf"integer point indices, got {shown}"):
        interval_problem(target)


def test_numpy_integer_targets_are_point_indices():
    assert interval_problem(np.int64(3)).clamp.tolist() == [2, 3, 4]
    assert interval_problem(np.array([20, 3], dtype=np.int32)).clamp.tolist() == (
        interval_problem([3, 20]).clamp.tolist()
    )
