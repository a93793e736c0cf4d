import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhodge.space import MetricMeasureSpace, gen_circle, gen_interval, gen_sphere
from nlhodge.neighborhoods import TupleSet, enumerate_tuples, full_system, rips_system
from nlhodge.hodge import build_weighted_complex
from nlhodge.kernels import (
    KernelError,
    assemble_weights,
    constant_kernel,
    custom_kernel,
    fractional_kernel,
    kernel_matrix,
    load_kernel_table,
    truncated_fractional_kernel,
)

from oracles import check_kernel_conditions, dense_masses, eval_kernel, permuted, rescaled


def unit_triangle(side=1.0):
    d = np.full((3, 3), side)
    np.fill_diagonal(d, 0.0)
    return MetricMeasureSpace(d, np.ones(3))


def random_space(rng, n):
    x = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n) * 1e-6
    d = np.abs(x[:, None] - x[None, :])
    return MetricMeasureSpace(d, rng.uniform(0.5, 1.5, n))


# --- closed-form kernel values ---------------------------------------------


def test_fractional_value_at_distance_two():
    # 2.0^{-(1 + 0.5)} is an exact binary operation: expect equality.
    space = MetricMeasureSpace(np.array([[0.0, 2.0], [2.0, 0.0]]), np.ones(2))
    model = fractional_kernel(1.0, 0.5)
    assert eval_kernel(model, space, 0, 1) == 2.0 ** (-1.5)


def test_fractional_value_at_small_distance():
    space = MetricMeasureSpace(np.array([[0.0, 0.01], [0.01, 0.0]]), np.ones(2))
    model = fractional_kernel(1.0, 1.5)
    assert eval_kernel(model, space, 0, 1) == pytest.approx(1e5, rel=1e-12)


def test_truncated_kernel_uses_floor_beyond_radius():
    space = MetricMeasureSpace(
        np.array([[0.0, 0.2, 1.0], [0.2, 0.0, 0.9], [1.0, 0.9, 0.0]]), np.ones(3)
    )
    model = truncated_fractional_kernel(1.0, 0.5, eps_trunc=0.5, floor=0.125)
    assert eval_kernel(model, space, 0, 1) == 0.2 ** (-1.5)
    assert eval_kernel(model, space, 0, 2) == 0.125
    assert eval_kernel(model, space, 1, 2) == 0.125


def test_kernel_matrix_matches_pointwise_eval():
    rng = np.random.default_rng(5)
    space = random_space(rng, 7)
    for model in (
        fractional_kernel(1.0, 0.7),
        constant_kernel(3.0),
        truncated_fractional_kernel(1.0, 1.1, eps_trunc=0.3, floor=0.5),
    ):
        k = kernel_matrix(model, space)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 0.0)
        for i in range(space.n):
            for j in range(space.n):
                if i != j:
                    # The vectorized power can differ from the scalar one by a
                    # single ulp, so compare with a tiny relative tolerance.
                    assert k[i, j] == pytest.approx(
                        eval_kernel(model, space, i, j), rel=1e-14
                    )


def test_diagonal_evaluation_raises():
    space = unit_triangle()
    with pytest.raises(KernelError, match="diagonal"):
        eval_kernel(fractional_kernel(1.0, 0.5), space, 1, 1)


# --- tuple masses -----------------------------------------------------------


def test_point_masses_are_the_point_weights():
    space = unit_triangle()
    ts = enumerate_tuples(space, full_system(), 0)
    w = assemble_weights(fractional_kernel(1.0, 0.5), space, ts)
    assert np.array_equal(w, space.weights)


def test_triangle_mass_with_unit_kernel_is_six():
    # Hand oracle: all pair values 1 and all weights 1 give
    # 3! * (1/3) * (1 + 1 + 1) * 1 = 6 for the single degree-2 tuple.
    space = unit_triangle()
    ts = enumerate_tuples(space, full_system(), 2)
    w = assemble_weights(constant_kernel(1.0), space, ts)
    assert w.shape == (1,)
    assert w[0] == 6.0


def test_pair_mass_closed_form():
    rng = np.random.default_rng(9)
    space = random_space(rng, 6)
    model = fractional_kernel(1.0, 0.9)
    ts = enumerate_tuples(space, full_system(), 1)
    w = assemble_weights(model, space, ts)
    for row, mass in zip(ts.tuples, w):
        i, j = map(int, row)
        want = 2.0 * eval_kernel(model, space, i, j) * space.weights[i] * space.weights[j]
        assert mass == pytest.approx(want, rel=1e-14)


def test_triangle_mass_closed_form():
    rng = np.random.default_rng(10)
    space = random_space(rng, 6)
    model = fractional_kernel(1.0, 1.3)
    ts = enumerate_tuples(space, full_system(), 2)
    w = assemble_weights(model, space, ts)
    k = kernel_matrix(model, space)
    for row, mass in zip(ts.tuples, w):
        a, b, c = map(int, row)
        density = (k[a, b] * k[a, c] + k[b, a] * k[b, c] + k[c, a] * k[c, b]) / 3.0
        want = 6.0 * density * space.weights[a] * space.weights[b] * space.weights[c]
        assert mass == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_rescaling_by_two_scales_masses_by_two_to_the_p(p):
    # c = 2 keeps every float operation exact, so the comparison is equality.
    rng = np.random.default_rng(21)
    space = random_space(rng, 6)
    model = fractional_kernel(1.0, 0.8)
    ts = enumerate_tuples(space, full_system(), p)
    base = assemble_weights(model, space, ts)
    doubled = assemble_weights(rescaled(model, 2.0), space, ts)
    assert np.array_equal(doubled, base * 2.0**p)


def test_all_zero_products_are_rejected():
    space = unit_triangle(side=1.0)
    model = truncated_fractional_kernel(1.0, 0.5, eps_trunc=0.5, floor=0.0)
    ts = enumerate_tuples(space, full_system(), 1)
    with pytest.raises(KernelError, match=r"^non-positive mass for tuple \(0, 1\)$"):
        assemble_weights(model, space, ts)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=0.1, max_value=1.9),
    st.integers(min_value=0, max_value=2),
)
def test_masses_positive_and_finite(n, alpha, p):
    rng = np.random.default_rng(n * 7 + int(alpha * 10))
    space = random_space(rng, n)
    ts = enumerate_tuples(space, full_system(), p)
    w = assemble_weights(fractional_kernel(1.0, alpha), space, ts)
    assert w.shape == (ts.size,)
    assert np.isfinite(w).all()
    assert (w > 0).all()


def test_a_non_finite_mass_is_named_by_its_tuple():
    # a distance of 1e-300 raised to -(d + alpha) overflows to inf
    d = np.array([[0.0, 1e-300, 1.0], [1e-300, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="may overflow"):
        space = MetricMeasureSpace(d, np.ones(3))
    ts = enumerate_tuples(space, full_system(), 1)
    with pytest.raises(KernelError, match=r"^non-finite mass for tuple \(0, 1\)$"):
        assemble_weights(fractional_kernel(1.0, 0.5), space, ts)


def test_masses_are_read_only():
    # Masses are plain arrays that nothing may write, whatever the degree, for
    # an empty set, and through a complex's weights; degree-0 masses are a
    # copy of the point weights, never a view of them.
    space = random_space(np.random.default_rng(5), 6)
    model = fractional_kernel(1.0, 0.5)
    sets = [enumerate_tuples(space, full_system(), p) for p in range(4)]
    sets.append(TupleSet(2, np.empty((0, 3), dtype=np.int64)))
    for ts in sets:
        w = assemble_weights(model, space, ts)
        assert w.shape == (ts.size,) and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[...] = 1.0
    assert not np.shares_memory(assemble_weights(model, space, sets[0]), space.weights)
    cx = build_weighted_complex(space, full_system(), model, 1)
    for p in range(3):
        with pytest.raises(ValueError, match="read-only"):
            cx.weights[p][0] = 1.0


# --- custom tables ----------------------------------------------------------


def test_custom_table_round_trips_through_loader(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 2.0, (4, 4))
    table = (vals + vals.T) / 2.0
    np.fill_diagonal(table, 0.0)
    path = tmp_path / "kernel.csv"
    lines = ["# i, j, value"]
    for i in range(4):
        for j in range(i + 1, 4):
            lines.append(f"{i}, {j}, {float(table[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")
    model = load_kernel_table(path, 4)
    assert np.array_equal(model.table, table)


def test_loader_reports_missing_pair(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("0, 1, 1.0\n0, 2, 1.0\n")
    with pytest.raises(KernelError, match=r"missing pair \(1, 2\)"):
        load_kernel_table(path, 3)


def test_loader_rejects_malformed_line(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("0, 1\n")
    with pytest.raises(KernelError, match="expected 'i, j, value'"):
        load_kernel_table(path, 2)


@pytest.mark.parametrize(
    "row, error",
    [
        ("0.5, 1, 1.0", "expected integer indices and a number, got '0.5, 1, 1.0'"),
        ("0, 1, abc", "expected integer indices and a number, got '0, 1, abc'"),
        ("0, 1, nan", "non-finite value 'nan'"),
        ("0, 1, -inf", "non-finite value '-inf'"),
    ],
    ids=["fractional-index", "text-value", "nan-value", "infinite-value"],
)
def test_loader_names_the_file_and_line_of_a_bad_entry(tmp_path, row, error):
    path = tmp_path / "kernel.csv"
    path.write_text(f"# i, j, value\n{row}\n")
    with pytest.raises(KernelError) as err:
        load_kernel_table(path, 2)
    assert str(err.value) == f"{path}:2: {error}"


def test_loader_rejects_diagonal_pair(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("1, 1, 2.0\n")
    with pytest.raises(KernelError, match=r"bad pair \(1, 1\)"):
        load_kernel_table(path, 2)


def test_custom_table_must_be_symmetric():
    table = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(KernelError, match=r"asymmetric at \(0, 1\)|asymmetric at \(1, 0\)"):
        custom_kernel(table)


def test_custom_table_must_be_positive_off_diagonal():
    table = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(KernelError, match="positive and finite"):
        custom_kernel(table)


def test_custom_table_size_checked_against_space():
    space = unit_triangle()
    model = custom_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(KernelError, match="does not match"):
        kernel_matrix(model, space)


# --- parameter validation ---------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        lambda: fractional_kernel(1.0, 0.0),
        lambda: fractional_kernel(1.0, 2.0),
        lambda: fractional_kernel(0.0, 0.5),
        lambda: fractional_kernel(1.0, 0.5, scale=-1.0),
        lambda: constant_kernel(0.0),
        lambda: truncated_fractional_kernel(1.0, 0.5, eps_trunc=0.0),
        lambda: truncated_fractional_kernel(1.0, 0.5, eps_trunc=1.0, floor=-0.1),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(KernelError):
        bad()


def test_rescaling_must_be_positive():
    with pytest.raises(KernelError, match="rescaling"):
        rescaled(fractional_kernel(1.0, 0.5), 0.0)


# --- integrability-style conditions report ----------------------------------


def test_conditions_report_matches_brute_force():
    space = gen_circle(12)
    model = fractional_kernel(1.0, 0.6)
    eps = 1.1
    report = check_kernel_conditions(model, space, eps)
    k = kernel_matrix(model, space)
    near_vals, far_vals, pair_vals = [], [], []
    for i in range(space.n):
        near = far = 0.0
        for j in range(space.n):
            if i == j:
                continue
            rho = space.dist[i, j]
            if rho < eps:
                near += rho**2 * k[i, j] * space.weights[j]
                pair_vals.append(k[i, j])
            else:
                far += k[i, j] * space.weights[j]
        near_vals.append(near)
        far_vals.append(far)
    assert report.near_sup == pytest.approx(max(near_vals), rel=1e-14)
    assert report.far_sup == pytest.approx(max(far_vals), rel=1e-14)
    assert report.pair_inf == pytest.approx(min(pair_vals), rel=1e-14)
    assert not report.vacuous


def test_conditions_constant_kernel_pair_inf_is_the_constant():
    space = gen_circle(8)
    report = check_kernel_conditions(constant_kernel(1.0), space, 1.0)
    assert report.pair_inf == 1.0


def test_conditions_vacuous_when_no_near_pairs():
    space = unit_triangle(side=1.0)
    report = check_kernel_conditions(constant_kernel(1.0), space, 0.5)
    assert report.vacuous
    assert report.pair_inf is None
    assert report.near_sup == 0.0


def test_masses_on_scale_restricted_tuples():
    # Single-scale sanity check: restricting tuples to a rips system keeps the
    # same per-tuple masses as the full enumeration evaluated on those rows.
    space = gen_circle(10)
    model = fractional_kernel(1.0, 0.5)
    restricted = enumerate_tuples(space, rips_system(1.0), 1)
    all_pairs = enumerate_tuples(space, full_system(), 1)
    w_restricted = assemble_weights(model, space, restricted)
    w_all = assemble_weights(model, space, all_pairs)
    for row, mass in zip(restricted.tuples, w_restricted):
        assert mass == w_all[all_pairs.index_of(row)]


# --- masses from the tuples' own pairs ----------------------------------------


def nearly_symmetric(rng, a):
    """a with its upper triangle one ulp higher: symmetric only within tolerance."""
    a = a.copy()
    upper = np.triu_indices(a.shape[0], 1)
    a[upper] = np.nextafter(a[upper], np.inf)
    assert not np.array_equal(a, a.T)
    return a


@pytest.mark.parametrize("kind", ["fractional", "truncated_fractional", "constant", "custom"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_masses_equal_the_dense_kernel_formula_bit_for_bit(kind, p):
    # Every ordered member pair (k, l) reads dist[t_k, t_l], and dist[t_l, t_k]
    # differs from it in the last bit, so a kernel read in one order only fails.
    rng = np.random.default_rng(31)
    base = random_space(rng, 9)
    space = MetricMeasureSpace(nearly_symmetric(rng, base.dist), base.weights)
    table = rng.uniform(1.0, 2.0, (9, 9))
    model = {
        "fractional": fractional_kernel(1.0, 0.7, scale=1.3),
        "truncated_fractional": truncated_fractional_kernel(1.0, 1.1, eps_trunc=0.4, floor=0.5),
        "constant": constant_kernel(3.0),
        "custom": custom_kernel(nearly_symmetric(rng, (table + table.T) / 2)),
    }[kind]
    ts = enumerate_tuples(space, full_system(), p)
    got = assemble_weights(model, space, ts)
    assert np.array_equal(got, dense_masses(model, space, ts.tuples))


@pytest.mark.parametrize("case", ["interval200", "sphere_p2", "sphere_p3"])
def test_masses_equal_the_dense_kernel_formula_at_workload_scale(case):
    # the capacity ladder's relabelled pairs and the sweep's sphere simplices
    if case == "interval200":
        perm = np.random.default_rng(11).permutation(200)
        space, system, model, p = (
            permuted(gen_interval(200), perm), rips_system(0.25), fractional_kernel(1.0, 0.5), 1
        )
    else:
        space, system, model = gen_sphere(200), rips_system(0.5), fractional_kernel(2.0, 0.5)
        p = int(case[-1])
    ts = enumerate_tuples(space, system, p)
    assert ts.size > 500
    got = assemble_weights(model, space, ts)
    assert np.array_equal(got, dense_masses(model, space, ts.tuples))
