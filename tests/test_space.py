import hashlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlhodge import space as space_module
from nlhodge.space import (
    _J_CHUNK,
    _ROW_BLOCK,
    _SWEEP_ROWS,
    METRIC_TOL,
    MIN_SEPARATION_WARN,
    MetricMeasureSpace,
    SpaceValidationError,
    _check_metric,
    gen_circle,
    gen_interval,
    gen_punctured_interval,
    gen_sphere,
    gen_two_components,
    load_distance_matrix,
)
from oracles import full_asymmetry, mesh_width, permuted, total_mass, triangle_scan


def test_circle_distances_follow_arc_law_exactly():
    n, radius = 32, 1.0
    space = gen_circle(n, radius)
    step = radius * (2.0 * np.pi / n)
    for i in range(n):
        for j in range(n):
            k = min(abs(i - j), n - abs(i - j))
            assert space.dist[i, j] == step * k


def test_circle_row_blocks_give_the_closed_form_bits():
    # several row blocks and a short last one
    n, radius = 3 * _SWEEP_ROWS + 5, 1.7
    idx = np.arange(n)
    k = np.abs(idx[:, None] - idx[None, :])
    want = radius * (2.0 * np.pi / n) * np.minimum(k, n - k)
    assert np.array_equal(gen_circle(n, radius).dist, want)


def test_circle_total_mass_is_circumference():
    space = gen_circle(10, radius=2.0)
    assert total_mass(space) == pytest.approx(2.0 * np.pi * 2.0, rel=1e-15)


def test_circle_mesh_width_is_one_step():
    space = gen_circle(16)
    assert space.mesh_width() == pytest.approx(2.0 * np.pi / 16, rel=1e-15)


@pytest.mark.parametrize("make", [
    lambda: gen_circle(3), lambda: gen_circle(130, radius=0.3), lambda: gen_interval(2),
    lambda: gen_interval(97), lambda: gen_two_components(40, gap=0.25),
    lambda: gen_punctured_interval(90, 0.4, 0.1), lambda: gen_sphere(150),
    lambda: MetricMeasureSpace(np.zeros((1, 1)), np.ones(1)),
])
def test_mesh_width_matches_the_masked_oracle(make):
    space = make()
    assert space.mesh_width() == mesh_width(space)
    perm = np.random.default_rng(space.n).permutation(space.n)
    other = permuted(space, perm)
    assert other.mesh_width() == mesh_width(other) == mesh_width(space)


def test_interval_endpoints_and_mass():
    space = gen_interval(64)
    assert space.dist[0, 63] == 1.0
    assert total_mass(space) == pytest.approx(1.0, rel=1e-12)


def test_two_components_gap_is_min_cross_distance():
    space = gen_two_components(8, gap=0.5)
    cross = space.dist[:8, 8:]
    assert cross.min() == pytest.approx(0.5, rel=1e-15)


# Oracle: on the n=100 grid (step 1/99) no point falls strictly inside the
# band (0.495, 0.505); the nearest grid values 49/99 and 50/99 sit 0.00505
# away from 0.5, outside a radius of 0.005. On the n=101 grid the midpoint
# 0.5 is a grid point and is the single removal.
def test_punctured_interval_counting_oracle_even_grid():
    space = gen_punctured_interval(100, 0.5, 0.005)
    assert space.n == 100


def test_punctured_interval_counting_oracle_odd_grid():
    space = gen_punctured_interval(101, 0.5, 0.005)
    assert space.n == 100
    assert not np.isclose(space.metadata["points"], 0.5).any()


def test_punctured_interval_zero_radius_removes_nothing():
    space = gen_punctured_interval(50, 0.5, 0.0)
    assert space.n == 50


def test_punctured_interval_wide_hole_rejected():
    with pytest.raises(SpaceValidationError):
        gen_punctured_interval(10, 0.5, 0.6)


def test_sphere_is_a_valid_geodesic_metric():
    space = gen_sphere(64)
    assert space.dist.max() <= np.pi + 1e-12
    assert total_mass(space) == pytest.approx(4.0 * np.pi, rel=1e-12)
    # antipodal-ish pair distance computed from the embedding directly
    pts = space.metadata["points"]
    i, j = 0, 63
    expected = np.arccos(np.clip(pts[i] @ pts[j], -1, 1))
    assert space.dist[i, j] == pytest.approx(expected, abs=1e-9)


def test_triangle_violation_names_all_three_indices():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with pytest.raises(SpaceValidationError, match=r"triangle.*\(0, 1, 2\)"):
        MetricMeasureSpace(d, np.ones(3))


def test_asymmetry_names_the_pair():
    d = np.array([[0.0, 1.0], [1.5, 0.0]])
    with pytest.raises(SpaceValidationError, match=r"asymmetric.*\(0, 1\)|asymmetric.*\(1, 0\)"):
        MetricMeasureSpace(d, np.ones(2))


@pytest.mark.parametrize("seed", range(4))
def test_asymmetry_names_the_first_largest_gap(seed):
    rng = np.random.default_rng(seed)
    d = gen_interval(150).dist.copy()
    # equal gaps in different row blocks, and a smaller one; row-major order breaks the tie
    for _ in range(3):
        i, j = rng.choice(150, 2, replace=False)
        d[i, j] += 2e-9
    i, j = rng.choice(150, 2, replace=False)
    d[i, j] += 1e-9
    gap = np.abs(d - d.T)
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    with pytest.raises(SpaceValidationError) as err:
        _check_metric(d)
    want = f"asymmetric distances at ({i}, {j}): {float(d[i, j])!r} vs {float(d[j, i])!r}"
    assert str(err.value) == want


@pytest.mark.parametrize("seed", range(30))
def test_asymmetry_matches_the_full_square_on_matrices_with_ties(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, _SWEEP_ROWS - 1, _SWEEP_ROWS, _SWEEP_ROWS + 1, 2 * _SWEEP_ROWS + 3):
        # few distinct values, so the largest gap recurs in several row blocks
        d = rng.integers(0, 3, (n, n)).astype(float if seed % 2 else np.int64)
        if seed % 3 == 0:
            d = np.minimum(d, d.T)  # symmetric: no gap at all
        worst, (i, j) = space_module._asymmetry(d)
        want, (wi, wj) = full_asymmetry(d)
        assert (worst, int(i), int(j)) == (want, int(wi), int(wj))


def test_nonzero_diagonal_rejected():
    d = np.array([[0.1, 1.0], [1.0, 0.0]])
    with pytest.raises(SpaceValidationError, match=r"^nonzero diagonal at \(0, 0\): 0\.1$"):
        MetricMeasureSpace(d, np.ones(2))


def test_negative_diagonal_is_named_before_the_triangle_scan():
    # fl(fl(d_00 + d_02) - d_02) rounds below -1e-12: the degenerate triple (0, 0, 2)
    # fails on d_00 alone, so the error names the diagonal entry, not the triple
    x = np.array([0.0, 0.3, 2.0])
    d = np.abs(x[:, None] - x[None, :])
    d[0, 0] = -METRIC_TOL
    with pytest.raises(SpaceValidationError, match=r"^nonzero diagonal at \(0, 0\): -1e-12$"):
        MetricMeasureSpace(d, np.ones(3))
    # a negative diagonal that no degenerate triple fails on is still accepted
    d[0, 0] = -0.5 * METRIC_TOL
    MetricMeasureSpace(d, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_distance_is_named_at_its_first_position(bad):
    d = gen_interval(5).dist.copy()
    d[3, 0] = d[1, 4] = bad
    assert _outcome(_check_metric, d) == ("non-finite distance at (1, 4)", [])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_finiteness_test_forms_no_n_by_n_mask():
    # at n = 2048 an n x n boolean mask (4.2 MB) would outgrow the asymmetry
    # sweep (3.1 MB) and the witness sweep (2.3 MB), the largest allocations
    # validation makes on a circle
    d = gen_circle(2048).dist
    sweeps = max(
        _traced_peak(space_module._asymmetry, d),
        _traced_peak(space_module._witness_certified, d, np.abs(d).max()),
    )
    assert sweeps < d.size
    assert _traced_peak(_check_metric, d) < 1.01 * sweeps


def test_zero_off_diagonal_rejected():
    d = np.zeros((2, 2))
    with pytest.raises(SpaceValidationError, match="distinct"):
        MetricMeasureSpace(d, np.ones(2))


def test_negative_weight_rejected():
    space_d = gen_interval(4).dist
    with pytest.raises(SpaceValidationError, match="non-positive weight at 2"):
        MetricMeasureSpace(space_d, np.array([1.0, 1.0, -1.0, 1.0]))


def test_non_finite_weight_rejected():
    space_d = gen_interval(4).dist
    with pytest.raises(SpaceValidationError, match="^non-finite weight at 1$"):
        MetricMeasureSpace(space_d, np.array([1.0, np.inf, np.nan, 1.0]))


def test_near_coincident_points_warn():
    x = np.array([0.0, 1e-12, 1.0])
    d = np.abs(x[:, None] - x[None, :])
    with pytest.warns(RuntimeWarning, match="separation"):
        MetricMeasureSpace(d, np.ones(3))


def test_arrays_are_read_only():
    space = gen_interval(5)
    with pytest.raises(ValueError):
        space.dist[0, 1] = 7.0
    with pytest.raises(ValueError):
        space.weights[0] = 7.0


@pytest.mark.parametrize(
    "make, dist_digest, metadata",
    [
        (lambda: gen_interval(33),
         "6b5dfc21925ca981887a0e054a74cdccffc3b8d28e27ef8a973548571b7562be",
         [("generator", "interval"), ("n", 33), ("dim", 1),
          ("points", "2270be3a84c8072f1ca8c6eff5dfe2d94244e3cd89b8655210ec9ca689eecaf2")]),
        (lambda: gen_two_components(8, 0.5),
         "100f9a12ec83da90e619bb2c66113d874fae1e0e92ea857f7469daebbd02b63c",
         [("generator", "two_components"), ("n_each", 8), ("gap", 0.5), ("dim", 1),
          ("points", "be1e7e2b64e594072712913e4b578a34b1cfbb0b3dd6a4242665644b3772e47f")]),
        (lambda: gen_punctured_interval(40, 0.5, 0.1),
         "4434ddec5d5acf0948188cf8be5c45e6d60c44b54cc38930cd1e3351151a9a33",
         [("generator", "punctured_interval"), ("n", 40), ("hole_center", 0.5),
          ("hole_radius", 0.1), ("dim", 1),
          ("points", "f696ecd0655be559e12fbaba04490d7c4937732da57e3979c39bd2f62b2c9d99")]),
    ],
    ids=["interval", "two_components", "punctured_interval"],
)
def test_line_samples_keep_their_bits(make, dist_digest, metadata):
    # sha256 of each distance matrix and of its points, and the metadata in
    # order, as the line generators have always produced them
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    space = make()
    assert space.dist.dtype == np.float64 and digest(space.dist) == dist_digest
    assert [
        (k, digest(v) if isinstance(v, np.ndarray) else v) for k, v in space.metadata.items()
    ] == metadata


def test_callers_arrays_stay_writable_and_are_shared():
    # The space holds read-only views of the caller's C-contiguous float64
    # arrays: no copy is made, and the caller's own arrays stay writable.
    x = np.array([0.0, 0.5, 2.0])
    d = np.abs(x[:, None] - x[None, :])
    w = np.ones(3)
    space = MetricMeasureSpace(d, w)
    assert np.shares_memory(space.dist, d) and np.shares_memory(space.weights, w)
    assert d.flags.writeable and w.flags.writeable
    assert not space.dist.flags.writeable and not space.weights.flags.writeable
    d[1, 1] = 0.0
    w[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        space.dist[1, 1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        space.weights[0] = 1.0


def test_permuted_preserves_intrinsic_quantities():
    space = gen_circle(12)
    rng = np.random.default_rng(3)
    perm = rng.permutation(12)
    other = permuted(space, perm)
    assert total_mass(other) == total_mass(space)
    assert other.mesh_width() == pytest.approx(space.mesh_width(), rel=1e-15)
    i, j = 3, 7
    assert other.dist[i, j] == space.dist[perm[i], perm[j]]


def test_permuted_rejects_non_permutation():
    with pytest.raises(SpaceValidationError):
        permuted(gen_interval(4), [0, 0, 1, 2])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=24), st.floats(min_value=0.1, max_value=5.0))
def test_circle_metric_valid_for_any_size(n, radius):
    space = gen_circle(n, radius)
    assert space.n == n


def test_loader_round_trip(tmp_path):
    ref = gen_interval(6)
    mat = tmp_path / "d.csv"
    np.savetxt(mat, ref.dist, delimiter=",")
    wfile = tmp_path / "w.txt"
    np.savetxt(wfile, ref.weights)
    space = load_distance_matrix(mat, wfile)
    assert np.allclose(space.dist, ref.dist, atol=1e-15)
    assert np.allclose(space.weights, ref.weights, atol=1e-18)


def test_loader_defaults_to_uniform_weights(tmp_path):
    mat = tmp_path / "d.csv"
    np.savetxt(mat, gen_interval(5).dist, delimiter=",")
    space = load_distance_matrix(mat)
    assert np.allclose(space.weights, 0.2)


def test_loader_rejects_garbage(tmp_path):
    mat = tmp_path / "d.csv"
    mat.write_text("a,b\nc,d\n")
    with pytest.raises(SpaceValidationError, match="cannot parse"):
        load_distance_matrix(mat)


def test_loader_rejects_bad_weights(tmp_path):
    mat = tmp_path / "d.csv"
    np.savetxt(mat, gen_interval(4).dist, delimiter=",")
    wfile = tmp_path / "w.txt"
    wfile.write_text("0.25\n0.25\n-0.25\n0.25\n")
    with pytest.raises(SpaceValidationError, match="non-positive weight at 2"):
        load_distance_matrix(mat, wfile)


SIZES = [1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]


def _edge(d, a, b):
    """Largest d[a, b] whose slack through every other point stays >= -METRIC_TOL."""
    s = min(d[a, j] + d[j, b] for j in range(d.shape[0]) if j not in (a, b))
    if d.dtype.kind == "i":
        return s
    c = s + METRIC_TOL
    while s - c < -METRIC_TOL:
        c = np.nextafter(c, -np.inf)
    while s - np.nextafter(c, np.inf) >= -METRIC_TOL:
        c = np.nextafter(c, np.inf)
    return c


def _past(d, c):
    return c + 1 if d.dtype.kind == "i" else np.nextafter(c, np.inf)


def _plane(rng, n):
    pts = rng.random((n, 2))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def _circle(rng, n):
    t = rng.random(n) * (2.0 * np.pi)
    gap = np.abs(t[:, None] - t[None, :])
    return np.minimum(gap, 2.0 * np.pi - gap)


def _interval(rng, n):
    x = rng.random(n)
    return np.abs(x[:, None] - x[None, :])


def _sphere(rng, n):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    crosses = np.linalg.norm(np.cross(v[:, None, :], v[None, :, :]), axis=2)
    return np.arctan2(crosses, (v[:, None, :] * v[None, :, :]).sum(axis=2))


# Uniform samples, so their labels are in a random order.
SAMPLES = {"plane": _plane, "circle": _circle, "interval": _interval, "sphere": _sphere}


def _case_matrix(n, seed, integer, mode, edit, last, dip, shape="plane"):
    """A near-metric with one edited pair (a, b).

    mode "sym" keeps d exactly symmetric. "lower" and "noise" put the edit at
    a > b only and give (b, a) its own boundary value, so d is symmetric only
    within tolerance; "noise" also perturbs the upper triangle by up to 2e-13.
    "at" puts d[a, b] on the tolerance boundary, "past" one step beyond it and
    "big" far beyond it. "exact_at" makes a, b and a third point a cluster
    whose slack is exactly -METRIC_TOL; "exact_past" one step beyond it.
    dip then sets the diagonal to small negatives within tolerance.
    """
    rng = np.random.default_rng(seed)
    if integer:
        cells = rng.choice(40 * 40, size=n, replace=False)
        pts = np.stack(np.divmod(cells, 40), axis=1)
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    else:
        d = SAMPLES[shape](rng, n)
        if mode == "noise":
            d = d + np.triu(rng.uniform(-2e-13, 2e-13, (n, n)), 1)
    if edit != "none":
        _edit(d, rng, mode, edit, last)
    if dip:
        np.fill_diagonal(d, -METRIC_TOL * rng.choice([0.0, 0.5, 1.0], n))
    return d


def _edit(d, rng, mode, edit, last):
    n = d.shape[0]
    a, b = (n - 1, n - 2) if last else (int(v) for v in rng.choice(n, 2, replace=False))
    if mode != "sym":
        a, b = max(a, b), min(a, b)
        ab, ba = _edge(d, a, b), _edge(d, b, a)
        d[a, b], d[b, a] = (ab if edit == "at" else _past(d, ab)), ba
    elif edit.startswith("exact"):
        j = next(x for x in rng.permutation(n) if x not in (a, b))
        for x in (b, j):
            d[x, :] = d[a, :]
            d[:, x] = d[:, a]
        c = 1.5e-12
        half = (c - METRIC_TOL) / 2
        d[a, j] = d[j, a] = d[j, b] = d[b, j] = half
        d[a, b] = d[b, a] = c if edit == "exact_at" else np.nextafter(c, 1.0)
    else:
        c = _edge(d, a, b)
        d[a, b] = d[b, a] = {"at": c, "past": _past(d, c), "big": 2 * c + 1}[edit]


def _outcome(check, d):
    """(error text or None, warning texts) of one validation call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(d)
            error = None
        except SpaceValidationError as exc:
            error = str(exc)
    return error, [str(w.message) for w in caught]


def _diagonal_oracle(d):
    """The diagonal message for the first negative d_ii that fails a degenerate triple."""
    n = d.shape[0]
    for i, k in itertools.product(range(n), range(n)):
        if d[i, i] >= 0:
            continue
        slack = min((d[i, i] + d[i, k]) - d[i, k], (d[k, i] + d[i, i]) - d[k, i])
        if slack < -METRIC_TOL:
            return f"nonzero diagonal at ({i}, {i}): {float(d[i, i])!r}"
    return None


def _oracle(d):
    error, _ = _outcome(triangle_scan, d)
    diagonal = _diagonal_oracle(d)
    if diagonal is not None:
        # a degenerate triple is one the scan tests too: the verdict stays, the message names d_ii
        assert error is not None
        error = diagonal
    notes = []
    if error is None and d.shape[0] > 1:
        min_sep = np.min(d + np.eye(d.shape[0]) * d.max())
        if min_sep < MIN_SEPARATION_WARN:
            notes.append(
                f"minimum point separation {min_sep:.3e} below {MIN_SEPARATION_WARN:.0e}; "
                "kernel weights may overflow"
            )
    return error, notes


@st.composite
def metric_cases(draw):
    n = draw(st.sampled_from(SIZES))
    integer = draw(st.booleans())
    mode = "sym" if integer else draw(st.sampled_from(["sym", "lower", "noise"]))
    edits = ["none"]
    if n >= 3:
        edits += ["at", "past"]
        if mode == "sym":
            edits += ["big"] if integer else ["big", "exact_at", "exact_past"]
    edit = draw(st.sampled_from(edits))
    dip = not integer and draw(st.booleans())
    return (n, draw(st.integers(0, 2**32 - 1)), integer, mode, edit, draw(st.booleans()), dip,
            draw(st.sampled_from("CF")))


@settings(max_examples=120, deadline=None)
@given(metric_cases())
@example((2 * _ROW_BLOCK + 3, 0, False, "lower", "past", True, False, "C"))
@example((_ROW_BLOCK + 1, 1, False, "noise", "past", True, False, "F"))
@example((2 * _ROW_BLOCK + 3, 2, False, "sym", "past", True, False, "C"))
@example((_ROW_BLOCK, 3, True, "sym", "past", True, False, "C"))
@example((_ROW_BLOCK - 1, 4, False, "sym", "exact_at", False, False, "C"))
@example((2 * _ROW_BLOCK + 3, 5, False, "sym", "exact_past", True, False, "F"))
@example((_ROW_BLOCK + 1, 6, False, "sym", "none", False, True, "C"))
# the only violation is in the last of three row blocks, which cap 3 gives to worker 2
@example((2 * _ROW_BLOCK + 3, 7, False, "sym", "big", True, False, "C"))
def test_triangle_check_matches_the_per_j_oracle(case):
    n, seed, integer, mode, edit, last, dip, order = case
    d = _case_matrix(n, seed, integer, mode, edit, last, dip)
    _check_against_the_oracle(d, edit, dip, order)


# Sizes where the scan skips tiles: several row blocks and j-chunks.
PRUNED_SIZES = [64, 97, 130]


@st.composite
def pruned_cases(draw):
    n = draw(st.sampled_from(PRUNED_SIZES))
    shape = draw(st.sampled_from(["circle", "interval", "sphere"]))
    mode = draw(st.sampled_from(["sym", "lower", "noise"]))
    edits = ["none", "at", "past"] + (["big", "exact_at", "exact_past"] if mode == "sym" else [])
    return (n, shape, draw(st.integers(0, 2**32 - 1)), mode, draw(st.sampled_from(edits)),
            draw(st.booleans()), draw(st.booleans()), draw(st.sampled_from("CF")))


@settings(max_examples=60, deadline=None)
@given(pruned_cases())
def test_pruned_scan_matches_the_per_j_oracle(case):
    n, shape, seed, mode, edit, last, dip, order = case
    d = _case_matrix(n, seed, False, mode, edit, last, dip, shape)
    _check_against_the_oracle(d, edit, dip, order)


def _check_against_the_oracle(d, edit, dip, order):
    if order == "F":
        d = np.asfortranarray(d)
    expected = _oracle(d)
    # hypothesis forbids function-scoped fixtures, so the caps are set here
    for cap in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"NLH_THREADS": cap}):
            assert _outcome(_check_metric, d) == expected, f"NLH_THREADS={cap}"
    # without the dip the edits land where they are meant to, so both outcomes occur
    if not dip and edit in ("at", "exact_at"):
        assert expected[0] is None
    elif not dip and edit != "none":
        assert expected[0] is not None


def test_an_int8_matrix_longer_than_127_keeps_its_verdict():
    # the scan's buffers take the matrix dtype, whose range here is below n
    x = np.arange(200) % 3
    d = (np.abs(x[:, None] - x[None, :]) + 1 - np.eye(200, dtype=int)).astype(np.int8)
    for a, b in [(None, None), (0, 2), (5, 190), (130, 199)]:
        e = d.copy()
        if a is not None:
            e[a, b] = e[b, a] = 6  # every path of two steps is shorter
        expected = _oracle(e)
        assert (expected[0] is None) == (a is None)
        assert _outcome(_check_metric, e) == expected


class SumSpy:
    """numpy, except that add records the operands of each sum it writes to a 3-D out."""

    def __init__(self):
        self.sums = []

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, a, b, out=None):
        if out is not None and out.ndim == 3:
            self.sums.append((a, b, out.shape))
        return np.add(a, b, out=out)


def test_pruned_scan_skips_most_triples_of_a_relabelled_circle(monkeypatch):
    n = 256
    perm = np.random.default_rng(3).permutation(n)
    d = np.ascontiguousarray(gen_circle(n).dist[np.ix_(perm, perm)])
    spy = SumSpy()
    monkeypatch.setattr(space_module, "np", spy)
    monkeypatch.setenv("NLH_THREADS", "1")
    # the scan itself: `_check_metric` certifies this circle without it
    assert space_module._triangle_holds(d, METRIC_TOL, symmetric=True)
    evaluated = sum(int(np.prod(shape)) for *_, shape in spy.sums)
    # the unpruned scan sums every j for each row block's columns k >= its first row
    full = sum((min(i0 + _ROW_BLOCK, n) - i0) * n * (n - i0) for i0 in range(0, n, _ROW_BLOCK))
    assert 0 < evaluated < full / 2


@pytest.mark.parametrize("n", [1, 5, 45, 64])
def test_tile_bounds_are_the_tile_extremes(n):
    d = np.random.default_rng(n).random((n, n))
    lo, cm, cM = space_module._tile_bounds(d)
    rows, chunk = min(_ROW_BLOCK, n), min(_J_CHUNK, n)
    for b, i0 in enumerate(range(0, n, rows)):
        assert np.array_equal(cM[b], d[i0 : i0 + rows].max(axis=0))
        for c, j0 in enumerate(range(0, n, chunk)):
            assert lo[b, c] == d[i0 : i0 + rows, j0 : j0 + chunk].min()
    for c, j0 in enumerate(range(0, n, chunk)):
        assert np.array_equal(cm[c], d[j0 : j0 + chunk].min(axis=0))
    assert lo.shape == (-(-n // rows), -(-n // chunk)) and cm.shape[0] == lo.shape[1]


@pytest.mark.parametrize("symmetric", [True, False])
def test_each_chunk_adds_the_span_of_its_live_columns(monkeypatch, symmetric):
    n = 100
    perm = np.random.default_rng(5).permutation(n)
    d = gen_circle(n).dist[np.ix_(perm, perm)]
    order = space_module._locality_order(d)
    near = np.ascontiguousarray(d[np.ix_(order, order)])
    lo, cm, cM = bounds = space_module._tile_bounds(near)
    expected = []
    for b, i0 in enumerate(range(0, n, _ROW_BLOCK)):
        k0 = i0 if symmetric else 0
        for c, j0 in enumerate(range(0, n, _J_CHUNK)):
            live = [k for k in range(k0, n) if lo[b, c] + cm[c, k] < cM[b, k]]
            if live:
                expected.append((i0, j0, live[0], live[-1] + 1))
    # the rule skips chunks and narrows spans, so the comparison below has teeth
    assert len(expected) < lo.size if symmetric else len(expected) == lo.size
    assert any(end - start < n - (i0 if symmetric else 0) for i0, _, start, end in expected)

    def origin(view):
        """(row, column) of `near` where the view starts."""
        offset = view.__array_interface__["data"][0] - near.__array_interface__["data"][0]
        return divmod(offset // near.itemsize, n)

    spy = SumSpy()
    monkeypatch.setattr(space_module, "np", spy)
    scratch = np.empty(space_module._scratch_size(n, near.itemsize))
    stop = threading.Event()
    starts = range(0, n, _ROW_BLOCK)
    space_module._scan_rows(near, METRIC_TOL, symmetric, bounds, starts, stop, scratch)
    assert not stop.is_set()
    spans = [(*origin(a), origin(b)[1], origin(b)[1] + shape[2]) for a, b, shape in spy.sums]
    assert spans == expected


@pytest.mark.parametrize("n", [3, _ROW_BLOCK, 3 * _ROW_BLOCK])
def test_thread_cap_sets_the_worker_count(n, monkeypatch):
    shares, buffers = [], []
    scan = space_module._scan_rows

    def spy(dist, tol, symmetric, bounds, starts, stop, scratch):
        shares.append(list(starts))
        buffers.append(scratch)
        scan(dist, tol, symmetric, bounds, starts, stop, scratch)

    monkeypatch.setattr(space_module, "_scan_rows", spy)
    d = gen_circle(n).dist
    blocks = -(-n // _ROW_BLOCK)
    for cap in (1, 2, 3, 4):
        monkeypatch.setenv("NLH_THREADS", str(cap))
        shares.clear()
        buffers.clear()
        # the scan itself: `_check_metric` certifies these circles without it
        assert space_module._triangle_holds(d, METRIC_TOL, symmetric=True)
        assert len(shares) == min(cap, blocks)
        assert sorted(sum(shares, [])) == list(range(0, n, _ROW_BLOCK))
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(buffers, 2))


def test_a_set_stop_event_ends_a_workers_scan():
    d = gen_circle(3 * _ROW_BLOCK).dist
    stop = threading.Event()
    stop.set()  # another worker found a violation
    seen = []

    def starts():
        for i0 in range(0, d.shape[0], _ROW_BLOCK):
            seen.append(i0)
            yield i0

    scratch = np.empty(space_module._scratch_size(d.shape[0], d.itemsize))
    bounds = space_module._tile_bounds(d)
    space_module._scan_rows(d, METRIC_TOL, True, bounds, starts(), stop, scratch)
    assert seen == [0]


def test_more_workers_than_cores_find_a_violation_in_any_block(monkeypatch):
    n = 8 * _ROW_BLOCK
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for a in [None, *range(0, n - 1, 11)]:
            d = gen_interval(n).dist.copy()
            if a is not None:  # the only violating triples are (a, j, n-1), in a's row block
                d[a, n - 1] = d[n - 1, a] = 2.0
            expected = _oracle(d)
            assert (expected[0] is None) == (a is None)
            for cap in ("1", "8"):
                monkeypatch.setenv("NLH_THREADS", cap)
                assert _outcome(_check_metric, d) == expected, (a, cap)
    finally:
        sys.setswitchinterval(switch)


def test_scan_scratch_stays_small_at_n_1024():
    # one worker's scratch against the 8 MiB matrix it scans: a wider j-chunk
    # multiplies it, so raising _J_CHUNK past 16 fails here
    assert space_module._scratch_size(1024, 8) * 8 < 3 * 2**20


# --- the witness certificate ---------------------------------------------------

U = 2.0**-53


def _path_graph_metric(n, step, rng):
    """Float shortest-path distances of a path graph with steps in [1, 1.2] * step."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    w = step * (1.0 + 0.2 * rng.random(n - 1))
    a, b = np.arange(n - 1), np.arange(1, n)
    graph = sp.csr_matrix((np.r_[w, w], (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    return dijkstra(graph, directed=True)


def _certified(d):
    """The witness verdict, given max |d| as `_check_metric` passes it."""
    return space_module._witness_certified(d, np.abs(d).max())


def _near_bound_sample(shape, n, scale, rng):
    """A relabelled sample whose witness bound before any misfit, about 8u max d,
    is near `scale` * METRIC_TOL: equally spaced circle and interval points,
    and a path graph."""
    size = scale * METRIC_TOL / (8 * U)  # the largest distance
    if shape == "circle":
        k = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        d = (size * 2.0 / n) * np.minimum(k, n - k)
    elif shape == "interval":
        x = np.linspace(0.0, size, n)
        d = np.abs(x[:, None] - x[None, :])
    else:
        d = _path_graph_metric(n, size / (1.1 * (n - 1)), rng)
    perm = rng.permutation(n)
    return np.ascontiguousarray(d[np.ix_(perm, perm)])


@st.composite
def certificate_cases(draw):
    shape = draw(st.sampled_from(["circle", "interval", "graph"]))
    n = draw(st.integers(3, 130))
    scale = 10.0 ** draw(st.floats(-1.0, 1.5))
    edit = draw(st.sampled_from(["none", "noise", "nudge", "at", "past", "big"]))
    return shape, n, scale, edit, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(certificate_cases())
@example(("circle", 128, 0.9, "none", 0.0, 0))
@example(("circle", 127, 0.9, "none", 0.0, 0))
@example(("interval", 97, 0.3, "nudge", 0.1, 1))
@example(("interval", 97, 0.9, "at", 0.0, 1))
@example(("graph", 128, 0.9, "none", 0.0, 3))
def test_a_certified_matrix_passes_the_per_j_oracle(case):
    shape, n, scale, edit, size, seed = case
    rng = np.random.default_rng(seed)
    d = _near_bound_sample(shape, n, scale, rng)
    a, b = (int(v) for v in rng.choice(n, 2, replace=False))
    if edit == "noise":
        # symmetric noise up to size/2 times the tolerance
        noise = np.triu(rng.uniform(-0.5, 0.5, (n, n)) * (size * METRIC_TOL), 1)
        d = d + noise + noise.T
    elif edit == "nudge":
        # one pair longer by up to twice the tolerance: past it, tight triples fail
        d[a, b] = d[b, a] = d[a, b] + 2 * size * METRIC_TOL
    elif edit != "none":
        c = _edge(d, a, b)
        d[a, b] = d[b, a] = {"at": c, "past": _past(d, c), "big": 2 * c + 1}[edit]
    if _certified(d):
        assert _oracle(d)[0] is None


@pytest.mark.parametrize("shape", ["circle", "interval", "graph"])
def test_samples_under_the_bound_are_certified_and_past_it_declined(shape):
    # the property above has teeth: both answers occur on its samples
    rng = np.random.default_rng(7)
    assert _certified(_near_bound_sample(shape, 96, 0.3, rng))
    assert not _certified(_near_bound_sample(shape, 96, 3.0, rng))


def test_line_data_past_the_bound_is_left_to_the_scan(monkeypatch):
    # the cycle reads a line's own metric but bounds it by about 8u max d: past
    # METRIC_TOL/(8u) the witness declines, and the scan accepts the matrix
    d = _near_bound_sample("interval", 96, 1.3, np.random.default_rng(7))
    assert not _certified(d)
    scan, verdicts = space_module._triangle_holds, []

    def spy(*args, **kwargs):
        verdicts.append(scan(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(space_module, "_triangle_holds", spy)
    assert _outcome(_check_metric, d) == (None, [])
    assert verdicts == [True]
    assert _oracle(d)[0] is None


def _exact_cycle(n, seed):
    """d = min(g, L - g) with g = fl|phi_i - phi_j| and L = 9000, the cycle witness's
    own float formula, on coordinates it reads back exactly: point 1 at 0 is
    the farthest from point 0, point 2 at 1 its nearest neighbour, and point 3
    is equidistant from both, so L comes back too."""
    rng = np.random.default_rng(seed)
    far = rng.uniform(3700.0, 4499.0, n - 4) * rng.choice([-1.0, 1.0], n - 4)
    phi = np.r_[4499.75, 0.0, 1.0, -4499.5, far]
    g = np.abs(phi[:, None] - phi[None, :])
    return np.minimum(g, 9000.0 - g)


@pytest.mark.parametrize("seed", range(3))
def test_a_cycle_that_rounds_past_the_tolerance_is_declined(seed, monkeypatch):
    # the witness reproduces d bit for bit (M = 0) and 2u max d < METRIC_TOL,
    # yet wrapped pairs round g >= 8192 by up to 2^-40 and break triangles:
    # only the rounding term of delta sees it
    d = _exact_cycle(32, seed)
    assert _oracle(d)[0] is not None
    assert not _certified(d)
    fits = space_module._witness_fits

    def no_rounding(dist, coords, wrap, rounding, top):
        return fits(dist, coords, wrap, Fraction(0), top)

    monkeypatch.setattr(space_module, "_witness_fits", no_rounding)
    assert _certified(d)


def test_three_pairs_off_by_under_half_the_tolerance_are_declined():
    # the cycle read off rows 32 and 31 is the clean circle, so each pair is
    # only 0.4 * METRIC_TOL from it; their triangle breaks by 1.2 * METRIC_TOL,
    # which only the 3 delta of the bound sees
    d = gen_circle(64).dist.copy()
    for a, b, sign in ((10, 20, -1), (20, 30, -1), (10, 30, 1)):
        d[a, b] = d[b, a] = d[a, b] + sign * 0.4 * METRIC_TOL
    assert _oracle(d)[0] is not None
    assert not _certified(d)


def _no_scan(*args):
    raise AssertionError("the triangle scan ran")


ONE_DIMENSIONAL = {
    "circle3": lambda: gen_circle(3),
    "circle64": lambda: gen_circle(64),
    "circle65": lambda: gen_circle(65, radius=2.5),
    "circle255": lambda: gen_circle(255, radius=0.1),
    "circle256": lambda: gen_circle(256, radius=7.0),
    "interval3": lambda: gen_interval(3),
    "interval200": lambda: gen_interval(200),
    "two_components": lambda: gen_two_components(40, 0.3),
    "punctured_interval": lambda: gen_punctured_interval(101, 0.5, 0.1),
}


@pytest.mark.parametrize("name", sorted(ONE_DIMENSIONAL))
def test_one_dimensional_spaces_are_certified_without_the_scan(name, monkeypatch):
    monkeypatch.setattr(space_module, "_triangle_holds", _no_scan)
    space = ONE_DIMENSIONAL[name]()
    perm = np.random.default_rng(5).permutation(space.n)
    for d in (space.dist, np.ascontiguousarray(space.dist[np.ix_(perm, perm)])):
        assert _certified(d)
        assert _outcome(_check_metric, d) == (None, [])


@pytest.mark.parametrize("n", [800, 1024])
def test_a_relabelled_circle_or_interval_is_certified_without_the_scan(n, monkeypatch):
    space = gen_circle(n) if n == 1024 else gen_interval(n)
    perm = np.random.default_rng(3).permutation(n)
    d = np.ascontiguousarray(space.dist[np.ix_(perm, perm)])
    spy = SumSpy()
    monkeypatch.setattr(space_module, "np", spy)
    assert _outcome(_check_metric, d) == (None, [])
    assert spy.sums == []


def test_circle_4096_is_certified_without_the_scan(monkeypatch):
    monkeypatch.setattr(space_module, "_triangle_holds", _no_scan)
    assert gen_circle(4096).n == 4096


def test_sphere_200_declines_without_importing_csgraph():
    code = (
        "import sys\n"
        "from nlhodge import space\n"
        "d = space.gen_sphere(200).dist\n"
        "assert not space._witness_certified(d, abs(d).max())\n"
        "assert 'scipy.sparse.csgraph' not in sys.modules, 'csgraph imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
