import json
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import nlhodge.cochains
import nlhodge.covers
import nlhodge.neighborhoods
from nlhodge.space import MetricMeasureSpace, gen_circle, gen_interval
from nlhodge.neighborhoods import TupleSet, full_system, hausdorff_system, rips_system
from nlhodge.kernels import fractional_kernel
from nlhodge.hodge import build_weighted_complex
from nlhodge.covers import (
    CoverError,
    CoverSystem,
    SliceEmptyError,
    _check_reconstructions,
    _enumerate_blocks,
    _levels,
    _nerve_differences,
    _tuple_ball_membership,
    build_slice_and_psi,
    cech_nerve_betti,
    default_cover,
    derham_recovery_report,
    homotopy_identity_residual,
    mayer_vietoris_check,
    partition_of_unity,
    poincare_suite,
    reference_betti,
    restrict_complex,
)
from nlhodge.cochains import build_coboundary
from nlhodge import cohomology
from nlhodge.cohomology import PRIMES, _cleared_rank, rank_exact

from oracles import (
    assembled_matrices,
    cech_sign,
    dense_coboundary,
    dense_levels,
    dense_psi,
    intersection_mask,
    loop_nerve_differences,
    multiplicity_histogram,
    nerve_combos,
    partition_supported,
    permuted,
    poincare_check,
    psi_oracle,
    residual_oracle,
    restrict_tuple_sets,
    simplex_coface_matrix,
    slice_mass,
    slice_oracle,
    slice_size,
)


@pytest.fixture(scope="module")
def circle_setup():
    space = gen_circle(32)
    system = hausdorff_system(0.5)
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 2)
    cover = default_cover(space, system)
    return space, system, complex_, cover


@pytest.fixture(scope="module")
def interval_setup():
    space = gen_interval(32)
    system = hausdorff_system(0.2)
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 2)
    cover = default_cover(space, system)
    return space, system, complex_, cover


def _small_setup(space, system, eta, centers):
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 2)
    cover = CoverSystem(space, system, eps=system.eps, eta=eta, centers=np.array(centers))
    return space, system, complex_, cover


# a seeded relabelling of gen_circle(32): old point i is new point RELABEL[i]
RELABEL = np.argsort(np.random.default_rng(0).permutation(32))


def _relabelled_circle():
    return permuted(gen_circle(32), np.argsort(RELABEL))


SMALL_SETUPS = {
    "two_balls": lambda: _small_setup(gen_interval(16), rips_system(0.3), 0.45, [3, 12]),
    "fat_four": lambda: _small_setup(gen_circle(32), rips_system(0.3), 0.8, [0, 8, 16, 24]),
    # fat_four with interleaved point ids in its disconnected overlaps, so
    # component labels are not monotone in the points of an intersection
    "fat_four_relabelled": lambda: _small_setup(
        _relabelled_circle(), rips_system(0.3), 0.8, RELABEL[[0, 8, 16, 24]]
    ),
    "single_ball": lambda: _small_setup(gen_interval(12), rips_system(0.4), 1.1, [6]),
}


@pytest.fixture(params=["circle", "interval", *SMALL_SETUPS])
def any_setup(request):
    """The two gluing setups (nerve depth 2) and the small covers (depth 3)."""
    if request.param in SMALL_SETUPS:
        return SMALL_SETUPS[request.param](), 3
    return request.getfixturevalue(f"{request.param}_setup"), 2


def assert_same_csr(got, want):
    assert got.shape == want.shape
    row = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    assert (np.diff(got.indices)[np.diff(row) == 0] > 0).all()  # columns sorted in each row
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert a.tobytes() == b.tobytes(), attr


# --- cover construction -------------------------------------------------------


def test_cover_radii_and_masks(circle_setup):
    space, _, _, cover = circle_setup
    d = space.dist[cover.centers]
    small = d < cover.eps + cover.eta
    assert np.array_equal(cover.big_masks, d < cover.eps + 2 * cover.eta)
    # small balls sit inside big balls, bumps are 1 there and 0 outside
    assert not (small & ~cover.big_masks).any()
    assert (cover.bumps[small] == 1.0).all()
    assert (cover.bumps[~cover.big_masks] == 0.0).all()
    assert ((cover.bumps >= 0.0) & (cover.bumps <= 1.0)).all()


def test_default_cover_uses_every_point_and_tight_eta(circle_setup):
    space, system, _, cover = circle_setup
    assert np.array_equal(cover.centers, np.arange(32))
    assert cover.eps == system.eps
    strided = default_cover(space, system, every=4)
    assert np.array_equal(strided.centers, np.arange(0, 32, 4))
    assert strided.eta > cover.eta  # sparser centers force fatter balls


def test_cover_must_cover_every_point():
    space = gen_interval(10)
    with pytest.raises(CoverError, match="do not cover"):
        CoverSystem(space, rips_system(0.2), eps=0.2, eta=0.05, centers=np.array([0]))
    with pytest.raises(CoverError, match="at least one center"):
        CoverSystem(space, rips_system(0.2), eps=0.2, eta=0.5, centers=np.array([], dtype=int))
    with pytest.raises(CoverError, match="positive"):
        CoverSystem(space, rips_system(0.2), eps=0.2, eta=0.0, centers=np.array([5]))


def test_centers_must_be_point_indices():
    space = gen_interval(8)
    # an int cast would put balls at [1.7, 6.2] on points 1 and 6
    for centers, bad in (([-1, 3], r"\[-1\]"), ([3, 9], r"\[9\]"), ([[0, 4]], r"\(1, 2\)"),
                         ([1.7, 6.2], r"integer point indices, got \[1\.7, 6\.2\]"),
                         ([True] * 8, "integer point indices")):
        with pytest.raises(CoverError, match=bad):
            CoverSystem(space, rips_system(0.2), eps=0.2, eta=0.5, centers=centers)


def test_restriction_needs_ball_indices(circle_setup):
    _, _, complex_, cover = circle_setup
    with pytest.raises(CoverError, match=r"\[-1\] outside 0\.\.31"):
        build_slice_and_psi(cover, complex_, (-1, 0), 2)
    with pytest.raises(CoverError, match=r"\[32\] outside 0\.\.31"):
        restrict_complex(cover, complex_, (0, 32), 1)


def test_an_intersection_of_no_balls_is_rejected(circle_setup):
    _, _, complex_, cover = circle_setup
    for alphas in ([], ()):
        with pytest.raises(CoverError, match="at least one ball"):
            restrict_complex(cover, complex_, alphas, 1)
        with pytest.raises(CoverError, match="at least one ball"):
            build_slice_and_psi(cover, complex_, alphas, 2)


def test_cover_sizes_must_be_positive_and_finite():
    # NaN fails every comparison, so it would pass a test for `<= 0` and
    # leave all-False masks and NaN bumps
    space = gen_interval(8)
    system = rips_system(0.2)
    for eps, eta in ((np.nan, 0.5), (0.2, np.nan), (0.2, np.inf), (0.0, 0.5), (0.2, -1.0)):
        with pytest.raises(CoverError, match="eps and eta must be positive, eta finite"):
            CoverSystem(space, system, eps=eps, eta=eta, centers=np.arange(8))
    with pytest.raises(CoverError, match="eps=nan"):
        default_cover(space, system, eps=np.nan)
    # an infinite eps makes every ball hold every point, with finite bumps
    cover = CoverSystem(space, system, eps=np.inf, eta=0.5, centers=np.arange(8))
    assert cover.big_masks.all() and (cover.bumps == 1.0).all()


def test_default_cover_needs_a_positive_stride():
    space = gen_interval(8)
    for every in (0, -1):
        with pytest.raises(CoverError, match=f"got {every}"):
            default_cover(space, rips_system(0.2), every=every)


def test_default_cover_needs_an_integer_stride():
    space = gen_interval(8)
    for every in (1.5, 2.0, True):
        with pytest.raises(CoverError, match=f"integer stride, got {every!r}"):
            default_cover(space, rips_system(0.2), every=every)
    cover = default_cover(space, rips_system(0.2), every=np.int64(2))
    assert np.array_equal(cover.centers, [0, 2, 4, 6])


def test_full_system_needs_explicit_eps():
    space = gen_interval(8)
    with pytest.raises(CoverError, match="pass eps explicitly"):
        default_cover(space, full_system())
    cover = default_cover(space, full_system(), eps=0.3)
    assert cover.eps == 0.3


# --- partition of unity -------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2])
def test_partition_sums_to_one_on_admissible_tuples(circle_setup, p):
    _, _, complex_, cover = circle_setup
    tuples = complex_.tuple_sets[p].tuples
    assert partition_supported(cover, tuples)
    sums = partition_of_unity(cover, tuples).sum(axis=0)
    assert np.abs(sums - 1.0).max(initial=0.0) <= 1e-14


def test_partition_is_supported_on_big_balls(circle_setup):
    _, _, complex_, cover = circle_setup
    tuples = complex_.tuple_sets[1].tuples
    chi = partition_of_unity(cover, tuples)
    inside_big = cover.big_masks[:, tuples].all(axis=2)
    assert (chi[~inside_big] == 0.0).all()
    assert (chi >= 0.0).all()


def test_partition_telescopes_against_product_form(circle_setup):
    # sum_a chi_a == 1 - prod_a (1 - t_a) for the telescoped hats.
    _, _, complex_, cover = circle_setup
    tuples = complex_.tuple_sets[1].tuples
    t = cover.bumps[:, tuples].prod(axis=2)
    want = 1.0 - np.prod(1.0 - t, axis=0)
    assert np.allclose(partition_of_unity(cover, tuples).sum(axis=0), want, atol=1e-14)


def test_partition_fails_for_tuples_wider_than_the_cover_scale():
    # A cover built for one scale does not support tuples from a coarser one.
    space = gen_interval(16)
    cover = CoverSystem(space, rips_system(0.3), eps=0.3, eta=0.45, centers=np.array([3, 12]))
    wide = np.array([[0, 15]])
    assert not partition_supported(cover, wide)


# --- restriction --------------------------------------------------------------


def test_restrict_complex_matches_brute_force(circle_setup):
    # Local rows are the global ids of the inside tuples; each local
    # coboundary, as entries and as their dense scatter, equals the one built
    # on the intersection's own tuple sets, and each entry's removed point is
    # the member of its row tuple missing from its column tuple.
    _, _, complex_, cover = circle_setup
    loc = restrict_complex(cover, complex_, (0, 1), 2)
    mask = cover.big_masks[0] & cover.big_masks[1]
    assert np.array_equal(loc.global_rows[0], np.nonzero(mask)[0])
    sets, _ = restrict_tuple_sets(cover, complex_, (0, 1), 2)
    for p in range(3):
        ts = complex_.tuple_sets[p]
        keep = [r for r, row in enumerate(ts.tuples.tolist()) if all(mask[v] for v in row)]
        assert np.array_equal(loc.global_rows[p], np.array(keep, dtype=int))
        assert loc.dim(p) == len(keep) == sets[p].size
    for p in range(2):
        want = build_coboundary(sets[p], sets[p + 1]).matrix
        row, col, sign, removed = loc.coboundary_entries(p)
        got = sp.csr_matrix((sign, (row, col)), shape=want.shape)
        assert got.nnz == row.size == want.nnz
        assert (got != want).nnz == 0
        assert np.array_equal(dense_coboundary(loc, p), want.astype(float).toarray())
        for r, c, t in zip(row, col, removed):
            y, x = sets[p + 1].tuples[r].tolist(), sets[p].tuples[c].tolist()
            assert sorted(x + [t]) == y


# --- Mayer-Vietoris -----------------------------------------------------------


def test_cech_sign_hand_values():
    assert cech_sign(2, (0, 1)) == ((0, 1, 2), 1)
    assert cech_sign(0, (1, 2)) == ((0, 1, 2), 1)
    assert cech_sign(1, (0, 2)) == ((0, 1, 2), -1)
    assert cech_sign(1, (1, 2)) == ((), 0)


def test_simplex_coface_matrix_squares_to_zero():
    for s in range(2, 6):
        for q in range(s - 2):
            lo = simplex_coface_matrix(s, q)
            hi = simplex_coface_matrix(s, q + 1)
            assert np.array_equal(hi @ lo, np.zeros((hi.shape[0], lo.shape[1]), dtype=np.int64))


def test_simplex_coface_ranks_kill_all_cohomology():
    # The full simplex is contractible: kernel of each level equals the image
    # of the previous one, so rank(level q) = C(s-1, q+1).
    from math import comb

    for s in range(2, 7):
        for q in range(s - 1):
            M = simplex_coface_matrix(s, q)
            assert rank_exact(M) == comb(s - 1, q + 1)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_mayer_vietoris_exact_on_the_circle(circle_setup, p):
    _, _, complex_, cover = circle_setup
    cert = mayer_vietoris_check(complex_, cover, p, q_max=1)
    assert cert.injective
    assert cert.reconstruction_ok
    assert cert.exact
    for row in cert.rows:
        assert row["exact"], row
        assert row["dim_kernel"] == row["rank_in"]


@pytest.mark.parametrize("name", ["circle", *SMALL_SETUPS])
def test_mayer_vietoris_rows_match_the_assembled_ranks(request, name):
    # Row values against the per-intersection oracle's sizes and ranks: the
    # closed forms agree among themselves by Pascal's rule whatever they are,
    # so only these matrices can tell a wrong one.
    if name in SMALL_SETUPS:
        _, _, complex_, cover = SMALL_SETUPS[name]()
    else:
        _, _, complex_, cover = request.getfixturevalue("circle_setup")
    for p in range(3):
        D = assembled_matrices(complex_, cover, p, 3)  # R, delta_0, delta_1, delta_2
        rank, certain = zip(*(_cleared_rank(M, {}) for M in D))
        assert all(certain)
        for q_max in range(3):
            cert = mayer_vietoris_check(complex_, cover, p, q_max=q_max)
            assert [row["q"] for row in cert.rows] == list(range(q_max + 1))
            for q, row in enumerate(cert.rows):
                assert row["dim"] == D[q].shape[0]
                assert row["rank_in"] == rank[q]
                assert row["dim_kernel"] == row["dim"] - rank[q + 1]


def test_mayer_vietoris_crosscheck_on_a_small_cover():
    space = gen_interval(16)
    system = rips_system(0.3)
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 2)
    cover = CoverSystem(space, system, eps=0.3, eta=0.45, centers=np.array([3, 12]))
    cert0 = mayer_vietoris_check(complex_, cover, 0, q_max=1)
    assert cert0.crosscheck == "pass"
    assert cert0.exact
    # both big balls swallow the whole interval, so every tuple is in both
    assert multiplicity_histogram(complex_, cover, 0) == ((2, 16),)
    cert1 = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert cert1.crosscheck == "pass"
    assert multiplicity_histogram(complex_, cover, 1) == ((2, complex_.tuple_sets[1].size),)


def test_mayer_vietoris_crosscheck_skipped_and_failed(monkeypatch):
    # With the cutoff at 0 the assembled ranks are not taken, and the rows and
    # the verdict stay those of the blockwise ranks; an assembled rank one too
    # high fails the crosscheck and with it the certificate.
    _, _, complex_, cover = SMALL_SETUPS["two_balls"]()
    ran = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert ran.crosscheck == "pass" and ran.exact
    with monkeypatch.context() as m:
        m.setattr(nlhodge.covers, "MV_CROSSCHECK_CUTOFF", 0)
        skipped = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert skipped.crosscheck == "skipped"
    assert skipped.rows == ran.rows and skipped.exact
    rank = nlhodge.covers._cleared_rank

    def one_too_high(D, cleared):
        r, certain = rank(D, cleared)
        return r + 1, certain

    monkeypatch.setattr(nlhodge.covers, "_cleared_rank", one_too_high)
    failed = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert failed.crosscheck == "fail"
    assert failed.rows == ran.rows and not failed.exact


def test_reconstruction_negative_control(circle_setup):
    # Dropping the partition weights (chi all ones instead)
    # breaks the preimage formula, so the reconstruction check must fail: the
    # partition is load-bearing.
    _, _, complex_, cover = circle_setup
    rng = np.random.default_rng(5)
    tuples = complex_.tuple_sets[1].tuples
    levels, deltas = _enumerate_blocks(_tuple_ball_membership(complex_, cover, 1), 1)
    assert _check_reconstructions(partition_of_unity(cover, tuples), levels, deltas, rng)
    assert not _check_reconstructions(
        np.ones((cover.n_balls, len(tuples))), levels, deltas, np.random.default_rng(5)
    )


@pytest.mark.parametrize("p", [0, 1, 2])
def test_reconstruction_negative_control_at_q_max_two(circle_setup, p):
    # Through level 2 the preimage formula holds with the partition and fails
    # without it, also on the top level alone (levels 1 and 2).
    _, _, complex_, cover = circle_setup
    tuples = complex_.tuple_sets[p].tuples
    levels, deltas = _enumerate_blocks(_tuple_ball_membership(complex_, cover, p), 2)
    assert len(deltas) == 3 and min(deltas[2].shape) > 0
    chi = partition_of_unity(cover, tuples)
    ones = np.ones_like(chi)
    for lv, ds in ((levels, deltas), (levels[2:], deltas[2:])):
        assert _check_reconstructions(chi, lv, ds, np.random.default_rng(5))
        assert not _check_reconstructions(ones, lv, ds, np.random.default_rng(5))


def test_restriction_row_matches_the_assembled_oracle(any_setup):
    # R and every Cech difference equal the per-intersection builder's
    # matrices, byte for byte.
    (_, _, complex_, cover), depth = any_setup
    for p in range(3):
        membership = _tuple_ball_membership(complex_, cover, p)
        levels, deltas = _enumerate_blocks(membership, depth)
        want = assembled_matrices(complex_, cover, p, depth)
        assert len(deltas) == len(want) == depth + 1
        for got, ref in zip(deltas, want):
            assert_same_csr(got, ref)
        # level -1 holds the global cochains: one combo of width 0 holding
        # every tuple; each level q lists the nerve's combos whose
        # intersection holds a degree-p tuple, and the row of a combo marks
        # the global tuples inside its intersection
        tuples = complex_.tuple_sets[p].tuples
        combos, inside = levels[0]
        assert combos.shape == (1, 0) and combos.dtype == np.int64
        assert np.array_equal(inside.toarray(), np.ones((1, len(tuples)), dtype=bool))
        assert len(levels) == depth + 2
        for q, (combos, inside) in enumerate(levels[1:]):
            assert combos.dtype == np.int64 and combos.shape[1] == q + 1
            holding = [c for c in nerve_combos(cover, q)
                       if intersection_mask(cover, c)[tuples].all(axis=1).any()]
            assert list(map(tuple, combos.tolist())) == holding
            assert inside.format == "csr" and inside.dtype == bool
            assert inside.shape == (len(combos), len(tuples))
            for combo, row in zip(combos.tolist(), inside.toarray()):
                assert np.array_equal(row, intersection_mask(cover, combo)[tuples].all(axis=1))


def test_nerve_differences_match_the_loop_oracle(any_setup):
    (_, _, _, cover), depth = any_setup
    for q_max in range(1, depth):
        got = _nerve_differences(cover, q_max)
        want = loop_nerve_differences(cover, q_max)
        assert len(got) == len(want) == q_max + 1
        for g, w in zip(got, want):
            assert_same_csr(g, w)


def test_nerve_levels_match_brute_force(any_setup):
    # Level q of the nerve is a (K, q+1) int64 array of the nonempty
    # intersections' combos in lexicographic order, also when it is empty (K = 0).
    (_, _, _, cover), depth = any_setup
    for q, (combos, _) in enumerate(islice(_levels(cover.big_masks), depth + 2)):
        assert combos.dtype == np.int64 and combos.shape == (combos.shape[0], q + 1)
        assert list(map(tuple, combos.tolist())) == nerve_combos(cover, q)


def test_nerve_levels_match_the_dense_oracle(any_setup):
    # Each level's inside equals the dense AND of its combos' mask rows byte
    # for byte: for the tuple membership of every degree and for the point
    # masks of the nerve.
    (_, _, complex_, cover), depth = any_setup
    masks = [_tuple_ball_membership(complex_, cover, p) for p in range(3)] + [cover.big_masks]
    for mask in masks:
        got = list(islice(_levels(mask), depth + 2))
        want = dense_levels(mask, [combos for combos, _ in got])
        assert len(got) == len(want) == depth + 2
        for (_, got_inside), (_, want_inside) in zip(got, want):
            assert_same_csr(got_inside, want_inside)


def _masks(n_balls, m):
    return st.lists(st.booleans(), min_size=n_balls * m, max_size=n_balls * m).map(
        lambda bits: np.array(bits, dtype=bool).reshape(n_balls, m)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.integers(0, 8).flatmap(lambda m: _masks(k, m))))
@example(np.zeros((3, 4), dtype=bool))
@example(np.array([[1, 0, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]], dtype=bool))
@example(np.ones((4, 0), dtype=bool))
def test_levels_are_the_combos_and_their_shared_items(masks):
    # Every round of the set-family generator, on random masks with empty
    # rows and columns: the rows are the combos of balls whose mask rows
    # share an item, in lexicographic order, and the witnesses are the dense
    # AND of the members' rows in canonical CSR, whose row-major nonzero
    # order `_cech_differences` reads as the coordinates.
    n_balls = masks.shape[0]
    for q, (combos, inside) in enumerate(islice(_levels(masks), n_balls + 1)):
        want = [c for c in combinations(range(n_balls), q + 1) if masks[list(c)].all(axis=0).any()]
        assert combos.dtype == np.int64 and combos.shape == (len(want), q + 1)
        assert list(map(tuple, combos.tolist())) == want
        assert inside.has_canonical_format
        assert_same_csr(inside, sp.csr_matrix(masks[combos].all(axis=1)))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_restriction_row_is_never_dense(interval_setup):
    # interval32 at p = 2 through nerve level 2 (as the MV crosscheck reaches
    # it): the dense AND of level 2 alone is K x 3 x m bytes, about 9.2 MB.
    # The whole row, levels and differences, peaks below 70 % of it, and the
    # levels alone below 60 %.
    _, _, complex_, cover = interval_setup
    membership = _tuple_ball_membership(complex_, cover, 2)
    nerve = [combos for combos, _ in islice(_levels(cover.big_masks), 3)]
    dense_level = nerve[2].shape[0] * 3 * membership.shape[1]
    assert dense_level > 9e6
    row = _traced_peak(_enumerate_blocks, membership, 2)
    sparse = _traced_peak(lambda: list(islice(_levels(membership), 3)))
    dense = _traced_peak(dense_levels, membership, nerve)
    assert row < 0.7 * dense_level
    assert sparse < 0.6 * dense_level < dense


def test_certificate_fields(circle_setup):
    _, _, complex_, cover = circle_setup
    cert = mayer_vietoris_check(complex_, cover, 0, q_max=1)
    assert cert.degree == 0
    assert cert.injective is True
    assert cert.exact is True
    assert cert.crosscheck in ("pass", "skipped")
    assert all(len(pair) == 2 for pair in multiplicity_histogram(complex_, cover, 0))


# --- Cech nerve ---------------------------------------------------------------


def test_nerve_of_the_circle_cover(circle_setup):
    _, _, _, cover = circle_setup
    nerve = cech_nerve_betti(cover, q_max=1)
    assert nerve.betti == (1, 1)


def test_nerve_of_the_interval_cover(interval_setup):
    _, _, _, cover = interval_setup
    nerve = cech_nerve_betti(cover, q_max=1)
    assert nerve.betti == (1, 0)


def test_nerve_handles_disconnected_overlaps():
    # Four fat balls around the circle: opposite balls meet in two arcs, so a
    # per-component treatment is needed to recover the circle's cohomology.
    space = gen_circle(32)
    cover = CoverSystem(
        space, rips_system(0.3), eps=0.3, eta=0.8, centers=np.array([0, 8, 16, 24])
    )
    opposite = cover.big_masks[0] & cover.big_masks[2]
    pts = np.nonzero(opposite)[0]
    gaps = np.diff(pts)
    assert pts.size > 0 and (gaps > 1).any()  # genuinely disconnected overlap
    nerve = cech_nerve_betti(cover, q_max=2)
    assert nerve.betti == (1, 1, 0)
    assert nerve.dims == (4, 8, 4)


def test_relabelled_overlaps_interleave_point_ids():
    # The relabelled fat_four cover: the two arcs of an opposite overlap have
    # interleaved point ids, so component labels are not monotone in the
    # points; the nerve is unchanged by the relabelling.
    space, _, _, cover = SMALL_SETUPS["fat_four_relabelled"]()
    pts = np.nonzero(cover.big_masks[0] & cover.big_masks[2])[0]
    graph = sp.csr_matrix(space.dist[np.ix_(pts, pts)] < cover.eps)
    count, labels = connected_components(graph, directed=False)
    assert count == 2 and (np.diff(labels) < 0).any()
    nerve = cech_nerve_betti(cover, q_max=2)
    assert nerve.betti == (1, 1, 0)
    assert nerve.dims == (4, 8, 4)


@pytest.mark.parametrize("name", ["circle", "interval"])
def test_nerve_report_round_trips(request, name):
    _, _, _, cover = request.getfixturevalue(f"{name}_setup")
    report = cech_nerve_betti(cover, q_max=1)
    data = report.to_json()
    assert json.loads(json.dumps(data)) == data
    assert data["schema"] == 2 and data["primes"] == list(PRIMES)
    assert data["betti"] == list(report.betti) and data["uncertain"] == [False, False]
    assert data["coboundary_ranks"] == list(report.ranks)


def _lose_a_pivot(monkeypatch, shape=None):
    """Make the fallback prime find one pivot fewer (on matrices of `shape`
    only, if given) and leave no room for rational elimination."""
    pivots = cohomology._pivot_columns

    def lose_one(matrix, prime, cleared=frozenset()):
        reduced = pivots(matrix, prime, cleared)
        if prime == cohomology.PRIME_FALLBACK and reduced and shape in (None, matrix.shape):
            reduced.pop(max(reduced))
        return reduced

    monkeypatch.setattr(cohomology, "_pivot_columns", lose_one)
    monkeypatch.setattr(cohomology, "RATIONAL_RANK_CAP", 0)


def test_nerve_prime_disagreement_is_uncertain(circle_setup, monkeypatch):
    # A disagreement on the top nerve difference leaves the top degree
    # uncertain, with the main prime's count, and fails the recovery report's
    # Cech comparison; the lower degrees stay certain.
    _, _, complex_, cover = circle_setup
    top = _nerve_differences(cover, 2)[-1]
    assert top.nnz
    _lose_a_pivot(monkeypatch, top.shape)
    nerve = cech_nerve_betti(cover, q_max=2)
    assert nerve.betti == (1, 1, 0)
    assert nerve.uncertain == (False, False, True)
    assert nerve.to_json()["uncertain"] == [False, False, True]
    report = derham_recovery_report(complex_, cover)
    assert report["cech"] == [1, 1, 0] and report["cech_uncertain"] == [False, False, True]
    assert not report["cech_matches_reference"] and not report["all_agree"]


def test_mv_crosscheck_prime_disagreement_is_uncertain(monkeypatch):
    _, _, complex_, cover = SMALL_SETUPS["two_balls"]()
    _lose_a_pivot(monkeypatch)
    cert = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert cert.crosscheck == "uncertain" and not cert.exact


def test_single_ball_cover_is_trivially_exact():
    space = gen_interval(12)
    system = rips_system(0.4)
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 1)
    cover = CoverSystem(space, system, eps=0.4, eta=1.1, centers=np.array([6]))
    cert = mayer_vietoris_check(complex_, cover, 1, q_max=1)
    assert cert.exact
    assert multiplicity_histogram(complex_, cover, 1) == ((1, complex_.tuple_sets[1].size),)
    nerve = cech_nerve_betti(cover, q_max=1)
    assert nerve.betti == (1, 0)


# --- slices and the homotopy ---------------------------------------------------


def test_homotopy_identity_on_single_balls(circle_setup):
    _, _, complex_, cover = circle_setup
    op = build_slice_and_psi(cover, complex_, (0,), 2)
    assert op.W.size > 0
    assert np.isin(op.W, op.local.global_rows[0]).all()
    assert 0.0 < slice_mass(op) <= float(cover.space.weights[op.local.global_rows[0]].sum())
    assert homotopy_identity_residual([op])[0][0] <= 1e-12


def test_poincare_suite_of_depth_zero_is_empty(circle_setup):
    _, _, complex_, cover = circle_setup
    assert poincare_suite(cover, complex_, p_check=1, max_depth=0) == []


def test_poincare_suite_on_circle_and_interval(circle_setup, interval_setup):
    for setup in (circle_setup, interval_setup):
        _, _, complex_, cover = setup
        checks = poincare_suite(cover, complex_, p_check=2, max_depth=2)
        assert checks
        worst = max(c.max_residual for c in checks)
        assert worst <= 1e-12


def assert_close_to_oracle(got, want, w_size):
    """A residual summed from entries against the oracle's dense products.

    The two sum in different orders, so the last bits may differ: an oracle
    0.0 must stay exactly 0.0, and any other residual must stay within 1e-12
    and within w_size * 2**-52 of the oracle's. A diagonal entry sums w_size
    terms w_t/mass in [0, 1] to 1, so two summation orders differ by less
    than w_size units of 2**-52.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w == 0.0:
            assert g == 0.0
        else:
            assert g <= 1e-12 and abs(g - w) <= w_size * 2**-52, (g, w)


@pytest.mark.parametrize("p_check", [1, 2])
def test_poincare_residuals_match_the_oracle(any_setup, p_check):
    # Slice sizes equal those of the homotopy rebuilt densely on each
    # intersection's own tuple sets, an empty slice is empty in both, and the
    # residuals are close to the oracle's (assert_close_to_oracle).
    (_, _, complex_, cover), _ = any_setup
    level = p_check + 1
    combos = nerve_combos(cover, 0) + nerve_combos(cover, 1)
    want = {combo: poincare_check(cover, complex_, combo, level) for combo in combos}
    for combo, ref in want.items():
        if ref is None:
            with pytest.raises(SliceEmptyError):
                build_slice_and_psi(cover, complex_, combo, level)
            continue
        op = build_slice_and_psi(cover, complex_, combo, level)
        assert op.W.size == ref[0], combo
        assert_close_to_oracle(list(homotopy_identity_residual([op])[0]), ref[1], ref[0])
    for max_depth in (1, 2):
        expect = [c for c in combos if len(c) <= max_depth]
        if any(want[c] is None for c in expect):
            with pytest.raises(SliceEmptyError):
                poincare_suite(cover, complex_, p_check, max_depth)
            continue
        checks = poincare_suite(cover, complex_, p_check, max_depth)
        assert [c.alphas for c in checks] == expect
        for check in checks:
            w_size = slice_size(cover, complex_, check)
            assert w_size == want[check.alphas][0]
            assert_close_to_oracle(list(check.residuals), want[check.alphas][1], w_size)


def _hex(residuals) -> list[str]:
    return [float(r).hex() for r in residuals]


@pytest.mark.parametrize("p_check", [1, 2])
@pytest.mark.parametrize("name", ["circle", "interval"])
def test_grouped_residuals_keep_the_per_operator_bits(request, name, p_check):
    # Each residual of the grouped suite, and of a group of one operator, is
    # the per-operator oracle's to the last bit: every entry sums the same
    # terms in the same order.
    _, _, complex_, cover = request.getfixturevalue(f"{name}_setup")
    checks = poincare_suite(cover, complex_, p_check, 2)
    level = p_check + 1
    for check in checks:
        op = build_slice_and_psi(cover, complex_, check.alphas, level)
        want = _hex(residual_oracle(op, p) for p in range(1, level))
        assert _hex(check.residuals) == want, check.alphas
        assert _hex(homotopy_identity_residual([op])[0][p - 1] for p in range(1, level)) == want


def test_one_call_builds_each_block_factor_once(monkeypatch, circle_setup):
    # A level-3 group lays out delta_0..delta_2 and Psi_1..Psi_3 once each:
    # six block factors, where a call per degree builds Psi_2 and delta_1
    # twice (eight). Every residual keeps the per-operator oracle's bits.
    _, _, complex_, cover = circle_setup
    ops = [build_slice_and_psi(cover, complex_, c, 3) for c in nerve_combos(cover, 1)[:3]]
    ops.append(build_slice_and_psi(cover, complex_, (5,), 3))
    assert all(op.local.dim(2) > 0 for op in ops)
    built = []
    block = nlhodge.covers._block_csr
    monkeypatch.setattr(nlhodge.covers, "_block_csr", lambda *a: built.append(a) or block(*a))
    got = homotopy_identity_residual(ops)
    assert len(built) == 6
    assert [_hex(r) for r in got] == [_hex(residual_oracle(op, p) for p in (1, 2)) for op in ops]


def test_a_row_with_no_diagonal_entry_counts_as_one(circle_setup):
    # With every Psi value zero, Psi delta + delta Psi has no entries, so no
    # diagonal one: lhs - id holds -1 there, and the residual is exactly 1.0
    # at each degree that has rows, beside an untouched operator of the same
    # group. The sparse interval has no degree-2 tuples, so its degree 2
    # reads 0.0. A level-1 group checks no degree.
    _, _, complex_, cover = circle_setup
    space, system = gen_interval(12), rips_system(0.1)
    sparse = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 2)
    sparse_cover = CoverSystem(space, system, eps=0.1, eta=0.01, centers=np.arange(12))
    ops = [build_slice_and_psi(cover, complex_, (0,), 3),
           build_slice_and_psi(cover, complex_, (1,), 3),
           build_slice_and_psi(sparse_cover, sparse, (3, 4), 3)]
    assert ops[0].local.dim(2) > 0 and ops[2].local.dim(2) == 0
    for op in ops[::2]:
        op.psi = [(row, col, value * 0.0) for row, col, value in op.psi]
    got = homotopy_identity_residual(ops)
    assert got[0] == (1.0, 1.0) and got[2] == (1.0, 0.0)
    assert [_hex(r) for r in got] == [_hex(residual_oracle(op, p) for p in (1, 2)) for op in ops]
    single = build_slice_and_psi(cover, complex_, (0,), 1)
    assert homotopy_identity_residual([single, single]) == [(), ()]


def test_psi_matches_the_insertion_oracle(any_setup):
    # Psi_1..Psi_3 read from the local coboundary entries equal, bit for bit,
    # the matrices built by inserting each slice point into each lower tuple
    # of the intersection's own tuple sets, and the slices agree.
    (_, _, complex_, cover), _ = any_setup
    level = 3
    for combo in nerve_combos(cover, 0) + nerve_combos(cover, 1):
        ref = slice_oracle(cover, complex_, combo, level)
        if ref is None:
            with pytest.raises(SliceEmptyError):
                build_slice_and_psi(cover, complex_, combo, level)
            continue
        op = build_slice_and_psi(cover, complex_, combo, level)
        assert np.array_equal(op.W, ref[1]), combo
        assert slice_mass(op) == ref[3]
        for ell in range(1, level + 1):
            assert np.array_equal(dense_psi(op, ell), psi_oracle(*ref, ell)), (combo, ell)


def _record_calls(monkeypatch, calls):
    """Wrap the tuple lookup and every CSR slice or densify so that each call
    is appended to `calls`; the insertion brute force is not in the package."""

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    assert not any(hasattr(m, "insert_points") for m in (nlhodge.neighborhoods, nlhodge.cochains))
    monkeypatch.setattr(TupleSet, "locate", spy("TupleSet.locate", TupleSet.locate))
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        for attr in ("__getitem__", "toarray"):
            monkeypatch.setattr(cls, attr, spy(f"{cls.__name__}.{attr}", getattr(cls, attr)))


def test_slices_read_coboundary_entries_only(monkeypatch):
    # No insertion, tuple lookup, CSR slicing or densifying while building
    # slices and residuals, also with an empty degree (no triangles: Psi_2 is
    # 1x0 on two neighbours) and for an intersection whose slice is empty.
    space = gen_interval(12)
    system = rips_system(0.1)  # neighbours only: degree 2 is empty
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 1)
    cover = CoverSystem(space, system, eps=0.1, eta=0.01, centers=np.arange(12))
    assert complex_.dim(2) == 0
    combos = nerve_combos(cover, 0) + nerve_combos(cover, 1)
    want = {c: poincare_check(cover, complex_, c, 2) for c in combos}
    wide = (gen_interval(32), rips_system(0.2))
    wide_complex = build_weighted_complex(*wide, fractional_kernel(1.0, 0.5), 1)
    wide_cover = default_cover(*wide)
    calls = []
    _record_calls(monkeypatch, calls)
    ops = []
    for combo in combos:
        op = build_slice_and_psi(cover, complex_, combo, 2)
        got = (op.W.size, [homotopy_identity_residual([op])[0][0]])
        assert want[combo] == got, combo
        ops.append(op)
    # one group of them all, with m = 0 at (0, 2), gives each one's own bits
    assert [op.local.dim(1) for op in ops[12:14]] == [1, 0]
    want = _hex(residual_oracle(op, 1) for op in ops)
    assert _hex(r[0] for r in homotopy_identity_residual(ops)) == want
    assert homotopy_identity_residual(ops[13:14]) == [(0.0,)]
    op = build_slice_and_psi(cover, complex_, (3, 4), 2)
    assert [op.local.dim(p) for p in range(3)] == [2, 1, 0]
    assert op.psi_matrix(2).shape == (1, 0)
    assert _hex(homotopy_identity_residual([op])[0]) == _hex([residual_oracle(op, 1)])
    with pytest.raises(SliceEmptyError) as err:
        build_slice_and_psi(wide_cover, wide_complex, (15,), 2)
    assert str(err.value) == "slice set empty for intersection (15,) at level 2"
    assert calls == []


def test_psi_annihilates_coboundaries_of_contracted_forms(circle_setup):
    # On a single ball, Psi delta + delta Psi = id implies delta Psi delta F =
    # delta F: the reconstructed potential reproduces any coboundary.
    _, _, complex_, cover = circle_setup
    rng = np.random.default_rng(11)
    op = build_slice_and_psi(cover, complex_, (3,), 2)
    loc = op.local
    f = rng.standard_normal(loc.dim(0))
    dF = dense_coboundary(loc, 0) @ f
    psi = dense_psi(op, 1) @ dF
    again = dense_coboundary(loc, 0) @ psi
    assert np.allclose(again, dF, atol=1e-12 * max(np.abs(dF).max(), 1.0))


def test_slice_empty_for_scales_below_the_ball_size():
    space = gen_interval(32)
    system = rips_system(0.2)
    cover = default_cover(space, system)
    complex_ = build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 1)
    with pytest.raises(SliceEmptyError, match=r"\(15,\)"):
        build_slice_and_psi(cover, complex_, (15,), 2)


def _mutated_suite(monkeypatch, setup, mutate):
    """poincare_suite with every operator passed through `mutate` once built,
    the local dims of each intersection, and its place among the residual
    groups: (group number, position in the group)."""
    _, _, complex_, cover = setup
    build = nlhodge.covers.build_slice_and_psi
    residual = nlhodge.covers.homotopy_identity_residual
    dims, place = {}, {}

    def mutated(*args):
        op = build(*args)
        mutate(op)
        dims[op.alphas] = [op.local.dim(p) for p in range(op.level + 1)]
        return op

    def grouped(ops):
        group = len({g for g, _ in place.values()})
        place.update((op.alphas, (group, k)) for k, op in enumerate(ops))
        return residual(ops)

    monkeypatch.setattr(nlhodge.covers, "build_slice_and_psi", mutated)
    monkeypatch.setattr(nlhodge.covers, "homotopy_identity_residual", grouped)
    return poincare_suite(cover, complex_, p_check=2, max_depth=2), dims, place


def _weight_not_normalized(op):
    mass = slice_mass(op)
    op.psi = [(row, col, value * mass) for row, col, value in op.psi]


def _drop_delta_1_entry(op):
    op.delta[1] = tuple(a[:-1] for a in op.delta[1])


def _flip_delta_1_sign(op):
    row, col, sign = op.delta[1]
    sign = sign.copy()
    sign[-1:] *= -1
    op.delta[1] = row, col, sign


@pytest.mark.parametrize(
    "mutate", [_weight_not_normalized, _drop_delta_1_entry, _flip_delta_1_sign]
)
@pytest.mark.parametrize("name", ["circle", "interval"])
def test_poincare_suite_fails_on_mutants(request, monkeypatch, name, mutate):
    # Psi weighted w_t instead of w_t/mass, one entry of delta_1 dropped and
    # one sign of delta_1 flipped each push the residual of every intersection
    # they touch above 1e-12, whether it starts a residual group after the
    # first or shares one with the intersections before it: the circle's
    # operators all fit in one group, the interval's fill several.
    setup = request.getfixturevalue(f"{name}_setup")
    checks, dims, place = _mutated_suite(monkeypatch, setup, mutate)
    touched = 1 if mutate is _weight_not_normalized else 2
    starts = []
    for check in checks:
        if dims[check.alphas][touched] == 0:
            continue
        assert check.max_residual > 1e-12, check.alphas
        group, k = place[check.alphas]
        starts.append(group > 0 and k == 0)
    assert set(starts) == ({False, True} if name == "interval" else {False})


def test_poincare_suite_has_no_dense_operators(interval_setup):
    # One dense Psi_3 of the largest interval32 intersection (418 x 1155
    # floats, 3.9 MB) is more than the whole suite may allocate at its peak.
    space, system, complex_, _ = interval_setup
    cover = default_cover(space, system)
    peak = _traced_peak(poincare_suite, cover, complex_, 2, 2)
    assert peak < 418 * 1155 * 8
    assert len(cover._membership) == 4  # one membership per degree 0..3


def test_membership_is_memoized_read_only(circle_setup):
    space, system, complex_, _ = circle_setup
    cover = default_cover(space, system)
    first = _tuple_ball_membership(complex_, cover, 1)
    assert _tuple_ball_membership(complex_, cover, 1) is first
    assert not first.flags.writeable
    assert np.array_equal(first, cover.big_masks[:, complex_.tuple_sets[1].tuples].all(axis=2))


def test_slice_guards(circle_setup):
    _, _, complex_, cover = circle_setup
    with pytest.raises(CoverError, match="p_max"):
        build_slice_and_psi(cover, complex_, (0,), 5)
    op = build_slice_and_psi(cover, complex_, (0,), 2)
    with pytest.raises(CoverError, match="degrees"):
        op.psi_matrix(3)
    with pytest.raises(CoverError, match="one level"):
        homotopy_identity_residual([op, build_slice_and_psi(cover, complex_, (0,), 3)])
    far = (0, 16)  # opposite sides of the circle with tight balls
    if not (cover.big_masks[far[0]] & cover.big_masks[far[1]]).any():
        with pytest.raises(CoverError, match="empty"):
            build_slice_and_psi(cover, complex_, far, 2)


# --- recovery report ------------------------------------------------------------


def test_reference_betti_lookup(circle_setup):
    space, _, _, _ = circle_setup
    assert reference_betti(space, 2) == (1, 1, 0)
    assert reference_betti(gen_interval(8), 1) == (1, 0)
    bare = MetricMeasureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(CoverError, match="no reference"):
        reference_betti(bare, 1)


def test_recovery_report_on_the_circle(circle_setup):
    _, _, complex_, cover = circle_setup
    report = derham_recovery_report(complex_, cover)
    assert report["exact"] == [1, 1, 0]
    assert report["exact_matches_reference"]
    assert report["spectral_matches_exact"]
    assert report["cech_matches_reference"]
    assert report["all_agree"]
    assert not any(report["spectral_flagged"])


def test_recovery_report_without_a_cover(interval_setup):
    _, _, complex_, _ = interval_setup
    report = derham_recovery_report(complex_)
    assert "cech" not in report
    assert report["all_agree"]
