import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhodge.cochains import CochainError, build_coboundary
from nlhodge.space import MetricMeasureSpace, gen_circle, gen_interval
from nlhodge.neighborhoods import (
    AdmissibilityError,
    TupleSet,
    enumerate_tuples,
    faces,
    full_system,
    hausdorff_system,
    rips_system,
)

from oracles import (
    admissible_tuples,
    cover_system,
    dict_locate,
    is_admissible,
    system_dominates,
)


def random_space(rng, n):
    x = np.sort(rng.uniform(0.0, 1.0, n))
    x += np.arange(n) * 1e-6  # keep points distinct
    d = np.abs(x[:, None] - x[None, :])
    return MetricMeasureSpace(d, np.full(n, 1.0 / n))


def brute_force(space, system, p):
    rows = [
        c
        for c in itertools.combinations(range(space.n), p + 1)
        if is_admissible(system, space, c)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, p + 1)


def random_system(kind, space, eps, rng):
    if kind == "rips":
        return rips_system(eps)
    if kind == "rips_closed":
        # eps equal to a pairwise distance, so the closed rule admits a pair
        # the strict one rejects
        return rips_system(float(space.dist[0, rng.integers(1, space.n)]), strict=False)
    if kind == "hausdorff":
        return hausdorff_system(eps)
    if kind == "full":
        return full_system()
    # some points may lie in no set at all
    return cover_system([np.nonzero(rng.random(space.n) < 0.5)[0].tolist() for _ in range(3)])


@pytest.mark.parametrize("kind", ["rips", "hausdorff", "full", "cover", "rips_closed"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_enumeration_matches_brute_force(kind, p):
    rng = np.random.default_rng(11)
    for trial in range(5):
        space = random_space(rng, 8)
        eps = rng.uniform(0.1, 0.8)
        system = random_system(kind, space, eps, rng)
        got = admissible_tuples(space, system, p)
        want = brute_force(space, system, p)
        assert np.array_equal(got.tuples, want), f"trial {trial} eps {eps}"


def test_full_system_enumerates_all_combinations():
    space = gen_interval(6)
    ts = enumerate_tuples(space, full_system(), 2)
    assert ts.size == 20  # C(6,3)


def test_cover_system_enumeration():
    space = gen_interval(6)
    system = cover_system([{0, 1, 2}, {2, 3}, {3, 4, 5}])
    ts = admissible_tuples(space, system, 1)
    want = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert set(map(tuple, ts.tuples.tolist())) == want


def test_rips_strict_vs_closed_boundary_pair():
    space = gen_interval(3)  # distances 0.5 exactly
    strict = enumerate_tuples(space, rips_system(0.5, strict=True), 1)
    closed = enumerate_tuples(space, rips_system(0.5, strict=False), 1)
    assert set(map(tuple, strict.tuples.tolist())) == set()
    assert set(map(tuple, closed.tuples.tolist())) == {(0, 1), (1, 2)}


def test_repeated_indices_never_admissible():
    space = gen_interval(4)
    for system in (full_system(), rips_system(10.0), hausdorff_system(10.0)):
        assert not is_admissible(system, space, (1, 1))
        assert not is_admissible(system, space, (0, 2, 2))


def test_admissibility_is_order_independent():
    space = gen_circle(8)
    system = rips_system(1.0)
    assert is_admissible(system, space, (2, 0, 1)) == is_admissible(system, space, (0, 1, 2))


@pytest.mark.parametrize("kind", ["full", "rips", "hausdorff"])
def test_face_closure_holds(kind):
    space = gen_circle(12)
    system = {"full": full_system(), "rips": rips_system(1.2), "hausdorff": hausdorff_system(0.9)}[kind]
    for p in range(2):
        lower = enumerate_tuples(space, system, p)
        upper = enumerate_tuples(space, system, p + 1)
        # build_coboundary raises on the first face it cannot locate
        assert build_coboundary(lower, upper).matrix.nnz == upper.size * (p + 2)


def test_face_closure_failure_names_witness():
    cases = [
        ([[0], [1]], [[0, 2]], "face (2,) of tuple (0, 2)"),
        # (2, 3) of row 1 is missing too, but (0, 2) of row 0 comes first row-major
        ([[0, 1], [1, 2]], [[0, 1, 2], [1, 2, 3]], "face (0, 2) of tuple (0, 1, 2)"),
    ]
    for lower, upper, witness in cases:
        lower = TupleSet(len(lower[0]) - 1, np.array(lower))
        upper = TupleSet(len(upper[0]) - 1, np.array(upper))
        with pytest.raises(CochainError) as err:
            build_coboundary(lower, upper)
        assert str(err.value) == f"{witness} is missing: tuple sets not face-closed"


def test_domination_chain_on_circle():
    space = gen_circle(16)
    eps = 0.9
    ok, witness = system_dominates(rips_system(eps), hausdorff_system(eps), space, 2)
    assert ok, witness
    ok, witness = system_dominates(hausdorff_system(eps), rips_system(3.0 * eps), space, 2)
    assert ok, witness


def test_domination_failure_produces_witness():
    space = gen_circle(16)
    ok, witness = system_dominates(rips_system(1.6), rips_system(0.8), space, 1)
    assert not ok
    assert witness is not None
    i, j = witness
    assert 0.8 <= space.dist[i, j] < 1.6


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=1.0, max_value=3.0),
    st.integers(min_value=0, max_value=2),
)
def test_rips_monotone_in_eps(n, eps, factor, p):
    rng = np.random.default_rng(n * 1000 + p)
    space = random_space(rng, n)
    small = set(map(tuple, enumerate_tuples(space, rips_system(eps), p).tuples.tolist()))
    large = set(
        map(tuple, enumerate_tuples(space, rips_system(eps * factor), p).tuples.tolist())
    )
    assert small <= large


def test_tuple_set_rejects_unsorted_rows():
    with pytest.raises(AdmissibilityError, match="strictly increasing"):
        TupleSet(1, np.array([[2, 1]]))


def test_tuple_set_rejects_unordered_listing():
    with pytest.raises(AdmissibilityError, match="lexicographically"):
        TupleSet(1, np.array([[1, 2], [0, 1]]))


def test_tuple_set_rejects_duplicates():
    with pytest.raises(AdmissibilityError, match="duplicate"):
        TupleSet(1, np.array([[0, 1], [0, 1]]))


def test_tuple_set_freezes_a_view_of_the_callers_array():
    # no copy of the listing is made, and the caller's own array stays writable
    a = np.array([[0, 1], [0, 2]], dtype=np.int64)
    ts = TupleSet(1, a)
    assert a.flags.writeable and not ts.tuples.flags.writeable
    assert np.shares_memory(a, ts.tuples)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_tuple_set_accepts_exactly_the_strictly_sorted_listings(degree, data):
    # rows from a small pool of labels anywhere in int64, so that listings
    # repeat rows and tie on leading columns; a listing that both descends
    # and repeats a row is refused for its order
    k = degree + 1
    int64 = st.integers(-(2**63), 2**63 - 1)
    labels = sorted(data.draw(st.sets(int64, min_size=k + 2, max_size=k + 2)))
    candidates = list(itertools.combinations(labels, k))
    rows = data.draw(st.lists(st.sampled_from(candidates), max_size=8))
    if data.draw(st.booleans()) and len(set(rows)) >= 2:
        rows = sorted(set(rows))
        rows = rows + rows[:1]  # unsorted and duplicated
    listing = np.array(rows, dtype=np.int64).reshape(-1, k)
    if rows == sorted(set(rows)):
        assert np.array_equal(TupleSet(degree, listing).tuples, listing)
        return
    message = "duplicate tuples" if rows == sorted(rows) else "lexicographically sorted"
    with pytest.raises(AdmissibilityError, match=message):
        TupleSet(degree, listing)


@pytest.mark.parametrize("degree", range(5))
def test_empty_and_single_row_listings_are_sorted(degree):
    k = degree + 1
    assert TupleSet(degree, np.empty((0, k), dtype=np.int64)).size == 0
    row = np.array([[-(2**63)] + [2**63 - k + c for c in range(1, k)]], dtype=np.int64)
    assert TupleSet(degree, row).index_of(row[0]) == 0


def test_tuple_set_lookup():
    ts = enumerate_tuples(gen_circle(8), rips_system(1.0), 1)
    assert ts.index_of(ts.tuples[3]) == 3
    assert ts.contains(ts.tuples[0])
    assert not ts.contains((0, 4))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_locate_matches_a_dict_lookup(degree, data):
    # stored sets may be empty; queries may be empty, absent, above the
    # largest stored entry, or repeated; entries are increasing labels that
    # may be negative or need all eight bytes
    k = degree + 1
    n = data.draw(st.integers(min_value=0, max_value=8))
    int64 = st.integers(-(2**63), 2**63 - 1)
    labels = sorted(data.draw(st.sets(int64, min_size=n + k + 3, max_size=n + k + 3)))
    candidates = list(itertools.combinations(labels[:n], k))
    stored = sorted(data.draw(st.sets(st.sampled_from(candidates)))) if candidates else []
    ts = TupleSet(degree, np.array(stored, dtype=np.int64).reshape(-1, k))
    any_row = st.lists(st.sampled_from(labels), min_size=k, max_size=k, unique=True).map(sorted)
    rows = st.one_of(st.sampled_from(stored), any_row) if stored else any_row
    queries = data.draw(st.lists(rows, max_size=10))
    queries = np.array(queries + queries[:3], dtype=np.int64).reshape(-1, k)
    got = ts.locate(queries)
    assert got.dtype == np.int64
    assert np.array_equal(got, dict_locate(ts.tuples, queries))
    assert np.array_equal(ts.locate(queries.reshape(-1, 1, k)), got.reshape(-1, 1))


def test_threads_that_locate_first_all_get_the_rows():
    # the keys are built on the first locate; threads that race to build them
    # store equal arrays, so every thread finds every stored row
    ts = enumerate_tuples(gen_circle(64), rips_system(1.0), 2)
    queries = np.concatenate([ts.tuples[::-1], ts.tuples + 64])
    want = dict_locate(ts.tuples, queries)
    with ThreadPoolExecutor(max_workers=8) as pool:
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [f.result(timeout=60) for f in [pool.submit(ts.locate, queries) for _ in range(8)]]
        finally:
            sys.setswitchinterval(switch)
    assert all(np.array_equal(g, want) for g in got)


@pytest.mark.parametrize(
    "base, k, keys",
    [(0, 2, "i"), (2**40, 2, "S"), (2**21 - 9, 3, "i"), (2**21 - 8, 3, "S"), (2**63 - 9, 1, "i")],
)
def test_locate_answers_rows_outside_the_radix_on_both_key_paths(base, k, keys):
    # members lie in [base, base + 8]; the keys are int64 when (largest + 1)**k
    # <= 2**63, byte strings otherwise. Queries: stored and absent rows, rows
    # with a negative member or one at or above the radix, and rows whose
    # int64 key would alias a stored row's
    stored = [list(row) for row in itertools.combinations(range(base, base + 9), k)][::2]
    ts = TupleSet(k - 1, np.array(stored, dtype=np.int64))
    radix = max(row[-1] for row in stored) + 1
    queries = [*stored, *itertools.combinations(range(base, base + 9), k)]
    for row in stored:
        queries += [[-1, *row[1:]], [*row[:-1], radix], [*row[:-1], -(2**63)]]
        if k > 1:
            queries += [[row[0] - 1, row[1] + radix, *row[2:]], [row[0] + 1, row[1] - radix, *row[2:]]]
    queries = np.array([q for q in queries if all(-(2**63) <= v < 2**63 for v in q)], dtype=np.int64)
    got = ts.locate(queries)
    assert ts._keys[0].dtype.kind == keys
    assert np.array_equal(got, dict_locate(ts.tuples, queries))
    assert (got >= 0).sum() == 2 * len(stored)  # each stored row is queried twice


def test_eps_must_be_positive():
    with pytest.raises(AdmissibilityError):
        rips_system(0.0)
    with pytest.raises(AdmissibilityError):
        hausdorff_system(-1.0)


def test_empty_degree_above_point_count():
    space = gen_interval(3)
    ts = enumerate_tuples(space, full_system(), 5)
    assert ts.size == 0


@pytest.mark.parametrize("system", [rips_system(1.1), hausdorff_system(0.6), full_system()],
                         ids=["rips", "hausdorff", "full"])
def test_enumerated_points_are_located_as_themselves(system):
    space = gen_circle(12)
    points = enumerate_tuples(space, system, 0)
    pairs = enumerate_tuples(space, system, 1)
    assert np.array_equal(points.tuples, np.arange(12)[:, None])
    cols = points.locate(faces(pairs.tuples))
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, pairs.tuples[:, ::-1])


@pytest.fixture(scope="module")
def circles():
    return {n: gen_circle(n) for n in (1024, 2048)}


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("p", [1, 2])
def test_enumeration_and_masses_peak_near_their_output(circles, n, p):
    # strict rips at 7 steps: 6 neighbours on each side. Nothing n x n is
    # built, so each peak is a small multiple of what the call returns.
    from nlhodge.kernels import assemble_weights, fractional_kernel

    space = circles[n]
    tracemalloc.start()
    try:
        ts = enumerate_tuples(space, rips_system(7 * 2 * np.pi / n), p)
        held, enum_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        masses = assemble_weights(fractional_kernel(1.0, 0.5), space, ts)
        mass_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ts.size == n * (6, 15)[p - 1]
    assert enum_peak < 10 * ts.tuples.nbytes
    assert mass_peak < 8 * masses.nbytes
