import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from oracles import dense_rank_mod_p, permuted, pivot_columns_oracle, rank_mod_p
from nlhodge.covers import _nerve_differences, default_cover
from nlhodge.space import MetricMeasureSpace, gen_circle, gen_interval, gen_sphere, gen_two_components
from nlhodge.neighborhoods import hausdorff_system, rips_system
from nlhodge.kernels import constant_kernel, fractional_kernel
from nlhodge.hodge import build_weighted_complex
import nlhodge.cohomology as cohomology
from nlhodge.cohomology import (
    PRIME_FALLBACK,
    PRIME_MAIN,
    PRIMES,
    _betti,
    _cleared_rank,
    _component_tops,
    _pivot_columns,
    _tuple_order,
    compare_numeric_exact,
    exact_betti,
    rank_exact,
    rank_exact_rational,
)
from nlhodge.hodge import hodge_report


# --- rank oracles -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_modular_rank_matches_sympy(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 9, 2)
    A = rng.integers(-5, 6, (m, n))
    want = sympy.Matrix(A.tolist()).rank()
    assert rank_mod_p(A) == want
    assert rank_exact_rational(A) == want
    assert _cleared_rank(A, {}) == (want, True)


def test_rank_accepts_sparse_input():
    rng = np.random.default_rng(100)
    A = rng.integers(-3, 4, (7, 5))
    assert rank_mod_p(sp.csr_matrix(A)) == rank_mod_p(A)


def test_rank_of_empty_and_zero_matrices():
    assert rank_mod_p(np.zeros((0, 4), dtype=int)) == 0
    assert rank_mod_p(np.zeros((3, 3), dtype=int)) == 0
    assert rank_exact_rational(np.zeros((2, 2), dtype=int)) == 0


def test_prime_divisor_entry_needs_escalation():
    # The 1x1 matrix [2^31 - 1] vanishes over the main prime field but not
    # over the rationals; the two primes disagree and the rational fallback
    # settles it.
    A = np.array([[PRIME_MAIN]], dtype=np.int64)
    assert rank_mod_p(A, PRIME_MAIN) == 0
    assert rank_mod_p(A, PRIME_FALLBACK) == 1
    assert rank_exact(A) == 0
    assert _cleared_rank(A, {}) == (1, True)
    assert rank_exact_rational(A) == 1


def test_prime_disagreement_above_the_cap_is_uncertain(monkeypatch):
    # With no room for rational elimination the disagreement stays open: the
    # rank is the main prime's, marked uncertain, and nothing is densified.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    monkeypatch.setattr(cohomology, "RATIONAL_RANK_CAP", 0)
    A = sp.csr_matrix(np.array([[PRIME_MAIN]], dtype=np.int64))
    assert _cleared_rank(A, {}) == (0, False)

    # the 1x1 matrix as the only coboundary of a complex
    one_by_one = SimpleNamespace(
        p_max=0, dim=lambda p: 1, coboundary=lambda p: SimpleNamespace(matrix=A)
    )
    report = exact_betti(one_by_one)
    assert report.betti == (1,) and report.uncertain == (True,)
    data = report.to_json()
    assert data["uncertain"] == [True] and "ranks_certain" not in data
    spectral = SimpleNamespace(degree=0, harmonic_dim=0)
    agreement = compare_numeric_exact([spectral], report)
    assert agreement.status == ("uncertain",) and not agreement.all_agree


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rank_invariants(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 8, 2)
    A = rng.integers(-4, 5, (m, n))
    r = rank_mod_p(A)
    assert r <= min(m, n)
    assert rank_mod_p(A.T) == r
    assert rank_mod_p(np.vstack([A, A])) == r
    assert rank_mod_p(3 * A) == r


def test_rank_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-d"):
        rank_mod_p(np.zeros(4, dtype=int))


_ENTRIES = {
    "unit": st.sampled_from([-1, 0, 1]),
    "small": st.integers(-4, 4),
    # multiples of a prime vanish in its field but not over the rationals
    "prime multiples": st.sampled_from(
        [-1, 0, 1, 2, PRIME_MAIN, -PRIME_MAIN, 2 * PRIME_MAIN, PRIME_FALLBACK, -PRIME_FALLBACK]
    ),
}


@st.composite
def integer_matrices(draw):
    entries = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = draw(st.lists(entries, min_size=m * n, max_size=m * n))
    return np.array(values, dtype=np.int64).reshape(m, n)


def sympy_rank_mod(A, prime):
    rows = [[ZZ(int(v)) for v in row] for row in A]
    return DomainMatrix(rows, A.shape, ZZ).convert_to(GF(prime)).rank()


@settings(max_examples=150, deadline=None)
@given(integer_matrices(), st.booleans())
def test_sparse_rank_matches_dense_elimination_and_sympy(A, as_csr):
    M = sp.csr_matrix(A) if as_csr else A
    for prime in (PRIME_MAIN, PRIME_FALLBACK):
        r = rank_mod_p(M, prime)
        assert r == dense_rank_mod_p(A, prime)
        assert r == sympy_rank_mod(A, prime)


_KERNEL = fractional_kernel(1.0, 0.5)
_SUITE_COMPLEXES = {
    "circle": lambda: (gen_circle(12), rips_system(1.1), _KERNEL, 2),
    "interval": lambda: (gen_interval(10), hausdorff_system(0.2), _KERNEL, 1),
    "two components": lambda: (gen_two_components(8, gap=3.0), rips_system(1.0), _KERNEL, 1),
    "sphere": lambda: (gen_sphere(200), rips_system(0.45), fractional_kernel(2.0, 0.5), 2),
}


@pytest.mark.parametrize("name", sorted(_SUITE_COMPLEXES))
def test_clearing_leaves_every_rank_unchanged(name):
    complex_ = build_weighted_complex(*_SUITE_COMPLEXES[name]())
    unclear = tuple(rank_mod_p(complex_.coboundary(p).matrix) for p in range(complex_.p_max + 1))
    report = exact_betti(complex_)
    assert report.ranks == unclear
    assert not any(report.uncertain)


# --- apparent pivots and degree-0 clearing -------------------------------------


@st.composite
def reductions(draw):
    """A matrix with few rows, so columns collide on their pivot rows and
    reduce, some columns to skip, and a prime."""
    entries = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    values = draw(st.lists(entries, min_size=m * n, max_size=m * n))
    skip = draw(st.sets(st.integers(0, n - 1), max_size=n))
    A = np.array(values, dtype=np.int64).reshape(m, n)
    return A, frozenset(skip), draw(st.sampled_from(PRIMES))


@settings(max_examples=300, deadline=None)
@given(reductions(), st.booleans())
def test_pivot_rows_match_the_eager_reduction(case, as_csr):
    A, skip, prime = case
    M = sp.csr_matrix(A) if as_csr else A
    assert set(_pivot_columns(M, prime, skip)) == set(pivot_columns_oracle(A, prime, skip))


def test_a_prime_divisor_entry_decides_which_pivot_is_read():
    # the main prime sees column 1's entry 2^31 - 1 as zero, so its pivot row
    # is row 0, still free; over the fallback prime it is row 1, the pivot of
    # the apparent column 0, which column 1 then reads and reduces against
    A = np.array([[1, 3, 0], [1, PRIME_MAIN, 5], [0, 0, 7]])
    main, fallback = (_pivot_columns(A, prime) for prime in PRIMES)
    assert main == {1: 0, 0: 1, 2: 2}
    assert fallback[1] == ({0: 1, 1: 1}, 1) and fallback[2] == 2
    for prime in PRIMES:
        assert set(_pivot_columns(A, prime)) == set(pivot_columns_oracle(A, prime))


def _read_apparent(reduced, A, prime):
    """`_pivot_columns`' dict with each apparent pivot j, kept as its column
    index, read as the eager oracle stores every pivot: (column j mod prime,
    inverse of its pivot entry)."""
    out = {}
    for row, pivot in reduced.items():
        if isinstance(pivot, int):
            column = {r: int(v) % prime for r, v in enumerate(A[:, pivot]) if int(v) % prime}
            pivot = column, pow(column[row], -1, prime)
        out[row] = pivot
    return out


def test_a_reduced_column_displaces_a_later_provisional_pivot():
    # column 2 shares its lowest row 2 with column 1 and reduces against it
    # onto row 1, which column 3, the first column whose lowest row is 1,
    # holds provisionally: column 2 reaches row 1 first and takes it, and
    # column 3 then reduces against column 2 onto row 0
    A = np.array([[0, 1, 0, 0], [0, 0, 3, 5], [0, 1, 2, 0], [1, 0, 0, 0]])
    # A again, column 2 stored unsorted and its entry 3 split in two
    indices = [3, 0, 2, 2, 1, 1, 1]
    split = sp.csc_matrix(([1, 1, 1, 2, 1, 2, 5], indices, [0, 1, 3, 6, 7]), shape=(4, 4))
    for prime in PRIMES:
        for cleared in (frozenset(), frozenset({0})):
            got = _pivot_columns(A, prime, cleared)
            want = pivot_columns_oracle(A, prime, cleared)
            assert set(got) == set(want) == {0, 1, 2, 3} - ({3} if cleared else set())
            assert not isinstance(got[1], int) and not isinstance(got[0], int)
            assert _read_apparent(got, A, prime) == want
            assert _read_apparent(_pivot_columns(split, prime, cleared), A, prime) == want
            assert split.indices.tolist() == indices  # summed on a copy


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_every_pivot_column_is_the_eager_reductions(case):
    A, skip, prime = case
    assert _read_apparent(_pivot_columns(A, prime, skip), A, prime) == pivot_columns_oracle(A, prime, skip)


def _cleared_pivot_rows(differences, prime):
    """Pivot rows of D_0, D_1, ... as `_betti` reduces them (D_0 seeded with its
    components' tops) and as the eager oracle does with no seed on D_0."""
    got, want = [], []
    cleared, oracle_cleared = _component_tops(differences[0]), frozenset()
    for D in differences:
        got.append(set(_pivot_columns(D, prime, cleared)))
        want.append(set(pivot_columns_oracle(D, prime, oracle_cleared)))
        cleared, oracle_cleared = got[-1], want[-1]
    return got, want


_GLUING = {
    "circle32": lambda: (gen_circle(32), hausdorff_system(0.5)),
    "interval32": lambda: (gen_interval(32), hausdorff_system(0.2)),
}


def _suite_differences(name):
    """D_0, D_1, ... of a suite complex, a cover complex or ("... nerve") its Cech nerve."""
    if name.endswith(" nerve"):
        return _nerve_differences(default_cover(*_GLUING[name.removesuffix(" nerve")]()), 2)
    args = (*_GLUING[name](), _KERNEL, 2) if name in _GLUING else _SUITE_COMPLEXES[name]()
    return [D.matrix for D in build_weighted_complex(*args).coboundaries]


@pytest.fixture(scope="module")
def scale_probe_b0_b1():
    n = 1024
    complex_ = build_weighted_complex(
        gen_circle(n), rips_system(7 * 2 * np.pi / n), _KERNEL, 1
    )
    return [D.matrix for D in complex_.coboundaries]


@pytest.mark.parametrize(
    "name", [*sorted(_SUITE_COMPLEXES), *_GLUING, *(f"{name} nerve" for name in _GLUING)]
)
def test_every_suite_complex_keeps_its_pivot_rows(name):
    differences = _suite_differences(name)
    assert _component_tops(differences[0])
    for prime in PRIMES:
        got, want = _cleared_pivot_rows(differences, prime)
        assert got == want


def test_the_scale_probe_keeps_its_pivot_rows(scale_probe_b0_b1):
    for prime in PRIMES:
        got, want = _cleared_pivot_rows(scale_probe_b0_b1, prime)
        assert got == want
        assert [len(rows) for rows in got] == [1023, 5120]


def test_no_apparent_pivot_of_the_circle_b0_is_read(scale_probe_b0_b1):
    # every vertex but the seeded last one has a free pivot row when it is
    # reached, so B_0 reduces no column and keeps every pivot as an index
    B0 = scale_probe_b0_b1[0]
    assert _component_tops(B0) == {1023}
    for prime in PRIMES:
        reduced = _pivot_columns(B0, prime, _component_tops(B0))
        assert len(reduced) == 1023
        assert all(isinstance(column, int) for column in reduced.values())


def _random_graph_d0(rng, n, components):
    """A signed incidence matrix, one row per edge (each row -1 at its lower
    vertex and +1 at its higher one, or the reverse) of a random graph on n
    shuffled vertices: `components` random trees plus extra edges inside
    them, and a few isolated points."""
    label = rng.permutation(n)
    isolated = rng.integers(0, 3)
    groups = np.array_split(np.arange(n - isolated), components)
    edges = []
    for group in groups:
        for k in range(1, group.size):
            edges.append((group[rng.integers(0, k)], group[k]))  # a random tree
        for _ in range(group.size // 2):
            a, b = rng.choice(group, 2, replace=group.size < 2)
            if a != b:
                edges.append((a, b))
    rng.shuffle(edges)
    D = sp.lil_matrix((len(edges), n), dtype=np.int64)
    for r, (a, b) in enumerate(edges):
        sign = rng.choice([-1, 1])
        D[r, label[a]], D[r, label[b]] = sign, -sign
    return D.tocsr()


@pytest.mark.parametrize("seed", range(12))
def test_the_seeded_columns_are_the_columns_that_reduce_to_zero(seed):
    rng = np.random.default_rng(seed)
    D = _random_graph_d0(rng, int(rng.integers(6, 30)), int(rng.integers(1, 5)))
    dense = D.toarray()
    zero = {
        j for j in range(D.shape[1])
        if dense_rank_mod_p(dense[:, : j + 1]) == dense_rank_mod_p(dense[:, :j])
    }
    assert _component_tops(D) == zero
    for prime in PRIMES:
        assert set(_pivot_columns(D, prime, zero)) == set(pivot_columns_oracle(D, prime))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, -1, 0], [0, 1, 0]],  # a one-entry row
        [[1, -1, 0], [0, 2, -1]],  # an entry 2
        [[1, -1, 0], [0, -2, 1]],  # an entry -2
        [[1, -1, 0], [1, -1, 1]],  # a three-entry row
        [[1, 1, 0], [0, 1, -1]],  # a row of one sign
        [[PRIME_MAIN]],
    ],
)
def test_a_d0_that_is_not_a_signed_incidence_matrix_gets_no_seed(rows):
    assert _component_tops(np.array(rows, dtype=np.int64)) == frozenset()
    assert _component_tops(sp.csr_matrix(np.array(rows, dtype=np.int64))) == frozenset()


def test_a_d0_without_edges_seeds_every_point():
    assert _component_tops(sp.csr_matrix((0, 3), dtype=np.int64)) == {0, 1, 2}
    # one stored edge whose two entries cancel is no longer an incidence row
    cancelled = sp.csr_matrix((np.array([1, -1]), np.array([1, 1]), np.array([0, 2])), shape=(1, 3))
    assert _component_tops(cancelled) == frozenset()


# --- the locality order -------------------------------------------------------


def _line(points):
    """Points on a line with unit weights."""
    x = np.asarray(points, dtype=float)
    return MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.ones(x.size))


# rips 0.15 leaves components {0, 1, 2}, {3}, {4, 5} and {6}: two isolated points
_LABELLED_COMPLEXES = {
    **_SUITE_COMPLEXES,
    "isolated points": lambda: (_line([0, 0.1, 0.2, 1, 2, 2.1, 5]), rips_system(0.15), _KERNEL, 1),
}


def _reduced(complex_, monkeypatch):
    """(differences and D_0's seed as `exact_betti` hands them to `_betti`,
    the number of pivots each `_pivot_columns` call keeps in reduced form)."""
    betti, pivots = cohomology._betti, cohomology._pivot_columns
    handed, counts = [], []

    def spy_betti(differences, parameters, tops=None):
        handed.append((differences, tops))
        return betti(differences, parameters, tops)

    def spy_pivots(matrix, prime, cleared=frozenset()):
        reduced = pivots(matrix, prime, cleared)
        counts.append(sum(not isinstance(column, int) for column in reduced.values()))
        return reduced

    with monkeypatch.context() as m:
        m.setattr(cohomology, "_betti", spy_betti)
        m.setattr(cohomology, "_pivot_columns", spy_pivots)
        exact_betti(complex_)
    return handed[0], counts


@pytest.mark.parametrize("name", sorted(_LABELLED_COMPLEXES))
def test_the_report_does_not_see_the_labels(name):
    space, *rest = _LABELLED_COMPLEXES[name]()
    complex_ = build_weighted_complex(space, *rest)
    report = exact_betti(complex_)
    unclear = tuple(rank_mod_p(D.matrix) for D in complex_.coboundaries)
    assert report.ranks == unclear and all(report.certain)
    rng = np.random.default_rng(20)
    for _ in range(20):
        relabelled = build_weighted_complex(permuted(space, rng.permutation(space.n)), *rest)
        assert exact_betti(relabelled) == report


@pytest.mark.parametrize("name", sorted(_LABELLED_COMPLEXES))
def test_both_differences_at_a_degree_share_its_order(name, monkeypatch):
    # the reordered differences still compose to zero, so a pivot row of D_p
    # names a column of D_{p+1} that reduces to zero; D_0's seed is the
    # highest new column of each component; both primes keep the eager
    # reduction's pivot rows
    space, *rest = _LABELLED_COMPLEXES[name]()
    rng = np.random.default_rng(5)
    for perm in (np.arange(space.n), rng.permutation(space.n)):
        complex_ = build_weighted_complex(permuted(space, perm), *rest)
        (differences, tops), _ = _reduced(complex_, monkeypatch)
        for D, R in zip(complex_.coboundaries, differences):
            assert R.shape == D.matrix.shape and R.nnz == D.matrix.nnz
        for lower, upper in zip(differences, differences[1:]):
            assert not np.any((upper @ lower).data)
        assert tops == _component_tops(differences[0])
        for prime in PRIMES:
            got, want = _cleared_pivot_rows(differences, prime)
            assert got == want


@pytest.fixture(scope="module")
def scale_probe_relabelled():
    n = 1024
    space = permuted(gen_circle(n), np.random.default_rng(11).permutation(n))
    return build_weighted_complex(space, rips_system(7 * 2 * np.pi / n), _KERNEL, 1)


def test_a_relabelled_scale_probe_keeps_its_pivots_apparent(scale_probe_relabelled, monkeypatch):
    # in its stored order the relabelled circle's B_0 reduces 558 columns and
    # B_1 282; in the locality order as few as the generator's labels leave
    _, counts = _reduced(scale_probe_relabelled, monkeypatch)
    assert len(counts) == 4  # B_0 then B_1, each over both primes
    assert all(got <= most for got, most in zip(counts, [0, 0, 20, 20]))


def test_the_natural_scale_probe_keeps_its_counts(monkeypatch):
    n = 1024
    complex_ = build_weighted_complex(gen_circle(n), rips_system(7 * 2 * np.pi / n), _KERNEL, 1)
    _, counts = _reduced(complex_, monkeypatch)
    assert counts == [0, 0, 20, 20]


@pytest.mark.parametrize("n", [1000, 7000])
def test_tuples_sort_by_their_members_positions(n):
    # 1000**5 fits one int64 key and 7000**5 does not, which lexsort then sorts
    rng = np.random.default_rng(n)
    tuples = np.array(sorted(np.sort(rng.choice(n, 5, replace=False)).tolist() for _ in range(60)))
    position = rng.permutation(n)
    want = sorted(range(len(tuples)), key=lambda r: sorted(position[tuples[r]].tolist()))
    assert _tuple_order(tuples, position).tolist() == want


def test_a_b1_row_with_a_stored_zero_keeps_the_stored_order():
    # a triangle: B_0 is a signed incidence matrix, but B_1's one row holds an
    # explicit zero beside its three entries, so no row is gathered
    D0 = sp.csr_matrix(np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]))
    D1 = sp.csr_matrix((np.array([1, -1, 1, 0]), np.array([0, 1, 2, 2]), np.array([0, 4])), shape=(1, 3))
    triangle = SimpleNamespace(
        p_max=1, coboundary=lambda p: SimpleNamespace(matrix=(D0, D1)[p])
    )
    report = exact_betti(triangle)
    assert report == _betti([D0, D1], {})
    assert report.betti == (1, 0) and all(report.certain)


# --- Betti numbers of known spaces ---------------------------------------------


def test_circle_betti():
    complex_ = build_weighted_complex(
        gen_circle(12), rips_system(1.1), fractional_kernel(1.0, 0.5), 1
    )
    report = exact_betti(complex_)
    assert report.betti == (1, 1)


def test_interval_is_contractible():
    complex_ = build_weighted_complex(
        gen_interval(10), hausdorff_system(0.2), fractional_kernel(1.0, 0.5), 1
    )
    assert exact_betti(complex_).betti == (1, 0)


def test_two_components_betti():
    complex_ = build_weighted_complex(
        gen_two_components(8, gap=3.0), rips_system(1.0), fractional_kernel(1.0, 0.5), 1
    )
    assert exact_betti(complex_).betti == (2, 0)


def test_betti_bookkeeping_is_dims_minus_ranks():
    complex_ = build_weighted_complex(
        gen_circle(10), rips_system(1.3), constant_kernel(1.0), 2
    )
    report = exact_betti(complex_)
    for p in range(3):
        below = report.ranks[p - 1] if p >= 1 else 0
        assert report.betti[p] == report.dims[p] - report.ranks[p] - below
        # im B_{p-1} sits inside ker B_p, so the two ranks never overshoot
        assert report.ranks[p] + below <= report.dims[p]


def test_betti_ignores_the_kernel_model():
    space = gen_circle(10)
    a = build_weighted_complex(space, rips_system(1.1), fractional_kernel(1.0, 0.5), 1)
    b = build_weighted_complex(space, rips_system(1.1), constant_kernel(7.0), 1)
    assert exact_betti(a).betti == exact_betti(b).betti
    assert exact_betti(a).ranks == exact_betti(b).ranks


def test_betti_is_permutation_invariant():
    space = gen_circle(9)
    rng = np.random.default_rng(3)
    perm = rng.permutation(9)
    shuffled = permuted(space, perm)
    kernel = fractional_kernel(1.0, 0.5)
    assert (
        exact_betti(build_weighted_complex(space, rips_system(1.2), kernel, 1)).betti
        == exact_betti(build_weighted_complex(shuffled, rips_system(1.2), kernel, 1)).betti
    )


def test_report_round_trip():
    complex_ = build_weighted_complex(
        gen_circle(8), rips_system(1.0), constant_kernel(1.0), 1
    )
    report = exact_betti(complex_, parameters={"eps": 1.0})
    data = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert data["schema"] == 2
    assert data["betti"] == [1, 1]
    assert data["primes"] == [PRIME_MAIN, PRIME_FALLBACK]
    assert data["uncertain"] == [False, False]
    assert data["parameters"] == {"eps": 1.0}
    assert data["dims"] == list(report.dims)
    assert data["coboundary_ranks"] == list(report.ranks)


def test_agreement_report_against_spectral_counts():
    complex_ = build_weighted_complex(
        gen_circle(12), rips_system(1.1), fractional_kernel(1.0, 0.5), 1
    )
    betti = exact_betti(complex_)
    reports = [hodge_report(complex_, p, oracle=betti.betti[p]) for p in range(2)]
    agreement = compare_numeric_exact(reports, betti)
    assert agreement.all_agree
    assert agreement.spectral == (1, 1)
    assert agreement.exact == (1, 1)
    data = agreement.to_json()
    assert data["all_agree"] is True
    assert data["degrees"] == [0, 1]
