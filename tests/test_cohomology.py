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

from oracles import dense_rank_mod_p, permuted, rank_mod_p
from nlhodge.space import gen_circle, gen_interval, gen_sphere, gen_two_components
from nlhodge.neighborhoods import hausdorff_system, rips_system
from nlhodge.kernels import constant_kernel, fractional_kernel
from nlhodge.hodge import build_weighted_complex
import nlhodge.cohomology as cohomology
from nlhodge.cohomology import (
    PRIME_FALLBACK,
    PRIME_MAIN,
    _cleared_rank,
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
