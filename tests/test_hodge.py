import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import nlhodge.hodge as hodge

from nlhodge.space import MetricMeasureSpace, gen_circle, gen_sphere, gen_two_components
from nlhodge.neighborhoods import full_system, rips_system
from nlhodge.kernels import constant_kernel, fractional_kernel, kernel_matrix
from nlhodge.cochains import Cochain
from nlhodge.cohomology import compare_numeric_exact, exact_betti
from nlhodge.hodge import (
    HodgeError,
    adjoint_matrix,
    build_weighted_complex,
    energy_norms,
    harmonic_dimension,
    hodge_decompose,
    hodge_laplacian,
    hodge_report,
    multiplier_bound_check,
    multiplier_constant,
)
from oracles import dense_low_spectrum, rescaled, weighted_laplacian


@pytest.fixture(scope="module")
def circle_complex():
    space = gen_circle(12)
    return build_weighted_complex(space, rips_system(1.1), fractional_kernel(1.0, 0.5), 2)


@pytest.fixture(scope="module")
def sphere_complex():
    # Betti numbers (1, 0, 1), dims 30 / 95 / 78
    space = gen_sphere(30)
    return build_weighted_complex(space, rips_system(1.0), fractional_kernel(2.0, 0.5), 2)


def random_cochain(rng, complex_, p):
    ts = complex_.tuple_sets[p]
    return Cochain(p, ts, rng.standard_normal(ts.size))


# --- the two-point hand computation ------------------------------------------


def test_two_point_laplacian_matches_hand_computation():
    # Unit weights and a unit kernel give the pair the mass 2, so the
    # degree-0 up-Laplacian is [[2, -2], [-2, 2]] with eigenvalues {0, 4}.
    space = MetricMeasureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    complex_ = build_weighted_complex(space, full_system(), constant_kernel(1.0), 0)
    assert complex_.mass_vector(1).tolist() == [2.0]
    L = weighted_laplacian(complex_, 0)
    assert np.array_equal(L, np.array([[2.0, -2.0], [-2.0, 2.0]]))
    S = hodge_laplacian(complex_, 0)
    assert np.array_equal(S, L)  # unit point weights: the conjugation is trivial
    assert np.allclose(np.linalg.eigvalsh(S), [0.0, 4.0], atol=1e-12)
    hc = harmonic_dimension(complex_, 0)
    assert hc.harmonic_dim == 1
    assert not hc.flagged


# --- adjoint structure --------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1])
def test_adjoint_identity_against_inner_products(circle_complex, p):
    rng = np.random.default_rng(p)
    A = adjoint_matrix(circle_complex, p)
    B = circle_complex.coboundary(p).matrix
    for _ in range(100):
        f = rng.standard_normal(circle_complex.dim(p))
        g = rng.standard_normal(circle_complex.dim(p + 1))
        lhs = circle_complex.inner(p + 1, B @ f, g)
        rhs = circle_complex.inner(p, f, A @ g)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_adjoint_composition_vanishes(circle_complex):
    A0 = adjoint_matrix(circle_complex, 0).toarray()
    A1 = adjoint_matrix(circle_complex, 1).toarray()
    prod = A0 @ A1
    scale = max(np.abs(A0).max() * np.abs(A1).max(), 1.0)
    assert np.abs(prod).max(initial=0.0) <= 1e-12 * scale


def test_degree_zero_generator_identity(circle_complex):
    # -(L_0 f)(x) == sum over admissible y of (f(y) - f(x)) (j(x,y) + j(y,x)) w_y.
    complex_ = circle_complex
    space = complex_.space
    rng = np.random.default_rng(7)
    f = rng.standard_normal(space.n)
    L = weighted_laplacian(complex_, 0)
    kmat = kernel_matrix(complex_.kernel, space)
    pairs = set(map(tuple, complex_.tuple_sets[1].tuples.tolist()))
    for x in range(space.n):
        acc = 0.0
        for y in range(space.n):
            if (min(x, y), max(x, y)) in pairs:
                acc += (f[y] - f[x]) * (kmat[x, y] + kmat[y, x]) * space.weights[y]
        assert -(L @ f)[x] == pytest.approx(acc, rel=1e-11, abs=1e-11)


def test_symmetrized_laplacian_is_a_similarity_transform(circle_complex):
    for p in range(3):
        L = weighted_laplacian(circle_complex, p)
        S = hodge_laplacian(circle_complex, p)
        sq = np.sqrt(circle_complex.mass_vector(p))
        conj = (sq[:, None] * L) / sq[None, :]
        assert np.allclose(S, conj, rtol=1e-10, atol=1e-12)
        eigs_L = np.sort(np.linalg.eigvals(L).real)
        eigs_S = np.linalg.eigvalsh(S)
        assert np.allclose(eigs_L, eigs_S, atol=1e-8 * max(eigs_S.max(), 1.0))


def test_symmetrized_laplacian_is_positive_semidefinite(circle_complex):
    for p in range(3):
        S = hodge_laplacian(circle_complex, p)
        eigs = np.linalg.eigvalsh(S)
        assert eigs.min(initial=0.0) >= -1e-10 * max(eigs.max(initial=1.0), 1.0)


def test_quadratic_form_routes_agree(circle_complex):
    # <L_up f, f>_p equals ||delta f||^2 and <L_down f, f>_p equals the
    # weighted norm of the adjoint coboundary.
    rng = np.random.default_rng(13)
    complex_ = circle_complex
    p = 1
    f = rng.standard_normal(complex_.dim(p))
    F = Cochain(p, complex_.tuple_sets[p], f)
    _, q_up, _ = energy_norms(complex_, p, F)
    B = complex_.coboundary(p).matrix
    wup = complex_.mass_vector(p + 1)
    assert q_up == pytest.approx(float((B @ f) @ (wup * (B @ f))), rel=1e-13)
    A = adjoint_matrix(complex_, p - 1)
    down = A @ f
    wdn = complex_.mass_vector(p - 1)
    q_down = float(down @ (wdn * down))
    Bdn = complex_.coboundary(p - 1).matrix.astype(float)
    import scipy.sparse as sp

    L_down = (Bdn @ sp.diags(1.0 / wdn) @ Bdn.T @ sp.diags(complex_.mass_vector(p))).toarray()
    assert complex_.inner(p, L_down @ f, f) == pytest.approx(q_down, rel=1e-11)


def test_dirichlet_form_equals_double_sum(circle_complex):
    # ||delta f||^2 at degree 0 equals (1/2) sum over admissible ordered pairs
    # of (f(y) - f(x))^2 (j(x,y) + j(y,x)) w_x w_y.
    complex_ = circle_complex
    space = complex_.space
    rng = np.random.default_rng(19)
    f = rng.standard_normal(space.n)
    F = Cochain(0, complex_.tuple_sets[0], f)
    _, q, _ = energy_norms(complex_, 0, F)
    kmat = kernel_matrix(complex_.kernel, space)
    acc = 0.0
    for x, y in complex_.tuple_sets[1].tuples.tolist():
        for a, b in ((x, y), (y, x)):
            acc += (
                0.5
                * (f[b] - f[a]) ** 2
                * (kmat[a, b] + kmat[b, a])
                * space.weights[a]
                * space.weights[b]
            )
    assert q == pytest.approx(acc, rel=1e-12)


# --- harmonic counting --------------------------------------------------------


def test_circle_harmonic_dimensions(circle_complex):
    assert harmonic_dimension(circle_complex, 0).harmonic_dim == 1
    assert harmonic_dimension(circle_complex, 1).harmonic_dim == 1


def test_two_components_have_two_degree_zero_harmonics():
    space = gen_two_components(8, gap=3.0)
    complex_ = build_weighted_complex(space, rips_system(1.0), fractional_kernel(1.0, 0.5), 1)
    assert harmonic_dimension(complex_, 0).harmonic_dim == 2


def test_rank_nullity_bookkeeping(circle_complex):
    p = 1
    B_up = circle_complex.coboundary(p).matrix.toarray().astype(float)
    B_dn = circle_complex.coboundary(p - 1).matrix.toarray().astype(float)
    rank_up = np.linalg.matrix_rank(B_up)
    rank_dn = np.linalg.matrix_rank(B_dn)
    hd = harmonic_dimension(circle_complex, p).harmonic_dim
    assert circle_complex.dim(p) == hd + rank_up + rank_dn


def test_kernel_rescaling_preserves_harmonics_but_not_spectra():
    space = gen_circle(10)
    base = build_weighted_complex(space, rips_system(1.1), fractional_kernel(1.0, 0.5), 1)
    tripled = build_weighted_complex(
        space, rips_system(1.1), rescaled(fractional_kernel(1.0, 0.5), 3.0), 1
    )
    for p in range(2):
        a = harmonic_dimension(base, p)
        b = harmonic_dimension(tripled, p)
        assert a.harmonic_dim == b.harmonic_dim
    s_base = np.linalg.eigvalsh(hodge_laplacian(base, 0))
    s_tripled = np.linalg.eigvalsh(hodge_laplacian(tripled, 0))
    assert s_tripled.max() == pytest.approx(3.0 * s_base.max(), rel=1e-10)


def test_oracle_is_ignored_when_the_gap_is_clean(circle_complex):
    hc = harmonic_dimension(circle_complex, 0, oracle=5)
    assert hc.harmonic_dim == 1
    assert not hc.oracle_used


def test_report_agreement_fields(circle_complex):
    report = hodge_report(circle_complex, 1, oracle=1)
    data = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert data["schema"] == 2
    assert data["harmonic_dim"] == 1
    assert data["degree"] == 1
    assert data["oracle_betti"] == 1
    assert data["oracle_used"] is False
    assert "status" not in data  # the agreement against exact Betti decides it
    betti = exact_betti(circle_complex)
    agreement = compare_numeric_exact([report], betti)
    assert agreement.status == ("agree",) and agreement.all_agree
    wrong = SimpleNamespace(degree=1, harmonic_dim=3)
    assert compare_numeric_exact([wrong], betti).status == ("disagree",)


def test_the_report_is_the_count_itself(circle_complex, monkeypatch):
    # one result type per degree: hodge_report hands back harmonic_dimension's
    # object, whose .dimension is the cochain dimension, not the count
    made = []
    count = hodge.harmonic_dimension
    monkeypatch.setattr(
        hodge, "harmonic_dimension", lambda *a, **kw: made.append(count(*a, **kw)) or made[-1]
    )
    report = hodge_report(circle_complex, 1, oracle=1)
    assert len(made) == 1 and made[0] is report
    assert (report.dimension, report.harmonic_dim) == (circle_complex.dim(1), 1)
    assert report.eigenvalues.dtype == np.float64 and not report.eigenvalues.flags.writeable
    assert not hasattr(hodge, "HarmonicCount")


@pytest.mark.parametrize(
    "eigs, count, flagged",
    [((1e-14, 1e-12, 5.0), 1, True), ((1e-14, 5e-10, 5.0), 1, False),
     ((0.0, 1e-12, 5.0), 1, False), ((1e-14, 2e-14, 3e-14), 3, False)],
    ids=["narrow-gap", "wide-gap", "exact-zero", "all-harmonic"],
)
def test_the_flag_reads_the_gap_at_the_threshold(monkeypatch, eigs, count, flagged):
    # m = 3 and a bound of 5 put the threshold at 4.3e-13; the flag compares
    # the eigenvalues on either side of it, not the ends of the spectrum
    monkeypatch.setattr(hodge, "_laplacian_csr", lambda cx, p: None)
    monkeypatch.setattr(hodge, "_low_spectrum", lambda S: (np.array(eigs), 5.0))
    report = harmonic_dimension(SimpleNamespace(dim=lambda p: 3), 0, oracle=2)
    assert report.threshold == 3 * 5.0 * hodge.HARMONIC_TOL_FACTOR
    assert (report.harmonic_dim, report.flagged) == (count, flagged)
    assert report.oracle_used == flagged  # the oracle's 2 contradicts a flagged 1


def test_empty_degree_is_harmless(monkeypatch):
    # eps below the minimum spacing: no pairs at all, every point is harmonic.
    space = gen_circle(8)
    complex_ = build_weighted_complex(space, rips_system(0.1), constant_kernel(1.0), 1)
    assert complex_.dim(1) == 0
    hc = harmonic_dimension(complex_, 0)
    assert hc.harmonic_dim == 8
    assert harmonic_dimension(complex_, 1).harmonic_dim == 0

    # Above the cutoff the zero Laplacian has a Gershgorin bound of 0, so a
    # shift scaled by it would leave eigsh a singular matrix: no solve is made.
    n = hodge.DENSE_EIG_CUTOFF + 1
    space = gen_circle(n)
    complex_ = build_weighted_complex(
        space, rips_system(0.5 * np.sin(np.pi / n)), constant_kernel(1.0), 1
    )
    assert complex_.dim(1) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("eigsh called on the zero operator")

    monkeypatch.setattr(hodge.spla, "eigsh", refuse)
    hc = harmonic_dimension(complex_, 0)
    assert hc.harmonic_dim == n and not hc.flagged
    assert np.array_equal(hc.eigenvalues, np.zeros(n))


def test_a_failing_eigsh_is_uncertain_not_a_traceback(circle_complex, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    monkeypatch.setattr(hodge.spla, "eigsh", singular)
    assert harmonic_dimension(circle_complex, 1).harmonic_dim is None


def test_a_singular_factorization_is_uncertain_not_a_traceback(circle_complex, monkeypatch):
    # the factor of S - sigma I is made before eigsh runs, under the same guard
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    monkeypatch.setattr(hodge.spla, "splu", singular)
    assert harmonic_dimension(circle_complex, 1).harmonic_dim is None


@pytest.mark.parametrize("p", [0, 1])
def test_sparse_eigensolve_matches_the_dense_branch(circle_complex, monkeypatch, p):
    dense = harmonic_dimension(circle_complex, p)
    full = np.linalg.eigvalsh(hodge_laplacian(circle_complex, p))
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    sparse = harmonic_dimension(circle_complex, p)
    assert sparse.eigenvalues.size < circle_complex.dim(p)  # only the low end was computed
    assert sparse.harmonic_dim == dense.harmonic_dim
    assert sparse.flagged == dense.flagged
    assert np.allclose(sparse.eigenvalues, full[: sparse.eigenvalues.size], rtol=0, atol=1e-10)


@st.composite
def graph_laplacians(draw):
    """A weighted graph Laplacian on 3..40 vertices with at least one edge and
    weights of 0 or 0.01..10, as canonical CSR."""
    m = draw(st.integers(3, 40))
    edges = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] < e[1]),
        min_size=1, max_size=3 * m, unique=True,
    ))
    w = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=len(edges), max_size=len(edges)
    ))
    return graph_laplacian(m, edges, w)


def graph_laplacian(m, edges, w):
    """The Laplacian of edges (a, b) with weights w on m vertices, as canonical CSR."""
    a, b = np.array(edges).T
    w = np.asarray(w, dtype=float)
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b])
    S = sp.csr_matrix((np.concatenate([-w, -w, w, w]), (rows, cols)), shape=(m, m))
    S.eliminate_zeros()
    S.sort_indices()
    return S


@settings(max_examples=60, deadline=None)
@given(S=graph_laplacians())
def test_the_shifted_factor_gives_the_dense_spectrum(S):
    # The sparse branch, on a factor of S - sigma I with diagonal pivots, finds
    # the low end of the whole spectrum and the dense branch's count, which
    # is the number of components joined by positive weights.
    m = S.shape[0]
    complex_ = SimpleNamespace(dim=lambda p: m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hodge, "_laplacian_csr", lambda cx, p: S)
        dense = harmonic_dimension(complex_, 0)
        mp.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
        sparse = harmonic_dimension(complex_, 0)
    full = np.linalg.eigvalsh(S.toarray())
    gersh = float(abs(S).sum(axis=1).max())
    k = sparse.eigenvalues.size
    assert 0 < k and np.abs(sparse.eigenvalues - full[:k]).max() <= 1e-10 * gersh
    assert sparse.harmonic_dim == dense.harmonic_dim == connected_components(S)[0]


def test_a_residual_above_the_threshold_leaves_a_clear_count(monkeypatch):
    # Two disjoint edges on m = 4: the harmonic Ritz residuals exceed the
    # threshold tau = m * gersh * 2^-45, which is below what shift-invert
    # reaches at small m, but no Ritz value lies within its residual of tau,
    # so no eigenvalue can sit on the other side of it and the count stands.
    S = graph_laplacian(4, [(0, 2), (1, 3)], [7.134267932027291, 5.693330213487345])
    gersh = float(abs(S).sum(axis=1).max())
    tau = 4 * gersh * hodge.HARMONIC_TOL_FACTOR
    eigsh, residuals = hodge.spla.eigsh, []

    def spy(*args, **kwargs):
        vals, V = eigsh(*args, **kwargs)
        residuals.append(np.linalg.norm(S @ V - V * vals, axis=0).max())
        return vals, V

    monkeypatch.setattr(hodge.spla, "eigsh", spy)
    monkeypatch.setattr(hodge, "_laplacian_csr", lambda cx, p: S)
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    count = harmonic_dimension(SimpleNamespace(dim=lambda p: 4), 0)
    assert len(residuals) == 1 and residuals[0] > tau
    assert count.harmonic_dim == 2 and count.threshold == tau
    full = np.linalg.eigvalsh(S.toarray())
    assert np.abs(count.eigenvalues - full[:3]).max() <= 1e-10 * gersh


@pytest.mark.parametrize("p", [0, 1, 2])
def test_dense_eigensolve_matches_the_eigvalsh_oracle(circle_complex, sphere_complex, p):
    # LAPACK's dsyevd on the array itself gives the bits of numpy's eigvalsh on a
    # copy, and the blocked Gershgorin row sums those of the whole |S|
    for cx in (circle_complex, sphere_complex):
        S = hodge._laplacian_csr(cx, p)
        assert 0 < S.shape[0] <= hodge.DENSE_EIG_CUTOFF
        eigs, bound = hodge._low_spectrum(S)
        want, want_bound = dense_low_spectrum(S)
        assert np.array_equal(eigs, want)
        assert bound == want_bound


def test_dense_eigensolve_holds_one_array():
    # The path Laplacian at m = DENSE_EIG_CUTOFF, the largest the dense branch
    # takes: the in-place branch peaks near one m x m array (plus one block of
    # |S| rows), the old branch at two.
    m = 700
    assert m == hodge.DENSE_EIG_CUTOFF
    S = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1], format="csr")
    peaks = {}
    for name, solve in (("in_place", hodge._low_spectrum), ("oracle", dense_low_spectrum)):
        tracemalloc.start()
        try:
            eigs, _ = solve(S)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eigs.size == m  # the whole spectrum: the dense branch ran
    array = m * m * 8
    assert peaks["in_place"] < 1.1 * array
    assert peaks["oracle"] >= 2 * array


@pytest.mark.parametrize("offset", [0, 1])
def test_branches_meet_at_the_cutoff(offset):
    # circle degree 0 at m = DENSE_EIG_CUTOFF (dense) and one above (sparse):
    # the same count, and the low end of the dense oracle's spectrum
    n = hodge.DENSE_EIG_CUTOFF + offset
    space = gen_circle(n)
    cx = build_weighted_complex(space, rips_system(3.5 * 2 * np.pi / n), fractional_kernel(1.0, 0.5), 0)
    S = hodge._laplacian_csr(cx, 0)
    assert S.shape[0] == n
    eigs, bound = hodge._low_spectrum(S)
    want, want_bound = dense_low_spectrum(S)
    assert eigs.size == (n if offset == 0 else hodge.EIGSH_K)
    assert np.allclose(eigs, want[: eigs.size], rtol=0, atol=1e-10)
    assert bound == pytest.approx(want_bound, rel=1e-12)
    assert harmonic_dimension(cx, 0).harmonic_dim == 1


def test_a_ghost_ritz_vector_is_uncertain(circle_complex, monkeypatch):
    # A copy of the first Ritz pair in place of the last has a tiny residual,
    # but V^T V is not the identity: the guard refuses the count.
    eigsh = hodge.spla.eigsh

    def ghost(*args, **kwargs):
        vals, V = eigsh(*args, **kwargs)
        vals[-1], V[:, -1] = vals[0], V[:, 0]
        return vals, V

    monkeypatch.setattr(hodge.spla, "eigsh", ghost)
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    with pytest.raises(hodge.NumericalError, match="orthogonality"):
        hodge._low_spectrum(hodge._laplacian_csr(circle_complex, 1))
    assert harmonic_dimension(circle_complex, 1).harmonic_dim is None


@pytest.fixture(scope="module")
def sphere_eps35():
    # degree 1 of sphere n=200 at rips 0.35: m = 538 with 53 harmonic forms, the
    # 16 asked of eigsh first are all harmonic, and k doubles twice
    space = gen_sphere(200)
    return build_weighted_complex(space, rips_system(0.35), fractional_kernel(2.0, 0.5), 1)


def test_sparse_eigensolve_counts_a_large_kernel(sphere_eps35, monkeypatch):
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    assert sphere_eps35.dim(1) == 538
    report = hodge_report(sphere_eps35, 1, oracle=exact_betti(sphere_eps35).betti[1])
    assert (report.harmonic_dim, report.oracle_betti) == (53, 53)
    assert not report.flagged and not report.oracle_used


def test_one_factor_serves_every_k_doubling(sphere_eps35, monkeypatch):
    # 53 harmonic forms: eigsh runs at k = 16, 32 and 64 on one factor of S - sigma I
    splu, eigsh = hodge.spla.splu, hodge.spla.eigsh
    factors, ks = [], []
    monkeypatch.setattr(hodge.spla, "splu", lambda *a, **kw: factors.append(1) or splu(*a, **kw))
    monkeypatch.setattr(
        hodge.spla, "eigsh", lambda *a, **kw: ks.append(kw["k"]) or eigsh(*a, **kw)
    )
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    report = hodge_report(sphere_eps35, 1, oracle=53)
    assert (factors, ks) == ([1], [16, 32, 64])
    assert report.harmonic_dim == 53
    assert compare_numeric_exact([report], exact_betti(sphere_eps35)).status == ("agree",)


def test_a_near_singular_shift_is_uncertain_not_a_count(sphere_eps35, monkeypatch):
    # A shift of -1e-12 (of the Gershgorin bound here; the old branch used
    # -1e-12 itself and counted 60) leaves S - sigma I numerically singular:
    # Ritz residuals reach about 10, and the guard makes the degree uncertain.
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    monkeypatch.setattr(hodge, "EIGSH_SHIFT", -1e-12)
    with pytest.raises(hodge.NumericalError, match="Ritz"):
        hodge._low_spectrum(hodge._laplacian_csr(sphere_eps35, 1))
    hc = harmonic_dimension(sphere_eps35, 1)
    assert hc.harmonic_dim is None and hc.eigenvalues.size == 0
    report = hodge_report(sphere_eps35, 1, oracle=53)
    assert report.harmonic_dim is None
    assert json.loads(json.dumps(report.to_json()))["harmonic_dim"] is None
    agreement = compare_numeric_exact([report], exact_betti(sphere_eps35))
    assert agreement.status == ("uncertain",) and not agreement.all_agree


def test_eigsh_doubles_k_until_the_low_end_shows_a_gap(circle_complex, monkeypatch):
    # Asked for one eigenvalue, eigsh sees only the harmonic zero of degree 0;
    # k doubles once, and the count is the dense branch's.
    dense = harmonic_dimension(circle_complex, 0)
    ks = []
    eigsh = hodge.spla.eigsh
    monkeypatch.setattr(
        hodge.spla, "eigsh", lambda *a, **kw: ks.append(kw["k"]) or eigsh(*a, **kw)
    )
    monkeypatch.setattr(hodge, "EIGSH_K", 1)
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    sparse = harmonic_dimension(circle_complex, 0)
    assert ks == [1, 2]
    assert sparse.eigenvalues.size == 2
    assert sparse.harmonic_dim == dense.harmonic_dim == 1


def test_sparse_eigensolve_is_deterministic(circle_complex, monkeypatch):
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    a = harmonic_dimension(circle_complex, 1).eigenvalues
    b = harmonic_dimension(circle_complex, 1).eigenvalues
    assert a.tobytes() == b.tobytes()


def test_sparse_routes_never_densify(circle_complex, monkeypatch):
    # The exact ranks and the sparse eigensolve must run on sparse data end to
    # end; a dense copy of a coboundary or Laplacian is the memory wall at scale.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    with pytest.raises(AssertionError, match="densified"):
        circle_complex.coboundary(0).matrix.toarray()
    assert exact_betti(circle_complex).betti == (1, 1, 0)
    assert [harmonic_dimension(circle_complex, p).harmonic_dim for p in range(3)] == [1, 1, 0]


# --- decomposition ------------------------------------------------------------


def test_decomposition_of_a_random_cochain(circle_complex):
    rng = np.random.default_rng(23)
    p = 1
    F = random_cochain(rng, circle_complex, p)
    dec = hodge_decompose(circle_complex, p, F)
    for key, val in dec.residuals.items():
        assert val < 1e-8, (key, val)
    total = dec.harmonic.values + dec.exact.values + dec.coexact.values
    assert np.allclose(total, F.values, rtol=1e-8, atol=1e-8)
    # the harmonic part is killed by both the coboundary and its adjoint
    B = circle_complex.coboundary(p).matrix
    A = adjoint_matrix(circle_complex, p - 1)
    scale = float(np.abs(F.values).max())
    assert np.abs(B @ dec.harmonic.values).max(initial=0.0) < 1e-7 * scale
    assert np.abs(A @ dec.harmonic.values).max(initial=0.0) < 1e-7 * scale


def test_decomposition_recovers_a_pure_coboundary(circle_complex):
    rng = np.random.default_rng(29)
    g = rng.standard_normal(circle_complex.dim(0))
    f = circle_complex.coboundary(0).matrix @ g
    F = Cochain(1, circle_complex.tuple_sets[1], f)
    dec = hodge_decompose(circle_complex, 1, F)
    norm = np.linalg.norm(f)
    assert np.linalg.norm(dec.exact.values - f) < 1e-8 * norm
    assert np.linalg.norm(dec.harmonic.values) < 1e-8 * norm
    assert np.linalg.norm(dec.coexact.values) < 1e-8 * norm


def test_decomposition_fixes_a_harmonic_representative(circle_complex):
    p = 1
    S = hodge_laplacian(circle_complex, p)
    eigvals, eigvecs = np.linalg.eigh(S)
    assert eigvals[0] < 1e-12
    h = eigvecs[:, 0] / np.sqrt(circle_complex.mass_vector(p))
    F = Cochain(p, circle_complex.tuple_sets[p], h)
    dec = hodge_decompose(circle_complex, p, F)
    norm = np.linalg.norm(h)
    assert np.linalg.norm(dec.harmonic.values - h) < 1e-7 * norm
    assert np.linalg.norm(dec.exact.values) < 1e-7 * norm
    assert np.linalg.norm(dec.coexact.values) < 1e-7 * norm


def test_decomposition_rejects_degree_mismatch(circle_complex):
    rng = np.random.default_rng(31)
    F = random_cochain(rng, circle_complex, 0)
    with pytest.raises(HodgeError, match="degree"):
        hodge_decompose(circle_complex, 1, F)


# --- the multiplier bound -----------------------------------------------------


def test_multiplier_constant_for_the_unit_cutoff(circle_complex):
    for p in range(2):
        assert multiplier_constant(circle_complex, p, np.ones(12)) == 2.0


def test_multiplier_constant_brute_force(circle_complex):
    rng = np.random.default_rng(37)
    chi = rng.uniform(0.0, 1.0, 12)
    p = 1
    space = circle_complex.space
    kmat = kernel_matrix(circle_complex.kernel, space)
    pairs = circle_complex.tuple_sets[1].tuples
    per_point = np.zeros(space.n)
    for x, y in pairs.tolist():
        per_point[x] += (chi[y] - chi[x]) ** 2 * kmat[x, y] * space.weights[y]
        per_point[y] += (chi[x] - chi[y]) ** 2 * kmat[y, x] * space.weights[x]
    sup = np.abs(chi).max()
    want = sup**p * (1.0 + sup + (p + 1) * np.sqrt(per_point.max()))
    assert multiplier_constant(circle_complex, p, chi) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [0, 1])
def test_multiplier_bound_holds(circle_complex, p):
    rng = np.random.default_rng(41 + p)
    for _ in range(100):
        chi = rng.uniform(0.0, 1.0, 12)
        F = random_cochain(rng, circle_complex, p)
        check = multiplier_bound_check(circle_complex, p, chi, F)
        assert check.passed, (check.lhs, check.rhs, check.constant)


# --- guards -------------------------------------------------------------------


def test_structural_guards(circle_complex):
    with pytest.raises(HodgeError, match="nonnegative"):
        build_weighted_complex(
            gen_circle(6), rips_system(1.0), constant_kernel(1.0), -1
        )
    with pytest.raises(HodgeError, match="no coboundary"):
        circle_complex.coboundary(3)
