import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhodge.space import gen_circle, gen_interval, gen_sphere, gen_two_components
from nlhodge.neighborhoods import (
    TupleSet,
    enumerate_tuples,
    full_system,
    hausdorff_system,
    rips_system,
)
from nlhodge.cochains import (
    Cochain,
    CochainError,
    alt_project,
    alt_tensor,
    build_coboundary,
    coboundary_apply,
    cup_average,
    elementary_form,
    multiply_power,
    sign_sort,
)

from oracles import (
    admissible_tuples,
    cone_contraction,
    cover_system,
    loop_coboundary,
    sym_project,
    tensor_evaluator,
)


def full_tuples(n, p):
    return enumerate_tuples(gen_interval(n), full_system(), p)


def random_cochain(rng, ts):
    return Cochain(ts.degree, ts, rng.standard_normal(ts.size))


def permutation_parity(perm):
    perm = list(perm)
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


# --- signs and evaluation ----------------------------------------------------


def test_sign_sort_matches_inversion_parity():
    for p in range(4):
        for perm in itertools.permutations(range(p + 1)):
            key, sign = sign_sort(perm)
            assert key == tuple(range(p + 1))
            assert sign == permutation_parity(perm)


def test_sign_sort_zero_on_repeats():
    assert sign_sort((2, 2)) == ((2, 2), 0)
    assert sign_sort((3, 1, 3)) == ((1, 3, 3), 0)


def test_evaluate_is_antisymmetric():
    rng = np.random.default_rng(0)
    ts = full_tuples(6, 2)
    F = random_cochain(rng, ts)
    row = tuple(ts.tuples[4])
    for perm in itertools.permutations(row):
        assert F.evaluate(perm) == permutation_parity(np.argsort(perm)) * F.evaluate(
            tuple(sorted(perm))
        )
    assert F.evaluate((row[0], row[0], row[2])) == 0.0


def test_evaluate_rejects_inadmissible_tuple():
    space = gen_interval(5)
    ts = enumerate_tuples(space, rips_system(0.3), 1)
    F = Cochain(1, ts, np.zeros(ts.size))
    with pytest.raises(CochainError, match="not admissible"):
        F.evaluate((0, 4))


def test_value_shape_checked():
    ts = full_tuples(4, 1)
    with pytest.raises(CochainError, match="shape"):
        Cochain(1, ts, np.zeros(ts.size + 1))
    with pytest.raises(CochainError, match="degree"):
        Cochain(2, ts, np.zeros(ts.size))


# --- projectors --------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_alt_is_idempotent(p):
    rng = np.random.default_rng(2 + p)
    ts = full_tuples(6, p)
    F = alt_project(tensor_evaluator(rng.standard_normal((p + 1, 6))), ts)
    again = alt_project(F.evaluate, ts)
    assert np.allclose(again.values, F.values, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2])
def test_alt_fixes_antisymmetric_cochains(p):
    rng = np.random.default_rng(4 + p)
    ts = full_tuples(6, p)
    F = random_cochain(rng, ts)
    assert np.allclose(alt_project(F.evaluate, ts).values, F.values, rtol=1e-13, atol=1e-13)


def test_alt_kills_symmetric_tensors():
    ts = full_tuples(6, 1)
    f = np.arange(6, dtype=float) ** 2
    assert np.allclose(alt_tensor([f, f], ts).values, 0.0, atol=1e-15)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", range(10))
def test_alt_tensor_equals_projected_tensor(p, seed):
    rng = np.random.default_rng(seed)
    ts = full_tuples(7, p)
    fs = rng.uniform(-1.0, 1.0, (p + 1, 7))
    via_projector = alt_project(tensor_evaluator(fs), ts)
    via_determinant = alt_tensor(list(fs), ts)
    assert np.allclose(via_projector.values, via_determinant.values, rtol=1e-12, atol=1e-13)


def test_sym_project_of_symmetric_tensor_is_itself():
    ts = full_tuples(6, 1)
    f = np.linspace(0.0, 1.0, 6)
    S = sym_project(tensor_evaluator([f, f]), ts)
    direct = np.array([f[i] * f[j] for i, j in ts.tuples])
    assert np.allclose(S.values, direct, rtol=1e-14)


def test_alt_tensor_needs_matching_factor_count():
    ts = full_tuples(4, 1)
    with pytest.raises(CochainError, match="factors"):
        alt_tensor([np.zeros(4)], ts)


# --- the coboundary ----------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2])
def test_coboundary_squares_to_zero_exactly(p):
    ts0 = full_tuples(7, p)
    ts1 = full_tuples(7, p + 1)
    ts2 = full_tuples(7, p + 2)
    d0 = build_coboundary(ts0, ts1)
    d1 = build_coboundary(ts1, ts2)
    prod = (d1.matrix @ d0.matrix).tocsr()
    prod.eliminate_zeros()
    assert prod.dtype == np.int64  # integer arithmetic, so the zero is exact
    assert prod.count_nonzero() == 0


def test_coboundary_row_structure():
    ts0 = full_tuples(5, 0)
    ts1 = full_tuples(5, 1)
    op = build_coboundary(ts0, ts1)
    dense = op.matrix.toarray()
    for r, (i, j) in enumerate(ts1.tuples.tolist()):
        want = np.zeros(5)
        want[i] = 1.0
        want[j] = -1.0
        # (delta F)(x_0, x_1) = F(x_1) - F(x_0)
        assert np.array_equal(dense[r], -want)


def test_coboundary_apply_matches_pointwise_sum():
    rng = np.random.default_rng(8)
    ts1 = full_tuples(6, 1)
    ts2 = full_tuples(6, 2)
    op = build_coboundary(ts1, ts2)
    F = random_cochain(rng, ts1)
    dF = coboundary_apply(op, F)
    for row in ts2.tuples.tolist():
        want = sum(
            (-1) ** i * F.evaluate(tuple(row[:i] + row[i + 1 :])) for i in range(3)
        )
        assert dF.evaluate(tuple(row)) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_missing_face_is_reported():
    lower = TupleSet(0, np.array([[0], [1]]))
    upper = TupleSet(1, np.array([[0, 2]]))
    with pytest.raises(CochainError, match="not face-closed"):
        build_coboundary(lower, upper)


def _face_error(build, source, target):
    try:
        build(source, target)
    except CochainError as err:
        return str(err)
    return None


@pytest.mark.parametrize(
    "space",
    [gen_circle(12), gen_interval(10), gen_sphere(16), gen_two_components(5, 0.3)],
    ids=["circle", "interval", "sphere", "two_components"],
)
def test_coboundary_matches_the_per_face_loop(space):
    # same CSR bytes as one dict lookup per face, and the same first missing
    # face named when a third of the source rows is dropped
    scale = float(space.dist.max())
    systems = [
        full_system(),
        rips_system(0.45 * scale),
        rips_system(float(np.sort(space.dist[1])[6]), strict=False),
        hausdorff_system(0.3 * scale),
        cover_system([range(i, min(space.n, i + 5)) for i in range(0, space.n, 3)]),
    ]
    for system in systems:
        sets = [admissible_tuples(space, system, p) for p in range(5)]
        for p in range(4):
            got = build_coboundary(sets[p], sets[p + 1]).matrix
            want = loop_coboundary(sets[p], sets[p + 1])
            for attr in ("data", "indices", "indptr"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
            holed = TupleSet(p, sets[p].tuples[np.arange(sets[p].size) % 3 != 1])
            assert _face_error(build_coboundary, holed, sets[p + 1]) == _face_error(
                loop_coboundary, holed, sets[p + 1]
            )


@pytest.mark.parametrize(
    "space, system",
    [(gen_circle(12), rips_system(1.7)), (gen_interval(10), hausdorff_system(0.25)),
     (gen_sphere(16), rips_system(1.5)), (gen_interval(6), full_system())],
    ids=["circle", "interval", "sphere", "full"],
)
def test_every_coboundary_row_is_its_faces_reversed(space, system):
    # the layout covers.LocalComplex.coboundary_entries reads back: k = p+2
    # entries a row, the faces dropping the last member first (ascending
    # columns), signed (-1)^i for the face dropping member i
    sets = [enumerate_tuples(space, system, p) for p in range(4)]
    for p in range(3):
        mat = build_coboundary(sets[p], sets[p + 1]).matrix
        rows, k = sets[p + 1].size, p + 2
        assert rows > 0
        assert np.array_equal(mat.indptr, np.arange(0, k * rows + 1, k))
        cols = mat.indices.reshape(rows, k)
        assert (np.diff(cols, axis=1) > 0).all()
        for i in range(k):
            face = np.delete(sets[p + 1].tuples, i, axis=1)
            assert np.array_equal(cols[:, k - 1 - i], sets[p].locate(face))
        signs = mat.data.reshape(rows, k)
        assert np.array_equal(signs, np.tile((-1) ** np.arange(k - 1, -1, -1), (rows, 1)))


def test_apply_rejects_foreign_cochain():
    ts1 = full_tuples(6, 1)
    other = enumerate_tuples(gen_interval(6), rips_system(0.3), 1)
    op = build_coboundary(ts1, full_tuples(6, 2))
    with pytest.raises(CochainError, match="source"):
        coboundary_apply(op, Cochain(1, other, np.zeros(other.size)))


@pytest.mark.parametrize("p", [1, 2])
def test_coboundary_commutes_with_alt(p):
    # delta(Alt F) == Alt(delta F) for a generic non-symmetric evaluator.
    rng = np.random.default_rng(12 + p)
    lower = full_tuples(6, p)
    upper = full_tuples(6, p + 1)
    fs = rng.uniform(-1.0, 1.0, (p + 1, 6))
    gs = rng.uniform(-1.0, 1.0, (p + 1, 6))
    raw = lambda idx: tensor_evaluator(fs)(idx) + 2.0 * tensor_evaluator(gs)(idx)

    def raw_coboundary(idx):
        return sum(
            (-1) ** i * raw(tuple(idx[:i]) + tuple(idx[i + 1 :])) for i in range(len(idx))
        )

    lhs = coboundary_apply(build_coboundary(lower, upper), alt_project(raw, lower))
    rhs = alt_project(raw_coboundary, upper)
    assert np.allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2])
def test_coboundary_of_alt_tensor_prepends_ones(p):
    # delta Alt(f_1 x .. x f_p) == (p + 1) Alt(1 x f_1 x .. x f_p).
    rng = np.random.default_rng(17 + p)
    lower = full_tuples(7, p - 1)
    upper = full_tuples(7, p)
    fs = [rng.uniform(-1.0, 1.0, 7) for _ in range(p)]
    lhs = coboundary_apply(build_coboundary(lower, upper), alt_tensor(fs, lower))
    rhs = alt_tensor([np.ones(7)] + fs, upper)
    assert np.allclose(lhs.values, (p + 1) * rhs.values, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_alt_tensor_cone_expansion(p):
    # Alt(f_0 x .. x f_p)(x_0..x_p) equals
    # (1/(p+1)) sum_k (-1)^k f_k(x_0) Alt(.. omit f_k ..)(x_1..x_p).
    rng = np.random.default_rng(23 + p)
    upper = full_tuples(7, p)
    lower = full_tuples(7, p - 1)
    fs = [rng.uniform(-1.0, 1.0, 7) for _ in range(p + 1)]
    F = alt_tensor(fs, upper)
    partial = [alt_tensor(fs[:k] + fs[k + 1 :], lower) for k in range(p + 1)]
    for row in upper.tuples.tolist():
        want = sum(
            (-1) ** k * fs[k][row[0]] * partial[k].evaluate(tuple(row[1:]))
            for k in range(p + 1)
        ) / (p + 1)
        assert F.evaluate(tuple(row)) == pytest.approx(want, rel=1e-12, abs=1e-14)


# --- elementary forms --------------------------------------------------------


def test_elementary_form_on_pairs():
    rng = np.random.default_rng(31)
    ts = full_tuples(6, 1)
    g = rng.uniform(0.5, 1.5, 6)
    f = rng.uniform(-1.0, 1.0, 6)
    E = elementary_form(g, [f], ts)
    for (i, j), val in zip(ts.tuples.tolist(), E.values):
        assert val == pytest.approx(0.5 * (g[i] + g[j]) * (f[j] - f[i]), rel=1e-14)


def test_elementary_form_hand_value_on_triangle():
    # Three points with potentials f_1 = (0, 1, 2) and f_2 = (0, 1, 4):
    # (1/2!) det [[1, 2], [1, 4]] = 1, and g == 1 leaves it unchanged.
    ts = TupleSet(2, np.array([[0, 1, 2]]))
    E = elementary_form(1.0, [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0])], ts)
    assert E.values[0] == 1.0


def test_elementary_form_repeated_potentials_vanish():
    ts = full_tuples(5, 2)
    f = np.linspace(0.0, 2.0, 5)
    E = elementary_form(3.0, [f, f], ts)
    assert np.allclose(E.values, 0.0, atol=1e-15)


def test_elementary_form_degree_zero_is_g():
    ts = full_tuples(4, 0)
    g = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(elementary_form(g, [], ts).values, g)


def test_elementary_form_needs_p_potentials():
    ts = full_tuples(4, 2)
    with pytest.raises(CochainError, match="potential"):
        elementary_form(1.0, [np.zeros(4)], ts)


@pytest.mark.parametrize("p", [1, 2])
def test_elementary_and_alt_tensor_share_coboundary(p):
    # delta(gbar * delta Alt(f)) == delta Alt(g x f_1 x .. x f_p): the averaged
    # coefficient and the plain tensor differ by something closed.
    rng = np.random.default_rng(41 + p)
    lower = full_tuples(7, p)
    upper = full_tuples(7, p + 1)
    op = build_coboundary(lower, upper)
    g = rng.uniform(0.5, 1.5, 7)
    fs = [rng.uniform(-1.0, 1.0, 7) for _ in range(p)]
    lhs = coboundary_apply(op, elementary_form(g, fs, lower))
    rhs = coboundary_apply(op, alt_tensor([g] + fs, lower))
    assert np.allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-13)


# --- module structure --------------------------------------------------------


def test_multiply_power_multiplies_over_every_slot():
    rng = np.random.default_rng(51)
    ts = full_tuples(6, 2)
    F = random_cochain(rng, ts)
    chi = rng.uniform(0.5, 2.0, 6)
    G = multiply_power(chi, F)
    for r, (a, b, c) in enumerate(ts.tuples.tolist()):
        # Multiply in the implementation's association order so the float
        # comparison can stay exact.
        assert G.values[r] == (chi[a] * chi[b] * chi[c]) * F.values[r]


def test_cup_average_is_alt_of_raw_cup():
    # Alt(g cup F) == gbar * F when F is already antisymmetric.
    rng = np.random.default_rng(52)
    ts = full_tuples(6, 1)
    F = random_cochain(rng, ts)
    g = rng.uniform(-1.0, 1.0, 6)
    cup = alt_project(lambda idx: g[idx[0]] * F.evaluate(idx), ts)
    avg = cup_average(g, F)
    assert np.allclose(cup.values, avg.values, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_symmetrized_multiplier_identity(p):
    # Sym(g) * Alt(f) == (1/(p+1)!) sum_pi Alt(g_pi(0) f_0 x .. x g_pi(p) f_p)
    # and the same with Alt replaced by Sym on both sides.
    rng = np.random.default_rng(61 + p)
    ts = full_tuples(6, p)
    gs = [rng.uniform(0.5, 1.5, 6) for _ in range(p + 1)]
    fs = [rng.uniform(-1.0, 1.0, 6) for _ in range(p + 1)]
    sym_g = sym_project(tensor_evaluator(gs), ts)
    fact = math.factorial(p + 1)

    alt_lhs = sym_g.values * alt_tensor(fs, ts).values
    alt_rhs = np.zeros(ts.size)
    for pi in itertools.permutations(range(p + 1)):
        alt_rhs += alt_tensor([gs[pi[m]] * fs[m] for m in range(p + 1)], ts).values
    assert np.allclose(alt_lhs, alt_rhs / fact, rtol=1e-12, atol=1e-13)

    sym_lhs = sym_g.values * sym_project(tensor_evaluator(fs), ts).values
    sym_rhs = np.zeros(ts.size)
    for pi in itertools.permutations(range(p + 1)):
        sym_rhs += sym_project(
            tensor_evaluator([gs[pi[m]] * fs[m] for m in range(p + 1)]), ts
        ).values
    assert np.allclose(sym_lhs, sym_rhs / fact, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_coboundary_of_cutoff_multiple_splits(p):
    # delta(chi^{x(p+1)} Alt f) splits into the cutoff-carried coboundary plus
    # one increment term per slot:
    #   chi(x_1)..chi(x_{p+1}) (delta Alt f)(x)
    #   + sum_k (-1)^(k-1) chi(x_1)..chi(x_{k-1})
    #       (chi(x_k) - chi(x_0)) chi(x_{k+1})..chi(x_{p+1})
    #       Alt(f)(x_0,..omit x_k..,x_{p+1}).
    rng = np.random.default_rng(71 + p)
    n = 7
    lower = full_tuples(n, p)
    upper = full_tuples(n, p + 1)
    op = build_coboundary(lower, upper)
    chi = rng.uniform(0.2, 1.0, n)
    fs = [rng.uniform(-1.0, 1.0, n) for _ in range(p + 1)]
    F = alt_tensor(fs, lower)
    lhs = coboundary_apply(op, multiply_power(chi, F))
    dF = coboundary_apply(op, F)
    for r, row in enumerate(upper.tuples.tolist()):
        carried = np.prod(chi[row[1:]]) * dF.values[r]
        increments = 0.0
        for k in range(1, p + 2):
            pref = np.prod(chi[row[1:k]], initial=1.0)
            suff = np.prod(chi[row[k + 1 :]], initial=1.0)
            face = tuple(row[:k] + row[k + 1 :])
            increments += (
                (-1) ** (k - 1)
                * pref
                * (chi[row[k]] - chi[row[0]])
                * suff
                * F.evaluate(face)
            )
        assert lhs.values[r] == pytest.approx(carried + increments, rel=1e-12, abs=1e-13)


# --- cone contraction --------------------------------------------------------


def test_cone_contraction_values_and_signs():
    rng = np.random.default_rng(81)
    upper = full_tuples(6, 2)
    lower = full_tuples(6, 1)
    F = random_cochain(rng, upper)
    K = cone_contraction(F, 3, lower)
    for r, row in enumerate(lower.tuples.tolist()):
        want = 0.0 if 3 in row else F.evaluate((3,) + tuple(row))
        assert K.values[r] == want


@pytest.mark.parametrize("p", [1, 2])
def test_cone_is_a_contracting_homotopy_on_full_systems(p):
    # delta(K F) + K(delta F) == F with K the apex contraction.
    rng = np.random.default_rng(91 + p)
    n = 6
    sets = [full_tuples(n, q) for q in range(p + 2)]
    F = random_cochain(rng, sets[p])
    dK = coboundary_apply(
        build_coboundary(sets[p - 1], sets[p]), cone_contraction(F, 0, sets[p - 1])
    )
    Kd = cone_contraction(
        coboundary_apply(build_coboundary(sets[p], sets[p + 1]), F), 0, sets[p]
    )
    assert np.allclose(dK.values + Kd.values, F.values, rtol=1e-12, atol=1e-13)


def test_cone_contraction_error_cases():
    rng = np.random.default_rng(99)
    upper = full_tuples(5, 1)
    F = random_cochain(rng, upper)
    with pytest.raises(CochainError, match="degree-0"):
        cone_contraction(Cochain(0, full_tuples(5, 0), np.zeros(5)), 0, full_tuples(5, 0))
    with pytest.raises(CochainError, match="one degree below"):
        cone_contraction(F, 0, full_tuples(5, 1))
    space = gen_interval(5)
    narrow = enumerate_tuples(space, rips_system(0.3), 1)
    G = Cochain(1, narrow, np.zeros(narrow.size))
    with pytest.raises(CochainError, match="full system"):
        cone_contraction(G, 4, full_tuples(5, 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=2))
def test_projected_tensors_are_antisymmetric(seed, p):
    rng = np.random.default_rng(seed)
    ts = full_tuples(5, p)
    fs = [rng.uniform(-1.0, 1.0, 5) for _ in range(p + 1)]
    F = alt_tensor(fs, ts)
    row = tuple(ts.tuples[rng.integers(ts.size)])
    perm = tuple(rng.permutation(row))
    assert F.evaluate(perm) == pytest.approx(
        permutation_parity(np.argsort(perm)) * F.evaluate(row), rel=1e-12, abs=1e-15
    )
