"""Acceptance gate: nine end-to-end criteria, one test and one printed line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines also on success). Each test prints

    [acceptance k/9] <label>: PASS|FAIL

and enforces its runtime budget where one applies.
"""

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nlhodge.space import gen_circle, gen_interval, gen_sphere, gen_two_components
from nlhodge.neighborhoods import enumerate_tuples, full_system, hausdorff_system, rips_system
from nlhodge.kernels import fractional_kernel
from nlhodge.cochains import (
    Cochain,
    alt_project,
    alt_tensor,
    build_coboundary,
    coboundary_apply,
    cup_average,
    elementary_form,
)
from nlhodge.hodge import (
    adjoint_matrix,
    build_weighted_complex,
    energy_norms,
    hodge_decompose,
    hodge_laplacian,
    hodge_report,
    multiplier_bound_check,
)
from nlhodge.cohomology import compare_numeric_exact, exact_betti
from nlhodge.covers import (
    CoverSystem,
    default_cover,
    derham_recovery_report,
    mayer_vietoris_check,
    partition_of_unity,
    poincare_suite,
)
from nlhodge.capacity import removability_sweep
from oracles import tensor_evaluator

REPO = Path(__file__).resolve().parents[1]
KERNEL = fractional_kernel(1.0, 0.5)


@contextlib.contextmanager
def criterion(num: int, label: str, cap_seconds: float | None = None):
    """Print one pass/fail line per criterion; enforce the runtime budget."""
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        if cap_seconds is not None and elapsed >= cap_seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, over its {cap_seconds:.0f}s budget"
            )
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        budget = "" if cap_seconds is None else f" ({elapsed:.2f}s of {cap_seconds:.0f}s budget)"
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance {num}/9] {label}: {status}{budget}", flush=True)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    scale = max(abs(a), abs(b), np.finfo(float).tiny)
    return abs(a - b) <= rtol * scale


# ---------------------------------------------------------------------------
# 1. Structural identities: exact coboundary square, projector algebra,
#    determinant evaluation, expansion and averaging identities.
# ---------------------------------------------------------------------------


def test_1_structural_identities():
    with criterion(1, "structural identities", cap_seconds=10.0):
        rng = np.random.default_rng(20260821)

        # coboundary composes to zero in exact integer arithmetic
        for complex_ in (
            build_weighted_complex(gen_circle(16), rips_system(0.9), KERNEL, 2),
            build_weighted_complex(gen_interval(8), full_system(), KERNEL, 2),
        ):
            for p in range(complex_.p_max):
                prod = complex_.coboundary(p + 1).matrix @ complex_.coboundary(p).matrix
                assert prod.dtype == np.int64
                assert prod.count_nonzero() == 0
            # the weighted adjoints square to zero up to roundoff
            A0 = adjoint_matrix(complex_, 0).toarray()
            A1 = adjoint_matrix(complex_, 1).toarray()
            prod = A0 @ A1
            scale = max(np.abs(A0).max() * np.abs(A1).max() * A0.shape[1], 1.0)
            assert np.abs(prod).max() <= 1e-12 * scale

        space = gen_interval(8)
        n = space.n
        system = full_system()
        tuple_sets = [enumerate_tuples(space, system, p) for p in range(4)]

        for p in (1, 2):
            ts = tuple_sets[p]
            fs = [rng.standard_normal(n) for _ in range(p + 1)]
            raw = tensor_evaluator(fs)

            # antisymmetrizer is idempotent
            F = alt_project(raw, ts)
            F2 = alt_project(F.evaluate, ts)
            assert np.allclose(F2.values, F.values, rtol=1e-12, atol=1e-12)

            # coboundary commutes with the antisymmetrizer
            ts_up = tuple_sets[p + 1]
            lhs = coboundary_apply(build_coboundary(ts, ts_up), F).values

            def raw_coboundary(idx, _raw=raw):
                total = 0.0
                for k in range(len(idx)):
                    total += (-1) ** k * _raw(tuple(idx[:k]) + tuple(idx[k + 1 :]))
                return total

            rhs = alt_project(raw_coboundary, ts_up).values
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

            # expansion of the antisymmetrizer along the first slot:
            # Alt(f_0 x .. x f_p)(x) equals the alternating average of
            # f_k(x_0) * Alt(drop f_k)(x_1..x_p).
            subs = [
                alt_project(tensor_evaluator(fs[:k] + fs[k + 1 :]), tuple_sets[p - 1])
                for k in range(p + 1)
            ]
            for _ in range(50):
                point = tuple(int(v) for v in rng.permutation(n)[: p + 1])
                left = F.evaluate(point)
                right = sum(
                    (-1) ** k * fs[k][point[0]] * subs[k].evaluate(point[1:])
                    for k in range(p + 1)
                ) / (p + 1)
                assert _rel_close(left, right, 1e-11) or abs(left - right) < 1e-12

            # averaging a 0-cochain against an antisymmetric F: projecting
            # g(x_0) * F(x) returns the tuple-average of g times F.
            g = rng.standard_normal(n)
            lhs_avg = alt_project(lambda idx: g[idx[0]] * F.evaluate(idx), ts).values
            rhs_avg = cup_average(g, F).values
            assert np.allclose(lhs_avg, rhs_avg, rtol=1e-12, atol=1e-12)

        # determinant evaluation of the elementary form equals the coboundary
        # of the antisymmetrized tensor, averaged against g: 100 random draws
        for _ in range(100):
            p = int(rng.integers(1, 3))
            fs = [rng.standard_normal(n) for _ in range(p)]
            g = rng.standard_normal(n)
            ts_lo, ts_hi = tuple_sets[p - 1], tuple_sets[p]
            via_tensor = cup_average(
                g, coboundary_apply(build_coboundary(ts_lo, ts_hi), alt_tensor(fs, ts_lo))
            )
            via_det = elementary_form(g, fs, ts_hi)
            assert np.allclose(via_det.values, via_tensor.values, rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# 2. Adjoint and Hodge accuracy at n = 64, degrees up to 2.
# ---------------------------------------------------------------------------


def test_2_adjoint_and_hodge_accuracy():
    with criterion(2, "adjoint/Hodge accuracy (n=64)", cap_seconds=30.0):
        rng = np.random.default_rng(64)
        complex_ = build_weighted_complex(
            gen_circle(64), rips_system(0.3), fractional_kernel(1.0, 0.5), 2
        )
        assert min(complex_.dim(p) for p in range(3)) > 0

        # adjoint pairing on 100 random pairs
        for p in (0, 1):
            B = complex_.coboundary(p).matrix
            A = adjoint_matrix(complex_, p)
            for _ in range(50):
                f = rng.standard_normal(complex_.dim(p))
                gvec = rng.standard_normal(complex_.dim(p + 1))
                lhs = complex_.inner(p + 1, B @ f, gvec)
                rhs = complex_.inner(p, f, A @ gvec)
                assert _rel_close(lhs, rhs, 1e-10)

        # symmetrized Laplacians are positive semidefinite
        for p in range(3):
            eigs = np.linalg.eigvalsh(hodge_laplacian(complex_, p))
            assert eigs.min() >= -1e-10 * max(abs(eigs.max()), 1.0)

        # three-part decomposition reconstructs and is orthogonal
        for p in range(3):
            F = Cochain(p, complex_.tuple_sets[p], rng.standard_normal(complex_.dim(p)))
            dec = hodge_decompose(complex_, p, F)
            assert all(v < 1e-8 for v in dec.residuals.values()), dec.residuals

        # energy route vs operator route for the ascending quadratic form
        for p in (0, 1):
            B = complex_.coboundary(p).matrix
            A = adjoint_matrix(complex_, p)
            for _ in range(50):
                F = Cochain(p, complex_.tuple_sets[p], rng.standard_normal(complex_.dim(p)))
                _, q_energy, _ = energy_norms(complex_, p, F)
                q_operator = complex_.inner(p, F.values, A @ (B @ F.values))
                assert _rel_close(q_energy, q_operator, 1e-10)


# ---------------------------------------------------------------------------
# 3. Reference Betti recovery on the bundled generator spaces, three routes.
# ---------------------------------------------------------------------------


def test_3_reference_betti_three_ways():
    with criterion(3, "reference Betti recovery", cap_seconds=120.0):
        # circle: spectral, exact-field, and nerve routes all give (1, 1, 0).
        # The four-ball cover has two-arc overlaps between opposite balls, so
        # the nerve route is exercised on locally-constant components.
        space = gen_circle(32)
        system = rips_system(0.3)
        complex_ = build_weighted_complex(space, system, KERNEL, 2)
        cover = CoverSystem(space, system, eps=0.3, eta=0.8, centers=np.array([0, 8, 16, 24]))
        rep = derham_recovery_report(complex_, cover)
        assert rep["exact"] == [1, 1, 0]
        assert rep["spectral"] == [1, 1, 0]
        assert rep["cech"] == [1, 1, 0]
        assert rep["all_agree"] and not any(rep["spectral_flagged"])

        # interval: all three routes give (1, 0, 0)
        space = gen_interval(32)
        system = hausdorff_system(0.2)
        complex_ = build_weighted_complex(space, system, KERNEL, 2)
        rep = derham_recovery_report(complex_, default_cover(space, system, every=4))
        assert rep["exact"] == [1, 0, 0]
        assert rep["spectral"] == [1, 0, 0]
        assert rep["cech"] == [1, 0, 0]
        assert rep["all_agree"] and not any(rep["spectral_flagged"])

        # two components separated by more than the scale: two classes at
        # degree zero, spectral and exact agree integrally (no cover here)
        complex_ = build_weighted_complex(gen_two_components(8, gap=3.0), rips_system(0.2), KERNEL, 1)
        betti = exact_betti(complex_)
        reports = [hodge_report(complex_, p, oracle=betti.betti[p]) for p in range(2)]
        agreement = compare_numeric_exact(reports, betti)
        assert betti.betti == (2, 0)
        assert agreement.spectral == (2, 0)
        assert agreement.all_agree

        # scale beyond the diameter: every tuple admissible, contractible
        complex_ = build_weighted_complex(gen_interval(8), full_system(), KERNEL, 2)
        betti = exact_betti(complex_)
        reports = [hodge_report(complex_, p, oracle=betti.betti[p]) for p in range(3)]
        agreement = compare_numeric_exact(reports, betti)
        assert betti.betti == (1, 0, 0)
        assert agreement.spectral == (1, 0, 0)
        assert agreement.all_agree


# ---------------------------------------------------------------------------
# 4. Kernel-model invariance: Betti identical, spectra genuinely different.
# ---------------------------------------------------------------------------


def test_4_kernel_invariance_of_betti():
    with criterion(4, "kernel invariance of Betti"):
        space = gen_circle(16)
        system = rips_system(0.9)
        kernels = {
            "base": fractional_kernel(1.0, 0.5),
            "rescaled": fractional_kernel(1.0, 0.5, scale=3.0),
            "swapped": fractional_kernel(1.0, 1.5),
        }
        betti = {}
        spectra = {}
        for name, kernel in kernels.items():
            complex_ = build_weighted_complex(space, system, kernel, 2)
            betti[name] = exact_betti(complex_).betti
            spectra[name] = np.linalg.eigvalsh(hodge_laplacian(complex_, 1))

        assert betti["base"] == betti["rescaled"] == betti["swapped"] == (1, 1, 0)
        # rescaling multiplies the spectrum by exactly the kernel factor ...
        assert np.allclose(spectra["rescaled"], 3.0 * spectra["base"], rtol=1e-10)
        # ... so the spectra themselves do change, as does the alpha swap
        assert not np.allclose(spectra["rescaled"], spectra["base"], rtol=1e-3)
        assert not np.allclose(spectra["swapped"], spectra["base"], rtol=1e-3)


# ---------------------------------------------------------------------------
# 5. Local contraction identity, gluing certificates, partition sums.
# ---------------------------------------------------------------------------


def test_5_contraction_and_gluing_on_default_covers():
    with criterion(5, "contraction + gluing on default covers"):
        for space, system in (
            (gen_circle(32), hausdorff_system(0.5)),
            (gen_interval(32), hausdorff_system(0.2)),
        ):
            complex_ = build_weighted_complex(space, system, KERNEL, 2)
            cover = default_cover(space, system)

            # averaged contraction inverts the coboundary on every ball and
            # pairwise intersection, as an operator identity
            checks = poincare_suite(cover, complex_, p_check=2, max_depth=2)
            assert checks
            assert max(c.max_residual for c in checks) <= 1e-12

            # gluing rank certificates are exact in integer arithmetic
            for p in range(3):
                cert = mayer_vietoris_check(complex_, cover, p, q_max=1)
                assert cert.exact and cert.injective

            # the subordinate partition sums to one on every admissible tuple
            for p in range(3):
                sums = partition_of_unity(cover, complex_.tuple_sets[p].tuples).sum(axis=0)
                assert np.abs(sums - 1.0).max() <= 1e-14


# ---------------------------------------------------------------------------
# 6. Graph-norm multiplier bound on random pairs, two spaces.
# ---------------------------------------------------------------------------


def test_6_multiplier_bound_random_pairs():
    with criterion(6, "graph-norm multiplier bound"):
        rng = np.random.default_rng(2026)
        spaces = (
            build_weighted_complex(gen_circle(32), hausdorff_system(0.5), KERNEL, 2),
            build_weighted_complex(gen_interval(32), hausdorff_system(0.2), KERNEL, 2),
        )
        for complex_ in spaces:
            checked = 0
            for _ in range(100):
                p = int(rng.integers(0, 3))
                chi = rng.uniform(-2.0, 2.0, size=complex_.space.n)
                F = Cochain(p, complex_.tuple_sets[p], rng.standard_normal(complex_.dim(p)))
                result = multiplier_bound_check(complex_, p, chi, F)
                assert result.passed, (p, result.lhs, result.rhs, result.constant)
                checked += 1
            assert checked == 100


# ---------------------------------------------------------------------------
# 7. Capacity ladder: hole capacity trend across grid resolutions.
# ---------------------------------------------------------------------------


def test_7_removability_trend():
    with criterion(7, "capacity removability trend", cap_seconds=60.0):
        report = removability_sweep()  # n in {50,...,800}, eps 0.25, alphas {0.5, 1.5}
        caps = {
            alpha: [row.capacity for row in report.rows if row.alpha == alpha]
            for alpha in (0.5, 1.5)
        }
        slopes = {row.alpha: row.slope for row in report.rows}

        # low order: capacity of the point hole decays with resolution
        assert all(b < a for a, b in zip(caps[0.5], caps[0.5][1:]))
        assert slopes[0.5] < -0.2
        assert report.verdict_for(0.5) == "removable"

        # high order: capacity stays flat across the ladder
        assert max(caps[1.5]) / min(caps[1.5]) < 1.25
        assert report.verdict_for(1.5) == "non-removable"


# ---------------------------------------------------------------------------
# 8. Sphere recovery at n = 200 with the calibrated scale.
# ---------------------------------------------------------------------------


def test_8_sphere_recovery():
    with criterion(8, "sphere Betti recovery (n=200)", cap_seconds=300.0):
        complex_ = build_weighted_complex(
            gen_sphere(200), rips_system(0.45), fractional_kernel(2.0, 0.5), 2
        )
        report = derham_recovery_report(complex_)
        # (1, 0, 1) is the bar; a flagged spectral count would mark the run
        # uncertain instead of silently passing, so assert it is clean too.
        assert report["exact"] == [1, 0, 1], report
        assert report["spectral_matches_exact"], report
        assert not any(report["spectral_flagged"]), report
        assert report["all_agree"], report


# ---------------------------------------------------------------------------
# 9. Determinism: byte-identical outputs across runs and thread caps.
# ---------------------------------------------------------------------------


def _run_cli(args, out_dir, threads):
    env = dict(os.environ)
    env["NLH_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "nlhodge", *args, "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_9_byte_identical_determinism(tmp_path):
    with criterion(9, "byte-identical determinism"):
        betti_args = [
            "betti", "--space", "circle", "--n", "12", "--eps", "1.1",
            "--alpha", "0.5", "--pmax", "1",
        ]
        sweep_args = [
            "sweep", "--space", "circle", "--n", "12", "--eps-grid", "0.8,1.2",
            "--alpha-grid", "0.5,1.5", "--pmax", "1",
        ]
        # circle n=48 has three row blocks: cap 4 validates it on three threads, cap 1 on one
        threaded_args = [
            "betti", "--space", "circle", "--n", "48", "--eps", "0.3",
            "--alpha", "0.5", "--pmax", "1",
        ]
        # the witness certificate proves the circles metric without the scan; this
        # sphere sample, read from a file, reaches the threaded scan
        sphere_path = tmp_path / "sphere48.csv"
        np.savetxt(sphere_path, gen_sphere(48).dist, fmt="%.17g", delimiter=",")
        file_args = [
            "betti", "--space", "file", "--dist", str(sphere_path), "--eps", "0.8",
            "--alpha", "0.5", "--d", "2", "--pmax", "2",
        ]
        runs = {}
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"run_{tag}"
            out.mkdir()
            stdout_b = _run_cli(betti_args, out, threads)
            stdout_s = _run_cli(sweep_args, out, threads)
            stdout_t = _run_cli(threaded_args, out / "n48", threads)
            stdout_f = _run_cli(file_args, out / "s48", threads)
            runs[tag] = (
                stdout_b,
                stdout_s,
                stdout_t,
                stdout_f,
                (out / "betti_report.json").read_bytes(),
                (out / "hodge_report.json").read_bytes(),
                (out / "sweep.csv").read_bytes(),
                (out / "n48" / "betti_report.json").read_bytes(),
                (out / "n48" / "hodge_report.json").read_bytes(),
                (out / "s48" / "betti_report.json").read_bytes(),
                (out / "s48" / "hodge_report.json").read_bytes(),
            )
        assert runs["a"] == runs["b"] == runs["c"]
