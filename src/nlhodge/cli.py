"""Command-line interface: betti, sweep, and verify subcommands.

Exit codes: 0 success, 1 usage or configuration errors, 2 verification
failures, or a spectral count that disagrees with exact Betti or that either
route leaves uncertain. `betti` writes JSON reports (schema 2), `verify`
JSON (schema 1), `sweep` CSV, all with sorted keys and fixed column order;
repeated runs with the same configuration produce byte-identical files.

NLH_THREADS caps the worker threads of the exact triangle scan that checks
every input metric (row blocks split across threads); unset, the cap is the
number of CPUs the process may run on. It must be a positive integer, else
exit 1. BLAS pools stay pinned to one thread and the scan's verdict does not
depend on the cap, so every report is byte-identical at any cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import thread_cap

USAGE_EXIT = 1
VERIFY_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _pin_threads() -> None:
    """Check NLH_THREADS (ValueError if invalid) and pin BLAS pools before numpy loads."""
    thread_cap()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _build_space(args):
    from . import space as spc

    kind = args.space
    if kind == "circle":
        return spc.gen_circle(args.n, args.radius)
    if kind == "interval":
        return spc.gen_interval(args.n)
    if kind == "two_components":
        return spc.gen_two_components(args.n_each, args.gap)
    if kind == "punctured_interval":
        return spc.gen_punctured_interval(args.n, args.hole_center, args.hole_radius)
    if kind == "sphere":
        return spc.gen_sphere(args.n)
    if not args.dist:  # --space file
        raise ValueError("--space file needs --dist PATH")
    return spc.load_distance_matrix(args.dist, args.weights)


def _build_system(args, eps):
    from . import neighborhoods as nb

    if args.system == "full":
        return nb.full_system()
    if eps is None:
        raise ValueError(f"{args.system} system needs --eps")
    if args.system == "rips":
        return nb.rips_system(eps, strict=not args.closed_eps)
    return nb.hausdorff_system(eps)


def _build_kernel(args, n: int, alpha):
    from . import kernels as kn

    if args.kernel == "constant":
        return kn.constant_kernel(args.scale)
    if args.kernel == "fractional":
        if alpha is None:
            raise ValueError("fractional kernel needs --alpha")
        return kn.fractional_kernel(args.d, alpha, scale=args.scale)
    if args.kernel == "truncated":
        if alpha is None or args.eps_trunc is None:
            raise ValueError("truncated kernel needs --alpha and --eps-trunc")
        return kn.truncated_fractional_kernel(
            args.d, alpha, args.eps_trunc, scale=args.scale, floor=args.floor
        )
    if not args.kernel_table:  # --kernel table
        raise ValueError("table kernel needs --kernel-table PATH")
    return kn.load_kernel_table(args.kernel_table, n)


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(payload: dict, path: str) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def cmd_betti(args) -> int:
    from .hodge import build_weighted_complex, hodge_report
    from .cohomology import exact_betti, compare_numeric_exact

    space = _build_space(args)
    system = _build_system(args, args.eps)
    kernel = _build_kernel(args, space.n, args.alpha)
    cx = build_weighted_complex(space, system, kernel, args.pmax)
    params = {
        "space": args.space,
        "n": space.n,
        "system": args.system,
        "eps": args.eps,
        "kernel": args.kernel,
        "alpha": args.alpha,
        "d": args.d,
        "scale": args.scale,
        "p_max": args.pmax,
    }
    betti = exact_betti(cx, parameters=params)
    reports = [hodge_report(cx, p, oracle=betti.betti[p]) for p in range(args.pmax + 1)]
    agreement = compare_numeric_exact(reports, betti)
    if args.out:
        _write_json(betti.to_json(), os.path.join(args.out, "betti_report.json"))
        _write_json(
            {
                "schema": 2,
                "degrees": [
                    {**r.to_json(), "status": s} for r, s in zip(reports, agreement.status)
                ],
                "agreement": agreement.to_json(),
                "parameters": params,
            },
            os.path.join(args.out, "hodge_report.json"),
        )
    for p, status in enumerate(agreement.status):
        harmonic = reports[p].harmonic_dim
        flag = " flagged" if reports[p].flagged else ""
        print(
            f"p={p} betti={betti.betti[p]}"
            f" harmonic={'none' if harmonic is None else harmonic}"
            f" dim={betti.dims[p]}{flag}{' uncertain' if status == 'uncertain' else ''}"
        )
    return _agreement_exit(agreement.status)


def _agreement_exit(statuses) -> int:
    """Exit 2, naming why on stderr, unless every degree's counts agree."""
    if "disagree" in statuses:
        print("DISAGREEMENT between spectral and exact counts", file=sys.stderr)
    if "uncertain" in statuses:
        print("UNCERTAIN spectral or exact count", file=sys.stderr)
    return 0 if all(s == "agree" for s in statuses) else VERIFY_EXIT


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from .hodge import build_weighted_complex, hodge_report
    from .cohomology import exact_betti, compare_numeric_exact
    from .kernels import assemble_weights

    space = _build_space(args)
    eps_grid = [float(v) for v in args.eps_grid.split(",")]
    alpha_grid = [float(v) for v in args.alpha_grid.split(",")]
    lines = []
    header = ["eps", "alpha"]
    for p in range(args.pmax + 1):
        header += [f"betti_{p}", f"harmonic_{p}", f"min_pos_eig_{p}"]
    lines.append(",".join(header))
    # constant and table kernels ignore alpha, so one build serves the whole grid
    if args.kernel in ("constant", "table"):
        kernels = dict.fromkeys(alpha_grid, _build_kernel(args, space.n, None))
    else:
        kernels = {alpha: _build_kernel(args, space.n, alpha) for alpha in alpha_grid}
    statuses = ()
    for eps in eps_grid:
        # one complex per eps, reweighted per alpha; exact ranks read only its coboundaries
        system = _build_system(args, eps)
        base = build_weighted_complex(space, system, kernels[alpha_grid[0]], args.pmax)
        betti = exact_betti(base)
        reports = {}  # by kernel identity: alphas sharing one kernel share its reports
        for alpha in alpha_grid:
            k = kernels[alpha]
            if id(k) not in reports:
                cx = base if k is base.kernel else replace(
                    base, kernel=k,
                    weights=[assemble_weights(k, space, ts) for ts in base.tuple_sets],
                )
                reports[id(k)] = [
                    hodge_report(cx, p, oracle=betti.betti[p]) for p in range(args.pmax + 1)
                ]
            row = [f"{eps:.17g}", f"{alpha:.17g}"]
            for p, rep in enumerate(reports[id(k)]):
                # the eigenvalues ascend, so the lowest non-harmonic one sits
                # at index harmonic_dim, if the eigensolve computed it
                h = rep.harmonic_dim
                computed = h is not None and h < len(rep.eigenvalues)
                min_pos = rep.eigenvalues[h] if computed else float("nan")
                harmonic = "uncertain" if h is None else str(h)
                row += [str(betti.betti[p]), harmonic, f"{min_pos:.17g}"]
            lines.append(",".join(row))
            statuses += compare_numeric_exact(reports[id(k)], betti).status
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(os.path.join(args.out, "sweep.csv"), text)
    print(text, end="")
    return _agreement_exit(statuses)


def _suite_identity():
    import numpy as np

    from .space import gen_circle, gen_interval
    from .neighborhoods import rips_system, hausdorff_system
    from .kernels import fractional_kernel
    from .cochains import (
        Cochain, alt_project, alt_tensor, coboundary_apply, cup_average, elementary_form,
    )
    from .hodge import (
        build_weighted_complex, adjoint_matrix, hodge_decompose, multiplier_bound_check,
    )
    from .covers import default_cover, partition_of_unity

    checks = []
    rng = np.random.default_rng(7)
    space = gen_circle(24)
    cx = build_weighted_complex(space, rips_system(0.8), fractional_kernel(1, 0.5), 2)
    comp = cx.coboundary(1).matrix @ cx.coboundary(0).matrix
    checks.append(("coboundary-squares-to-zero", comp.nnz == 0 or not comp.data.any(), ""))
    F = Cochain(0, cx.tuple_sets[0], rng.standard_normal(cx.dim(0)))
    G = Cochain(1, cx.tuple_sets[1], rng.standard_normal(cx.dim(1)))
    dF = cx.coboundary(0).matrix @ F.values
    aG = adjoint_matrix(cx, 0) @ G.values
    lhs = cx.inner(1, dF, G.values)
    rhs = cx.inner(0, F.values, aG)
    checks.append(
        ("adjoint-identity", abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0),
         f"|lhs-rhs|={abs(lhs - rhs):.2e}")
    )
    def ev(idx):
        return float(np.sin(idx[0]) + 2.0 * idx[1] - 0.3 * idx[0] * idx[1])

    A1 = alt_project(ev, cx.tuple_sets[1])
    A2 = alt_project(lambda idx: A1.evaluate(idx), cx.tuple_sets[1])
    checks.append(
        ("alt-idempotent", np.allclose(A1.values, A2.values, atol=1e-12), "")
    )
    ispace = gen_interval(32)
    isys = hausdorff_system(0.2)
    icx = build_weighted_complex(ispace, isys, fractional_kernel(1, 0.5), 2)
    cov = default_cover(ispace, isys)
    worst = 0.0
    for p in range(3):
        t = icx.tuple_sets[p].tuples
        if t.size:
            worst = max(worst, float(np.abs(partition_of_unity(cov, t).sum(axis=0) - 1.0).max()))
    checks.append(("partition-sums-to-one", worst <= 1e-14, f"worst={worst:.2e}"))
    # the elementary form's determinant is the averaged coboundary of Alt(f_1 x .. x f_p)
    worst = 0.0
    for p in (1, 2):
        fs = [rng.standard_normal(space.n) for _ in range(p)]
        g = rng.standard_normal(space.n)
        via_tensor = cup_average(
            g, coboundary_apply(cx.coboundary(p - 1), alt_tensor(fs, cx.tuple_sets[p - 1]))
        ).values
        via_det = elementary_form(g, fs, cx.tuple_sets[p]).values
        worst = max(worst, float(np.abs(via_det - via_tensor).max() / np.abs(via_tensor).max()))
    checks.append(("elementary-form-determinant", worst <= 1e-11, f"worst={worst:.2e}"))
    worst = 0.0
    for p in range(3):
        F = Cochain(p, cx.tuple_sets[p], rng.standard_normal(cx.dim(p)))
        worst = max(worst, *hodge_decompose(cx, p, F).residuals.values())
    checks.append(("hodge-decomposition", worst < 1e-8, f"worst={worst:.2e}"))
    pairs = [(p, rng.uniform(-2.0, 2.0, space.n), rng.standard_normal(cx.dim(p)))
             for p in rng.integers(0, 3, size=30).tolist()]
    results = [multiplier_bound_check(cx, p, chi, Cochain(p, cx.tuple_sets[p], f))
               for p, chi, f in pairs]
    ratio = max(r.lhs / r.rhs for r in results)
    checks.append(
        ("multiplier-bound", all(r.passed for r in results),
         f"{len(results)} pairs, max lhs/rhs={ratio:.3f}")
    )
    return checks


def _hausdorff_setups(p_max: int):
    """(name, complex to p_max, default cover) of circle32 and interval32 with Hausdorff systems."""
    from .space import gen_circle, gen_interval
    from .neighborhoods import hausdorff_system
    from .kernels import fractional_kernel
    from .hodge import build_weighted_complex
    from .covers import default_cover

    for name, space, eps in (
        ("circle", gen_circle(32), 0.5),
        ("interval", gen_interval(32), 0.2),
    ):
        system = hausdorff_system(eps)
        cx = build_weighted_complex(space, system, fractional_kernel(1, 0.5), p_max)
        yield name, cx, default_cover(space, system)


def _suite_poincare():
    from .covers import poincare_suite, SliceEmptyError

    checks = []
    for name, cx, cov in _hausdorff_setups(2):
        try:
            results = poincare_suite(cov, cx, p_check=2, max_depth=2)
            worst = max((r.max_residual for r in results), default=0.0)
            checks.append(
                (f"homotopy-identity-{name}", worst <= 1e-12,
                 f"{len(results)} intersections, worst={worst:.2e}")
            )
        except SliceEmptyError as exc:
            checks.append((f"homotopy-identity-{name}", False, str(exc)))
    return checks


def _suite_mv():
    from .covers import REFERENCE_BETTI, mayer_vietoris_check, cech_nerve_betti

    checks = []
    for name, cx, cov in _hausdorff_setups(2):
        for p in range(3):
            cert = mayer_vietoris_check(cx, cov, p=p, q_max=1)
            checks.append(
                (f"mv-exact-{name}-p{p}", cert.exact,
                 f"rows={[r['exact'] for r in cert.rows]} recon={cert.reconstruction_ok}")
            )
        nerve = cech_nerve_betti(cov, q_max=1)
        uncertain = any(nerve.uncertain)
        checks.append(
            (f"cech-nerve-{name}", nerve.betti[:2] == REFERENCE_BETTI[name][:2] and not uncertain,
             f"{nerve.betti}{' uncertain' if uncertain else ''}")
        )
    return checks


def _suite_capacity():
    from .capacity import removability_sweep

    rep = removability_sweep()
    checks = [
        ("removability-alpha-0.5", rep.verdict_for(0.5) == "removable", rep.verdict_for(0.5)),
        ("removability-alpha-1.5", rep.verdict_for(1.5) == "non-removable", rep.verdict_for(1.5)),
    ]
    return checks, rep.to_csv()


def _suite_recovery():
    """de Rham recovery: spectral, exact and (with a cover) Cech Betti numbers
    against the generator's reference, at alpha = 0.5."""
    from .space import gen_sphere
    from .neighborhoods import rips_system
    from .kernels import fractional_kernel
    from .hodge import build_weighted_complex
    from .covers import derham_recovery_report

    # the sphere's default cover is too large at n=200 for the nerve route to add signal
    sphere = build_weighted_complex(
        gen_sphere(200), rips_system(0.45), fractional_kernel(2, 0.5), 2
    )
    checks = []
    for name, cx, cov in [*_hausdorff_setups(1), ("sphere", sphere, None)]:
        rep = derham_recovery_report(cx, cov)
        flagged = [p for p, f in enumerate(rep["spectral_flagged"]) if f]
        cech = f" cech={rep['cech']}" if "cech" in rep else ""
        if any(rep.get("cech_uncertain", ())):
            cech += " uncertain"
        checks.append(
            (f"recovery-{name}", rep["all_agree"],
             f"reference={rep['reference']} exact={rep['exact']} spectral={rep['spectral']}"
             f"{cech} flagged={flagged}")
        )
    return checks


def cmd_verify(args) -> int:
    checks = []
    removability_csv = None
    if args.suite in ("identity", "all"):
        checks += _suite_identity()
    if args.suite in ("poincare", "all"):
        checks += _suite_poincare()
    if args.suite in ("mv", "all"):
        checks += _suite_mv()
    if args.suite in ("capacity", "all"):
        cap_checks, removability_csv = _suite_capacity()
        checks += cap_checks
    if args.suite in ("recovery", "all"):
        checks += _suite_recovery()
    if args.dist:
        from .space import load_distance_matrix, SpaceValidationError

        try:
            space = load_distance_matrix(args.dist, args.weights)
            checks.append(("file-space-valid", True, f"n={space.n}"))
        except (SpaceValidationError, OSError) as exc:
            checks.append(("file-space-valid", False, str(exc)))
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
    if args.out:
        payload = {
            "schema": 1,
            "suite": args.suite,
            "checks": [
                {"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks
            ],
            "failed": len(failed),
        }
        _write_json(payload, os.path.join(args.out, "verify.json"))
        if removability_csv is not None:
            _write(os.path.join(args.out, "removability.csv"), removability_csv)
    return VERIFY_EXIT if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nlhodge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--space", default="circle",
                       choices=["circle", "interval", "two_components",
                                "punctured_interval", "sphere", "file"])
        p.add_argument("--n", type=int, default=32)
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--n-each", type=int, default=16)
        p.add_argument("--gap", type=float, default=0.5)
        p.add_argument("--hole-center", type=float, default=0.5)
        p.add_argument("--hole-radius", type=float, default=0.0)
        p.add_argument("--dist", default=None, help="distance matrix CSV for --space file")
        p.add_argument("--weights", default=None, help="weight sidecar, one value per line")
        p.add_argument("--system", default="rips", choices=["full", "rips", "hausdorff"])
        p.add_argument("--closed-eps", action="store_true",
                       help="use <= eps instead of < eps for rips admissibility")
        p.add_argument("--kernel", default="fractional",
                       choices=["fractional", "constant", "truncated", "table"])
        p.add_argument("--d", type=float, default=1.0)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--eps-trunc", type=float, default=None)
        p.add_argument("--floor", type=float, default=0.0)
        p.add_argument("--kernel-table", default=None)
        p.add_argument("--pmax", type=int, default=1)
        p.add_argument("--out", default=None, help="directory for report files")

    pb = sub.add_parser("betti", help="exact and spectral Betti numbers")
    add_common(pb)
    pb.add_argument("--eps", type=float, default=None)
    pb.add_argument("--alpha", type=float, default=None)
    pb.set_defaults(func=cmd_betti)

    ps = sub.add_parser("sweep", help="scale/order sweep to CSV")
    add_common(ps)
    ps.add_argument("--eps-grid", default="0.2,0.5,1.0")
    ps.add_argument("--alpha-grid", default="0.5,1.5")
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run bundled verification suites")
    pv.add_argument("--suite", default="all",
                    choices=["identity", "poincare", "mv", "capacity", "recovery", "all"])
    pv.add_argument("--dist", default=None)
    pv.add_argument("--weights", default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _pin_threads()
        rc = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return rc


if __name__ == "__main__":
    sys.exit(main())
