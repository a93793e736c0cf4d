"""One benchmark process: import nlhodge, build the inputs, run timed passes.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
the repository root as working directory. It prints `ready` once set-up is
done (run.py times set-up up to that line), then runs passes for about
`--seconds` (at least one, never starting one that would end past the
limit), and last prints a `result {json}` line.

A calibration kernel is timed before every pass and after the last; the
median pass time is reported rescaled by it (`wall_s`) and raw
(`raw_wall_s`). Untraced passes run with nothing patched. Traced runs
alternate an untraced and a traced pass, so the tracing overhead is measured
in the same process, and write the spans of the traced passes to `--out`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

# Calibration time that defines the reference speed: wall_s reports pass
# times as they would read on a machine where one Calibration() takes this.
REF_CALIBRATION_S = 0.2

MODULES = ("space", "neighborhoods", "kernels", "cochains", "hodge", "cohomology",
           "covers", "capacity", "cli")


def import_nlhodge(src: Path):
    """The nlhodge modules of this checkout, never an installed copy."""
    sys.path.insert(0, str(src))
    nl = types.SimpleNamespace(**{m: importlib.import_module(f"nlhodge.{m}") for m in MODULES})
    origin = Path(nl.space.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"nlhodge imported from {origin}, outside {src}")
    return nl


class Calibration:
    """Times a fixed mix of work that does not touch nlhodge: lookups of int
    tuples in a dict, an in-place modular product over a 4 MB array, and
    small dense eigensolves, in about equal shares.

    On a shared machine every pass slows and speeds up with phases of other
    load lasting minutes; this kernel, timed next to the passes in the same
    process, slows with them. Its data stay allocated (about 10 MB), so they
    add a constant to the peak RSS.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self.sym = a + a.T
        self.big = rng.integers(0, 2**31 - 1, size=500_000, dtype=np.int64)
        self.tmp = np.empty_like(self.big)
        self.keys = [(i, i + 1, i + 2) for i in range(20_000)]
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            for k in self.keys:
                self.index[k]
        for _ in range(24):
            np.multiply(self.big, 48271, out=self.tmp)
            np.remainder(self.tmp, 2147483647, out=self.tmp)
        for _ in range(14):
            np.linalg.eigvalsh(self.sym)
        return time.perf_counter() - t0


def timed_pass(workload, nl, rec=None):
    if rec is None:
        t0 = time.perf_counter()
        out = workload.run(nl)
        return time.perf_counter() - t0, out
    uninstall = tracing.install(nl, rec)
    try:
        root = rec.open(tracing.ROOT)
        out = workload.run(nl)
        rec.close(root)
    finally:
        uninstall()
    _, start, end, _ = rec.spans[root]
    return end - start, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, help="file for the spans of a traced run")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one expected value, to show the checks catch it")
    args = ap.parse_args()

    import scipy

    nl = import_nlhodge(Path.cwd() / "src")
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.corrupt:
            workload.corrupt()

        calibrate = Calibration()
        checks, plain, traced, layers, spans, calib = [], [], [], [], [], []
        min_passes = getattr(workload, "MIN_PASSES", 1)
        start = last = time.perf_counter()
        step = 0.0
        # start no pass that would end past --seconds, judged by the last one
        while len(plain) < min_passes or last - start + step <= args.seconds:
            calib.append(calibrate())
            wall, out = timed_pass(workload, nl)
            plain.append(wall)
            checks += workload.check(out)
            del out  # so the next pass starts from the same memory
            if args.trace:
                rec = tracing.Recorder()
                wall, out = timed_pass(workload, nl, rec)
                traced.append(wall)
                checks += workload.check(out)
                del out
                layers.append(tracing.layer_metrics(rec))
                spans.append(rec.spans)
            step = time.perf_counter() - last
            last += step
        calib.append(calibrate())
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    result = {
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "pass_walls_s": plain,
        "calibration_s": calib,
        "raw_wall_s": statistics.median(plain),
        "wall_s": statistics.median(plain) * REF_CALIBRATION_S / statistics.median(calib),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        # counts repeat exactly from pass to pass; times vary, so take their median
        metrics = {k: statistics.median(layer[k] for layer in layers) if tracing.unit(k) == "s"
                   else layers[0][k] for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = metrics
        result["traced_walls_s"] = traced
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            fields = ("name", "start", "end", "parent")
            payload = [{"pass": i, "spans": [dict(zip(fields, s)) for s in pass_spans]}
                       for i, pass_spans in enumerate(spans)]
            args.out.write_text(json.dumps(payload) + "\n")
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
