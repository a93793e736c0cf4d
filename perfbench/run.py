"""nlhodge benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: scale_probe, sweep, gluing,
capacity_ladder (see workloads.py). Every pass runs in a fresh worker process
with BLAS pinned to one thread, and its outputs are checked.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one workload pass (checks excluded),
               rescaled to a reference machine speed by a calibration
               kernel timed between the passes (see worker.Calibration)
  peak_rss_mb  peak resident memory of the worker process
  setup_s      median time from process start to `ready` (imports done and
               inputs generated) over SETUP_SAMPLES fresh processes
  pass_ratio   output checks passed / checks attempted (1 when all pass)
--trace 1 reports per-layer self times and counts from traced passes, the
time no span covers (trace.unattributed_s) and the tracing overhead
(trace.overhead_s, traced minus untraced pass time).

The last stdout line is the JSON result; the lines before it record the
machine and the raw pass and calibration times. The full record, and for traced runs the spans, go to
.perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # set-up-only processes, plus the measuring worker itself
TIMEOUT_S = 170
BLAS_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "ratio"}


def proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        **versions,
        "blas_pin": BLAS_PIN,
    }


class Worker:
    """A worker process; `ready_s` is the time from its start to set-up done."""

    def __init__(self, args, tag: str, extra: list[str]):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(args.out_dir / f"work-{tag}")] + extra
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, **BLAS_PIN})
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise SystemExit(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit(f"worker timed out after {TIMEOUT_S} s")
        if self.proc.returncode != 0:
            raise SystemExit(f"worker exited with {self.proc.returncode}")
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one expected value; the run must then report failures")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nlhodge" / "__init__.py").is_file():
        print(f"error: no nlhodge sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    args.out_dir = root / ".perfbench_out"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"

    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            probe = Worker(args, f"{run_id}-setup{i}", ["--setup-only"])
            probe.finish()
            setup.append(probe.ready_s)
    extra = ["--corrupt"] if args.corrupt else []
    if args.trace:
        extra += ["--out", str(args.out_dir / f"spans-{run_id}.json")]
    worker = Worker(args, run_id, extra)
    setup.append(worker.ready_s)
    lines = worker.finish().splitlines()
    if not lines or not lines[-1].startswith("result "):
        raise SystemExit("worker printed no result")
    res = json.loads(lines[-1][len("result "):])

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in res["layers"].items()}
    else:
        values = {"wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(setup),
                  "pass_ratio": (attempted - failed) / attempted}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    machine = machine_record(res["versions"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_samples_s": setup,
              "worker": res, "metrics": metrics}
    args.out_dir.mkdir(exist_ok=True)
    (args.out_dir / f"record-{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(machine))
    print("raw " + json.dumps({k: res[k] for k in ("raw_wall_s", "pass_walls_s", "calibration_s")}))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
