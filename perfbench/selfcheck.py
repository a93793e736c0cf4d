"""Show that the output checks catch a wrong answer.

    python3 perfbench/selfcheck.py [workload ...]

For each workload (default: all four) this runs the benchmark with one
expected value deliberately altered (a wrong Betti tuple, or a flipped
removability verdict) and requires the run to report the failure:
`correct` false, `failed` at least 1 and `pass_ratio` below 1. Exits 1 if
any corrupted run is reported as a pass. Run from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def corrupted_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0", "--corrupt"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    bad = 0
    for workload in sys.argv[1:] or WORKLOADS:
        res = corrupted_run(workload)
        ratio = res["metrics"]["pass_ratio"]["value"]
        caught = not res["correct"] and res["failed"] >= 1 and ratio < 1.0
        bad += not caught
        print(f"{workload}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"pass_ratio={ratio:.4f} -> {'caught' if caught else 'MISSED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
