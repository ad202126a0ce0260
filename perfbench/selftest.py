"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

1. For every fault in ``faults.REACHES`` and every workload it reaches, runs
   ``run.py`` with the fault planted from outside ``ellhom`` and requires a
   nonzero exit code and ``failed > 0`` in the result line.
2. Runs one clean pass of every workload on the default and on the held-out
   seed and requires zero failures, and the same check count and output
   digest on both seeds.

Exits 0 when both hold. Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from faults import REACHES  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for fault, workloads in REACHES.items():
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0",
                 "--fault", fault],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = _last_json(proc.stdout)
            ratio = result["failed"] / result["attempted"]
            print(f"fault {fault} on {workload}: exit {proc.returncode}, "
                  f"fail_ratio {result['failed']}/{result['attempted']} = {ratio:.4g}")
            if proc.returncode == 0 or result["failed"] == 0 or result["correct"]:
                problems.append(f"fault {fault} went unnoticed on {workload}")

    for workload in WORKLOADS:
        seen = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--spawned-at", repr(time.monotonic())],
                capture_output=True, text=True, cwd=ROOT, check=True,
            )
            result = _last_json(proc.stdout)
            seen[seed] = (result["attempted"], result["digest"])
            print(f"clean {workload} seed {seed}: {result['failed']}/{result['attempted']} failed, "
                  f"digest {result['digest'][:16]}")
            if result["failed"]:
                problems.append(f"clean {workload} seed {seed} failed: {result['failures']}")
        if seen[DEFAULT_SEED] != seen[HELD_OUT_SEED]:
            problems.append(f"{workload}: check count or digest depends on the seed")

    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest passed" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
