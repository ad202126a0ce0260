"""One benchmark pass, in a fresh interpreter started by ``run.py``.

Imports ``ellhom`` from the ``src`` directory next to this one, builds the
workload's inputs from the seed, runs the workload, checks every output and
prints one JSON line with the pass's measurements. Every pass starts cold:
no root system, module, bracket or operator cache survives from another
pass.

    python3 perfbench/worker.py --workload oracle --seed 20260808 \
        --spawned-at <time.monotonic() of the parent> [--trace] [--fault NAME]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
MAX_LISTED_FAILURES = 20


class Recorder:
    """Counts attempted and failed checks, and compares each canonical
    output with its digest in the reference."""

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}
        self.facts: dict[str, int] = {}

    def _fail(self, label: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append(label)

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self._fail(label)

    def output(self, key: str, text: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.outputs[key] = digest
        if self.reference is not None:
            self.check(f"digest {key}", self.reference.get(key) == digest)

    @contextmanager
    def item(self, label: str):
        """An exception inside one input item counts as one failed check."""
        try:
            yield
        except Exception as exc:  # the pass must go on and report it
            self.attempted += 1
            self._fail(f"{label}: {type(exc).__name__}: {exc}")

    def finish(self) -> None:
        if self.reference is not None:
            missing = sorted(set(self.reference) - set(self.outputs))
            self.check(f"outputs missing: {missing[:3]}", not missing)

    def digest(self) -> str:
        lines = "".join(f"{k}={v}\n" for k, v in sorted(self.outputs.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--fault")
    ap.add_argument("--spans-out")
    ap.add_argument("--record-reference", action="store_true",
                    help="write this workload's output digests to reference.json")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ellhom

    if not Path(ellhom.__file__).resolve().is_relative_to(SRC):
        print(f"ellhom was imported from {ellhom.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer
    from workloads import WORKLOADS

    make_inputs, run = WORKLOADS[args.workload]
    reference = None
    if not args.record_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    inputs = make_inputs(args.seed)
    if args.fault:
        import faults

        faults.plant(args.fault)
    tr = tracer.install() if args.trace else None
    rec = Recorder(reference)

    setup_s = time.monotonic() - args.spawned_at
    t0 = time.perf_counter()
    run(inputs, rec)
    rec.finish()
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if args.record_reference:
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[args.workload] = rec.outputs
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    result = {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "digest": rec.digest(),
        "caches": tracer.cache_counts(),
        "facts": rec.facts,
    }
    if tr is not None:
        layers = tracer.layer_metrics(tr)
        layers["trace.driver_s"] = wall_s - tr.top_level_s()
        layers["trace.residual_s"] = wall_s - sum(tr.self_s.values()) - layers["trace.driver_s"]
        layers["trace.spans"] = len(tr.span_start)
        result["layers"] = layers
        if args.spans_out:
            tr.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
