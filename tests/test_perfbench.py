"""The benchmark wraps ``ellhom`` functions by module attribute name: the
tracer for ``perfbench/run.py --trace 1`` and the faults for
``perfbench/selftest.py``. A renamed or dropped binding, or a rank taken
around the wrapped one, would break them; a fresh interpreter that installs
the tracer, or plants the rank fault, catches that. The workloads call
``ellhom`` functions by module attribute name too, and a walk of their
source checks that every such name exists. One pass of each workload,
untraced and traced, checks its outputs against the digests in
``perfbench/reference.json``."""

import ast
import importlib
import json
import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env


def test_tracer_installs_on_every_listed_binding():
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        env=subprocess_env("perfbench"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_rank_fault_reaches_the_oracle():
    # perfbench/faults.py plants its rank fault on the sparse_int_rank
    # bindings; if koszul took its ranks another way, the benchmark's
    # self-test would lose the fault without noticing
    script = (
        "import faults\n"
        "from ellhom import koszul, rootsystem\n"
        "faults.plant('rank')\n"
        "rs = rootsystem.parse_type('A2')\n"
        "gh = koszul.koszul_n_homology((1, 1), rs.positive_roots, rs)\n"
        "assert gh != koszul.kostant_homology((1, 1), rs), 'the rank fault changed nothing'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=subprocess_env("perfbench"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_ellhom_name_the_workloads_read_exists():
    # some names the workloads call (weyl_denominator_full, torus_integral,
    # homological_pairing) have no caller in ellhom itself, so deleting one
    # would otherwise go unnoticed until a full benchmark run
    path = ROOT / "perfbench" / "workloads.py"
    modules = {name: importlib.import_module(f"ellhom.{name}") for name in
               ("characters", "charring", "koszul", "pairings", "rootsystem", "zoo")}
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("charring", "weyl_denominator_full") in read
    missing = sorted(f"{m}.{name}" for m, name in read if not hasattr(modules[m], name))
    assert not missing, f"perfbench/workloads.py reads names ellhom lacks: {missing}"


@pytest.mark.parametrize("workload,traced", [
    pytest.param(workload, traced, id=workload + "-traced" * traced)
    for traced in (False, True) for workload in ("oracle", "weyl", "lattice")
])
def test_one_benchmark_pass_matches_the_reference_digests(workload, traced):
    # -B: the pass writes no bytecode, and worker.py writes no file unless
    # asked to record the reference or to write the spans (--spans-out)
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "5113", "--spawned-at", "0"]
        + ["--trace"] * traced,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert ("layers" in result) == traced
