"""The traced benchmark wraps ``ellhom`` functions by module attribute
name, so a renamed or dropped binding would break ``perfbench/run.py
--trace 1``. Installing the tracer in a fresh interpreter catches that."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_listed_binding():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
