"""Acceptance gate: each criterion runs suites of ``ellhom.verify`` with the
default config of ``ellhom verify`` and requires every case to pass. All
comparisons are exact equalities. One printed pass/fail line per criterion.
"""

import argparse
import hashlib
import time

import pytest

from ellhom import verify
from ellhom.cli import _emit

# sha256 of the `ellhom verify --emit json` output for the default config
VERIFY_JSON_SHA256 = "1144c9c15800f138e26496f58f68d3688d527329c61a322c887033334be9a140"


@pytest.fixture(scope="module")
def suite_report():
    """Run each suite at most once per session, on the default config."""
    cfg = verify.default_config()
    reports = {}

    def report(name):
        if name not in reports:
            reports[name] = verify.run_suite(name, cfg)
        return reports[name]

    return report


def _accept(number, title, suite_report, suites, keep=lambda case: True):
    started = time.monotonic()
    cases = [c for name in suites for c in suite_report(name)["cases"] if keep(c)]
    ok = bool(cases) and all(c["pass"] for c in cases)
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    failed = [f"{c['name']}: {c['actual']}" for c in cases if not c["pass"]]
    assert ok, f"acceptance criterion {number} ({title}) failed: {failed}"


def test_criterion_1_compact_schur_suite(suite_report):
    _accept(1, "compact Schur suite", suite_report, ["schur"])


def test_criterion_3_osborne_compact_identity(suite_report):
    _accept(3, "Osborne compact identity, three-way", suite_report, ["osborne"])


def test_criterion_4_denominator_symmetry(suite_report):
    _accept(4, "Weyl denominator symmetry", suite_report, ["weyldenom"])


def test_criterion_5_antisymmetry(suite_report):
    _accept(5, "Euler-class antisymmetry and transport", suite_report, ["antisym"])


def test_criterion_6_abelian_ext(suite_report):
    _accept(6, "abelian Ext vanishing", suite_report, ["abelian"])


def test_criterion_7_standard_module_suite(suite_report):
    _accept(7, "standard modules: orthogonality, duals", suite_report, ["standard"])


def test_criterion_9_integrality(suite_report):
    _accept(
        9,
        "integrality of pairing values",
        suite_report,
        ["schur", "kazhdan"],
        keep=lambda case: "integrality" in case["name"],
    )


def test_criterion_10_oracle_cross_checks(suite_report):
    _accept(10, "oracle cross-checks", suite_report, ["oracles"])


def test_verify_json_bytes_are_pinned(suite_report, tmp_path):
    cfg = verify.default_config()
    result = verify.summarize(cfg, [suite_report(name) for name in cfg["suites"]])
    out = tmp_path / "verify.json"
    _emit(result, argparse.Namespace(emit="json", out=str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_JSON_SHA256
