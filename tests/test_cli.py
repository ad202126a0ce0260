"""The command-line surface: commands, emit formats, exit codes, determinism."""

import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env
from ellhom import (
    CharElement,
    InternalConsistencyError,
    compact_context,
    divide_exact,
    gram,
    parse_type,
    verify,
    weyl_character,
)
from ellhom.cli import build_parser, main


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ellhom.cli", *argv],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    return proc


def test_rootsys_json_matches_interface(capsys):
    assert main(["rootsys", "--type", "A2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "series": "A",
        "rank": 2,
        "positive_roots": [[2, -1], [-1, 2], [1, 1]],
        "rho": [1, 1],
        "weyl_order": 6,
    }


def test_rootsys_g2(capsys):
    assert main(["rootsys", "--type", "G2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["positive_roots"]) == 6
    assert out["weyl_order"] == 12


def test_rootsys_invalid_type_exits_2():
    proc = run_cli("rootsys", "--type", "E9")
    assert proc.returncode == 2
    assert "unsupported type/rank: E9" in proc.stderr
    # a series letter alone is named as typed, with its rank missing
    proc = run_cli("rootsys", "--type", "A")
    assert proc.returncode == 2
    assert "unsupported type/rank: 'A' has no rank" in proc.stderr


def test_char_command(capsys):
    assert main(["char", "--type", "A1", "--weight", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 1
    assert out["terms"] == [
        {"w": [-2], "c": "1"},
        {"w": [0], "c": "1"},
        {"w": [2], "c": "1"},
    ]


def test_char_single_algorithm_paths(capsys):
    results = []
    for algorithm in ("weyl", "freudenthal"):
        assert main(["char", "--type", "B2", "--weight", "1,1", "--algorithm", algorithm]) == 0
        results.append(capsys.readouterr().out)
    assert results[0] == results[1]


def test_char_bad_weight_exits_2():
    proc = run_cli("char", "--type", "A2", "--weight", "1")
    assert proc.returncode == 2
    proc = run_cli("char", "--type", "A2", "--weight", "x,y")
    assert proc.returncode == 2


def test_verify_rejects_nonpositive_caps(capsys):
    for flag in ("--bound", "--trials"):
        assert main(["verify", "--suite", "abelian", flag, "0"]) == 2
        assert f"{flag[2:]} must be positive, got 0" in capsys.readouterr().err


def test_homology_command(capsys):
    assert main(["homology", "--type", "A1", "--weight", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["positive_system"] == [[2]]
    assert out["degrees"][0]["class"]["terms"] == [{"w": [-1], "c": "1"}]
    assert out["degrees"][1]["class"]["terms"] == [{"w": [3], "c": "1"}]


def test_homology_command_with_word(capsys):
    assert main(["homology", "--type", "A1", "--weight", "1", "--word", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["positive_system"] == [[-2]]


def test_homology_word_letters_are_checked(capsys):
    # a letter outside 0..rank-1 is a usage error, never an index or a wrap,
    # and so is a letter that is not an integer
    for word, message in (("0,5", "simple reflection index"), ("-1", "simple reflection index"),
                          ("0,x", "--word letters must be integers, got '0,x'")):
        assert main(["homology", "--type", "A2", "--weight", "1,0", f"--word={word}"]) == 2
        assert message in capsys.readouterr().err


def test_homology_module_cap_exits_2(capsys):
    # dim V(12,12) = 2197 is over DIM_CAP, and 2197 * 2^3 is under the complex cap
    assert main(["homology", "--type", "A2", "--weight", "12,12"]) == 2
    assert "module too large: dim V(12, 12) = 2197 exceeds cap 2000" in capsys.readouterr().err


def test_homology_complex_cap_exits_2(capsys):
    assert main(["homology", "--type", "A7", "--weight", "0,0,0,0,0,0,0"]) == 2
    assert "chain complex too large" in capsys.readouterr().err


def test_pairing_sl2_identity(capsys):
    assert main(["pairing", "--preset", "sl2", "--bound", "1", "--kind", "elliptic"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = out["pairings"]
    closed = [r for r in rows if r["left"].startswith("DS") and r["right"].startswith("DS")]
    for r in closed:
        assert r["value"] == ("1" if r["left"] == r["right"] else "0")
    assert all(r["value"] == "0" for r in rows if "PS0" in (r["left"], r["right"]))
    assert rows[0]["context"]["w0_order"] == 1


def test_pairing_compact_all_kinds_agree(capsys):
    matrices = {}
    for kind in ("elliptic", "multiplicity"):
        assert main(["pairing", "--preset", "compact", "--type", "A1", "--bound", "3", "--kind", kind]) == 0
        out = json.loads(capsys.readouterr().out)
        matrices[kind] = [(r["left"], r["right"], r["value"]) for r in out["pairings"]]
        labels = {r["left"] for r in out["pairings"]}
        for r in out["pairings"]:
            assert r["value"] == ("1" if r["left"] == r["right"] else "0")
    assert matrices["elliptic"] == matrices["multiplicity"]


def test_pairing_kind_choices_are_the_gram_kinds(capsys):
    # every --kind choice is a kind gram computes; gram refuses any other
    # kind (tests/test_pairings.py), and argparse refuses the retired one
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in commands.choices["pairing"]._actions if a.dest == "kind")
    assert sorted(kind.choices) == ["elliptic", "multiplicity"]
    ctx = compact_context(parse_type("A1"))
    classes = [weyl_character((k,), ctx.rs) for k in range(3)]
    for choice in kind.choices:
        assert len(gram(choice, classes, ctx)) == 3
    with pytest.raises(SystemExit) as exc:
        main(["pairing", "--preset", "compact", "--kind", "homological"])
    assert exc.value.code == 2
    assert "argument --kind: invalid choice: 'homological'" in capsys.readouterr().err


def test_pairing_kind_context_mismatch():
    proc = run_cli("pairing", "--preset", "sl2", "--kind", "multiplicity")
    assert proc.returncode == 2
    assert "compact" in proc.stderr


def test_pairing_catalog_round_trip(tmp_path, capsys):
    path = tmp_path / "cat.json"
    assert (
        main([
            "pairing", "--preset", "sl2", "--bound", "1", "--kind", "elliptic",
            "--save-catalog", str(path),
        ])
        == 0
    )
    capsys.readouterr()
    assert main(["pairing", "--catalog", str(path), "--kind", "elliptic"]) == 0
    out = json.loads(capsys.readouterr().out)
    for r in out["pairings"]:
        if r["left"].startswith("DS") and r["right"].startswith("DS"):
            assert r["value"] == ("1" if r["left"] == r["right"] else "0")


def test_pairing_multiplicity_divides_once_per_module(monkeypatch, capsys):
    calls = []
    products = []
    multiply = CharElement.__mul__

    def counting(p, q, rs):
        calls.append(p)
        return divide_exact(p, q, rs)

    def counting_mul(a, b):
        # the products pairings makes are the D * chi of the multiplicity matrix
        if sys._getframe(1).f_globals["__name__"] == "ellhom.pairings":
            products.append(b)
        return multiply(a, b)

    monkeypatch.setattr("ellhom.cli.divide_exact", counting)
    monkeypatch.setattr(CharElement, "__mul__", counting_mul)
    assert main(["pairing", "--preset", "compact", "--type", "B2", "--bound", "2", "--kind", "multiplicity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(calls) == 9 and len(out["pairings"]) == 81
    assert len(products) == 9
    assert all(r["value"] == ("1" if r["left"] == r["right"] else "0") for r in out["pairings"])


# sha256 of the `ellhom pairing` output for each input, --emit json then
# --emit table; the bytes are part of the interface, as for `verify`
PAIRING_SHA256 = {
    "--preset compact --type B2 --bound 2 --kind elliptic": (
        "d7a7daa17fbbdcd72e1e4757e2040fae99be510a523799b8bf6dd70319ea429c",
        "ea2ffe6dfbc97e7bb504bf8e69e5741e443d0ab240edde7d7b7050f766a8e2c1",
    ),
    "--preset compact --type B2 --bound 2 --kind multiplicity": (
        "83161b4a16228b137a955a04fae5ded23cbbd538545e302a99d6c05a8dc632d8",
        "ea2ffe6dfbc97e7bb504bf8e69e5741e443d0ab240edde7d7b7050f766a8e2c1",
    ),
    "--preset sl2 --bound 2 --kind elliptic": (
        "76588aa36c9b9dced3eb62737d1b7ac961ed77312718b0505cc7887c9d6f2a2e",
        "04c31464bf40387410f5b8d768a5fd95c6c4f06cb1b452c0b671da6a19ed90da",
    ),
}


@pytest.mark.parametrize("args", sorted(PAIRING_SHA256))
def test_pairing_output_bytes_are_pinned(args, tmp_path):
    for emit, expected in zip(("json", "table"), PAIRING_SHA256[args]):
        out = tmp_path / f"pairing.{emit}"
        assert main(["pairing", *args.split(), "--emit", emit, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, emit


def test_malformed_catalogs_are_usage_errors(tmp_path):
    good = tmp_path / "good.json"
    assert main(["pairing", "--preset", "sl2", "--bound", "1", "--kind", "elliptic",
                 "--save-catalog", str(good)]) == 0
    no_homology = json.loads(good.read_text())
    del no_homology["modules"][0]["homology"]
    bad_w0 = json.loads(good.read_text())
    bad_w0["context"]["w0"] = [["x"]]
    no_modules = json.loads(good.read_text())
    no_modules["modules"] = []
    shifted, repeated = json.loads(good.read_text()), json.loads(good.read_text())
    for data, numbers in ((shifted, (5, 7)), (repeated, (0, 0))):
        for entry, p in zip(data["modules"][0]["homology"]["degrees"], numbers):
            entry["p"] = p
    cases = (({"modules": []}, "'context'"), ([1, 2], "'context'"),
             (no_homology, "'homology'"), (bad_w0, "'w0'"), (no_modules, "'modules'"),
             (shifted, "'p'"), (repeated, "'p'"))
    for data, key in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = run_cli("pairing", "--catalog", str(path), "--kind", "elliptic")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and key in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,flag,source", [
    (["--preset", "sl2", "--type", "E8", "--bound", "1"], "type", "--preset sl2"),
    (["--preset", "sl2", "--type", "A1"], "type", "--preset sl2"),
    (["--catalog", "cat.json", "--preset", "compact"], "preset", "--catalog"),
    (["--catalog", "cat.json", "--type", "A2"], "type", "--catalog"),
    (["--catalog", "cat.json", "--bound", "2"], "bound", "--catalog"),
])
def test_pairing_flags_a_source_does_not_read_are_usage_errors(argv, flag, source, capsys):
    assert main(["pairing", *argv, "--kind", "elliptic"]) == 2
    assert f"--{flag} does not apply to {source}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--preset", "compact", "--type", "A1"],
    ["--preset", "sl2"],
])
def test_negative_pairing_bound_is_a_usage_error(argv, tmp_path, capsys):
    # refused before any catalog is built or saved
    saved = tmp_path / "cat.json"
    assert main(["pairing", *argv, "--bound", "-1", "--kind", "elliptic",
                 "--save-catalog", str(saved)]) == 2
    assert "bound must be nonnegative, got -1" in capsys.readouterr().err
    assert not saved.exists()


def test_verify_single_suites_pass(capsys):
    assert main(["verify", "--suite", "abelian,weyldenom,standard"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0
    assert [r["suite"] for r in out["reports"]] == ["abelian", "weyldenom", "standard"]
    assert "timing_ms" not in out["reports"][0]


def test_verify_weyldenom_b2(capsys):
    assert main(["verify", "--suite", "weyldenom", "--type", "B2"]) == 0
    out = json.loads(capsys.readouterr().out)
    case = out["reports"][0]["cases"][0]
    assert case["pass"] is True
    assert "8 elements" in case["inputs"]


def test_verify_kazhdan_a1(capsys):
    assert main(["verify", "--suite", "kazhdan", "--type", "A1", "--trials", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0
    assert out["seed"] == 20260808


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "nonsense")
    assert proc.returncode == 2
    assert "unknown suites" in proc.stderr


def test_verify_unsupported_type_exits_2(capsys):
    # the type is checked before any suite runs
    assert main(["verify", "--suite", "weyldenom", "--type", "Z9"]) == 2
    assert "unsupported type/rank" in capsys.readouterr().err


def test_verify_cap_exceeded_is_reported_not_silent(capsys):
    # |W(E7)| is over the fixed Weyl cap: the suite fails with a skip marker,
    # osborne too, whose Weyl denominator is checked before it is expanded
    for suite in ("weyldenom", "osborne"):
        rc = main(["verify", "--suite", suite, "--type", "E7"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        case = out["reports"][0]["cases"][0]
        assert case["pass"] is False
        assert "skipped: cap" in case["actual"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    def failing_suite(cfg):
        return [{"name": "forced", "inputs": "", "expected": "0", "actual": "1", "pass": False}]

    monkeypatch.setitem(verify.SUITE_RUNNERS, "abelian", failing_suite)
    rc = main(["verify", "--suite", "abelian"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["summary"]["failed"] == 1


def test_verify_internal_error_is_a_failed_case(monkeypatch, capsys):
    # a bug inside one suite fails that suite; the others still report
    for error in (InternalConsistencyError, AssertionError, ValueError):
        def broken_suite(cfg):
            raise error("planted")

        monkeypatch.setitem(verify.SUITE_RUNNERS, "abelian", broken_suite)
        rc = main(["verify", "--suite", "abelian,standard"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        broken, other = out["reports"]
        assert broken["cases"] == [
            {"name": "abelian", "inputs": "", "expected": "completed",
             "actual": "internal error: planted", "pass": False}
        ]
        assert other["suite"] == "standard"
        assert other["summary"]["total"] > 0 and other["summary"]["failed"] == 0


def test_verify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            main([
                "verify", "--suite", "standard,abelian", "--seed", "5",
                "--out", str(out),
            ])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_timing_table_line(capsys):
    # --timing reaches the table line of each suite
    assert main(["verify", "--suite", "abelian", "--timing", "--emit", "table"]) == 0
    text = capsys.readouterr().out
    assert re.search(r"^suite abelian: \d+/\d+ passed in \d+ ms$", text, re.M)


def test_verify_table_emit(capsys):
    assert main(["verify", "--suite", "abelian", "--emit", "table"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text
    assert "suite abelian:" in text


@pytest.mark.parametrize("error", [InternalConsistencyError, AssertionError])
def test_internal_error_outside_verify_exits_3(monkeypatch, capsys, error):
    def broken(lam, rs):
        raise error("planted")

    monkeypatch.setattr("ellhom.cli.weyl_character", broken)
    assert main(["char", "--type", "A1", "--weight", "1", "--algorithm", "weyl"]) == 3
    assert "error: internal error: planted" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rootsys", "--type", "A2", "--seed", "7"],
    ["char", "--type", "A2", "--weight", "1,0", "--cap-dim", "5"],
    ["verify", "--suite", "abelian", "--cap-weyl", "5"],
    ["rootsys", "--type", "A", "--rank", "2"],
    ["homology", "--type", "A2", "--weight", "1,0", "--cap-dim", "5"],
    ["verify", "--suite", "abelian", "--config", "f"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_declared_flag_is_read():
    # each subcommand once, on a Namespace that records every attribute read
    runs = {
        "rootsys": ["--type", "A1"],
        "char": ["--type", "A1", "--weight", "1"],
        "homology": ["--type", "A2", "--weight", "1,0", "--word", "0"],
        "pairing": ["--preset", "compact", "--kind", "elliptic"],
        "verify": ["--suite", "abelian"],
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(runs) == set(commands.choices)
    for command, argv in runs.items():
        args = parser.parse_args([command, *argv])
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        assert args.func(Recording(**vars(args))) == 0
        declared = {a.dest for a in commands.choices[command]._actions} - {"help"}
        assert declared <= read, (command, sorted(declared - read))


def test_readme_examples_parse():
    # every `ellhom ...` line of the README's command-line block, with its
    # backslash continuations joined, parses; none is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("ellhom ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_out_writes_file(tmp_path):
    target = tmp_path / "roots.json"
    assert main(["rootsys", "--type", "B2", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["weyl_order"] == 8
