"""The command-line surface: commands, emit formats, exit codes, determinism."""

import argparse
import ast
import hashlib
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import subprocess_env
from ellhom import (
    CharElement,
    compact_catalog,
    compact_context,
    divide_exact,
    gram,
    half_denominator,
    parse_type,
    rootsystem,
    verify,
    weyl_character,
)
from ellhom.cli import build_parser, main


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ellhom.cli", *argv],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command starts a fresh interpreter and pays for what ``import
    # ellhom`` loads; comparing sys.modules before and after the import keeps
    # the check independent of what site preloads (a preloaded typing passes
    # here, but a clean interpreter would show it)
    code = ("import sys; before = set(sys.modules); import ellhom; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "ellhom.zoo" in added
    assert not added & {"dataclasses", "inspect", "typing"}


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
    assert main(["verify", "--suite", "abelian", "--bound", "0"]) == 2
    assert "bound must be positive, got 0" in capsys.readouterr().err


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


def test_pairing_multiplicity_neither_divides_nor_multiplies(monkeypatch, capsys):
    # each Euler class is checked to be P * chi in place and paired as it is
    calls = []
    products = []
    multiply = CharElement.__mul__

    def counting(p, q, rs):
        calls.append(p)
        return divide_exact(p, q, rs)

    def counting_mul(a, b):
        products.append(b)
        return multiply(a, b)

    monkeypatch.setattr("ellhom.charring.divide_exact", counting)
    monkeypatch.setattr("ellhom.characters.divide_exact", counting)
    monkeypatch.setattr(CharElement, "__mul__", counting_mul)
    assert main(["pairing", "--preset", "compact", "--type", "B2", "--bound", "2", "--kind", "multiplicity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["pairings"]) == 81
    assert calls == [] and products == []
    assert all(r["value"] == ("1" if r["left"] == r["right"] else "0") for r in out["pairings"])


def _catalog_with_class(tmp_path, capsys, euler):
    """A saved compact B2 catalog whose first class is replaced by euler."""
    path = tmp_path / "b2.json"
    assert main(["pairing", "--preset", "compact", "--type", "B2", "--bound", "1",
                 "--kind", "elliptic", "--save-catalog", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["modules"][0]["euler"] = euler.to_dict()
    data["modules"][0]["homology"] = None
    path.write_text(json.dumps(data))
    return path, data["modules"][0]["label"]


@pytest.mark.parametrize("case", ["not P * chi", "chi not W-invariant"])
def test_pairing_multiplicity_refuses_a_class_that_is_not_p_chi(case, tmp_path, capsys):
    b2 = parse_type("B2")
    half = half_denominator(b2)
    if case == "not P * chi":
        # P * chi plus one monomial is no multiple of P * chi' for any chi'
        euler = half * weyl_character((1, 0), b2) + CharElement.monomial((1, 0))
    else:
        # P times a single monomial: divisible by P, but the quotient moves under W
        euler = half * CharElement.monomial((1, 0))
    path, label = _catalog_with_class(tmp_path, capsys, euler)
    assert main(["pairing", "--catalog", str(path), "--kind", "elliptic"]) == 0
    capsys.readouterr()
    assert main(["pairing", "--catalog", str(path), "--kind", "multiplicity"]) == 2
    assert f"class {label} is not P * chi with chi W-invariant" in capsys.readouterr().err


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


# sha256 of the --save-catalog file of `ellhom pairing` for each input; the
# catalog format is part of the interface too
SAVED_CATALOG_SHA256 = {
    "--preset sl2 --kind elliptic":
        "47c46e559c9a4d0f07d189fef653e6750c33e94d39cdf93f76af4c7becd83ee4",
    "--preset compact --type B2 --bound 2 --kind multiplicity":
        "55b997b830799c2ea94bebc2cee622f2a31039b1f44f80c5eb20b97176c1a02f",
}


@pytest.mark.parametrize("args", sorted(SAVED_CATALOG_SHA256))
def test_saved_catalog_bytes_are_pinned(args, tmp_path):
    path = tmp_path / "catalog.json"
    assert main(["pairing", *args.split(), "--save-catalog", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_CATALOG_SHA256[args]


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
    # s_0(R+) = {-alpha_0} is a positive system, but not the context's R+
    flipped_ps = json.loads(good.read_text())
    flipped_ps["context"]["positive_system"] = [[-2]]
    twice_weight = json.loads(good.read_text())
    twice_weight["modules"][0]["euler"]["terms"] = [{"w": [0], "c": "1"}, {"w": [0], "c": "2"}]
    twice_label = json.loads(good.read_text())
    twice_label["modules"][1]["label"] = twice_label["modules"][0]["label"]
    label = twice_label["modules"][0]["label"]
    # a coefficient in any form but the one to_dict writes, with no homology
    # for the Euler class to disagree with
    weight = json.loads(good.read_text())["modules"][0]["euler"]["terms"][0]["w"]
    odd_coefficients = []
    for c in ("x", " 5 ", "+1", "1_000"):
        data = json.loads(good.read_text())
        data["modules"][0]["euler"]["terms"][0]["c"] = c
        data["modules"][0]["homology"] = None
        odd_coefficients.append((data, f"'c' of the weight {weight} must be a decimal integer"))
    # a class of rank 2 in an A1 catalog, and a homology over s_0(R+)
    rank_2 = json.loads(good.read_text())
    rank_2["modules"][0]["euler"] = CharElement.one(2).to_dict()
    rank_2["modules"][0]["homology"] = None
    flipped_homology = json.loads(good.read_text())
    flipped_homology["modules"][0]["homology"]["positive_system"] = [[-2]]
    # W0 matrices that are not rank x rank: 1 x 2 in A1, 2 x 3 in A2
    wide = json.loads(good.read_text())
    wide["context"]["w0"] = [[[1, 0]]]
    short = compact_catalog(parse_type("A2"), 0).to_dict()
    short["context"]["w0"] = [[[1, 0, 0], [0, 1, 0]]]
    # files the JSON parser refuses: a weight coordinate over the int digit
    # limit, and a file cut short
    huge_weight = json.loads(good.read_text())
    huge_weight["modules"][0]["euler"]["terms"][0]["w"] = ["HUGE"]
    huge_weight = json.dumps(huge_weight).replace('"HUGE"', "1" * 5000)
    truncated = good.read_text()[:-10]
    cases = (({"modules": []}, "'context'"), ([1, 2], "'context'"),
             (no_homology, "'homology'"), (bad_w0, "'w0'"), (no_modules, "'modules'"),
             (shifted, "'p'"), (repeated, "'p'"), (flipped_ps, "'positive_system'"),
             (twice_weight, "weight [0] twice"), (twice_label, repr(label)),
             ("[" * 100_000, "bad.json"), (huge_weight, "bad.json"), (truncated, "bad.json"),
             *odd_coefficients,
             (rank_2, f"class {label!r} has rank 2"),
             (flipped_homology, f"class {label!r} has homology over a positive system"),
             (wide, "matrix of shape 1 x 2 is not 1 x 1"),
             (short, "matrix of shape 2 x 3 is not 2 x 2"))
    for data, key in cases:
        path = tmp_path / "bad.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
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


def test_verify_weyldenom_holds_the_squared_order_to_the_weyl_cap(monkeypatch, capsys):
    # |W(B2)|^2 = 64, read against the cap at call time
    for cap, rc in ((63, 1), (64, 0)):
        monkeypatch.setattr(rootsystem, "WEYL_CAP", cap)
        assert main(["verify", "--suite", "weyldenom", "--type", "B2"]) == rc
        actual = json.loads(capsys.readouterr().out)["reports"][0]["cases"][0]["actual"]
        assert ("skipped: cap" in actual) == (rc == 1)


def test_verify_schur_rank_3_uses_bound_1(capsys):
    # rank 3 pairs the basis of coordinates <= 1 whatever the bound, and
    # the note names the bound used; the report has no seed or trials
    assert main(["verify", "--suite", "schur", "--type", "A3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"] == {"total": 3, "passed": 3, "failed": 0}
    assert {c["inputs"] for c in out["reports"][0]["cases"]} == {"A3, 8^2 pairs, coords <= 1"}
    assert "seed" not in out and "trials" not in out["config"]


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "nonsense")
    assert proc.returncode == 2
    assert "unknown suites" in proc.stderr


def test_verify_unsupported_type_exits_2(capsys):
    # the type is checked before any suite runs
    assert main(["verify", "--suite", "weyldenom", "--type", "Z9"]) == 2
    assert "unsupported type/rank" in capsys.readouterr().err


def test_verify_cap_exceeded_is_reported_not_silent(monkeypatch, capsys):
    # |W(E7)| is over the fixed Weyl cap: the suite fails with a skip marker,
    # osborne too, whose Weyl denominator is checked before it is expanded;
    # weyldenom, schur and oracles hold |W|^2 to the cap (E6, F4), and
    # antisym (F4) and osborne (B3, whose (1,1,1) complex is over the complex
    # cap) check the caps of all their complexes before building any, each
    # before any work
    built = []
    build = verify.koszul_n_homology
    monkeypatch.setattr(verify, "koszul_n_homology", lambda *a: built.append(a) or build(*a))
    runs = [("weyldenom", "E7"), ("osborne", "E7"), ("weyldenom", "E6"), ("antisym", "F4"),
            ("schur", "F4"), ("oracles", "E6"), ("osborne", "B3", "--bound", "1")]
    for suite, token, *extra in runs:
        started = time.monotonic()
        rc = main(["verify", "--suite", suite, "--type", token, *extra])
        assert time.monotonic() - started < 30
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        case = out["reports"][0]["cases"][0]
        assert case["pass"] is False
        assert "skipped: cap" in case["actual"]
    assert built == []


def test_rank_4_characters_and_multiplicity_gram_pass_quickly(capsys):
    # |W(B4)|^2 = 147456 is under the Weyl cap; the multiplicity Gram pairs
    # P * chi, so B4 at bound 1 stays within seconds
    runs = [
        ["verify", "--suite", "schur", "--type", "B4"],
        ["verify", "--suite", "oracles", "--type", "B4"],
        ["pairing", "--preset", "compact", "--type", "B4", "--bound", "1", "--kind", "multiplicity"],
    ]
    for argv in runs:
        started = time.monotonic()
        assert main(argv) == 0
        assert time.monotonic() - started < 30
        capsys.readouterr()


GRAM_CAP_RUNS = [
    # argv, n * max(n, |W|) of its first gram-capped site, exit code when refused
    (["verify", "--suite", "schur", "--type", "A2"], 16 * 16, 1),
    (["verify", "--suite", "oracles", "--type", "A2"], 16 * 16, 1),
    (["verify", "--suite", "standard"], 8 * 8, 1),
    (["pairing", "--preset", "sl2", "--kind", "elliptic"], 8 * 8, 2),
    (["pairing", "--preset", "compact", "--type", "A2", "--kind", "elliptic"], 16 * 16, 2),
]


@pytest.mark.parametrize("argv, work, refused", GRAM_CAP_RUNS)
def test_gram_cap_refuses_before_w_or_any_class_is_built(argv, work, refused, monkeypatch, capsys):
    # n classes or weights cost n * max(n, |W|), read against the cap at call
    # time; one under it, the run is refused before W is enumerated and
    # before any character, homology or standard class is built
    from ellhom import zoo

    built = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: built.append(name) or real(*a))

    for module, name in ((verify, "weyl_character"), (verify, "freudenthal_character"),
                         (verify, "kostant_homology"), (zoo, "kostant_homology"),
                         (zoo, "standard_module_class"), (rootsystem.RootSystem, "weyl_group")):
        counting(module, name)
    monkeypatch.setattr(rootsystem, "WEYL_CAP", work)
    assert main(argv) == 0
    assert built
    capsys.readouterr()
    built.clear()
    monkeypatch.setattr(rootsystem, "WEYL_CAP", work - 1)
    started = time.monotonic()
    assert main(argv) == refused
    assert time.monotonic() - started < 1
    assert built == []
    captured = capsys.readouterr()
    message = captured.err if refused == 2 else json.loads(captured.out)["reports"][0]["cases"][0]["actual"]
    assert f"= {work} exceeds cap {work - 1}" in message


@pytest.mark.parametrize("kind", ["elliptic", "multiplicity"])
def test_gram_cap_refuses_a_catalog_file_before_any_pairing(kind, tmp_path, monkeypatch, capsys):
    # 4 classes over W(A2): 4 * max(4, 6) = 24
    from ellhom import pairings

    path = tmp_path / "a2.json"
    assert main(["pairing", "--preset", "compact", "--type", "A2", "--bound", "1",
                 "--kind", kind, "--save-catalog", str(path)]) == 0
    capsys.readouterr()
    pairs = []
    real = pairings.torus_pairing
    monkeypatch.setattr(pairings, "torus_pairing", lambda *a: pairs.append(a) or real(*a))
    monkeypatch.setattr(pairings, "half_denominator", None)  # the P of a multiplicity P * chi would raise
    monkeypatch.setattr(rootsystem, "WEYL_CAP", 23)
    assert main(["pairing", "--catalog", str(path), "--kind", kind]) == 2
    assert "= 24 exceeds cap 23" in capsys.readouterr().err
    assert pairs == []


def test_gram_cap_refuses_a_catalog_file_before_closing_its_w0(tmp_path):
    # one class over E7, whose W0 is generated by the simple reflections:
    # 1 * max(1, |W(E7)|) is over the cap, so the file is refused before the
    # closure of W(E7) starts
    e7 = parse_type("E7")
    data = {
        "context": {
            "series": "E", "rank": 7, "equal_rank": True,
            "positive_system": [list(a) for a in e7.positive_roots],
            "w0": [[list(row) for row in e7.simple_reflection(i).matrix] for i in range(7)],
        },
        "modules": [{"label": "one", "provenance": "external", "homology": None,
                     "euler": CharElement.one(7).to_dict()}],
    }
    path = tmp_path / "e7.json"
    path.write_text(json.dumps(data))
    proc = run_cli("pairing", "--catalog", str(path), "--kind", "elliptic", timeout=10)
    assert proc.returncode == 2
    assert f"= {e7.weyl_order} exceeds cap {rootsystem.WEYL_CAP}" in proc.stderr


def test_unbounded_bounds_are_refused_in_seconds():
    proc = run_cli("pairing", "--preset", "sl2", "--bound", "100000", "--kind", "elliptic", timeout=10)
    assert proc.returncode == 2 and "exceeds cap" in proc.stderr
    proc = run_cli("verify", "--suite", "schur,standard,oracles", "--bound", "100000", timeout=10)
    assert proc.returncode == 1
    cases = [c for r in json.loads(proc.stdout)["reports"] for c in r["cases"]]
    assert [c["actual"].startswith("skipped: cap") for c in cases] == [True] * 3


def test_gram_cap_admits_the_documented_runs(capsys):
    # 27 * 48, 16 * 384 and the benchmark's 16 * 120 are under the cap
    for argv in (
        ["pairing", "--preset", "compact", "--type", "B3", "--bound", "2", "--kind", "multiplicity"],
        ["pairing", "--preset", "compact", "--type", "B4", "--bound", "1", "--kind", "elliptic"],
    ):
        assert main(argv) == 0
        capsys.readouterr()
    assert len(compact_catalog(parse_type("A4"), 1).modules) == 16


# the exception types main maps to an exit code (ValueError and
# CapExceededError to 2, AssertionError to 3), which run_suite also catches
MAPPED_RAISES = {"ValueError", "UnsupportedTypeError", "CapExceededError", "AssertionError"}
# library-only raises, each allowed where it is raised: (enclosing class or
# function, exception type)
LIBRARY_RAISES = {("scale", "TypeError"), ("divide_exact", "ZeroDivisionError"),
                  ("Frozen", "AttributeError")}


def _raises():
    """(where, exception type name, enclosing class and function names) of
    every raise statement in src/ellhom/*.py."""
    src = Path(__file__).resolve().parent.parent / "src" / "ellhom"
    found = []

    def walk(node, scopes):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.dump(exc) if exc else "bare raise"
            found.append((f"{path.name}:{node.lineno}", name, scopes))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scopes = scopes + (node.name,)
        for child in ast.iter_child_nodes(node):
            walk(child, scopes)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), ())
    return found


def test_every_raise_names_a_type_the_exit_codes_map():
    assert [
        f"{where}: {name}" for where, name, scopes in _raises()
        if name not in MAPPED_RAISES and not any((s, name) in LIBRARY_RAISES for s in scopes)
    ] == []


# the cap rules: n * max(n, |W|) for all work sized by W, the module and
# chain-complex caps, and the per-insert cap of a subgroup closure
CAP_RULES = {"check_gram_cap", "check_complex_caps", "subgroup_from_generators"}


def test_every_cap_hit_is_raised_by_a_cap_rule():
    assert [
        where for where, name, scopes in _raises()
        if name == "CapExceededError" and not CAP_RULES & set(scopes)
    ] == []


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
    for error in (AssertionError, ValueError):
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
                "verify", "--suite", "standard,abelian", "--out", str(out),
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


def test_internal_error_outside_verify_exits_3(monkeypatch, capsys):
    def broken(lam, rs):
        raise AssertionError("planted")

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
    ["verify", "--trials", "5"],
    ["verify", "--seed", "5"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_config_keys_each_have_one_flag(monkeypatch):
    # cmd_verify builds exactly default_config() from a bare `verify`, and
    # each verify flag other than --emit and --out moves exactly one key
    built = []

    def record(cfg):
        built.append(cfg)
        return {"reports": [], "summary": {"total": 0, "passed": 0, "failed": 0}}

    monkeypatch.setattr(verify, "run_suites", record)
    variants = {"--suite": ["abelian"], "--type": ["A1"], "--bound": ["2"], "--timing": []}
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for a in commands.choices["verify"]._actions for opt in a.option_strings}
    assert flags - {"-h", "--help", "--emit", "--out"} == set(variants)
    assert main(["verify"]) == 0
    base = built.pop()
    assert base == verify.default_config()
    moved = []
    for flag, value in variants.items():
        assert main(["verify", flag, *value]) == 0
        cfg = built.pop()
        assert set(cfg) == set(base)
        changed = [key for key in base if cfg[key] != base[key]]
        assert len(changed) == 1, (flag, changed)
        moved += changed
    assert sorted(moved) == sorted(base)


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
