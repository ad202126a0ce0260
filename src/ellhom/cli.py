"""Command-line front end: root-system dumps, characters, homology, pairing
matrices over catalogs, and the verification suites of ``ellhom.verify``.

Every subcommand takes ``--emit`` and ``--out``; each other flag is declared
only on the subcommands that read it (``--timing`` only on ``verify``), and
``pairing`` rejects ``--preset`` with ``--catalog``, and ``--type`` and
``--bound`` with a catalog source that does not read them. A root system is
named by one ``--type`` token such as ``A2``. Every input has one flag; there
is no config file. The caps are fixed: ``rootsystem.WEYL_CAP`` on
n * max(n, |W|) by one rule (n = 1 to enumerate W or expand a Weyl
denominator, n classes for a pairing matrix, n = |W| for ``weyldenom``)
and on each insert of a subgroup closure, ``koszul.DIM_CAP`` on modules
and ``koszul.COMPLEX_DIM_CAP`` on chain complexes.

Exit codes: 0 all good, 1 verification failure, 2 usage error (a
ValueError, or a CapExceededError for a cap hit), 3 internal error (an
AssertionError). Every ``verify`` case runs on a fixed input set,
so JSON reports are deterministic for a fixed config (timing is opt-in so
that byte-identical reruns stay byte-identical).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .characters import freudenthal_character, weyl_character
from .koszul import euler_class, koszul_n_homology
from .pairings import check_antisym_i, gram
from .rootsystem import CapExceededError, parse_type
from .zoo import Catalog, compact_catalog, sl2_catalog


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"cannot parse weight {text!r}") from None
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} does not have rank {rank}")
    return coords


def _emit(payload: dict, args, table_lines=None) -> None:
    if args.emit == "table" and table_lines is not None:
        text = "\n".join(table_lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ---------------------------------------------------------------


def cmd_rootsys(args) -> int:
    rs = parse_type(args.type)
    payload = rs.to_dict()
    lines = [f"{rs.series}{rs.rank}: {len(rs.positive_roots)} positive roots, |W| = {rs.weyl_order}"]
    lines += [f"  {list(a)}" for a in rs.positive_roots]
    _emit(payload, args, lines)
    return 0


def cmd_char(args) -> int:
    rs = parse_type(args.type)
    lam = _parse_weight(args.weight, rs.rank)
    if args.algorithm in ("weyl", "both"):
        chi = weyl_character(lam, rs)
    else:
        chi = freudenthal_character(lam, rs)
    if args.algorithm == "both" and chi != freudenthal_character(lam, rs):
        print("error: character algorithms disagree", file=sys.stderr)
        return 1
    payload = chi.to_dict()
    lines = [f"chi{lam} on {rs.series}{rs.rank}: dim {chi.coefficient_sum()}", f"  {chi}"]
    _emit(payload, args, lines)
    return 0


def cmd_homology(args) -> int:
    rs = parse_type(args.type)
    lam = _parse_weight(args.weight, rs.rank)
    ps = rs.positive_roots
    if args.word:
        try:
            letters = [int(i) for i in args.word.split(",")]
        except ValueError:
            raise ValueError(f"--word letters must be integers, got {args.word!r}") from None
        w = rs.from_word(letters)
        ps = tuple(w.act(a) for a in rs.positive_roots)
    gh = koszul_n_homology(lam, ps, rs)
    payload = gh.to_dict()
    lines = [f"H_*(n, V{lam}) on {rs.series}{rs.rank}:"]
    lines += [f"  H_{p} = {cls}" for p, cls in enumerate(gh.classes)]
    lines.append(f"  Euler = {euler_class(gh)}")
    _emit(payload, args, lines)
    return 0


# the flags each catalog source reads; passing any other is a usage error
PAIRING_SOURCE_FLAGS = {
    "--catalog": (),
    "--preset sl2": ("bound",),
    "--preset compact": ("type", "bound"),
}


def cmd_pairing(args) -> int:
    if not (args.catalog or args.preset):
        raise ValueError("pairing needs --catalog FILE or --preset NAME")
    if args.catalog and args.preset:
        raise ValueError("--preset does not apply to --catalog")
    source = "--catalog" if args.catalog else f"--preset {args.preset}"
    for flag in ("type", "bound"):
        if getattr(args, flag) is not None and flag not in PAIRING_SOURCE_FLAGS[source]:
            raise ValueError(f"--{flag} does not apply to {source}")
    bound = 3 if args.bound is None else args.bound
    if args.catalog:
        cat = Catalog.load(args.catalog)
    elif args.preset == "sl2":
        cat = sl2_catalog(bound)
    else:
        cat = compact_catalog(parse_type(args.type or "A1"), bound)
    if args.save_catalog:
        cat.save(args.save_catalog)
    ctx = cat.context
    if args.kind == "multiplicity" and not ctx.w0_is_full:
        raise ValueError("multiplicity pairing requires a compact catalog")
    ctx_summary = {
        "series": ctx.rs.series,
        "rank": ctx.rs.rank,
        "w0_order": ctx.w0.order,
    }
    if args.kind == "multiplicity":
        # x = P * chi with chi W-invariant (P the half denominator) exactly
        # when s_i(x) = -e^{-alpha_i} x for every simple reflection; the
        # multiplicity matrix of such classes is their elliptic Gram matrix
        reflections = [ctx.rs.simple_reflection(i) for i in range(ctx.rs.rank)]
        for m in cat.modules:
            if not all(check_antisym_i(m.euler, s, ctx) for s in reflections):
                raise ValueError(f"class {m.label} is not P * chi with chi W-invariant")
    matrix = [[str(v) for v in row] for row in gram("elliptic", [m.euler for m in cat.modules], ctx)]
    labels = [m.label for m in cat.modules]
    rows = [
        {"kind": args.kind, "left": a, "right": b, "value": v, "context": ctx_summary}
        for a, values in zip(labels, matrix)
        for b, v in zip(labels, values)
    ]
    width = max(len(l) for l in labels) + 1
    lines = [" " * width + "".join(f"{l:>{width}}" for l in labels)]
    lines += [f"{a:>{width}}" + "".join(f"{v:>{width}}" for v in values) for a, values in zip(labels, matrix)]
    _emit({"kind": args.kind, "context": ctx_summary, "pairings": rows}, args, lines)
    return 0


def cmd_verify(args) -> int:
    cfg = {
        "types": [args.type] if args.type else None,
        "bound": args.bound,
        "suites": args.suite.split(",") if args.suite else list(verify.SUITES),
        "timing": args.timing,
    }
    if args.type:
        parse_type(args.type)  # an unsupported type is a usage error, before any suite runs
    if cfg["bound"] <= 0:
        raise ValueError(f"bound must be positive, got {cfg['bound']}")
    unknown = [s for s in cfg["suites"] if s not in verify.SUITE_RUNNERS]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {', '.join(verify.SUITES)}")
    result = verify.run_suites(cfg)
    lines = []
    for report in result["reports"]:
        for case in report["cases"]:
            mark = "PASS" if case["pass"] else "FAIL"
            lines.append(f"[{mark}] {case['name']}: {case['actual']} ({case['inputs']})")
        summ = report["summary"]
        timing = f" in {report['timing_ms']} ms" if args.timing else ""
        lines.append(f"suite {report['suite']}: {summ['passed']}/{summ['total']} passed{timing}")
    lines.append(
        f"total: {result['summary']['passed']}/{result['summary']['total']} passed"
    )
    _emit(result, args, lines if args.emit == "table" else None)
    return 0 if result["summary"]["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellhom",
        description="Exact pairings of Harish-Chandra module classes on the character lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--emit", choices=["json", "table"], default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("rootsys", help="dump a root system")
    p.add_argument("--type", required=True, help="type token such as A2 or G2")
    common(p)
    p.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("char", help="irreducible character")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True, help="comma-separated dominant coordinates")
    p.add_argument("--algorithm", choices=["weyl", "freudenthal", "both"], default="both")
    common(p)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("homology", help="graded homology of a nilradical")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--word", default="", help="simple-reflection word picking the positive system w(R+)")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pairing", help="pairing matrix over a catalog")
    p.add_argument("--catalog", default=None, help="catalog JSON file")
    p.add_argument("--preset", choices=["sl2", "compact"], default=None)
    p.add_argument("--type", default=None, help="root system of --preset compact (default A1)")
    p.add_argument("--bound", type=int, default=None,
                   help="weight bound of --preset sl2 and compact (default 3)")
    p.add_argument("--kind", choices=["elliptic", "multiplicity"], required=True)
    p.add_argument("--save-catalog", default=None, dest="save_catalog")
    common(p)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default=None, help=f"comma-separated subset of: {', '.join(verify.SUITES)}")
    p.add_argument("--type", default=None, help="restrict type-parametrized suites to one type")
    p.add_argument("--bound", type=int, default=verify.DEFAULT_BOUND)
    p.add_argument("--timing", action="store_true", help="include timing in reports")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
