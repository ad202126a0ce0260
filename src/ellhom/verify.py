"""The verification suites behind ``ellhom verify`` and the acceptance gate.

Each suite checks one family of the identities at desk scale and returns a
list of cases, ``{"name", "inputs", "expected", "actual", "pass"}``, with
every comparison an exact equality over a fixed input set; no suite
samples its inputs. ``run_suites`` runs the suites a config names and wraps
their cases in a deterministic report.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

from . import rootsystem
from .characters import freudenthal_character, weyl_character, weyl_dimension
from .charring import half_denominator, weyl_act
from .koszul import (
    DIM_CAP,
    check_complex_caps,
    euler_class,
    euler_class_closed_form,
    kostant_homology,
    koszul_n_homology,
)
from .pairings import (
    antisym_transport,
    check_antisym_i,
    check_denominator_symmetry,
    compact_context,
    dual_class,
    ext_abelian_graded,
    gram,
)
from .rootsystem import CapExceededError, check_gram_cap, dominant_box, parse_type
from .zoo import dual_standard_class, sl2_catalog, standard_module_class

DEFAULT_BOUND = 3

RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]
CHARACTER_TYPES = ["A1", "A2", "B2", "G2"]


def _case(name, inputs, expected, actual):
    return {
        "name": name,
        "inputs": inputs,
        "expected": str(expected),
        "actual": str(actual),
        "pass": str(expected) == str(actual),
    }


def _off_identity(matrix, keys) -> int:
    """How many entries of a square matrix differ from the Kronecker delta
    of the keys indexing its rows and columns."""
    return sum(1 for a, row in zip(keys, matrix) for b, v in zip(keys, row) if v != int(a == b))


def _basis(cfg, rs) -> tuple[int, list]:
    """A basis's coordinate bound, cfg's in rank <= 2 and at most 1 above,
    and its dominant weights. For n weights, max(n, |W|)^2 is held to the
    Weyl cap before the weights are listed: the n^2 pairings and the |W|
    characters of about |W| terms each."""
    bound = cfg["bound"] if rs.rank <= 2 else min(cfg["bound"], 1)
    check_gram_cap(max((bound + 1) ** rs.rank, rs.weyl_order), rs)
    return bound, dominant_box(rs.rank, bound)


def suite_schur(cfg) -> list[dict]:
    """The multiplicity and elliptic pairings both equal the Kronecker
    delta on compact irreducibles: one ``gram`` matrix each, over the Weyl
    characters and the Euler classes of their Kostant homologies, with
    coordinates up to the bound in rank <= 2 and up to min(bound, 1) above
    that, and the caps of ``_basis`` checked before W is enumerated.
    In a compact context the Euler-Poincare pairing is dim Hom_G, so the
    multiplicity case is the homological side of the identity. The
    pairing is bilinear, so an integral elliptic Gram matrix certifies an
    integer value on every integer combination of the basis; Gram = 1 is
    the stronger identity."""
    cases = []
    for token in cfg["types"] or RANK_LE_3:
        rs = parse_type(token)
        bound, lams = _basis(cfg, rs)
        ctx = compact_context(rs)
        grams = {
            "multiplicity": gram("multiplicity", [weyl_character(lam, rs) for lam in lams], ctx),
            "elliptic": gram("elliptic", [euler_class(kostant_homology(lam, rs)) for lam in lams], ctx),
        }
        note = f"{token}, {len(lams)}^2 pairs, coords <= {bound}"
        for kind, matrix in grams.items():
            bad = _off_identity(matrix, lams)
            cases.append(_case(f"schur {kind} {token}", note, "0 mismatches", f"{bad} mismatches"))
        nonint = sum(1 for row in grams["elliptic"] for e in row if e.denominator != 1)
        cases.append(_case(f"schur integrality {token}", note, "0 non-integers", f"{nonint} non-integers"))
    return cases


def suite_osborne(cfg) -> list[dict]:
    """Equality of the chain-complex homology with Kostant's in every
    degree (an Euler class alone cannot see a wrong rank), and of its Euler
    class with half_denominator times the Weyl character. Equal homologies
    have equal Euler classes, so the closed-form Euler class needs no
    comparison of its own. The caps of every complex of a type are checked
    before its first complex is built."""
    cases = []
    bound = min(cfg["bound"], 2)
    for token in cfg["types"] or RANK_LE_2:
        rs = parse_type(token)
        half = half_denominator(rs)
        lams = dominant_box(rs.rank, bound)
        for lam in lams:
            check_complex_caps(lam, rs)
        bad = 0
        count = 0
        for lam in lams:
            gh = koszul_n_homology(lam, rs.positive_roots, rs)
            count += 1
            if gh != kostant_homology(lam, rs) or euler_class(gh) != half * weyl_character(lam, rs):
                bad += 1
        note = f"{token}, {count} weights, coords <= {bound}"
        cases.append(_case(f"osborne {token}", note, "0 mismatches", f"{bad} mismatches"))
    return cases


def suite_weyldenom(cfg) -> list[dict]:
    """Denominator transformation under every Weyl element. Each of the |W|
    checks expands a product of at least |W| terms, so |W|^2, not |W|, is
    held to WEYL_CAP, before any expansion: ``check_gram_cap`` with
    n = |W|."""
    cases = []
    for token in cfg["types"] or RANK_LE_3:
        rs = parse_type(token)
        check_gram_cap(rs.weyl_order, rs)
        group = rs.weyl_group()
        bad = sum(0 if check_denominator_symmetry(w, rs) else 1 for w in group)
        cases.append(
            _case(f"weyldenom {token}", f"{token}, all {group.order} elements", "0 failures", f"{bad} failures")
        )
    return cases


def suite_antisym(cfg) -> list[dict]:
    """Euler-class equivariance under W0 and transport to n_w, the latter
    against direct chain-complex recomputation: the Euler class over w(R+)
    must equal the transported one, and every degree of the homology over
    w(R+) must equal w applied to that degree over R+ (an Euler class alone
    cannot see a wrong rank). The caps of every antisym(ii) complex are
    checked before antisym(i) runs."""
    cases = []
    for token in cfg["types"] or RANK_LE_2:
        rs = parse_type(token)
        ctx = compact_context(rs)
        fam = [tuple([0] * rs.rank), rs.rho]
        fam += [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        fam = sorted(set(fam))
        for lam in fam:
            check_complex_caps(lam, rs)
        group = rs.weyl_group()
        bad_i = 0
        checks = 0
        for lam in dominant_box(rs.rank, min(cfg["bound"], 2)):
            xi = euler_class_closed_form(lam, rs)
            for w in group:
                checks += 1
                if not check_antisym_i(xi, w, ctx):
                    bad_i += 1
        cases.append(
            _case(f"antisym(i) {token}", f"{token}, {checks} (class, w) checks", "0 failures", f"{bad_i} failures")
        )
        bad_ii = 0
        checks = 0
        for lam in fam:
            base = koszul_n_homology(lam, rs.positive_roots, rs)
            xi, per_degree = euler_class(base), base.classes
            for w in group:
                nw = tuple(sorted(w.act(a) for a in rs.positive_roots))
                direct = koszul_n_homology(lam, nw, rs)
                checks += 1
                moved = tuple(weyl_act(w, b) for b in per_degree)
                if euler_class(direct) != antisym_transport(xi, w, ctx) or direct.classes != moved:
                    bad_ii += 1
        cases.append(
            _case(f"antisym(ii) {token}", f"{token}, {checks} (class, w) recomputations", "0 failures", f"{bad_ii} failures")
        )
    return cases


def suite_abelian(cfg) -> list[dict]:
    """Graded Ext over abelian Lie algebras vanishes in every degree at a
    nonzero character. (At the trivial character no map is built, so the
    binomial dimensions there hold by construction.) Every coordinate of
    (1/2, 1, ..., d-1) is nonzero, so a wrong wedge sign changes a rank."""
    cases = []
    for d in range(1, 7):
        dims = ext_abelian_graded([Fraction(1, 2)] + list(range(1, d)), d)
        cases.append(_case(f"abelian nu!=0 d={d}", "nonzero character", [0] * (d + 1), dims))
    return cases


def suite_standard(cfg) -> list[dict]:
    """Standard-module classes: discrete-series orthogonality for the
    rank-one split preset, and agreement of the two dual-class formulas on
    every closed-orbit datum with v in [-3, 3]^rank and s in {0, 1} (only
    the parity of s enters either formula)."""
    cases = []
    cat = sl2_catalog(cfg["bound"])
    ctx = cat.context
    closed = [m for m in cat.modules if m.provenance == "standard_closed"]
    bad = _off_identity(gram("elliptic", [m.euler for m in closed], ctx), [m.label for m in closed])
    cases.append(
        _case("standard sl2 orthogonality", f"{len(closed)} closed classes", "identity matrix", "identity matrix" if bad == 0 else f"{bad} entries off")
    )
    bad_dual = 0
    count = 0
    for rs_token in ("A1", "B2"):
        rs = parse_type(rs_token)
        cctx = compact_context(rs)
        for v in product(range(-3, 4), repeat=rs.rank):
            for s in (0, 1):
                direct = dual_standard_class(v, s, cctx)
                composed = dual_class(standard_module_class(v, s, cctx), cctx)
                count += 1
                if direct != composed:
                    bad_dual += 1
    note = f"{count} closed-orbit data, v in [-3, 3]^rank, s in {{0, 1}}, A1 and B2"
    cases.append(_case("standard dual agreement", note, "0 mismatches", f"{bad_dual} mismatches"))
    return cases


def suite_oracles(cfg) -> list[dict]:
    """Freudenthal and Weyl characters agree and sum to the Weyl dimension,
    on the basis of ``schur`` and under its caps."""
    cases = []
    for token in cfg["types"] or CHARACTER_TYPES:
        rs = parse_type(token)
        bound, lams = _basis(cfg, rs)
        bad = 0
        for lam in lams:
            chi_f = freudenthal_character(lam, rs)
            chi_w = weyl_character(lam, rs)
            if chi_f != chi_w or chi_f.coefficient_sum() != weyl_dimension(lam, rs):
                bad += 1
        cases.append(_case(f"oracles characters {token}", f"{len(lams)} weights, coords <= {bound}", "0 mismatches", f"{bad} mismatches"))
    return cases


SUITE_RUNNERS = {
    "schur": suite_schur,
    "osborne": suite_osborne,
    "weyldenom": suite_weyldenom,
    "antisym": suite_antisym,
    "abelian": suite_abelian,
    "standard": suite_standard,
    "oracles": suite_oracles,
}
SUITES = tuple(SUITE_RUNNERS)


def default_config() -> dict:
    """The config of a bare ``ellhom verify``: every suite on its default
    types and bound, without timing."""
    return {
        "types": None,
        "bound": DEFAULT_BOUND,
        "suites": list(SUITES),
        "timing": False,
    }


def run_suite(name: str, cfg) -> dict:
    """One suite's report. A cap hit or an internal error becomes a single
    failed case, so the other suites of a run still report. The config is
    checked before any suite runs, so a ValueError here is a bug too."""
    start = time.monotonic()
    try:
        cases = SUITE_RUNNERS[name](cfg)
    except CapExceededError as exc:
        cases = [_case(name, "", "completed", f"skipped: cap ({exc})")]
    except (AssertionError, ValueError) as exc:
        cases = [_case(name, "", "completed", f"internal error: {exc}")]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    passed = sum(1 for c in cases if c["pass"])
    report = {
        "suite": name,
        "cases": cases,
        "summary": {"total": len(cases), "passed": passed, "failed": len(cases) - passed},
    }
    if cfg["timing"]:
        report["timing_ms"] = elapsed_ms
    return report


def summarize(cfg, reports: list[dict]) -> dict:
    """The full verify result for a config and its suite reports."""
    total = sum(r["summary"]["total"] for r in reports)
    passed = sum(r["summary"]["passed"] for r in reports)
    return {
        "config": {
            "types": cfg["types"],
            "bound": cfg["bound"],
            "suites": list(cfg["suites"]),
            "cap_weyl": rootsystem.WEYL_CAP,
            "cap_dim": DIM_CAP,
        },
        "reports": reports,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
    }


def run_suites(cfg) -> dict:
    return summarize(cfg, [run_suite(name, cfg) for name in cfg["suites"]])
