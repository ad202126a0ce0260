"""The verification suites behind ``ellhom verify`` and the acceptance gate.

Each suite checks one family of the identities at desk scale and returns a
list of cases, ``{"name", "inputs", "expected", "actual", "pass"}``, with
every comparison an exact equality. ``run_suites`` runs the suites a config
names and wraps their cases in a deterministic report.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .characters import (
    InternalConsistencyError,
    freudenthal_character,
    weyl_character,
    weyl_dimension,
)
from .charring import CharElement, half_denominator, torus_integral, weyl_act, weyl_denominator_full
from .koszul import (
    DIM_CAP,
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
    elliptic_pairing,
    ext_abelian_graded,
    gram,
)
from .rootsystem import WEYL_CAP, CapExceededError, dominant_box, parse_type
from .zoo import GeometricDatum, dual_standard_class, sl2_catalog, standard_module_class

DEFAULT_SEED = 20260808
DEFAULT_BOUND = 3
DEFAULT_TRIALS = 1000

RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]
SCHUR_TYPES = ["A1", "A2", "B2", "G2"]


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


def suite_schur(cfg) -> list[dict]:
    """The multiplicity and elliptic pairings both equal the Kronecker
    delta on compact irreducibles: one ``gram`` matrix each, over the Weyl
    characters and the Euler classes of their Kostant homologies. In a
    compact context the Euler-Poincare pairing is dim Hom_G, so the
    multiplicity case is the homological side of the identity."""
    cases = []
    for token in cfg["types"] or SCHUR_TYPES:
        rs = parse_type(token)
        ctx = compact_context(rs)
        lams = dominant_box(rs.rank, cfg["bound"])
        grams = {
            "multiplicity": gram("multiplicity", [weyl_character(lam, rs) for lam in lams], ctx),
            "elliptic": gram("elliptic", [euler_class(kostant_homology(lam, rs)) for lam in lams], ctx),
        }
        note = f"{token}, {len(lams)}^2 pairs, coords <= {cfg['bound']}"
        for kind, matrix in grams.items():
            bad = _off_identity(matrix, lams)
            cases.append(_case(f"schur {kind} {token}", note, "0 mismatches", f"{bad} mismatches"))
        nonint = sum(1 for row in grams["elliptic"] for e in row if e.denominator != 1)
        cases.append(_case(f"schur integrality {token}", note, "0 non-integers", f"{nonint} non-integers"))
    return cases


def suite_kazhdan(cfg) -> list[dict]:
    """Seeded fuzz: the elliptic pairing is an integer on random virtual
    combinations of compact Euler classes. (A homological pairing of the
    same combinations of homologies, folded to Euler classes, equals it by
    bilinearity, so comparing the two here could not fail.)"""
    cases = []
    for token in cfg["types"] or RANK_LE_3:
        rs = parse_type(token)
        ctx = compact_context(rs)
        bound = 2 if rs.rank <= 2 else 1
        basis = [euler_class(kostant_homology(lam, rs)) for lam in dominant_box(rs.rank, bound)]
        rng = random.Random(cfg["seed"])
        nonint = 0
        for _ in range(cfg["trials"]):
            combos = []
            for _ in range(2):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                xi = CharElement.zero(rs.rank)
                for c, e in zip(coeffs, basis):
                    if c:
                        xi = xi + e * c
                combos.append(xi)
            if elliptic_pairing(combos[0], combos[1], ctx).denominator != 1:
                nonint += 1
        note = f"{token}, {cfg['trials']} seeded pairs, basis coords <= {bound}"
        cases.append(_case(f"kazhdan integrality {token}", note, "0 non-integers", f"{nonint} non-integers"))
    return cases


def suite_osborne(cfg) -> list[dict]:
    """Equality of the chain-complex homology with Kostant's in every
    degree (an Euler class alone cannot see a wrong rank), and of its Euler
    class with half_denominator times the Weyl character. Equal homologies
    have equal Euler classes, so the closed-form Euler class needs no
    comparison of its own."""
    cases = []
    bound = min(cfg["bound"], 2)
    for token in cfg["types"] or RANK_LE_2:
        rs = parse_type(token)
        half = half_denominator(rs)
        bad = 0
        count = 0
        for lam in dominant_box(rs.rank, bound):
            gh = koszul_n_homology(lam, rs.positive_roots, rs)
            count += 1
            if gh != kostant_homology(lam, rs) or euler_class(gh) != half * weyl_character(lam, rs):
                bad += 1
        note = f"{token}, {count} weights, coords <= {bound}"
        cases.append(_case(f"osborne {token}", note, "0 mismatches", f"{bad} mismatches"))
    return cases


def suite_weyldenom(cfg) -> list[dict]:
    """Denominator transformation under every Weyl element."""
    cases = []
    for token in cfg["types"] or RANK_LE_3:
        rs = parse_type(token)
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
    cannot see a wrong rank)."""
    cases = []
    for token in cfg["types"] or RANK_LE_2:
        rs = parse_type(token)
        ctx = compact_context(rs)
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
        fam = [tuple([0] * rs.rank), rs.rho]
        fam += [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        fam = sorted(set(fam))
        bad_ii = 0
        checks = 0
        for lam in fam:
            base = koszul_n_homology(lam, rs.positive_roots, rs)
            xi = euler_class(base)
            for w in group:
                nw = tuple(sorted(w.act(a) for a in rs.positive_roots))
                direct = koszul_n_homology(lam, nw, rs)
                checks += 1
                moved = tuple(weyl_act(w, b) for b in base.classes)
                if euler_class(direct) != antisym_transport(xi, w, ctx) or direct.classes != moved:
                    bad_ii += 1
        cases.append(
            _case(f"antisym(ii) {token}", f"{token}, {checks} (class, w) recomputations", "0 failures", f"{bad_ii} failures")
        )
    return cases


def suite_abelian(cfg) -> list[dict]:
    """Graded Ext over abelian Lie algebras vanishes in every degree at a
    nonzero character. (At the trivial character no map is built, so the
    binomial dimensions there hold by construction.)"""
    cases = []
    for d in range(1, 7):
        dims = ext_abelian_graded([Fraction(1, 2)] + [0] * (d - 1), d)
        cases.append(_case(f"abelian nu!=0 d={d}", "nonzero character", [0] * (d + 1), dims))
    return cases


def suite_standard(cfg) -> list[dict]:
    """Standard-module classes: discrete-series orthogonality for the
    rank-one split preset, and agreement of the two dual-class formulas on
    seeded closed-orbit data."""
    cases = []
    cat = sl2_catalog(cfg["bound"])
    ctx = cat.context
    closed = [m for m in cat.modules if m.provenance == "standard_closed"]
    bad = _off_identity(gram("elliptic", [m.euler for m in closed], ctx), [m.label for m in closed])
    cases.append(
        _case("standard sl2 orthogonality", f"{len(closed)} closed classes", "identity matrix", "identity matrix" if bad == 0 else f"{bad} entries off")
    )
    rng = random.Random(cfg["seed"])
    bad_dual = 0
    for rs_token in ("A1", "B2"):
        rs = parse_type(rs_token)
        cctx = compact_context(rs)
        for _ in range(25):
            v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            datum = GeometricDatum(closed=True, v_weight=v, s=rng.randint(0, 3), ctx=cctx)
            direct = dual_standard_class(datum).euler
            composed = dual_class(standard_module_class(datum).euler, cctx)
            if direct != composed:
                bad_dual += 1
    cases.append(_case("standard dual agreement", "50 seeded closed-orbit data, rank <= 2", "0 mismatches", f"{bad_dual} mismatches"))
    return cases


def suite_oracles(cfg) -> list[dict]:
    """Cross-checks: the two character algorithms agree, and CT(D) = |W|."""
    cases = []
    for token in cfg["types"] or SCHUR_TYPES:
        rs = parse_type(token)
        bad = 0
        lams = dominant_box(rs.rank, cfg["bound"])
        for lam in lams:
            chi_f = freudenthal_character(lam, rs)
            chi_w = weyl_character(lam, rs)
            if chi_f != chi_w or chi_f.coefficient_sum() != weyl_dimension(lam, rs):
                bad += 1
        cases.append(_case(f"oracles characters {token}", f"{len(lams)} weights, coords <= {cfg['bound']}", "0 mismatches", f"{bad} mismatches"))
    bad_ct = []
    for token in RANK_LE_3:
        rs = parse_type(token)
        if torus_integral(weyl_denominator_full(rs)) != rs.weyl_order:
            bad_ct.append(token)
    cases.append(_case("oracles CT(D) = |W|", ", ".join(RANK_LE_3), "all match", "all match" if not bad_ct else f"off: {bad_ct}"))
    return cases


SUITE_RUNNERS = {
    "schur": suite_schur,
    "kazhdan": suite_kazhdan,
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
    types, bound, trials and seed, without timing."""
    return {
        "types": None,
        "bound": DEFAULT_BOUND,
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
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
    except (InternalConsistencyError, AssertionError, ValueError) as exc:
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
            "trials": cfg["trials"],
            "suites": list(cfg["suites"]),
            "cap_weyl": WEYL_CAP,
            "cap_dim": DIM_CAP,
        },
        "seed": cfg["seed"],
        "reports": reports,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
    }


def run_suites(cfg) -> dict:
    return summarize(cfg, [run_suite(name, cfg) for name in cfg["suites"]])
