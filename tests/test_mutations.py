"""The mutation table: every ``verify`` case can fail.

Each fault below is planted with ``monkeypatch`` on the module bindings the
suites look up, and wraps the original function without mutating anything it
returns, so no cached module, bracket table or group is touched. Every
suite runs on A2 with bound 1 (the suites without a type parameter run as
always): every case passes with no fault; each fault fails at least one
case; and every case fails under at least one fault, so a check that cannot
fail cannot be added unnoticed. The schur and standard suites also run on
their default types with bound 1, and there too every case fails under at
least one fault.
"""

from ellhom import characters, charring, koszul, pairings, verify
from ellhom.charring import CharElement
from ellhom.koszul import GradedHomology


def _rank_minus_one(mp):
    """Every nonzero block rank seen by koszul and pairings is one short."""
    original = koszul.sparse_int_rank

    def faulty(rows):
        rank = original(rows)
        return rank - 1 if rank else rank

    mp.setattr(koszul, "sparse_int_rank", faulty)
    mp.setattr(pairings, "sparse_int_rank", faulty)


def _pivot_swapped_out(mp):
    """The pivot rows koszul reads report the first row the elimination
    left out in place of the last pivot, so the rows whose coordinates the
    next degree drops need no longer be independent."""
    original = koszul.sparse_int_pivots

    def faulty(rows):
        pivots = original(rows)
        left_out = [i for i in range(len(rows)) if i not in pivots][:1]
        return pivots[:-1] + left_out if pivots and left_out else pivots

    mp.setattr(koszul, "sparse_int_pivots", faulty)


def _bracket_sign(mp):
    """[x_a, x_b] and [x_b, x_a] flip sign for the first pair of positive
    roots whose sum is a root (rank one has none), in the table koszul
    reads."""
    original = koszul.structure_constants

    def faulty(rs):
        brackets = dict(original(rs))
        positive = set(rs.positive_roots)
        pairs = sorted(
            (a, b) for a, b in brackets
            if a in positive and b in positive and tuple(x + y for x, y in zip(a, b)) in positive
        )
        for a, b in pairs[:1]:
            for key in ((a, b), (b, a)):
                p, q = brackets[key]
                brackets[key] = (-p, q)
        return brackets

    mp.setattr(koszul, "structure_constants", faulty)


def _rho_shift_off_by_one(mp):
    """rho - w rho, as pairings reads it, is one too large in its first
    coordinate for every simple reflection."""
    original = pairings.rho_shift

    def faulty(w, rs):
        shift = original(w, rs)
        return (shift[0] + 1,) + shift[1:] if w.length == 1 else shift

    mp.setattr(pairings, "rho_shift", faulty)


def _dual_shift(mp):
    """The dual class verify composes with is shifted by the first
    fundamental weight."""
    original = verify.dual_class

    def faulty(xi, ctx):
        return original(xi, ctx).shift((1,) + (0,) * (ctx.rs.rank - 1))

    mp.setattr(verify, "dual_class", faulty)


def _weyl_coefficient(mp):
    """Every Weyl character verify reads has its highest-weight coefficient
    raised by one."""
    original = verify.weyl_character

    def faulty(lam, rs):
        return original(lam, rs) + CharElement.monomial(tuple(lam))

    mp.setattr(verify, "weyl_character", faulty)


def _kostant_term(mp):
    """Every Kostant homology verify reads loses its degree-0 term."""
    original = verify.kostant_homology

    def faulty(lam, rs):
        gh = original(lam, rs)
        h0 = gh.classes[0]
        dropped = h0 - CharElement.monomial(min(h0.terms), h0.terms[min(h0.terms)])
        return GradedHomology(
            classes=(dropped,) + gh.classes[1:], positive_system=gh.positive_system, rank=gh.rank
        )

    mp.setattr(verify, "kostant_homology", faulty)


def _denominator_root(mp):
    """The half Weyl denominator verify and pairings read (the osborne
    suite, the denominator symmetry and the multiplicity Gram matrix)
    misses the factor of its first positive root."""

    def faulty(rs):
        return charring.root_product(rs.positive_roots[1:], rs.rank)

    mp.setattr(verify, "half_denominator", faulty)
    mp.setattr(pairings, "half_denominator", faulty)


def _division_drops_a_term(mp):
    """Every quotient the Weyl character formula reads from the division
    loses its lowest term in the division's term order (height, then
    weight)."""
    original = characters.divide_exact

    def faulty(p, q, rs):
        quotient = original(p, q, rs)
        lowest = min(quotient.terms, key=lambda mu: (rs.height(mu), mu))
        return quotient - CharElement.monomial(lowest, quotient.terms[lowest])

    mp.setattr(characters, "divide_exact", faulty)


def _torus_conjugation(mp):
    """The torus pairing pairings reads is CT(a * b), without conjugating b."""
    original = pairings.torus_pairing
    mp.setattr(pairings, "torus_pairing", lambda a, b: original(a, b.conjugate()))


FAULTS = {
    "rank - 1": _rank_minus_one,
    "pivot swapped out": _pivot_swapped_out,
    "bracket sign": _bracket_sign,
    "rho_shift + 1": _rho_shift_off_by_one,
    "dual_class shift": _dual_shift,
    "weyl coefficient + 1": _weyl_coefficient,
    "kostant term dropped": _kostant_term,
    "denominator root dropped": _denominator_root,
    "torus conjugation dropped": _torus_conjugation,
    "division drops a quotient term": _division_drops_a_term,
}


def _config():
    cfg = verify.default_config()
    cfg.update(types=["A2"], bound=1)
    return cfg


def _failed(cfg):
    return {
        case["name"]
        for report in verify.run_suites(cfg)["reports"]
        for case in report["cases"]
        if not case["pass"]
    }


def _fault_table(cfg, monkeypatch):
    """The cases each fault fails, after checking that a clean run of cfg
    passes and that every one of its cases fails under some fault."""
    clean = verify.run_suites(cfg)
    names = [c["name"] for r in clean["reports"] for c in r["cases"]]
    assert clean["summary"]["failed"] == 0, _failed(cfg)
    table = {}
    for fault, plant in FAULTS.items():
        with monkeypatch.context() as mp:
            plant(mp)
            table[fault] = _failed(cfg)
    assert not _failed(cfg)  # every fault is gone again
    unfailable = [name for name in names if not any(name in failed for failed in table.values())]
    assert not unfailable, f"cases no fault fails: {unfailable}; table: {table}"
    return table


def test_every_fault_fails_a_case_and_every_case_fails_under_a_fault(monkeypatch):
    table = _fault_table(_config(), monkeypatch)
    harmless = [fault for fault, failed in table.items() if not failed]
    assert not harmless, f"faults that fail no case: {harmless}"


def test_every_schur_and_standard_case_fails_under_a_fault(monkeypatch):
    cfg = verify.default_config()
    cfg.update(suites=["schur", "standard"], bound=1)
    table = _fault_table(cfg, monkeypatch)
    # both faults break integrality, and the one elliptic Gram matrix per
    # type shows it on every default type
    for fault in ("kostant term dropped", "torus conjugation dropped"):
        assert {f"schur integrality {token}" for token in verify.RANK_LE_3} <= table[fault]
    # with a root missing, CT(P * conj(P)) is no longer |W|, so the
    # (trivial, trivial) entry of every multiplicity Gram matrix is off
    assert {f"schur multiplicity {token}" for token in verify.RANK_LE_3} <= table["denominator root dropped"]
