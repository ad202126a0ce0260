"""The chain-complex homology oracle against frozen values and closed forms."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ellhom.koszul

from ellhom import (
    CapExceededError,
    CharElement,
    GradedHomology,
    VirtualModule,
    compact_context,
    euler_class,
    euler_class_closed_form,
    half_denominator,
    koszul_n_homology,
    homological_pairing,
    kostant_homology,
    parse_type,
    torus_pairing,
    weyl_character,
)


def test_a1_trivial_module(a1):
    gh = koszul_n_homology((0,), a1.positive_roots, a1)
    assert gh.classes[0] == CharElement.one(1)
    assert gh.classes[1] == CharElement.monomial((2,))
    assert euler_class(gh) == CharElement(1, {(0,): 1, (2,): -1})


def test_a1_two_dimensional_module(a1):
    gh = koszul_n_homology((1,), a1.positive_roots, a1)
    assert gh.classes[0] == CharElement.monomial((-1,))
    assert gh.classes[1] == CharElement.monomial((3,))
    assert euler_class(gh) == CharElement(1, {(-1,): 1, (3,): -1})
    assert euler_class_closed_form((1,), a1) == CharElement(1, {(-1,): 1, (3,): -1})


def test_a1_opposite_nilradical(a1):
    neg = tuple(tuple(-x for x in a) for a in a1.positive_roots)
    gh = koszul_n_homology((0,), neg, a1)
    assert gh.classes[0] == CharElement.one(1)
    assert gh.classes[1] == CharElement.monomial((-2,))


def test_a2_trivial_module_euler(a2):
    gh = koszul_n_homology((0, 0), a2.positive_roots, a2)
    # the signed sum over W of e^{rho - w rho}
    expected = CharElement(
        2,
        {(0, 0): 1, (2, -1): -1, (-1, 2): -1, (3, 0): 1, (0, 3): 1, (2, 2): -1},
    )
    assert euler_class(gh) == expected
    assert euler_class(gh) == half_denominator(a2) * weyl_character((0, 0), a2)
    # degree-one homology is the two simple-root characters
    assert gh.classes[1] == CharElement(2, {(2, -1): 1, (-1, 2): 1})


def test_empty_homology_euler():
    gh = GradedHomology(classes=(), positive_system=((2,),), rank=1)
    assert euler_class(gh) == CharElement.zero(1)


@pytest.mark.parametrize(
    "token,lam",
    [
        ("A1", (2,)),
        ("A2", (1, 0)),
        ("A2", (2, 1)),
        ("B2", (1, 1)),
        ("G2", (1, 0)),
    ],
)
def test_three_way_euler_identity(token, lam):
    rs = parse_type(token)
    gh = koszul_n_homology(lam, rs.positive_roots, rs)
    a = euler_class(gh)
    assert a == half_denominator(rs) * weyl_character(lam, rs)
    assert a == euler_class_closed_form(lam, rs)


@pytest.mark.parametrize(
    "token,lam",
    [("A1", (1,)), ("A2", (1, 0)), ("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0)),
     ("G2", (1, 2))],
)
def test_per_degree_closed_form_matches_oracle(token, lam):
    rs = parse_type(token)
    gh = koszul_n_homology(lam, rs.positive_roots, rs)
    kh = kostant_homology(lam, rs)
    assert len(gh.classes) == len(kh.classes)
    for a, b in zip(gh.classes, kh.classes):
        assert a == b


def test_nonstandard_positive_system_direct(a2):
    w = a2.simple_reflection(0)
    nw = tuple(w.act(alpha) for alpha in a2.positive_roots)
    gh = koszul_n_homology((1, 0), nw, a2)
    # H_0 is the lowest weight line for that nilradical: s0-lowest
    assert euler_class(gh) != euler_class(koszul_n_homology((1, 0), a2.positive_roots, a2))
    assert sum(c.coefficient_sum() for c in gh.classes) == sum(
        c.coefficient_sum() for c in kostant_homology((1, 0), a2).classes
    )


def test_input_validation(a2):
    with pytest.raises(ValueError, match="dominant"):
        koszul_n_homology((-1, 0), a2.positive_roots, a2)
    with pytest.raises(ValueError, match="wrong number"):
        koszul_n_homology((0, 0), a2.positive_roots[:2], a2)
    with pytest.raises(ValueError, match="root and its negative"):
        koszul_n_homology(
            (0, 0),
            (a2.positive_roots[0], tuple(-x for x in a2.positive_roots[0]), a2.positive_roots[2]),
            a2,
        )
    bad = (a2.simple_root(0), a2.simple_root(1), tuple(-x for x in a2.positive_roots[2]))
    with pytest.raises(ValueError, match="closed under addition"):
        koszul_n_homology((0, 0), bad, a2)


def test_dimension_cap(a2):
    # dim V(12,12) = 2197 > DIM_CAP, while 2197 * 2^3 is under COMPLEX_DIM_CAP,
    # so the module cap is the one that fires
    assert ellhom.koszul.DIM_CAP < 2197 and 2197 * 8 <= ellhom.koszul.COMPLEX_DIM_CAP
    with pytest.raises(CapExceededError, match="module too large"):
        koszul_n_homology((12, 12), a2.positive_roots, a2)


def test_complex_cap_bounds_the_whole_complex(monkeypatch):
    # dim V = 1 but 2^28 basis elements: refused before the module is built
    def no_module(rs, lam):
        raise AssertionError("the complex was not capped before assembly")

    monkeypatch.setattr(ellhom.koszul, "module_for", no_module)
    a7 = parse_type("A7")
    start = time.monotonic()
    with pytest.raises(CapExceededError, match="chain complex too large"):
        koszul_n_homology((0,) * 7, a7.positive_roots, a7)
    assert time.monotonic() - start < 5


def _plant_rank_fault(monkeypatch):
    """The first nonzero block rank in koszul comes out one too small."""
    real = ellhom.koszul.sparse_int_rank
    fired = []

    def one_too_small(rows):
        rank = real(rows)
        if rank and not fired:
            fired.append(True)
            return rank - 1
        return rank

    monkeypatch.setattr(ellhom.koszul, "sparse_int_rank", one_too_small)
    return fired


def test_oracle_fails_on_a_wrong_rank(monkeypatch, g2):
    fired = _plant_rank_fault(monkeypatch)
    try:
        gh = koszul_n_homology((1, 0), g2.positive_roots, g2)
    except AssertionError:
        return
    assert fired
    assert gh != kostant_homology((1, 0), g2)


def test_osborne_suite_fails_on_a_wrong_rank(monkeypatch):
    # a wrong rank leaves every Euler class unchanged, so the suite must
    # compare the graded homology itself
    from ellhom import verify

    fired = _plant_rank_fault(monkeypatch)
    cfg = dict(verify.default_config(), types=["A2"], bound=1)
    report = verify.run_suite("osborne", cfg)
    assert fired
    assert [c["actual"] for c in report["cases"]] == ["1 mismatches"]
    assert report["summary"]["failed"] == 1


def test_antisym_suite_fails_on_a_wrong_rank(monkeypatch):
    # the first block rank is one of the R+ complexes that every w(R+)
    # recomputation is compared against, degree by degree
    from ellhom import verify

    fired = _plant_rank_fault(monkeypatch)
    cfg = dict(verify.default_config(), types=["A2"], bound=1)
    report = verify.run_suite("antisym", cfg)
    assert fired
    actual = {c["name"]: c["actual"] for c in report["cases"]}
    assert actual["antisym(i) A2"] == "0 failures"
    assert actual["antisym(ii) A2"] != "0 failures"
    assert report["summary"]["failed"] == 1


def test_graded_homology_serialization(a1):
    gh = koszul_n_homology((1,), a1.positive_roots, a1)
    data = gh.to_dict()
    assert data["positive_system"] == [[2]]
    assert [d["p"] for d in data["degrees"]] == [0, 1]
    assert GradedHomology.from_dict(data) == gh


def test_graded_homology_linearity(a1):
    g1 = kostant_homology((1,), a1)
    g2 = kostant_homology((2,), a1)
    total = g1 + g2.scale(-2)
    assert euler_class(total) == euler_class(g1) - euler_class(g2) * 2
    with pytest.raises(ValueError, match="positive-system mismatch"):
        neg = tuple(tuple(-x for x in a) for a in a1.positive_roots)
        g1 + koszul_n_homology((1,), neg, a1)


# -- the one-map representation against per-degree references ----------------

A2 = parse_type("A2")
A2_CTX = compact_context(A2)


def degree_lists(max_degrees=4):
    """Per-degree classes of rank 2, as the test's own reference holds them."""
    cls = st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4), max_size=5
    ).map(lambda d: CharElement(2, d))
    return st.lists(cls, max_size=max_degrees)


def graded(classes):
    return GradedHomology(classes=tuple(classes), positive_system=A2_CTX.positive_system, rank=2)


def ref_sum(xs, ys):
    zero = CharElement.zero(2)
    n = max(len(xs), len(ys))
    xs, ys = list(xs) + [zero] * (n - len(xs)), list(ys) + [zero] * (n - len(ys))
    return tuple(x + y for x, y in zip(xs, ys))


def ref_euler(xs):
    out = CharElement.zero(2)
    for p, x in enumerate(xs):
        out = out - x if p % 2 else out + x
    return out


@given(xs=degree_lists(), ys=degree_lists(), c=st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_graded_sum_scale_and_euler_class_match_per_degree_arithmetic(xs, ys, c):
    g, h = graded(xs), graded(ys)
    total = g + h
    assert total.classes == ref_sum(xs, ys)
    assert total.degrees == len(total.classes) == max(len(xs), len(ys))
    scaled = g.scale(c)
    assert scaled.classes == tuple(x * c for x in xs)
    assert scaled.degrees == len(xs)
    assert euler_class(g) == ref_euler(xs)
    assert euler_class(total) == ref_euler(xs) + ref_euler(ys)
    assert euler_class(scaled) == ref_euler(xs) * c


@given(xs=degree_lists(), ys=degree_lists())
@settings(max_examples=150, deadline=None)
def test_homological_pairing_is_the_double_sum_over_degree_pairs(xs, ys):
    double_sum = sum(
        (-1) ** (p + q) * torus_pairing(x, y) for p, x in enumerate(xs) for q, y in enumerate(ys)
    )
    value = homological_pairing(graded(xs), graded(ys), A2_CTX)
    assert type(value) is Fraction
    assert value == Fraction(double_sum, A2_CTX.w0_order)


@given(xs=degree_lists(), ys=degree_lists(), c=st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_equal_and_hash_as_the_same_classes_built_directly(xs, ys, c):
    total, direct = graded(xs) + graded(ys), graded(ref_sum(xs, ys))
    assert total == direct and hash(total) == hash(direct)
    scaled, direct = graded(xs).scale(c), graded(x * c for x in xs)
    assert scaled == direct and hash(scaled) == hash(direct)
    # one more degree, even an empty one, is a different element
    assert graded(xs) != graded(list(xs) + [CharElement.zero(2)])


def test_degree_count_of_empty_and_virtual_representatives():
    empty = graded(())
    assert empty.degrees == 0 and empty.classes == ()
    assert empty.scale(0).degrees == 0
    assert (empty + graded([CharElement.one(2)])).degrees == 1
    euler = CharElement(2, {(0, 0): 2, (1, 1): -3})
    classes = (CharElement(2, {(0, 0): 2}), CharElement(2, {(1, 1): 3}))
    rep = VirtualModule(label="v", ctx=A2_CTX, euler=euler, homology=graded(classes)).homology
    assert rep.degrees == 2
    assert rep.classes == classes
    assert rep.scale(0).degrees == 2 and rep.scale(0).classes == (CharElement.zero(2),) * 2
    assert euler_class(rep) == euler


@given(xs=degree_lists().filter(bool))
@settings(max_examples=100, deadline=None)
def test_graded_homology_json_round_trip_is_byte_identical(xs):
    text = json.dumps(graded(xs).to_dict(), sort_keys=True)
    back = GradedHomology.from_dict(json.loads(text))
    assert back == graded(xs)
    assert json.dumps(back.to_dict(), sort_keys=True) == text


def test_graded_homology_is_immutable_and_checks_degree_ranks(a1):
    gh = kostant_homology((1,), a1)
    with pytest.raises(AttributeError):
        gh.terms = {}
    with pytest.raises(ValueError, match="degree 1"):
        GradedHomology(
            classes=(CharElement.one(1), CharElement.one(2)), positive_system=((2,),), rank=1
        )


def reference_graded_sum(g, h):
    """Per-term sum of the two maps, in the order of g, then the new keys of h."""
    out = dict(g.terms)
    for key, c in h.terms.items():
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


@given(xs=degree_lists(), ys=degree_lists(), kind=st.sampled_from(["overlapping", "disjoint", "cancelling"]))
@settings(max_examples=150, deadline=None)
def test_graded_sum_matches_a_per_term_reference(xs, ys, kind):
    g = graded(xs)
    if kind == "disjoint":
        ys = [y.shift((100, 0)) for y in ys]
    h = graded(ys) if kind != "cancelling" else g.scale(-1)
    total = g + h
    assert list(total.terms.items()) == list(reference_graded_sum(g, h).items())
    assert all(total.terms.values())
    if kind == "cancelling":
        assert total.terms == {} and total.degrees == g.degrees


@given(xs=degree_lists(), ys=degree_lists(), c=st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_cached_euler_class_equals_a_fresh_fold(xs, ys, c):
    g, h = graded(xs), graded(ys)
    # fill the caches of the operands first: results must not inherit them
    assert euler_class(g) == ref_euler(xs) and euler_class(h) == ref_euler(ys)
    for result in (g + h, g.scale(c), (g + h).scale(c)):
        first = euler_class(result)
        assert first == ref_euler(result.classes)  # a fresh fold, per degree
        assert euler_class(result) is first


def test_repeated_pairings_fold_each_homology_once(monkeypatch):
    folds = []
    original = ellhom.koszul.CharElement._of

    def counting(rank, terms):
        folds.append(rank)
        return original(rank, terms)

    homs = [kostant_homology(lam, A2) for lam in ((0, 0), (1, 0), (0, 1), (1, 1))]
    # the fold is the one CharElement a pairing builds
    monkeypatch.setattr(ellhom.koszul.CharElement, "_of", counting)
    values = [[homological_pairing(a, b, A2_CTX) for b in homs] for a in homs]
    assert len(folds) == len(homs)
    for _ in range(3):
        assert [[homological_pairing(a, b, A2_CTX) for b in homs] for a in homs] == values
    assert len(folds) == len(homs)
    assert values == [[Fraction(int(a is b)) for b in homs] for a in homs]


@pytest.mark.parametrize("numbers", [[5, 7], [0, 0], [1, 2], [0, 2]])
def test_graded_homology_from_dict_requires_degrees_numbered_from_zero(a1, numbers):
    data = kostant_homology((1,), a1).to_dict()
    for entry, p in zip(data["degrees"], numbers):
        entry["p"] = p
    with pytest.raises(ValueError, match="'p'"):
        GradedHomology.from_dict(data)
    # the order of the entries in the file does not matter
    data = kostant_homology((1,), a1).to_dict()
    data["degrees"].reverse()
    assert GradedHomology.from_dict(data) == kostant_homology((1,), a1)
