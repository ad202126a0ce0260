"""Character-ring arithmetic, denominators, and the exact torus pairing.

The denominator expansions are cross-checked against an independent
subset-sum oracle (itertools over the factors), not the ring's own
multiplication.
"""

import heapq
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ellhom import (
    CharElement,
    divide_exact,
    enumerate_weyl_group,
    half_denominator,
    parse_type,
    root_product,
    torus_integral,
    torus_pairing,
    weyl_act,
    weyl_denominator_full,
)


def oracle_product_expansion(roots):
    """Expand prod (1 - e^alpha) by iterating over all factor choices."""
    rank = len(roots[0])
    terms = {}
    for choice in product([0, 1], repeat=len(roots)):
        exponent = tuple(
            sum(c * a[i] for c, a in zip(choice, roots)) for i in range(rank)
        )
        coeff = (-1) ** sum(choice)
        terms[exponent] = terms.get(exponent, 0) + coeff
    return {mu: c for mu, c in terms.items() if c}


def weights(rank, size=4):
    return st.tuples(*[st.integers(-size, size)] * rank)


def char_elements(rank):
    return st.dictionaries(weights(rank), st.integers(-9, 9), max_size=6).map(
        lambda d: CharElement(rank, d)
    )


def test_monomial_products(a1, a2):
    mu = CharElement.monomial((3,))
    assert mu * CharElement.one(1) == mu
    omega = CharElement.monomial((1,)) + CharElement.monomial((-1,))
    square = omega * omega
    assert square == CharElement(1, {(2,): 1, (0,): 2, (-2,): 1})
    e1 = CharElement.monomial(a2.simple_roots[0])
    e2 = CharElement.monomial(a2.simple_roots[1])
    assert e1 * e2 == CharElement.monomial((1, 1))


def test_product_with_a_foreign_type_is_a_type_error():
    from fractions import Fraction

    x = CharElement.one(1)
    for other in (Fraction(2), 2.0, "x"):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


def test_sum_with_a_foreign_type_is_a_type_error():
    x = CharElement.one(1)
    with pytest.raises(TypeError):
        x + 2
    with pytest.raises(TypeError):
        x - 1
    with pytest.raises(TypeError):
        x + "x"


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError, match="rank mismatch"):
        CharElement.one(1) * CharElement.one(2)
    with pytest.raises(ValueError, match="rank"):
        CharElement(2, {(1,): 1})


def test_shift_by_zero_coefficient_is_zero():
    x = CharElement.monomial((1, 0)).shift((0, 1), 0)
    assert x.terms == {}
    assert x.is_zero()
    assert x == CharElement.zero(2)


@given(data=st.data(), rank=st.integers(0, 4), coeff=st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_shift_matches_a_per_term_reference(data, rank, coeff):
    a = data.draw(char_elements(rank))
    mu = data.draw(weights(rank))
    reference = {
        tuple(x + m for x, m in zip(nu, mu)): c * coeff for nu, c in a.terms.items() if coeff
    }
    assert a.shift(mu, coeff).terms == reference


def test_shift_rejects_a_wrong_rank_weight_and_a_non_int_coefficient():
    from fractions import Fraction

    one = CharElement.one(2)
    assert CharElement.from_dict(one.shift((1, 2), -3).to_dict()) == CharElement(2, {(1, 2): -3})
    for mu in ((1,), (1, 2, 3)):
        for coeff in (1, 0):
            with pytest.raises(ValueError, match="does not have rank 2"):
                one.shift(mu, coeff)
    for coeff in (Fraction(1, 2), 2.0):
        with pytest.raises(ValueError, match="not an int"):
            one.shift((1, 2), coeff)


def test_conjugation_examples(a1):
    assert CharElement.one(1).conjugate() == CharElement.one(1)
    x = CharElement(2, {(1, 0): 2, (0, 1): -1})
    assert x.conjugate() == CharElement(2, {(-1, 0): 2, (0, -1): -1})
    d = weyl_denominator_full(a1)
    assert d.conjugate() == d


def test_weyl_act_examples(a1, a2):
    one_minus = CharElement(1, {(0,): 1, (2,): -1})
    s = a1.simple_reflection(0)
    assert weyl_act(s, one_minus) == CharElement(1, {(0,): 1, (-2,): -1})
    orbit_sum = CharElement(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    longest = a2.from_word([0, 1, 0])
    assert weyl_act(longest, orbit_sum) == orbit_sum
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_act(s, orbit_sum)


def test_torus_integral_examples(a1):
    assert torus_integral(CharElement.one(1)) == 1
    assert torus_integral(CharElement.monomial((3,))) == 0
    d = weyl_denominator_full(a1)
    assert d == CharElement(1, {(0,): 2, (2,): -1, (-2,): -1})
    assert torus_integral(d) == 2


def test_torus_pairing_examples():
    mu = CharElement.monomial((2, 1))
    nu = CharElement.monomial((1, 2))
    assert torus_pairing(mu, mu) == 1
    assert torus_pairing(mu, nu) == 0
    one_minus = CharElement(1, {(0,): 1, (2,): -1})
    assert torus_pairing(one_minus, one_minus) == 2


@pytest.mark.parametrize("token,order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48), ("C3", 48)])
def test_full_denominator_constant_term(token, order):
    from ellhom import parse_type

    rs = parse_type(token)
    d = weyl_denominator_full(rs)
    assert torus_integral(d) == order
    if len(rs.full_roots) <= 12:
        assert d.terms == oracle_product_expansion(rs.full_roots)


def test_denominators_refuse_a_weyl_group_over_the_cap(monkeypatch):
    # both expansions have at least |W| terms: |W(F4)| = 1152 is over a cap
    # of 1000, and the cap is read at call time, so neither product is made;
    # the rule is check_gram_cap's with n = 1
    from ellhom import CapExceededError, rootsystem

    f4 = parse_type("F4")
    monkeypatch.setattr(rootsystem, "WEYL_CAP", 1000)
    for denominator in (half_denominator, weyl_denominator_full):
        with pytest.raises(CapExceededError, match=r"1 \* max\(1, \|W\(F4\)\|\) = 1152 exceeds cap 1000"):
            denominator(f4)


def test_half_denominator(a1, a2, b2):
    assert half_denominator(a1) == CharElement(1, {(0,): 1, (2,): -1})
    expected_a2 = oracle_product_expansion(a2.positive_roots)
    half = half_denominator(a2)
    assert half.terms == expected_a2
    assert len(half.terms) == 6
    assert torus_integral(half) == 1
    assert half.coefficient((2, 2)) == -1
    for rs in (a1, a2, b2):
        h = half_denominator(rs)
        assert weyl_denominator_full(rs) == h * h.conjugate()


def test_full_denominator_expands_the_product_over_all_roots(a2):
    d = weyl_denominator_full(a2)
    assert d.terms == oracle_product_expansion(a2.full_roots)


def test_denominator_is_weyl_and_conjugation_invariant(a2, b2):
    for rs in (a2, b2):
        d = weyl_denominator_full(rs)
        assert d.conjugate() == d
        for w in enumerate_weyl_group(rs):
            assert weyl_act(w, d) == d


@given(a=char_elements(2), b=char_elements(2), c=char_elements(2))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CharElement.zero(2) == a
    assert a * CharElement.one(2) == a
    assert a - a == CharElement.zero(2)


@given(a=char_elements(2), b=char_elements(2))
@settings(max_examples=60, deadline=None)
def test_conjugation_is_a_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(a=char_elements(2), b=char_elements(2), mu=weights(2))
@settings(max_examples=60, deadline=None)
def test_pairing_shift_invariance(a, b, mu):
    assert torus_pairing(a.shift(mu), b.shift(mu)) == torus_pairing(a, b)


@given(a=char_elements(2), b=char_elements(2), idx=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_pairing_weyl_invariance(a, b, idx):
    from ellhom import build_root_system

    rs = build_root_system("B", 2)
    group = list(enumerate_weyl_group(rs))
    w = group[idx % 8]
    assert torus_pairing(weyl_act(w, a), weyl_act(w, b)) == torus_pairing(a, b)
    units = rs.identity_element().matrix
    winv = next(u for u in group if all(u.act(w.act(e)) == e for e in units))
    assert weyl_act(w, weyl_act(winv, a)) == a


@given(a=char_elements(2))
@settings(max_examples=40, deadline=None)
def test_pairing_against_definition(a):
    # the dot-product shortcut equals CT(a * conj(a))
    assert torus_pairing(a, a) == torus_integral(a * a.conjugate())


def test_json_round_trip_with_big_coefficients():
    big = 10**40
    x = CharElement(2, {(1, -2): big, (-3, 4): -big - 7})
    data = x.to_dict()
    assert data["terms"][0]["c"] in (str(big), str(-big - 7))
    assert all(isinstance(t["c"], str) for t in data["terms"])
    assert CharElement.from_dict(data) == x
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["w"])


def test_a_coefficient_over_the_int_digit_limit_is_refused_by_its_length():
    import sys

    limit = sys.get_int_max_str_digits()
    at_limit, over = "-" + "1" * limit, "1" * (limit + 1)
    assert CharElement.from_dict({"rank": 1, "terms": [{"w": [0], "c": at_limit}]}).terms == {
        (0,): int(at_limit)
    }
    with pytest.raises(ValueError, match=rf"'c' of the weight \[0\] has {limit + 1} digits,"
                                         rf" more than the limit of {limit}"):
        CharElement.from_dict({"rank": 1, "terms": [{"w": [0], "c": over}]})
    # 0 means no limit
    sys.set_int_max_str_digits(0)
    try:
        assert CharElement.from_dict({"rank": 1, "terms": [{"w": [0], "c": over}]}).terms == {
            (0,): int(over)
        }
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_refused_coefficient_is_quoted_short():
    # refused for its length (over the default limit of 4300 digits), or for
    # its form: either way the message names the key and the weight, and
    # does not quote all 5000 characters
    for c, reason in (("1" * 5000, "has 5000 digits"), ("x" * 5000, "must be a decimal integer")):
        with pytest.raises(ValueError, match=rf"'c' of the weight \[0\] {reason}") as info:
            CharElement.from_dict({"rank": 1, "terms": [{"w": [0], "c": c}]})
        assert len(str(info.value)) < 200


def test_a_character_is_not_hashable():
    # equal by content but mutable, so a content hash could go stale
    with pytest.raises(TypeError):
        hash(CharElement.monomial((0,)))


def test_exact_division(a2):
    half = half_denominator(a2)
    x = CharElement(2, {(1, 0): 3, (-2, 1): -5, (0, 0): 1})
    assert divide_exact(half * x, half, a2) == x
    with pytest.raises(ValueError, match="not exact"):
        divide_exact(CharElement.monomial((1, 0)), half, a2)


@given(x=char_elements(2))
@settings(max_examples=40, deadline=None)
def test_exact_division_round_trips(x):
    from ellhom import build_root_system

    rs = build_root_system("A", 2)
    for q in (half_denominator(rs), half_denominator(rs).conjugate()):
        assert divide_exact(q * x, q, rs) == x


def test_non_exact_division_with_tied_leading_height_raises(a2):
    # (1,-1) and (0,0) both have height 0; the Newton box of the quotient is empty
    q = CharElement(2, {(0, 0): 1, (1, -1): -1})
    with pytest.raises(ValueError, match="not exact"):
        divide_exact(CharElement.one(2), q, a2)


def test_coefficients_are_integers_and_round_trip():
    from fractions import Fraction

    with pytest.raises(ValueError, match="not an integer"):
        CharElement(1, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError, match="not an integer"):
        CharElement(1, {(1,): 1.0})
    a = CharElement(1, {(1,): Fraction(4, 2), (2,): Fraction(0)})
    assert a.terms == {(1,): 2}
    assert type(a.terms[(1,)]) is int
    assert a.to_dict()["terms"] == [{"w": [1], "c": "2"}]
    assert CharElement.from_dict(a.to_dict()) == a


def test_division_rank_mismatch_raises(a2):
    with pytest.raises(ValueError, match="rank mismatch"):
        divide_exact(CharElement.monomial((1, 0, 5)), CharElement.monomial((1, 0)), a2)
    with pytest.raises(ValueError, match="rank mismatch"):
        divide_exact(CharElement.monomial((1,)), CharElement.monomial((1,)), a2)


@pytest.mark.parametrize("token", ["B2", "G2", "B3"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_division_by_non_monic_divisors_round_trips(token, data):
    from ellhom import parse_type

    rs = parse_type(token)
    x = data.draw(char_elements(rs.rank))
    half = half_denominator(rs)
    theta = rs.positive_roots[-1]
    one_plus = CharElement.one(rs.rank) + CharElement.monomial(theta)
    one_plus_two = CharElement.one(rs.rank) + CharElement.monomial(theta, 2)
    for q in (2 * half, half * one_plus, half.conjugate() * one_plus_two):
        assert divide_exact(q * x, q, rs) == x


def naive_product(a, b):
    """Tuple-key double loop over both operands."""
    out = {}
    for mu, c in a.terms.items():
        for nu, d in b.terms.items():
            key = tuple(x + y for x, y in zip(mu, nu))
            out[key] = out.get(key, 0) + c * d
    return {mu: c for mu, c in out.items() if c}


@st.composite
def wide_pairs(draw):
    """Two elements of one rank 1-4 whose weights sit near a few anchors with
    mixed-sign coordinates up to 10^6, so radices are wide and products of
    nearby terms collide and may cancel."""
    rank = draw(st.integers(1, 4))
    anchors = draw(st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * rank), min_size=1, max_size=3))

    def element():
        entries = draw(st.lists(
            st.tuples(st.sampled_from(anchors), weights(rank, 2), st.integers(-3, 3)),
            max_size=7,
        ))
        return CharElement(rank, {tuple(map(sum, zip(a, o))): c for a, o, c in entries})

    return element(), element()


@given(pair=wide_pairs())
@settings(max_examples=300, deadline=None)
def test_product_against_naive_double_loop(pair):
    a, b = pair
    before = (dict(a.terms), dict(b.terms))
    expected = naive_product(a, b)
    for prod in (a * b, b * a):
        assert prod.rank == a.rank
        assert prod.terms == expected
        assert all(prod.terms.values())
    assert (a.terms, b.terms) == before


@pytest.mark.parametrize("alpha", [(1,), (-10**6,), (3, -2), (10**6, -10**6, 7), (0, 1, -1, 10**6)])
def test_product_cancellation(alpha):
    rank = len(alpha)
    one = CharElement.one(rank)
    e = CharElement.monomial(alpha)
    two_alpha = tuple(2 * x for x in alpha)
    prod = (one - e) * (one + e)
    assert prod == one - CharElement.monomial(two_alpha)
    assert prod.terms == {(0,) * rank: 1, two_alpha: -1}
    assert (one - e) * CharElement.zero(rank) == CharElement.zero(rank)
    assert e * e.conjugate() == one


def naive_root_product(roots, rank):
    """prod (1 - e^beta) one factor at a time with tuple-keyed ring operations."""
    out = CharElement.one(rank)
    for beta in roots:
        out = out - out.shift(beta)
    return out


@st.composite
def root_lists(draw):
    """A rank 1-4 and up to 8 weights drawn partly from a small pool, so
    factors repeat, come with their negatives and cancel terms."""
    rank = draw(st.integers(1, 4))
    pool = draw(st.lists(weights(rank, 3), min_size=1, max_size=3))
    pool += [tuple(-x for x in beta) for beta in pool]
    roots = draw(st.lists(st.sampled_from(pool) | weights(rank, 3), max_size=8))
    return rank, roots


@given(case=root_lists())
@settings(max_examples=300, deadline=None)
def test_root_product_against_naive_loop(case):
    rank, roots = case
    prod = root_product(roots, rank)
    assert prod.rank == rank
    assert prod.terms == naive_root_product(roots, rank).terms
    assert all(prod.terms.values())


def test_root_product_examples():
    assert root_product([], 3) == CharElement.one(3)
    beta = (2, -1)
    two_beta = (4, -2)
    one = CharElement.one(2)
    # repeated factor: (1 - e^b)^2 = 1 - 2 e^b + e^{2b}
    assert root_product([beta, beta], 2) == CharElement(2, {(0, 0): 1, beta: -2, two_beta: 1})
    # a factor with its negative: the e^0 terms add, nothing else cancels
    assert root_product([beta, (-2, 1)], 2) == CharElement(2, {(0, 0): 2, beta: -1, (-2, 1): -1})
    # a zero weight makes the whole product vanish
    assert root_product([beta, (0, 0), two_beta], 2).is_zero()
    # wide coordinates of both signs
    far = (10**6, -10**6, 7)
    assert root_product([far, (-1, 0, 3)], 3) == naive_root_product([far, (-1, 0, 3)], 3)
    assert root_product([(1, 1)], 2) == one - CharElement.monomial((1, 1))
    with pytest.raises(ValueError, match="does not have rank 2"):
        root_product([(1, 0), (1, 0, 0)], 2)


def act_term_by_term(w, a):
    return {w.act(mu): c for mu, c in a.terms.items()}


@pytest.mark.parametrize("token", ["A1", "A2", "B2", "G2", "B3"])
def test_weyl_act_against_per_weight_action(token):
    # B2, G2 and B3 have matrix entries +-2 and +-3 as well as 0 and +-1
    rs = parse_type(token)
    rng = random.Random(token)
    elements = [CharElement.zero(rs.rank), half_denominator(rs)]
    for _ in range(4):
        terms = {tuple(rng.randint(-5, 5) for _ in range(rs.rank)): rng.randint(-9, 9) for _ in range(12)}
        elements.append(CharElement(rs.rank, terms))
    for w in rs.weyl_group():
        for a in elements:
            moved = weyl_act(w, a)
            assert moved.rank == a.rank
            assert moved.terms == act_term_by_term(w, a)
    other = parse_type("B3" if rs.rank != 3 else "A2")
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_act(other.identity_element(), elements[-1])


@given(a=char_elements(3), index=st.integers(0, 47))
@settings(max_examples=100, deadline=None)
def test_weyl_act_random_elements(a, index):
    rs = parse_type("C3")
    w = rs.weyl_group().elements[index]
    assert weyl_act(w, a).terms == act_term_by_term(w, a)


# -- division and sums against tuple-keyed references -------------------------


def reference_divide(p, q, rs):
    """The heap division on tuple keys, one (-height, -weight) entry per
    remainder term. Each refusal raises ValueError naming its check and the
    step, in the order the checks run: leading coefficient, height bound,
    Newton box."""
    if p.is_zero():
        return {}
    hvec = rs.height_vector

    def key(mu):
        return (-sum(a * b for a, b in zip(hvec, mu)), tuple(-x for x in mu), mu)

    qkeys = sorted(map(key, q.terms))
    neg_hq, _, qlead = qkeys[0]
    qlc = q.terms[qlead]
    heap = sorted(map(key, p.terms))
    neg_h_max = heap[-1][0] - qkeys[-1][0]
    pcols, qcols = tuple(zip(*p.terms)), tuple(zip(*q.terms))
    lo = tuple(min(a) - min(b) for a, b in zip(pcols, qcols))
    hi = tuple(max(a) - max(b) for a, b in zip(pcols, qcols))
    rem, quot = dict(p.terms), {}
    while rem:
        neg_ht, _, t = heapq.heappop(heap)
        if t not in rem:
            continue
        c, r = divmod(rem[t], qlc)
        mono = tuple(a - b for a, b in zip(t, qlead))
        if r:
            raise ValueError(f"leading coefficient {qlc} does not divide {rem[t]}")
        if neg_ht - neg_hq > neg_h_max:
            raise ValueError(f"quotient term {mono} is below the height bound")
        if not all(a <= m <= b for a, m, b in zip(lo, mono, hi)):
            raise ValueError(f"quotient term {mono} is outside the Newton box")
        quot[mono] = c
        for nu, d in q.terms.items():
            k = tuple(a + b for a, b in zip(mono, nu))
            if k not in rem:
                heapq.heappush(heap, key(k))
            v = rem.get(k, 0) - c * d
            if v:
                rem[k] = v
            else:
                del rem[k]
    return quot


DIVISION_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


@st.composite
def division_inputs(draw):
    """A root system of rank 1-3, a divisor q (a Weyl denominator or an
    arbitrary element) and p: a product q x, such a product plus one more
    term, or an arbitrary element."""
    rs = parse_type(draw(st.sampled_from(DIVISION_TYPES)))
    half = half_denominator(rs)
    nonzero = char_elements(rs.rank).filter(lambda e: not e.is_zero())
    q = draw(st.one_of(st.sampled_from([half, half.conjugate(), 2 * half]), nonzero))
    kind = draw(st.sampled_from(["product", "perturbed", "arbitrary"]))
    if kind == "arbitrary":
        return draw(char_elements(rs.rank)), q, rs
    p = q * draw(char_elements(rs.rank))
    if kind == "perturbed":
        p = p + CharElement.monomial(draw(weights(rs.rank)), draw(st.sampled_from([-1, 1, 2])))
    return p, q, rs


@given(case=division_inputs())
@settings(max_examples=300, deadline=None)
def test_division_agrees_with_the_tuple_keyed_reference(case):
    p, q, rs = case
    try:
        expected = reference_divide(p, q, rs)
    except ValueError as exc:
        # the same refusal, at the same step
        with pytest.raises(ValueError, match="not exact.*" + re.escape(str(exc))):
            divide_exact(p, q, rs)
        return
    quotient = divide_exact(p, q, rs)
    # same terms in the same order: quotient terms are found in term order
    assert list(quotient.terms.items()) == list(expected.items())
    assert q * quotient == p


@pytest.mark.parametrize("token,p,q,check", [
    # 2 does not divide the leading coefficient -1; the quotient e^0 is in bounds
    ("A1", {(2,): -1}, {(2,): 2}, "leading coefficient"),
    # the quotient term (-1, 1) is in the box but has height 0 < 1 - (-4)
    ("A2", {(0, 0): 1, (1, -1): 1}, {(-2, -2): 2, (-1, -2): 1}, "height bound"),
    # the quotient term (-1, 2) passes the height bound but lies below the
    # box (0, 0) <= x <= (-1, 2) in its first coordinate
    ("A2", {(-1, 2): 2, (-1, -2): -1}, {(-1, -2): 2, (0, 0): -1}, "Newton box"),
    # the quotient term (3, 1) lies above the box (3, 0) <= x <= (2, 1)
    ("A2", {(2, 2): 2, (2, -1): 2}, {(-1, 1): 1, (0, -1): 2}, "Newton box"),
])
def test_each_division_refusal_alone(token, p, q, check):
    rs = parse_type(token)
    p, q = CharElement(rs.rank, p), CharElement(rs.rank, q)
    # exactly this check fails, so each refusal is reached on its own
    with pytest.raises(ValueError, match=check) as ref:
        reference_divide(p, q, rs)
    with pytest.raises(ValueError, match="not exact.*" + re.escape(str(ref.value))):
        divide_exact(p, q, rs)


def reference_sum(a, b):
    """Per-term sum in the order of a, then the new terms of b."""
    out = dict(a)
    for mu, c in b.items():
        out[mu] = out.get(mu, 0) + c
        if not out[mu]:
            del out[mu]
    return out


@st.composite
def summand_pairs(draw):
    """a and b of one rank with overlapping, disjoint or fully cancelling
    supports, or b cancelling only part of a."""
    rank = draw(st.integers(1, 3))
    a = draw(char_elements(rank))
    kind = draw(st.sampled_from(["overlapping", "disjoint", "cancelling", "partial"]))
    if kind == "overlapping":
        return a, draw(char_elements(rank))
    if kind == "disjoint":
        return a, draw(char_elements(rank)).shift((100,) + (0,) * (rank - 1))
    if kind == "cancelling":
        return a, -a
    keep = draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms else set()
    return a, CharElement(rank, {mu: -c for mu, c in a.terms.items() if mu not in keep})


@given(pair=summand_pairs())
@settings(max_examples=300, deadline=None)
def test_sum_matches_a_per_term_reference(pair):
    a, b = pair
    before = (dict(a.terms), dict(b.terms))
    for x, y in ((a, b), (b, a)):
        total = x + y
        assert list(total.terms.items()) == list(reference_sum(x.terms, y.terms).items())
        assert all(total.terms.values())
    assert (a + -a).terms == {}
    assert (a.terms, b.terms) == before
