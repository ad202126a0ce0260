"""The three pairings and the identity checks behind them."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ellhom import pairings
from ellhom import (
    CharElement,
    PairContext,
    antisym_transport,
    check_antisym_i,
    check_denominator_symmetry,
    compact_context,
    dominant_box,
    dual_class,
    elliptic_pairing,
    enumerate_weyl_group,
    euler_class,
    euler_class_closed_form,
    ext_abelian_graded,
    gram,
    homological_pairing,
    koszul_n_homology,
    kostant_homology,
    parse_type,
    subgroup_from_generators,
    trivial_subgroup,
    weyl_character,
)
from ellhom.verify import DEFAULT_BOUND, RANK_LE_3


# -- multiplicity ------------------------------------------------------------


def test_multiplicity_schur_a1(a1):
    ctx = compact_context(a1)
    chi0 = weyl_character((0,), a1)
    chi1 = weyl_character((1,), a1)
    chi2 = weyl_character((2,), a1)
    m = gram("multiplicity", [chi0, chi1, chi2], ctx)
    assert m[0][0] == 1
    assert m[1][1] == 1
    assert m[1][2] == 0


def test_multiplicity_counts_tensor_decomposition(a1):
    # chi1 * chi1 = chi2 + chi0, so <chi1^2, chi2> = 1 and <chi1^2, chi1> = 0
    ctx = compact_context(a1)
    chi1 = weyl_character((1,), a1)
    square = chi1 * chi1
    m = gram("multiplicity", [square, weyl_character((2,), a1), weyl_character((0,), a1), chi1], ctx)
    assert m[0][1] == 1
    assert m[0][2] == 1
    assert m[0][3] == 0


def test_multiplicity_rejects_bad_inputs(a1):
    ctx = compact_context(a1)
    not_invariant = CharElement.monomial((1,))
    with pytest.raises(ValueError, match="W-invariant"):
        gram("multiplicity", [not_invariant, not_invariant], ctx)
    sl2 = PairContext(a1, trivial_subgroup(a1))
    chi = weyl_character((1,), a1)
    with pytest.raises(ValueError, match="compact context"):
        gram("multiplicity", [chi, chi], sl2)


# -- elliptic ----------------------------------------------------------------


def test_elliptic_compact_a1(a1):
    ctx = compact_context(a1)
    xi = euler_class_closed_form((1,), a1)
    assert xi == CharElement(1, {(-1,): 1, (3,): -1})
    assert elliptic_pairing(xi, xi, ctx) == 1


def test_elliptic_split_rank_one(a1):
    ctx = PairContext(a1, trivial_subgroup(a1))
    ds = CharElement(1, {(5,): -1})
    assert elliptic_pairing(ds, ds, ctx) == 1
    other = CharElement(1, {(3,): -1})
    assert elliptic_pairing(ds, other, ctx) == 0


def test_elliptic_rank_mismatch(a2):
    ctx = compact_context(a2)
    with pytest.raises(ValueError, match="rank mismatch"):
        elliptic_pairing(CharElement.one(1), CharElement.one(1), ctx)


# -- homological -------------------------------------------------------------


def test_homological_a1_examples(a1):
    ctx = compact_context(a1)
    h1 = kostant_homology((1,), a1)
    h2 = kostant_homology((2,), a1)
    assert homological_pairing(h1, h1, ctx) == 1
    assert homological_pairing(h1, h2, ctx) == 0


def test_homological_empty_vs_anything(a1):
    from ellhom import GradedHomology

    ctx = compact_context(a1)
    empty = GradedHomology(
        classes=(CharElement.zero(1), CharElement.zero(1)),
        positive_system=ctx.positive_system,
        rank=1,
    )
    assert homological_pairing(empty, kostant_homology((2,), a1), ctx) == 0


def test_homological_positive_system_mismatch(a1):
    ctx = compact_context(a1)
    h = kostant_homology((1,), a1)
    neg = tuple(tuple(-x for x in a) for a in a1.positive_roots)
    h_neg = koszul_n_homology((1,), neg, a1)
    with pytest.raises(ValueError, match="mismatch"):
        homological_pairing(h, h_neg, ctx)


def test_gram_rejects_a_wrong_rank_or_an_unknown_kind(a1, a2):
    ctx = compact_context(a1)
    h = kostant_homology((1,), a1)
    with pytest.raises(ValueError, match="rank mismatch"):
        gram("elliptic", [euler_class(h), euler_class(kostant_homology((1, 0), a2))], ctx)
    # homologies are paired through their Euler classes; gram has no kind for them
    with pytest.raises(ValueError, match="unknown pairing kind 'homological'"):
        gram("homological", [h], ctx)


def test_homological_equals_elliptic_on_euler_classes(a2):
    ctx = compact_context(a2)
    for lam in [(0, 0), (1, 0), (2, 1)]:
        for mu in [(0, 0), (1, 1), (2, 1)]:
            hu, hv = kostant_homology(lam, a2), kostant_homology(mu, a2)
            assert homological_pairing(hu, hv, ctx) == elliptic_pairing(
                euler_class(hu), euler_class(hv), ctx
            )


# -- abelian Ext -------------------------------------------------------------


def test_ext_abelian_examples():
    assert ext_abelian_graded([0, 0], 2) == [1, 2, 1]
    assert ext_abelian_graded([Fraction(1, 3)], 1) == [0, 0]
    assert ext_abelian_graded([], 0) == [1]
    with pytest.raises(ValueError, match="length"):
        ext_abelian_graded([1], 2)
    with pytest.raises(ValueError, match="nonnegative"):
        ext_abelian_graded([], -1)


def test_ext_abelian_euler_sums():
    for d in range(1, 7):
        for nu in ([0] * d, [Fraction(2, 7)] + [0] * (d - 1), list(range(1, d + 1))):
            dims = ext_abelian_graded(nu, d)
            assert sum((-1) ** p * v for p, v in enumerate(dims)) == 0


def test_ext_abelian_vanishes_at_a_character_with_every_coordinate_nonzero():
    # every boundary row has d - p entries, so a wrong wedge sign changes a
    # rank here (the Euler sum above is 0 for any ranks)
    for d in range(1, 7):
        assert ext_abelian_graded(list(range(1, d + 1)), d) == [0] * (d + 1)


def test_ext_abelian_raises_on_a_negative_dimension(monkeypatch):
    original = pairings.sparse_int_rank
    monkeypatch.setattr(pairings, "sparse_int_rank", lambda rows: original(rows) + 1)
    with pytest.raises(AssertionError, match="negative Ext dimension"):
        ext_abelian_graded([1, 2, 3], 3)


# -- denominator symmetry and antisymmetry -----------------------------------


def test_denominator_symmetry_identity_and_reflection(a1):
    assert check_denominator_symmetry(a1.identity_element(), a1)
    assert check_denominator_symmetry(a1.simple_reflection(0), a1)


@pytest.mark.parametrize("token", ["A2", "B2", "G2", "A3", "B3", "C3", "D3"])
def test_denominator_symmetry_all_elements(token):
    rs = parse_type(token)
    for w in enumerate_weyl_group(rs):
        assert check_denominator_symmetry(w, rs)


def test_antisym_i_examples(a1, a2):
    ctx1 = compact_context(a1)
    xi = CharElement(1, {(0,): 1, (2,): -1})
    assert check_antisym_i(xi, a1.identity_element(), ctx1)
    assert check_antisym_i(xi, a1.simple_reflection(0), ctx1)
    ctx2 = compact_context(a2)
    xi2 = euler_class(koszul_n_homology((1, 0), a2.positive_roots, a2))
    for i in range(2):
        assert check_antisym_i(xi2, a2.simple_reflection(i), ctx2)


def test_antisym_i_requires_w0_membership(a1):
    ctx = PairContext(a1, trivial_subgroup(a1))
    s = a1.simple_reflection(0)
    with pytest.raises(ValueError, match="W0"):
        check_antisym_i(CharElement.one(1), s, ctx)


def test_antisym_transport_examples(a1, a2):
    ctx1 = compact_context(a1)
    xi = CharElement(1, {(0,): 1, (2,): -1})
    assert antisym_transport(xi, a1.identity_element(), ctx1) == xi
    s = a1.simple_reflection(0)
    transported = antisym_transport(xi, s, ctx1)
    assert transported == CharElement(1, {(0,): 1, (-2,): -1})
    neg = tuple(tuple(-x for x in a) for a in a1.positive_roots)
    assert transported == euler_class(koszul_n_homology((0,), neg, a1))
    ctx2 = compact_context(a2)
    xi2 = euler_class(koszul_n_homology((1, 0), a2.positive_roots, a2))
    for i in range(2):
        w = a2.simple_reflection(i)
        nw = tuple(w.act(alpha) for alpha in a2.positive_roots)
        direct = euler_class(koszul_n_homology((1, 0), nw, a2))
        assert antisym_transport(xi2, w, ctx2) == direct


@pytest.mark.parametrize("token", ["A1", "A2", "B2"])
def test_antisym_transport_full_group(token):
    rs = parse_type(token)
    ctx = compact_context(rs)
    lam = tuple([1] * rs.rank)
    xi = euler_class(koszul_n_homology(lam, rs.positive_roots, rs))
    for w in enumerate_weyl_group(rs):
        nw = tuple(sorted(w.act(alpha) for alpha in rs.positive_roots))
        direct = euler_class(koszul_n_homology(lam, nw, rs))
        assert antisym_transport(xi, w, ctx) == direct


# -- duals -------------------------------------------------------------------


def test_dual_class_examples(a1):
    ctx = compact_context(a1)
    xi_triv = CharElement(1, {(0,): 1, (2,): -1})
    assert dual_class(xi_triv, ctx) == xi_triv
    xi_std = CharElement(1, {(-1,): 1, (3,): -1})
    assert dual_class(xi_std, ctx) == xi_std


def test_dual_class_involution_random(a2):
    ctx = compact_context(a2)
    rng = random.Random(11)
    for _ in range(100):
        terms = {
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-5, 5) for _ in range(5)
        }
        xi = CharElement(2, terms)
        assert dual_class(dual_class(xi, ctx), ctx) == xi


def test_dual_class_fixes_elliptic_pairing(b2):
    ctx = compact_context(b2)
    rng = random.Random(13)
    for _ in range(30):
        xi1 = CharElement(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)})
        xi2 = CharElement(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)})
        lhs = elliptic_pairing(dual_class(xi1, ctx), dual_class(xi2, ctx), ctx)
        assert lhs == elliptic_pairing(xi2, xi1, ctx)


# -- biadditivity and symmetry (property-based) -------------------------------


def _random_char(rng, rank, size=4):
    return CharElement(
        rank,
        {
            tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-4, 4)
            for _ in range(size)
        },
    )


def test_elliptic_pairing_is_biadditive(b2):
    from ellhom import torus_pairing

    ctx = compact_context(b2)
    rng = random.Random(17)
    for _ in range(50):
        a, b, c = (_random_char(rng, 2) for _ in range(3))
        assert elliptic_pairing(a + b, c, ctx) == elliptic_pairing(a, c, ctx) + elliptic_pairing(b, c, ctx)
        assert elliptic_pairing(c, a + b, ctx) == elliptic_pairing(c, a, ctx) + elliptic_pairing(c, b, ctx)
        # hermitian symmetry over integer coefficients
        assert torus_pairing(a, b) == torus_pairing(b, a)


@cache
def _schur_basis(token):
    """The compact Euler classes ``verify``'s schur suite pairs by default,
    their context and their elliptic Gram matrix."""
    rs = parse_type(token)
    ctx = compact_context(rs)
    bound = DEFAULT_BOUND if rs.rank <= 2 else 1
    basis = [euler_class(kostant_homology(lam, rs)) for lam in dominant_box(rs.rank, bound)]
    return basis, ctx, gram("elliptic", basis, ctx)


@st.composite
def _combination_pairs(draw):
    token = draw(st.sampled_from(RANK_LE_3))
    size = len(_schur_basis(token)[0])
    coeffs = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    return token, draw(coeffs), draw(coeffs)


@given(_combination_pairs())
@settings(max_examples=60, deadline=None)
def test_gram_certifies_every_integer_combination(pair):
    # the Gram matrix over a basis decides the pairing of every integer
    # combination of it: <sum c_i xi_i, sum d_j xi_j> = c^T G d
    token, c, d = pair
    basis, ctx, matrix = _schur_basis(token)
    zero = CharElement.zero(ctx.rs.rank)
    left = sum((xi * k for xi, k in zip(basis, c)), zero)
    right = sum((xi * k for xi, k in zip(basis, d)), zero)
    expected = sum(ci * g * dj for ci, row in zip(c, matrix) for g, dj in zip(row, d))
    assert elliptic_pairing(left, right, ctx) == expected


def test_homological_pairing_is_biadditive(a1):
    ctx = compact_context(a1)
    h1, h2, h3 = (kostant_homology((k,), a1) for k in (0, 1, 2))
    lhs = homological_pairing(h1 + h2.scale(3), h3, ctx)
    rhs = homological_pairing(h1, h3, ctx) + 3 * homological_pairing(h2, h3, ctx)
    assert lhs == rhs


# -- contexts ----------------------------------------------------------------


def test_custom_context_closure_validation(a2):
    ctx = PairContext(a2, subgroup_from_generators(a2, [a2.simple_reflection(0)]))
    assert ctx.w0_order == 2
    assert not ctx.w0_is_full
    simple = [a2.simple_reflection(0), a2.simple_reflection(1)]
    full = PairContext(a2, subgroup_from_generators(a2, simple))
    assert full.w0_is_full


def test_compact_chain_small(b2):
    # multiplicity = elliptic = delta on a small sweep
    ctx = compact_context(b2)
    lams = [(0, 0), (1, 0), (0, 1), (1, 1)]
    homs = [kostant_homology(lam, b2) for lam in lams]
    ms = gram("multiplicity", [weyl_character(lam, b2) for lam in lams], ctx)
    es = gram("elliptic", [euler_class(h) for h in homs], ctx)
    for i, lam in enumerate(lams):
        for j, mu in enumerate(lams):
            delta = 1 if lam == mu else 0
            m, e = ms[i][j], es[i][j]
            assert m == e == delta
            assert (e * ctx.w0_order).denominator == 1


def test_context_rejects_a_w0_element_of_another_rank(a1, a2):
    with pytest.raises(ValueError, match="W0 element rank does not match the root system"):
        PairContext(rs=a2, w0=a1.weyl_group())
