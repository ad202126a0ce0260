"""Freudenthal vs Weyl characters, dimensions, and invariance."""

import pytest

from ellhom import (
    CharElement,
    enumerate_weyl_group,
    freudenthal_character,
    parse_type,
    weyl_act,
    weyl_character,
    weyl_dimension,
)


def test_trivial_representation(a2):
    assert freudenthal_character((0, 0), a2) == CharElement.one(2)
    assert weyl_character((0, 0), a2) == CharElement.one(2)


def test_a1_fundamental_by_hand(a1):
    # depth-1 Freudenthal: weights (1) and (-1), both multiplicity one
    expected = CharElement(1, {(1,): 1, (-1,): 1})
    assert freudenthal_character((1,), a1) == expected
    assert weyl_character((2,), a1) == CharElement(1, {(2,): 1, (0,): 1, (-2,): 1})


def test_a2_adjoint_dimension(a2):
    chi = freudenthal_character((1, 1), a2)
    assert chi.coefficient_sum() == 8
    assert weyl_dimension((1, 1), a2) == 8
    assert chi.coefficient((0, 0)) == 2  # the Cartan contributes multiplicity 2


def test_g2_seven_dimensional_fundamental(g2):
    assert weyl_dimension((1, 0), g2) == 7
    assert weyl_dimension((0, 1), g2) == 14
    chi = weyl_character((1, 0), g2)
    assert chi.coefficient_sum() == 7
    assert chi.coefficient((0, 0)) == 1


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError, match="dominant"):
        freudenthal_character((-1, 0), a2)
    with pytest.raises(ValueError, match="dominant"):
        weyl_character((0, -2), a2)
    with pytest.raises(ValueError, match="rank"):
        weyl_character((1,), a2)


@pytest.mark.parametrize("token,bound", [("A1", 3), ("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2), ("B3", 2), ("C3", 2), ("D3", 2)])
def test_two_algorithms_agree(token, bound):
    rs = parse_type(token)
    lams = [()]
    for _ in range(rs.rank):
        lams = [l + (c,) for l in lams for c in range(bound + 1)]
    for lam in lams:
        chi_f = freudenthal_character(lam, rs)
        chi_w = weyl_character(lam, rs)
        assert chi_f == chi_w, lam
        assert chi_f.coefficient_sum() == weyl_dimension(lam, rs)
        assert chi_f.coefficient(lam) == 1


@pytest.mark.parametrize("token,lam", [("D4", (1, 1, 1, 1)), ("F4", (1, 0, 0, 0)), ("F4", (0, 0, 0, 1))])
def test_two_algorithms_agree_in_rank_4(token, lam):
    # the first types whose symmetrizer or inverse Cartan matrix has
    # denominators unlike those of rank <= 3
    rs = parse_type(token)
    chi_f = freudenthal_character(lam, rs)
    assert chi_f == weyl_character(lam, rs)
    assert chi_f.coefficient_sum() == weyl_dimension(lam, rs)
    assert chi_f.coefficient(lam) == 1


def test_rank3_corner_weight():
    rs = parse_type("B3")
    chi = freudenthal_character((3, 3, 3), rs)
    assert chi == weyl_character((3, 3, 3), rs)
    assert chi.coefficient_sum() == weyl_dimension((3, 3, 3), rs) == 262144


@pytest.mark.parametrize("token", ["A2", "B2", "G2"])
def test_characters_are_weyl_invariant(token):
    rs = parse_type(token)
    chi = weyl_character((2, 1), rs)
    for w in enumerate_weyl_group(rs):
        assert weyl_act(w, chi) == chi


@pytest.mark.parametrize("token,symmetrizer,lam", [("B2", (1, 2), (1, 1)), ("A3", (1, 3, 1), (2, 0, 0))])
def test_freudenthal_rejects_a_form_that_is_not_invariant(token, symmetrizer, lam):
    # a wrong symmetrizer makes the form non-W-invariant; the recursion then
    # meets a non-integral (B2) or negative (A3) multiplicity and must say so
    import copy

    rs = copy.copy(parse_type(token))
    rs.symmetrizer = symmetrizer
    with pytest.raises(AssertionError, match="non-integral multiplicity"):
        freudenthal_character(lam, rs)
