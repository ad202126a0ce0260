"""The highest-weight module engine behind the homology oracle."""

from fractions import Fraction
from math import gcd

import pytest

from ellhom import parse_type, weyl_dimension
from ellhom.hwmodule import _commutator, module_for, structure_constants


def _fractions(op):
    """An operator (map, denominator) as one sparse map of Fraction entries."""
    op_map, d = op
    return {v: {t: Fraction(n, d) for t, n in image.items()} for v, image in op_map.items()}


@pytest.mark.parametrize(
    "token,lam",
    [
        ("A1", (3,)),
        ("A2", (1, 1)),
        ("A2", (2, 1)),
        ("B2", (1, 1)),
        ("C2", (2, 0)),
        ("G2", (1, 0)),
        ("G2", (1, 1)),
    ],
)
def test_dimensions_match_weyl_formula(token, lam):
    rs = parse_type(token)
    mod = module_for(rs, lam)
    assert mod.dimension == weyl_dimension(lam, rs)
    assert mod.mults[lam] == 1


def test_weight_multiplicities_match_freudenthal(b2):
    from ellhom import freudenthal_character

    mod = module_for(b2, (1, 1))
    chi = freudenthal_character((1, 1), b2)
    assert mod.mults == chi.terms


def test_cartan_commutator_is_diagonal(a2):
    # [e_i, f_i] must act on each weight space as the i-th coordinate
    mod = module_for(a2, (1, 1))
    for i in range(2):
        alpha = a2.simple_root(i)
        neg = tuple(-x for x in alpha)
        h = _fractions(_commutator(mod.operator(alpha), mod.operator(neg)))
        for v, image in h.items():
            for t, c in image.items():
                expected = Fraction(mod.weight_of[v][i]) if t == v else Fraction(0)
                assert c == expected, (mod.weight_of[v], i)


def test_structure_constants_antisymmetry(g2):
    brackets = {pair: Fraction(*c) for pair, c in structure_constants(g2).items()}
    for (beta, gamma), c in brackets.items():
        assert brackets[(gamma, beta)] == -c
        assert c != 0


def test_operators_shift_weights_correctly(b2):
    mod = module_for(b2, (1, 0))
    for root in b2.full_roots:
        for v, image in _fractions(mod.operator(root)).items():
            target = tuple(x + r for x, r in zip(mod.weight_of[v], root))
            assert target in mod.spaces
            assert all(t in mod.spaces[target] for t in image)


def _compose(a, b):
    """The sparse map a b, with only nonzero entries."""
    out = {}
    for v, image in b.items():
        col = {}
        for u, c in image.items():
            for t, d in a.get(u, {}).items():
                col[t] = col.get(t, 0) + c * d
        col = {t: x for t, x in col.items() if x}
        if col:
            out[v] = col
    return out


def _bracket(a, b):
    ab, ba = _compose(a, b), _compose(b, a)
    out = {}
    for v in ab.keys() | ba.keys():
        col = dict(ab.get(v, {}))
        for t, x in ba.get(v, {}).items():
            col[t] = col.get(t, 0) - x
        col = {t: x for t, x in col.items() if x}
        if col:
            out[v] = col
    return out


def _lie_weights(rank):
    """Every fundamental weight, and rho for rank <= 2."""
    weights = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if rank <= 2:
        weights.append((1,) * rank)
    return list(dict.fromkeys(weights))


LIE_CASES = [
    (token, lam)
    for token in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")
    for lam in _lie_weights(int(token[1]))
]


@pytest.mark.parametrize("token,lam", LIE_CASES)
def test_lie_relations_on_every_basis_vector(token, lam):
    # [e_i, f_j] = delta_ij h_i with h_i acting on weight mu by mu_i, and the
    # Serre relations (ad e_i)^{1 - C[i][j]} e_j = 0 = (ad f_i)^{1 - C[i][j]} f_j
    rs = parse_type(token)
    mod = module_for(rs, lam)
    e = [_fractions(mod.operator(alpha)) for alpha in rs.simple_roots]
    f = [_fractions(mod.operator(tuple(-x for x in alpha))) for alpha in rs.simple_roots]
    assert len(mod.weight_of) == weyl_dimension(lam, rs)
    for i in range(rs.rank):
        h_i = {v: {v: mu[i]} for v, mu in enumerate(mod.weight_of) if mu[i]}
        for j in range(rs.rank):
            assert _bracket(e[i], f[j]) == (h_i if i == j else {}), (i, j)
            if i == j:
                continue
            for x in (e, f):
                y = x[j]
                for _ in range(1 - rs.cartan[i][j]):
                    y = _bracket(x[i], y)
                assert y == {}, (i, j)


@pytest.mark.parametrize("token,lam", LIE_CASES)
def test_operators_are_integers_over_one_denominator_in_lowest_terms(token, lam):
    rs = parse_type(token)
    mod = module_for(rs, lam)
    for root in rs.full_roots:
        op_map, d = mod.operator(root)
        entries = [n for image in op_map.values() for n in image.values()]
        assert type(d) is int and d > 0, root
        assert all(type(n) is int and n for n in entries), root
        assert gcd(d, *entries) == 1, root


def _determinant(rows):
    """Determinant by Gaussian elimination over Q on a dense copy."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@pytest.mark.parametrize("token,lam", LIE_CASES)
def test_gram_blocks_are_integral_and_nondegenerate(token, lam):
    rs = parse_type(token)
    mod = module_for(rs, lam)
    for mu, space in mod.spaces.items():
        block = [[mod.gram[v].get(u, 0) for u in space] for v in space]
        assert all(type(x) is int for row in block for x in row), mu
        assert _determinant(block) != 0, mu
