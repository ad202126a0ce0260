"""Root-system construction, Weyl enumeration, actions, and rho shifts.

Brute-force oracles (reflection closure over rationals, matrix closure,
permutation-expansion determinants) are reimplemented here so the checks
do not share code with the library paths they validate.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from ellhom import (
    CapExceededError,
    UnsupportedTypeError,
    build_root_system,
    enumerate_weyl_group,
    parse_type,
    rho_shift,
    subgroup_from_generators,
    trivial_subgroup,
)
from ellhom import rootsystem
from ellhom.rootsystem import cartan_matrix, classical_weyl_order


def oracle_root_count(series, rank):
    """Close the simple roots under the simple reflections, written directly
    from the Cartan matrix over exact rationals."""
    c = cartan_matrix(series, rank)
    simples = [tuple(Fraction(c[k][i]) for k in range(rank)) for i in range(rank)]

    def reflect(i, mu):
        return tuple(x - mu[i] * a for x, a in zip(mu, simples[i]))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                img = reflect(i, beta)
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return len(roots)


def oracle_weyl_elements(series, rank):
    """Breadth-first closure of reflection matrices by full matrix products:
    each matrix mapped to the depth at which it first appears."""
    c = cartan_matrix(series, rank)

    def refl(i):
        return tuple(
            tuple(int(k == j) - (c[k][i] if j == i else 0) for j in range(rank))
            for k in range(rank)
        )

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank))
            for i in range(rank)
        )

    gens = [refl(i) for i in range(rank)]
    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    seen = {identity: 0}
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for m in frontier:
            for g in gens:
                p = matmul(m, g)
                if p not in seen:
                    seen[p] = depth
                    new.append(p)
        frontier = new
    return seen


def oracle_det(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def test_a1_is_plus_minus_alpha(a1):
    assert len(a1.full_roots) == 2
    assert a1.rho == (1,)
    assert set(a1.full_roots) == {(2,), (-2,)}


@pytest.mark.parametrize(
    "series,rank,count",
    [("A", 2, 6), ("G", 2, 12), ("B", 2, 8), ("A", 3, 12), ("B", 3, 18), ("C", 3, 18), ("F", 4, 48)],
)
def test_root_counts_against_reflection_closure(series, rank, count):
    assert oracle_root_count(series, rank) == count
    rs = build_root_system(series, rank)
    assert len(rs.full_roots) == count
    assert len(rs.positive_roots) == count // 2


def test_unsupported_types_are_rejected():
    with pytest.raises(UnsupportedTypeError, match="unsupported type/rank"):
        build_root_system("E", 9)
    with pytest.raises(UnsupportedTypeError, match="valid ranks"):
        build_root_system("H", 3)
    with pytest.raises(UnsupportedTypeError):
        build_root_system("A", 0)
    with pytest.raises(UnsupportedTypeError):
        build_root_system("B", 1)
    with pytest.raises(UnsupportedTypeError):
        parse_type("Q7")
    with pytest.raises(UnsupportedTypeError):
        build_root_system("A", 9)  # above the default rank cap


def test_root_system_invariants(a2, b2, g2):
    for rs in (a2, b2, g2):
        assert len(set(rs.full_roots)) == len(rs.full_roots)
        for i in range(rs.rank):
            col = tuple(rs.cartan[k][i] for k in range(rs.rank))
            assert rs.simple_root(i) == col
        for beta in rs.positive_roots:
            coords = rs.root_coords(beta)
            assert all(x.denominator == 1 and x >= 0 for x in coords)


RANK_AT_MOST_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", RANK_AT_MOST_4)
def test_integer_height_functional(series, rank):
    rs = build_root_system(series, rank)
    assert all(isinstance(x, int) for x in rs.height_vector)
    for mu in rs.full_roots:
        dot = sum(h * x for h, x in zip(rs.height_vector, mu))
        assert dot == rs.height_scale * sum(rs.root_coords(mu))
        assert rs.height(mu) == sum(rs.root_coords(mu))
    for i in range(rank):
        assert rs.height(rs.simple_root(i)) == 1
    with pytest.raises(ValueError, match="rank"):
        rs.height((1,) * (rank + 1))


def oracle_inverse(matrix):
    """Gauss-Jordan inverse over exact rationals."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


@pytest.mark.parametrize("series,rank", RANK_AT_MOST_4)
def test_integer_lattice_helpers_match_fraction_definition(series, rank):
    rs = build_root_system(series, rank)
    inv = oracle_inverse(cartan_matrix(series, rank))
    assert all(rs.coord_scale * x == y for r, q in zip(inv, rs.coord_matrix) for x, y in zip(r, q))
    rng = random.Random(f"{series}{rank}")
    weights = [tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(40)]
    # combinations of simple roots, so that both lattice answers occur
    for _ in range(20):
        coeffs = [rng.randint(-1, 3) for _ in range(rank)]
        weights.append(tuple(
            sum(c * a for c, a in zip(coeffs, rs.cartan[k])) for k in range(rank)
        ))
    coords = {}
    for mu in weights:
        x = tuple(sum(inv[i][j] * mu[j] for j in range(rank)) for i in range(rank))
        coords[mu] = x
        assert rs.root_coords(mu) == x
        assert all(isinstance(v, Fraction) for v in rs.root_coords(mu))
        assert rs.in_positive_root_lattice(mu) == all(v.denominator == 1 and v >= 0 for v in x)
    assert any(map(rs.in_positive_root_lattice, weights))
    assert not all(map(rs.in_positive_root_lattice, weights))
    for lam in weights[:12]:
        for mu in weights:
            # (omega_j, alpha_i) = d_i * delta_ij
            form = sum(Fraction(d) * l * x for d, l, x in zip(rs.symmetrizer, lam, coords[mu]))
            assert rs.inner(lam, mu) == form == rs.inner(mu, lam)


def test_json_dump_matches_interface(a2):
    assert a2.to_dict() == {
        "series": "A",
        "rank": 2,
        "positive_roots": [[2, -1], [-1, 2], [1, 1]],
        "rho": [1, 1],
        "weyl_order": 6,
    }


RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", RANK_LE_4)
def test_weyl_enumeration_against_closure_oracle(series, rank):
    rs = build_root_system(series, rank)
    group = enumerate_weyl_group(rs)
    depths = oracle_weyl_elements(series, rank)
    assert group.order == len(depths) == classical_weyl_order(series, rank)
    assert {w.matrix: (w.length, w.sign) for w in group} == {
        m: (d, (-1) ** d) for m, d in depths.items()
    }
    assert [w.matrix for w in group] == sorted(depths, key=lambda m: (depths[m], m))


def test_weyl_cap_is_enforced():
    # |W(E7)| = 2,903,040 > WEYL_CAP; the cap is checked before enumerating
    e7 = parse_type("E7")
    assert e7.weyl_order > rootsystem.WEYL_CAP
    with pytest.raises(CapExceededError, match="group too large"):
        enumerate_weyl_group(e7)


def test_lengths_signs_and_root_permutation(a2, b2):
    for rs in (a2, b2):
        full = set(rs.full_roots)
        for w in enumerate_weyl_group(rs):
            assert w.sign == (-1) ** w.length
            assert w.sign == oracle_det(w.matrix)
            assert {w.act(alpha) for alpha in full} == full
            # BFS depth equals the inversion count
            assert rs.element_from_matrix(w.matrix).length == w.length


def test_act_examples(a1, a2):
    e = a1.identity_element()
    assert e.act((5,)) == (5,)
    s = a1.simple_reflection(0)
    assert s.act((1,)) == (-1,)
    s0, s1 = a2.simple_reflection(0), a2.simple_reflection(1)
    longest = a2.from_word([0, 1, 0])
    assert longest.act((1, 1)) == (-1, -1)
    # the word's product is the composite of the three actions, and its
    # length is the one the certificate gives
    assert all(longest.act(mu) == s0.act(s1.act(s0.act(mu))) for mu in ((1, 0), (0, 1)))
    assert a2.element_from_matrix(longest.matrix) == longest
    assert (longest.length, longest.sign) == (3, -1)
    assert a2.from_word([]) == a2.identity_element()
    with pytest.raises(ValueError, match="rank mismatch"):
        s.act((1, 0))
    # a short weight must not be truncated by the row products
    with pytest.raises(ValueError, match="rank mismatch"):
        longest.act((1,))


def test_rho_shift_examples(a1, a2):
    assert rho_shift(a1.identity_element(), a1) == (0,)
    assert rho_shift(a1.simple_reflection(0), a1) == (2,)
    longest = a2.from_word([0, 1, 0])
    assert rho_shift(longest, a2) == (2, 2)


@pytest.mark.parametrize("token", ["A2", "B2", "G2", "A3", "B3"])
def test_rho_shift_agrees_with_matrix_action(token):
    # oracle: rho - w*rho is the sum of the positive roots sent negative by w^-1
    rs = parse_type(token)
    group = list(enumerate_weyl_group(rs))
    units = rs.identity_element().matrix
    for w in group:
        via_action = rho_shift(w, rs)
        winv = next(u for u in group if all(u.act(w.act(e)) == e for e in units))
        root_sum = [0] * rs.rank
        for alpha in rs.positive_roots:
            if not rs.is_positive_root(winv.act(alpha)):
                root_sum = [x + y for x, y in zip(root_sum, alpha)]
        assert via_action == tuple(root_sum)
        assert rs.in_positive_root_lattice(via_action)


def test_subgroup_from_generators(a2):
    s0 = a2.simple_reflection(0)
    sub = subgroup_from_generators(a2, [s0])
    assert sub.order == 2
    assert a2.identity_element() in sub
    full = subgroup_from_generators(a2, [a2.simple_reflection(i) for i in range(2)])
    assert full.order == 6
    assert trivial_subgroup(a2).order == 1
    with pytest.raises(ValueError, match="permute"):
        a2.element_from_matrix(((1, 1), (0, 1)))


def test_subgroup_closure_with_redundant_generators(monkeypatch):
    rs = build_root_system("A", 3)
    simple = [rs.simple_reflection(i) for i in range(3)]
    expected = [(w.matrix, w.length, w.sign) for w in subgroup_from_generators(rs, simple)]
    assert len(expected) == 24
    group = list(rs.weyl_group())
    for gens in (
        group,
        simple + simple[::-1] + simple,
        [rs.identity_element()] + simple,
        [simple[0], simple[0], rs.identity_element(), simple[2], simple[1]],
    ):
        sub = subgroup_from_generators(rs, gens)
        assert [(w.matrix, w.length, w.sign) for w in sub] == expected
    # a proper subgroup reached through a redundant product
    s0s1 = rs.from_word([0, 1])
    assert subgroup_from_generators(rs, [s0s1, simple[0], simple[1], s0s1]).order == 6
    assert subgroup_from_generators(rs, [rs.identity_element()]).order == 1
    monkeypatch.setattr(rootsystem, "WEYL_CAP", 23)
    for gens in (group, simple, [rs.identity_element()] + simple):
        with pytest.raises(CapExceededError, match="exceeds cap 23"):
            subgroup_from_generators(rs, gens)
    monkeypatch.setattr(rootsystem, "WEYL_CAP", 24)
    assert subgroup_from_generators(rs, simple).order == 24


def test_subgroup_closure_certifies_each_element_once(monkeypatch):
    # W(A4) from all 120 elements and from the 4 simple reflections: only
    # the generators the closure keeps, the 4 simple reflections either
    # way, go through element_from_matrix; a closure product needs only
    # its length
    rs = build_root_system("A", 4)
    group = list(rs.weyl_group())
    certified = []
    certify = rs.element_from_matrix

    def counting(matrix):
        certified.append(matrix)
        return certify(matrix)

    monkeypatch.setattr(rs, "element_from_matrix", counting)
    expected = sorted(w.matrix for w in group if w.length == 1)
    assert len(expected) == 4
    for gens in (group, [rs.simple_reflection(i) for i in range(4)]):
        certified.clear()
        sub = subgroup_from_generators(rs, gens)
        assert list(sub) == group  # matrices, lengths and signs
        assert sorted(certified) == expected


def test_weyl_group_cap_holds_once_cached():
    rs = parse_type("E7")
    for _ in range(2):
        with pytest.raises(CapExceededError, match="exceeds cap 1000000"):
            rs.weyl_group()


def test_simple_reflection_index_is_checked(a2):
    # a negative index must not wrap around to s_{rank-1}
    for i in (-1, 2):
        with pytest.raises(ValueError, match="simple reflection index"):
            a2.simple_reflection(i)
        with pytest.raises(ValueError, match="simple reflection index"):
            a2.from_word([0, i])


def test_subgroup_membership_is_by_matrix(a2):
    sub = subgroup_from_generators(a2, [a2.simple_reflection(0)])
    s1 = a2.simple_reflection(1)
    assert s1 not in sub
    assert a2.from_word([0, 0]) in sub
    assert all(w in sub for w in sub)


def test_lattice_helpers_reject_wrong_length_weights(a2):
    with pytest.raises(ValueError, match="does not have rank 2"):
        a2.root_coords((1, 0, 5))
    with pytest.raises(ValueError, match="does not have rank 2"):
        a2.in_positive_root_lattice((2, -1, 7))
    with pytest.raises(ValueError, match="does not have rank 2"):
        a2.inner((1, 0), (1, 0, 5))
    with pytest.raises(ValueError, match="does not have rank 2"):
        a2.inner((1, 0, 5), (1, 0))
    with pytest.raises(ValueError, match="does not have rank 2"):
        a2.root_coords((1,))
    assert a2.root_coords((1, 0)) == (Fraction(2, 3), Fraction(1, 3))


def test_outer_automorphisms_are_rejected(a2):
    # the A2 diagram flip permutes the roots but is not a Weyl element
    with pytest.raises(ValueError, match="not lie in the Weyl group"):
        a2.element_from_matrix(((0, 1), (1, 0)))
    # D4 triality: an order-3 diagram automorphism, determinant +1
    d4 = build_root_system("D", 4)
    tri = ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError, match="not lie in the Weyl group"):
        d4.element_from_matrix(tri)


def test_weyl_elements_are_equal_and_hashed_by_value(a2):
    group = a2.weyl_group()
    s0 = a2.simple_reflection(0)
    again = rootsystem.WeylElement(matrix=s0.matrix, length=1, sign=-1)
    assert again == s0 and hash(again) == hash(s0)
    assert a2.element_from_matrix(s0.matrix) == s0
    assert s0 != a2.identity_element() and s0 != a2.simple_reflection(1)
    assert again in group and again in set(group) and len(set(group) | {again}) == group.order
