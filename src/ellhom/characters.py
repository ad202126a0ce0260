"""Finite-dimensional characters: Freudenthal recursion and the Weyl formula.

The two algorithms are independent of each other (multiplicity recursion vs.
alternating-sum division by the denominator) and are required to agree; the
agreement is one of the verification suites.

The Freudenthal recursion runs in integers: every inner product it needs is
taken scaled by the common denominator of the inverse Cartan matrix, and the
scale cancels in the quotient that gives each multiplicity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .charring import CharElement, divide_exact, half_denominator
from .rootsystem import RootSystem, Weight


def require_dominant(lam: Weight, rs: RootSystem) -> None:
    """The one check that a highest weight has rank rs.rank and is
    dominant; ValueError otherwise."""
    if len(lam) != rs.rank:
        raise ValueError(f"weight {lam} does not have rank {rs.rank}")
    if any(x < 0 for x in lam):
        raise ValueError(f"weight {lam} is not dominant")


def weight_system(lam: Weight, rs: RootSystem) -> dict[Weight, Weight]:
    """All weights of the irreducible module with highest weight lam, each
    mapped to the dominant weight in its W-orbit.

    Breadth-first from lam by subtracting simple roots; membership of a
    candidate is decided by whether lam minus its dominant representative,
    from ``RootSystem.dominant_walk``, lies in the nonnegative root lattice.
    """
    require_dominant(lam, rs)
    lam = tuple(lam)
    found = {lam: lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for alpha in rs.simple_roots:
                nu = tuple(map(sub, mu, alpha))
                if nu in found:
                    continue
                dom = rs.dominant_walk(nu)[0]
                if rs.in_positive_root_lattice(tuple(map(sub, lam, dom))):
                    found[nu] = dom
                    new.append(nu)
        frontier = new
    return found


def freudenthal_character(lam: Weight, rs: RootSystem) -> CharElement:
    """Formal character of the highest-weight module by the Freudenthal
    multiplicity recursion; W-invariant with multiplicity 1 at lam.

    The recursion runs in integers. With s = rs.coord_scale, the Gram
    matrix gram[i][j] = s * (omega_i, omega_j) = d_i * rs.coord_matrix[i][j]
    is integral, and so are f_alpha = gram . alpha, with f_alpha . nu =
    s * (nu, alpha), and the scaled norms s * (x, x). The multiplicity
    2 * total / denom is a ratio of two values scaled by the same s, so the
    scale cancels and an exact ``divmod`` decides integrality.
    """
    weights = weight_system(lam, rs)
    lam = tuple(lam)
    hvec = rs.height_vector
    # highest first: by height, then by weight
    dominants = sorted(
        set(weights.values()), key=lambda mu: (-sum(map(mul, hvec, mu)), mu)
    )
    gram = tuple(
        tuple([d * x for x in row]) for d, row in zip(rs.symmetrizer, rs.coord_matrix)
    )

    def scaled_norm(x: Weight) -> int:
        return sum(map(mul, x, [sum(map(mul, row, x)) for row in gram]))

    strings = []
    for alpha in rs.positive_roots:
        f = [sum(map(mul, row, alpha)) for row in gram]
        strings.append((alpha, f, sum(map(mul, f, alpha))))
    rho = rs.rho
    top = scaled_norm(tuple(map(add, lam, rho)))
    mults: dict[Weight, int] = {}
    for mu in dominants:
        if mu == lam:
            mults[mu] = 1
            continue
        total = 0
        for alpha, f, step in strings:
            # pair = s * (mu + k*alpha, alpha) along the alpha-string above mu
            pair = sum(map(mul, f, mu))
            nu = mu
            while True:
                nu = tuple(map(add, nu, alpha))
                dom = weights.get(nu)
                if dom is None:
                    break
                pair += step
                total += mults[dom] * pair
        denom = top - scaled_norm(tuple(map(add, mu, rho)))
        value, r = divmod(2 * total, denom)
        if r or value <= 0:
            raise AssertionError(f"non-integral multiplicity at {mu}")
        mults[mu] = value
    return CharElement(rs.rank, {nu: mults[dom] for nu, dom in weights.items()})


def weyl_dimension(lam: Weight, rs: RootSystem) -> int:
    """Weyl dimension formula, prod (lam+rho, alpha) / (rho, alpha)."""
    require_dominant(lam, rs)
    lam_rho = tuple(l + 1 for l in lam)
    value = Fraction(1)
    for alpha in rs.positive_roots:
        value *= Fraction(rs.inner(lam_rho, alpha), rs.inner(rs.rho, alpha))
    if value.denominator != 1:
        raise AssertionError("Weyl dimension is not an integer")
    return int(value)


def weyl_character(lam: Weight, rs: RootSystem) -> CharElement:
    """Character by the Weyl formula: the alternating numerator
    sum_w eps(w) e^{w(lam+rho)-rho} divided exactly by
    prod_{alpha>0} (1 - e^{-alpha})."""
    require_dominant(lam, rs)
    lam_rho = tuple(l + 1 for l in lam)
    rho = rs.rho
    numerator_terms: dict[Weight, int] = {}
    for w in rs.weyl_group():
        mu = tuple(x - r for x, r in zip(w.act(lam_rho), rho))
        numerator_terms[mu] = numerator_terms.get(mu, 0) + w.sign
    numerator = CharElement(rs.rank, numerator_terms)
    try:
        return divide_exact(numerator, half_denominator(rs).conjugate(), rs)
    except ValueError as exc:
        raise AssertionError(
            f"Weyl numerator for {lam} is not divisible by the denominator"
        ) from exc
