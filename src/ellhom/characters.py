"""Finite-dimensional characters: Freudenthal recursion and the Weyl formula.

The two algorithms are independent of each other (multiplicity recursion vs.
alternating-sum division by the denominator) and are required to agree; the
agreement is one of the verification suites.
"""

from __future__ import annotations

from fractions import Fraction

from .charring import CharElement, divide_exact, half_denominator
from .rootsystem import RootSystem, Weight


class InternalConsistencyError(RuntimeError):
    """An identity that must hold for valid inputs failed; signals a bug."""


def is_dominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def _require_dominant(lam: Weight, rs: RootSystem):
    if len(lam) != rs.rank:
        raise ValueError(f"weight {lam} does not have rank {rs.rank}")
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")


def dominant_representative(mu: Weight, rs: RootSystem) -> Weight:
    """The dominant weight in the W-orbit of mu."""
    mu = tuple(mu)
    while True:
        for i, x in enumerate(mu):
            if x < 0:
                alpha = rs.simple_root(i)
                mu = tuple(y - x * a for y, a in zip(mu, alpha))
                break
        else:
            return mu


def weight_system(lam: Weight, rs: RootSystem) -> set[Weight]:
    """All weights of the irreducible module with highest weight lam.

    Breadth-first from lam by subtracting simple roots; membership of a
    candidate is decided by whether lam minus its dominant representative
    lies in the nonnegative root lattice.
    """
    _require_dominant(lam, rs)
    lam = tuple(lam)
    found = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for i in range(rs.rank):
                alpha = rs.simple_root(i)
                nu = tuple(x - a for x, a in zip(mu, alpha))
                if nu in found:
                    continue
                dom = dominant_representative(nu, rs)
                diff = tuple(x - y for x, y in zip(lam, dom))
                if rs.in_positive_root_lattice(diff):
                    found.add(nu)
                    new.append(nu)
        frontier = new
    return found


def freudenthal_character(lam: Weight, rs: RootSystem) -> CharElement:
    """Formal character of the highest-weight module by the Freudenthal
    multiplicity recursion; W-invariant with multiplicity 1 at lam."""
    _require_dominant(lam, rs)
    lam = tuple(lam)
    weights = weight_system(lam, rs)
    dominants = sorted(
        (mu for mu in weights if is_dominant(mu)),
        key=lambda mu: (rs.height(tuple(l - m for l, m in zip(lam, mu))), mu),
    )
    rho = rs.rho
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    top = rs.inner(lam_rho, lam_rho)
    mults: dict[Weight, int] = {}
    for mu in dominants:
        if mu == lam:
            mults[mu] = 1
            continue
        total = Fraction(0)
        for alpha in rs.positive_roots:
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, alpha))
                if nu not in weights:
                    break
                total += mults[dominant_representative(nu, rs)] * rs.inner(nu, alpha)
                k += 1
        mu_rho = tuple(m + r for m, r in zip(mu, rho))
        denom = top - rs.inner(mu_rho, mu_rho)
        value = 2 * total / denom
        if value.denominator != 1 or value <= 0:
            raise InternalConsistencyError(f"non-integral multiplicity at {mu}")
        mults[mu] = int(value)
    return CharElement(
        rs.rank, {mu: mults[dominant_representative(mu, rs)] for mu in weights}
    )


def weyl_dimension(lam: Weight, rs: RootSystem) -> int:
    """Weyl dimension formula, prod (lam+rho, alpha) / (rho, alpha)."""
    _require_dominant(lam, rs)
    lam_rho = tuple(l + 1 for l in lam)
    value = Fraction(1)
    for alpha in rs.positive_roots:
        value *= Fraction(rs.inner(lam_rho, alpha), rs.inner(rs.rho, alpha))
    if value.denominator != 1:
        raise InternalConsistencyError("Weyl dimension is not an integer")
    return int(value)


def weyl_character(lam: Weight, rs: RootSystem) -> CharElement:
    """Character by the Weyl formula: the alternating numerator
    sum_w eps(w) e^{w(lam+rho)-rho} divided exactly by
    prod_{alpha>0} (1 - e^{-alpha})."""
    _require_dominant(lam, rs)
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
        raise InternalConsistencyError(
            f"Weyl numerator for {lam} is not divisible by the denominator"
        ) from exc
