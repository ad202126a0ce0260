"""Exact arithmetic in the character ring of a compact torus.

Elements are finitely supported integer combinations of lattice characters
e^mu, stored as sparse dicts keyed by weight coordinate vectors. The
normalized Haar integral of e^mu is the Kronecker delta at mu = 0, so every
torus integral below is a constant-term extraction.
"""

from __future__ import annotations

from fractions import Fraction

from .rootsystem import RootSystem, Weight, WeylElement


class CharElement:
    """A formal Laurent polynomial sum of c_mu * e^mu with integer c_mu."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Weight, int] | None = None):
        self.rank = rank
        clean: dict[Weight, int] = {}
        if terms:
            for mu, c in terms.items():
                if len(mu) != rank:
                    raise ValueError(f"weight {mu} does not have rank {rank}")
                if c:
                    clean[tuple(mu)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "CharElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "CharElement":
        return cls(rank, {tuple([0] * rank): 1})

    @classmethod
    def monomial(cls, mu: Weight, coeff: int = 1) -> "CharElement":
        return cls(len(mu), {tuple(mu): coeff})

    # -- ring structure --------------------------------------------------------

    def _check_rank(self, other: "CharElement"):
        if self.rank != other.rank:
            raise ValueError("rank mismatch between character-ring elements")

    def __add__(self, other: "CharElement") -> "CharElement":
        self._check_rank(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            v = out.get(mu, 0) + c
            if v:
                out[mu] = v
            else:
                out.pop(mu, None)
        res = CharElement.__new__(CharElement)
        res.rank, res.terms = self.rank, out
        return res

    def __neg__(self) -> "CharElement":
        res = CharElement.__new__(CharElement)
        res.rank = self.rank
        res.terms = {mu: -c for mu, c in self.terms.items()}
        return res

    def __sub__(self, other: "CharElement") -> "CharElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return CharElement.zero(self.rank)
            res = CharElement.__new__(CharElement)
            res.rank = self.rank
            res.terms = {mu: c * other for mu, c in self.terms.items()}
            return res
        self._check_rank(other)
        out: dict[Weight, int] = {}
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        for mu, c in small.items():
            for nu, d in large.items():
                key = tuple(x + y for x, y in zip(mu, nu))
                v = out.get(key, 0) + c * d
                if v:
                    out[key] = v
                else:
                    del out[key]
        res = CharElement.__new__(CharElement)
        res.rank, res.terms = self.rank, out
        return res

    __rmul__ = __mul__

    def shift(self, mu: Weight, coeff: int = 1) -> "CharElement":
        """Multiplication by coeff * e^mu."""
        res = CharElement.__new__(CharElement)
        res.rank = self.rank
        res.terms = {
            tuple(x + y for x, y in zip(nu, mu)): c * coeff for nu, c in self.terms.items()
        }
        return res

    def conjugate(self) -> "CharElement":
        """Complex conjugation on the compact torus: e^mu -> e^-mu."""
        res = CharElement.__new__(CharElement)
        res.rank = self.rank
        res.terms = {tuple(-x for x in mu): c for mu, c in self.terms.items()}
        return res

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mu: Weight) -> int:
        return self.terms.get(tuple(mu), 0)

    def constant_term(self) -> int:
        return self.terms.get(tuple([0] * self.rank), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Weight]:
        return sorted(self.terms)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mu in self.support():
            c = self.terms[mu]
            parts.append(f"{'+' if c > 0 and parts else ''}{c}*e{list(mu)}")
        return "".join(parts)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [{"w": list(mu), "c": str(self.terms[mu])} for mu in self.support()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CharElement":
        terms = {tuple(t["w"]): int(t["c"]) for t in data["terms"]}
        return cls(int(data["rank"]), terms)


def weyl_act(w: WeylElement, a: CharElement) -> CharElement:
    """e^mu -> e^{w mu}, extended linearly; a ring automorphism."""
    if w.rank != a.rank:
        raise ValueError("rank mismatch between Weyl element and character")
    res = CharElement.__new__(CharElement)
    res.rank = a.rank
    res.terms = {w.act(mu): c for mu, c in a.terms.items()}
    return res


def torus_integral(a: CharElement) -> int:
    """Normalized Haar integral over the torus: the coefficient of e^0."""
    return a.constant_term()


def torus_pairing(a: CharElement, b: CharElement) -> int:
    """Integral of a * conj(b); by character orthogonality this is the
    coefficient dot product sum_mu a_mu b_mu."""
    a._check_rank(b)
    small, large = (a.terms, b.terms)
    if len(small) > len(large):
        small, large = large, small
    return sum(c * large.get(mu, 0) for mu, c in small.items())


def weyl_denominator_full(rs: RootSystem) -> CharElement:
    """D = prod over all roots of (1 - e^alpha)."""
    out = CharElement.one(rs.rank)
    for alpha in rs.full_roots:
        out = out - out.shift(alpha)
    return out


def half_denominator(rs: RootSystem) -> CharElement:
    """prod over positive roots of (1 - e^alpha)."""
    out = CharElement.one(rs.rank)
    for alpha in rs.positive_roots:
        out = out - out.shift(alpha)
    return out


def divide_exact(p: CharElement, q: CharElement, rs: RootSystem) -> CharElement:
    """Exact division in the character ring, or ValueError if not exact.

    Term order: height functional first (any rational functional positive on
    the positive roots works; we use the sum of simple-root coordinates),
    lexicographic tie-break. Exactness is certified by the remainder
    reaching zero with every quotient term inside the feasible height range.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero character")
    hcache: dict[Weight, Fraction] = {}

    def h(mu: Weight) -> Fraction:
        v = hcache.get(mu)
        if v is None:
            v = rs.height(mu)
            hcache[mu] = v
        return v

    def lead(terms: dict) -> Weight:
        return max(terms, key=lambda mu: (h(mu), mu))

    qlead = lead(q.terms)
    qlc = q.terms[qlead]
    if p.is_zero():
        return CharElement.zero(p.rank)
    floor = min(h(mu) for mu in p.terms) - min(h(mu) for mu in q.terms)
    rem = dict(p.terms)
    quot: dict[Weight, int] = {}
    while rem:
        t = lead(rem)
        c, r = divmod(rem[t], qlc)
        mono = tuple(x - y for x, y in zip(t, qlead))
        if r != 0 or h(mono) < floor:
            raise ValueError("division is not exact in the character ring")
        quot[mono] = c
        for nu, d in q.terms.items():
            key = tuple(x + y for x, y in zip(mono, nu))
            v = rem.get(key, 0) - c * d
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return CharElement(p.rank, quot)
