"""The multiplicity and elliptic pairings, each as one Gram matrix over a
list of classes (``gram``), the elliptic and homological ones pair by pair,
and the identity checks that support them (denominator symmetry,
Euler-class equivariance, transport between positive systems, duality,
abelian Ext vanishing).

All values are exact rationals; there is no tolerance parameter anywhere.
Every context is equal rank: the pairings live on the character lattice of
a compact Cartan subgroup, and there is no unequal-rank convention.
Complex conjugation of torus characters is exponent negation throughout,
stated once here and used consistently by the elliptic pairing and duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .charring import (
    CharElement,
    half_denominator,
    json_field,
    json_ints,
    root_product,
    torus_pairing,
    weyl_act,
    weyl_denominator_full,
)
from .koszul import GradedHomology, euler_class, normalize_positive_system
from .linalg import sparse_int_rank
from .rootsystem import (
    RootSystem,
    Weight,
    WeylElement,
    WeylSubgroup,
    build_root_system,
    rho_shift,
    subgroup_from_generators,
    trivial_subgroup,
)


@dataclass(frozen=True)
class PairContext:
    """Everything a pairing needs: the root system, a positive system, and
    the subgroup W0 normalizing the compact Cartan. Every context is equal
    rank; the catalog format records that as ``"equal_rank": true``
    and refuses any other value.
    """

    rs: RootSystem
    positive_system: tuple[Weight, ...]
    w0: WeylSubgroup

    def __post_init__(self):
        object.__setattr__(
            self, "positive_system", normalize_positive_system(self.positive_system, self.rs)
        )
        for w in self.w0:
            if w.rank != self.rs.rank:
                raise ValueError("W0 element rank does not match the root system")

    @property
    def w0_order(self) -> int:
        return self.w0.order

    @property
    def w0_is_full(self) -> bool:
        return self.w0.order == self.rs.weyl_order

    def to_dict(self) -> dict:
        return {
            "series": self.rs.series,
            "rank": self.rs.rank,
            "positive_system": [list(a) for a in self.positive_system],
            "w0": [[list(row) for row in w.matrix] for w in self.w0],
            "equal_rank": True,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PairContext":
        if json_field(data, "equal_rank", bool) is not True:
            raise ValueError("only equal-rank contexts are supported")
        rs = build_root_system(json_field(data, "series", str), json_field(data, "rank", int))
        w0 = subgroup_from_generators(rs, json_ints(data, "w0", 3))
        return cls(rs=rs, positive_system=json_ints(data, "positive_system", 2), w0=w0)


def compact_context(rs: RootSystem) -> PairContext:
    """Compact preset: W0 is the full Weyl group."""
    return PairContext(
        rs=rs,
        positive_system=rs.positive_roots,
        w0=rs.weyl_group(),
    )


def split_rank_one_context(rs: RootSystem) -> PairContext:
    """Equal-rank preset with trivial W0, as for SL(2,R)."""
    return PairContext(
        rs=rs,
        positive_system=rs.positive_roots,
        w0=trivial_subgroup(rs),
    )


def custom_context(rs: RootSystem, generators) -> PairContext:
    """Equal-rank context with W0 closed and validated from a generator list."""
    return PairContext(
        rs=rs,
        positive_system=rs.positive_roots,
        w0=subgroup_from_generators(rs, generators),
    )


def _check_rank(ctx: PairContext, *elements):
    for a in elements:
        if a.rank != ctx.rs.rank:
            raise ValueError("rank mismatch between classes and context")


def gram(kind: str, classes, ctx: PairContext) -> list[list[Fraction]]:
    """The matrix of one pairing over a list of classes: entry (i, j) is
    (1/[W0]) * CT(x_i * conj(y_j)), each class checked and prepared once.
    ``multiplicity``: W-invariant characters chi in a compact context
    ([W0] = |W|), x = D * chi and y = chi (the Weyl integral form of dim
    Hom). ``elliptic``: x = y = the Euler class."""
    _check_rank(ctx, *classes)
    if kind == "multiplicity":
        if not ctx.w0_is_full:
            raise ValueError("multiplicity pairing requires a compact context (W0 = W)")
        reflections = [ctx.rs.simple_reflection(i) for i in range(ctx.rs.rank)]
        if any(weyl_act(s, chi) != chi for chi in classes for s in reflections):
            raise ValueError("multiplicity pairing requires W-invariant characters")
        denominator = weyl_denominator_full(ctx.rs)
        left = [denominator * chi for chi in classes]
    elif kind == "elliptic":
        left = classes
    else:
        raise ValueError(f"unknown pairing kind {kind!r}")
    return [[Fraction(torus_pairing(x, y), ctx.w0_order) for y in classes] for x in left]


def elliptic_pairing(xi_u: CharElement, xi_v: CharElement, ctx: PairContext) -> Fraction:
    """(1/[W0]) * CT(Xi_U * conj(Xi_V)) on Euler classes."""
    _check_rank(ctx, xi_u, xi_v)
    return Fraction(torus_pairing(xi_u, xi_v), ctx.w0_order)


def homological_pairing(h_u: GradedHomology, h_v: GradedHomology, ctx: PairContext) -> Fraction:
    """(1/[W0]) * sum_{p,q} (-1)^{p+q} dim Hom_T(H_p, H_q), the Hom count
    being the coefficientwise product sum of the two torus characters.

    The double sum is bilinear, so it is reordered: each side's degrees are
    first folded with their signs, weight by weight (sum_p (-1)^p ch H_p,
    ``euler_class``), and the two folds are paired with one torus_pairing
    call. Each fold is an Euler class, so this is the elliptic pairing by
    construction; it stays only because the benchmark (perfbench/workloads.py
    and perfbench/tracer.py) calls it, and no ``gram`` kind reads it."""
    if h_u.positive_system != h_v.positive_system:
        raise ValueError("positive-system mismatch between the two homologies")
    if h_u.positive_system != ctx.positive_system:
        raise ValueError("homologies are not over the context's positive system")
    return Fraction(torus_pairing(euler_class(h_u), euler_class(h_v)), ctx.w0_order)


def ext_abelian_graded(nu, d: int) -> list[int]:
    """Graded Ext of the trivial module against the character nu of an
    abelian Lie algebra of dimension d, from the Koszul cochain complex
    Lambda^p(a^*) with differential (nu wedge -). Returns the list of
    dim H^p for p = 0..d."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    nu = [Fraction(x) for x in nu]
    if len(nu) != d:
        raise ValueError(f"functional has length {len(nu)}, expected {d}")
    scale = lcm(*(x.denominator for x in nu))
    nu_int = [int(x * scale) for x in nu]
    index = {}
    for p in range(d + 1):
        for subset in combinations(range(d), p):
            index[subset] = len(index)
    ranks = [0] * (d + 2)  # ranks[p] = rank of d_{p-1}: Lambda^{p-1} -> Lambda^p
    for p in range(d):
        rows = []
        for subset in combinations(range(d), p):
            row = {}
            for j in range(d):
                if j in subset or not nu_int[j]:
                    continue
                sgn = (-1) ** sum(1 for x in subset if x < j)
                row[index[tuple(sorted(subset + (j,)))]] = sgn * nu_int[j]
            if row:
                rows.append(row)
        ranks[p + 1] = sparse_int_rank(rows)
    return [comb(d, p) - ranks[p + 1] - ranks[p] for p in range(d + 1)]


def _twist(x: CharElement, w: WeylElement, rs: RootSystem) -> CharElement:
    """eps(w) * e^{w rho - rho} * x: the right side of the denominator
    symmetry, of Euler-class antisymmetry and of transport to n_w. The
    exponent w rho - rho is ``rho_shift`` (rho - w rho) negated."""
    return x.shift(tuple(-c for c in rho_shift(w, rs)), w.sign)


def check_denominator_symmetry(w: WeylElement, rs: RootSystem) -> bool:
    """prod_{alpha in wR+}(1-e^alpha) = eps(w) e^{w rho - rho} prod_{alpha in R+}(1-e^alpha),
    verified by expanding both sides exactly; the left side is its own
    expansion over w(R+), not derived from the right. The right side comes
    first, so the Weyl cap of half_denominator fires before any expansion."""
    rhs = _twist(half_denominator(rs), w, rs)
    return root_product([w.act(alpha) for alpha in rs.positive_roots], rs.rank) == rhs


def check_antisym_i(xi: CharElement, w: WeylElement, ctx: PairContext) -> bool:
    """w(Xi) = eps(w) * Xi * e^{w rho - rho} for w in W0, checked exactly."""
    if w not in ctx.w0:
        raise ValueError("element is not in the context's W0")
    return weyl_act(w, xi) == _twist(xi, w, ctx.rs)


def antisym_transport(xi_n: CharElement, w: WeylElement, ctx: PairContext) -> CharElement:
    """Euler class with respect to n_w = w(R+) obtained from the one for n:
    Xi_{n_w} = eps(w) * Xi_n * e^{w rho - rho}."""
    _check_rank(ctx, xi_n)
    return _twist(xi_n, w, ctx.rs)


def dual_class(xi: CharElement, ctx: PairContext) -> CharElement:
    """Euler class of the dual module: (-1)^{|R+|} e^{2 rho} conj(Xi)."""
    _check_rank(ctx, xi)
    n = len(ctx.rs.positive_roots)
    two_rho = tuple(2 * x for x in ctx.rs.rho)
    return xi.conjugate().shift(two_rho, coeff=(-1) ** n)
