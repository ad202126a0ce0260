"""A catalog of Grothendieck-group classes for the pairings to act on:
compact irreducibles with their graded homology, standard-module classes
from closed or non-closed orbit data, their duals, and rank-one split
presets. Catalogs serialize to JSON so verification runs are reproducible
and diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .charring import CharElement, json_field
from .koszul import GradedHomology, euler_class, kostant_homology
from .pairings import PairContext, compact_context, split_rank_one_context
from .rootsystem import RootSystem, Weight, build_root_system, dominant_box, rho_shift

PROVENANCES = (
    "compact_irreducible",
    "standard_closed",
    "standard_open",
    "dual_of",
    "external",
)


@dataclass(frozen=True)
class GeometricDatum:
    """Orbit data for a standard-module class: whether the orbit is closed,
    the lattice weight of the fiber module, and s = half dim(K/T)."""

    closed: bool
    v_weight: Weight
    s: int
    ctx: PairContext

    def __post_init__(self):
        if len(self.v_weight) != self.ctx.rs.rank:
            raise ValueError("fiber weight rank does not match the context")
        if self.s < 0:
            raise ValueError("s must be nonnegative")


@dataclass(frozen=True)
class VirtualModule:
    """A labeled Grothendieck-group class carrying its Euler class and,
    when available, the full graded homology behind it."""

    label: str
    ctx: PairContext
    euler: CharElement
    homology: GradedHomology | None = None
    provenance: str = "external"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.homology is not None and euler_class(self.homology) != self.euler:
            raise ValueError("stored homology does not alternate to the Euler class")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "provenance": self.provenance,
            "euler": self.euler.to_dict(),
            "homology": self.homology.to_dict() if self.homology is not None else None,
        }


def compact_irreducible(lam: Weight, ctx: PairContext) -> VirtualModule:
    """The class of the irreducible with highest weight lam in a compact
    context; homology graded by the per-degree closed form (validated
    against the chain-complex oracle by the test suite)."""
    lam = tuple(lam)
    if not ctx.w0_is_full:
        raise ValueError("compact irreducibles need a compact context (W0 = W)")
    homology = kostant_homology(lam, ctx.rs)
    return VirtualModule(
        label=f"irr{lam}",
        ctx=ctx,
        euler=euler_class(homology),
        homology=homology,
        provenance="compact_irreducible",
    )


def standard_module_class(datum: GeometricDatum) -> VirtualModule:
    """Euler class of a standard module. Closed orbit:
    (-1)^{s+|R+|} sum_{w in W0} eps(w) e^{w v} e^{rho-w rho}; non-closed
    orbit: the zero class."""
    ctx = datum.ctx
    rank = ctx.rs.rank
    if not datum.closed:
        return VirtualModule(
            label=f"std-open{datum.v_weight}",
            ctx=ctx,
            euler=CharElement.zero(rank),
            provenance="standard_open",
        )
    sign = (-1) ** (datum.s + len(ctx.rs.positive_roots))
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)  # rho - w rho
        mu = tuple(x + y for x, y in zip(w.act(datum.v_weight), shift))
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return VirtualModule(
        label=f"std{datum.v_weight}",
        ctx=ctx,
        euler=CharElement(rank, terms),
        provenance="standard_closed",
    )


def dual_standard_class(datum: GeometricDatum) -> VirtualModule:
    """Euler class of the dual of a standard module, from the direct
    formula (-1)^s sum_{w in W0} eps(w) e^{-w v} e^{rho+w rho}; must agree
    exactly with dual_class(standard_module_class(datum))."""
    ctx = datum.ctx
    rank = ctx.rs.rank
    if not datum.closed:
        return VirtualModule(
            label=f"dual-std-open{datum.v_weight}",
            ctx=ctx,
            euler=CharElement.zero(rank),
            provenance="standard_open",
        )
    sign = (-1) ** datum.s
    two_rho = tuple(2 * x for x in ctx.rs.rho)
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)
        rho_plus_wrho = tuple(t - s for t, s in zip(two_rho, shift))
        mu = tuple(
            -x + y for x, y in zip(w.act(datum.v_weight), rho_plus_wrho)
        )
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return VirtualModule(
        label=f"dual-std{datum.v_weight}",
        ctx=ctx,
        euler=CharElement(rank, terms),
        provenance="dual_of",
    )


def sl2_presets(weight_bound: int = 3) -> list[VirtualModule]:
    """Rank-one split presets: W0 trivial, closed orbits give the classes
    -e^mu for mu in [-bound, bound] (discrete-series standard modules), the
    open orbit gives the zero class (principal series)."""
    if weight_bound < 0:
        raise ValueError(f"bound must be nonnegative, got {weight_bound}")
    rs = build_root_system("A", 1)
    ctx = split_rank_one_context(rs)
    modules = []
    for mu in range(-weight_bound, weight_bound + 1):
        datum = GeometricDatum(closed=True, v_weight=(mu,), s=0, ctx=ctx)
        vm = standard_module_class(datum)
        modules.append(
            VirtualModule(
                label=f"DS{mu:+d}",
                ctx=ctx,
                euler=vm.euler,
                homology=GradedHomology(
                    classes=(
                        CharElement.zero(1),
                        CharElement.monomial((mu,)),
                    ),
                    positive_system=ctx.positive_system,
                    rank=1,
                ),
                provenance="standard_closed",
            )
        )
    open_datum = GeometricDatum(closed=False, v_weight=(0,), s=0, ctx=ctx)
    vm = standard_module_class(open_datum)
    modules.append(
        VirtualModule(label="PS0", ctx=ctx, euler=vm.euler, provenance="standard_open")
    )
    return modules


@dataclass(frozen=True)
class Catalog:
    """An immutable zoo: one context plus its module classes."""

    context: PairContext
    modules: tuple[VirtualModule, ...]

    def to_dict(self) -> dict:
        return {
            "context": self.context.to_dict(),
            "modules": [m.to_dict() for m in self.modules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        ctx = PairContext.from_dict(json_field(data, "context", dict))
        entries = json_field(data, "modules", list)
        if not entries:
            raise ValueError("JSON key 'modules' must not be empty")
        modules = []
        for m in entries:
            homology = json_field(m, "homology", dict, type(None))
            modules.append(
                VirtualModule(
                    label=json_field(m, "label", str),
                    ctx=ctx,
                    euler=CharElement.from_dict(json_field(m, "euler", dict)),
                    homology=GradedHomology.from_dict(homology) if homology is not None else None,
                    provenance=json_field(m, "provenance", str),
                )
            )
        return cls(context=ctx, modules=tuple(modules))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Catalog":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def compact_catalog(rs: RootSystem, bound: int) -> Catalog:
    """All compact irreducibles with coordinates up to the bound."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    ctx = compact_context(rs)
    lams = dominant_box(rs.rank, bound)
    return Catalog(
        context=ctx, modules=tuple(compact_irreducible(lam, ctx) for lam in lams)
    )


def sl2_catalog(weight_bound: int = 3) -> Catalog:
    modules = sl2_presets(weight_bound)
    return Catalog(context=modules[0].ctx, modules=tuple(modules))
