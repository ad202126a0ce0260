"""A catalog of Grothendieck-group classes for the pairings to act on:
compact irreducibles with their graded homology, standard-module classes
from closed or non-closed orbit data, their duals, and rank-one split
presets. Catalogs serialize to JSON so verification runs are reproducible
and diffable.
"""

from __future__ import annotations

import json

from .charring import CharElement, json_field
from .koszul import GradedHomology, euler_class, kostant_homology
from .pairings import PairContext, compact_context, split_rank_one_context
from .rootsystem import (
    Frozen,
    RootSystem,
    Weight,
    build_root_system,
    check_gram_cap,
    dominant_box,
    rho_shift,
)

PROVENANCES = (
    "compact_irreducible",
    "standard_closed",
    "standard_open",
    "external",
)


class GeometricDatum(Frozen):
    """Orbit data for a standard-module class: whether the orbit is closed,
    the lattice weight of the fiber module, and s = half dim(K/T).
    Immutable."""

    __slots__ = ("closed", "v_weight", "s", "ctx")

    def __init__(self, closed: bool, v_weight: Weight, s: int, ctx: PairContext):
        self._set(closed=closed, v_weight=v_weight, s=s, ctx=ctx)
        if len(v_weight) != ctx.rs.rank:
            raise ValueError("fiber weight rank does not match the context")
        if s < 0:
            raise ValueError("s must be nonnegative")


class VirtualModule(Frozen):
    """A labeled Grothendieck-group class carrying its Euler class and,
    when available, the full graded homology behind it. Immutable."""

    __slots__ = ("label", "ctx", "euler", "homology", "provenance")

    def __init__(self, label: str, ctx: PairContext, euler: CharElement,
                 homology: GradedHomology | None = None, provenance: str = "external"):
        self._set(label=label, ctx=ctx, euler=euler, homology=homology, provenance=provenance)
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if homology is not None and euler_class(homology) != euler:
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


def standard_module_class(datum: GeometricDatum) -> CharElement:
    """Euler class of a standard module. Closed orbit:
    (-1)^{s+|R+|} sum_{w in W0} eps(w) e^{w v} e^{rho-w rho}; non-closed
    orbit: the zero class."""
    ctx = datum.ctx
    if not datum.closed:
        return CharElement.zero(ctx.rs.rank)
    sign = (-1) ** (datum.s + len(ctx.rs.positive_roots))
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)  # rho - w rho
        mu = tuple(x + y for x, y in zip(w.act(datum.v_weight), shift))
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return CharElement(ctx.rs.rank, terms)


def dual_standard_class(datum: GeometricDatum) -> CharElement:
    """Euler class of the dual of a standard module, from the direct
    formula (-1)^s sum_{w in W0} eps(w) e^{-w v} e^{rho+w rho} (the zero
    class for a non-closed orbit); must agree exactly with
    dual_class(standard_module_class(datum))."""
    ctx = datum.ctx
    if not datum.closed:
        return CharElement.zero(ctx.rs.rank)
    sign = (-1) ** datum.s
    two_rho = tuple(2 * x for x in ctx.rs.rho)
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)
        rho_plus_wrho = tuple(t - s for t, s in zip(two_rho, shift))
        mu = tuple(-x + y for x, y in zip(w.act(datum.v_weight), rho_plus_wrho))
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return CharElement(ctx.rs.rank, terms)


def sl2_presets(weight_bound: int = 3) -> list[VirtualModule]:
    """Rank-one split presets: W0 trivial, closed orbits give the classes
    -e^mu for mu in [-bound, bound] (discrete-series standard modules), the
    open orbit gives the zero class (principal series). The 2 * bound + 2
    classes are held to ``check_gram_cap`` before the first is built."""
    if weight_bound < 0:
        raise ValueError(f"bound must be nonnegative, got {weight_bound}")
    rs = build_root_system("A", 1)
    check_gram_cap(2 * weight_bound + 2, rs)
    ctx = split_rank_one_context(rs)
    modules = []
    for mu in range(-weight_bound, weight_bound + 1):
        datum = GeometricDatum(closed=True, v_weight=(mu,), s=0, ctx=ctx)
        modules.append(
            VirtualModule(
                label=f"DS{mu:+d}",
                ctx=ctx,
                euler=standard_module_class(datum),
                homology=GradedHomology(
                    classes=(CharElement.zero(1), CharElement.monomial((mu,))),
                    positive_system=ctx.positive_system,
                    rank=1,
                ),
                provenance="standard_closed",
            )
        )
    modules.append(
        VirtualModule(label="PS0", ctx=ctx, euler=CharElement.zero(1), provenance="standard_open")
    )
    return modules


class Catalog(Frozen):
    """An immutable zoo: one context plus its module classes."""

    __slots__ = ("context", "modules")

    def __init__(self, context: PairContext, modules: tuple[VirtualModule, ...]):
        self._set(context=context, modules=modules)

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
        modules = {}
        for m in entries:
            label = json_field(m, "label", str)
            if label in modules:
                raise ValueError(f"JSON key 'label' repeats the label {label!r}")
            homology = json_field(m, "homology", dict, type(None))
            modules[label] = VirtualModule(
                label=label,
                ctx=ctx,
                euler=CharElement.from_dict(json_field(m, "euler", dict)),
                homology=GradedHomology.from_dict(homology) if homology is not None else None,
                provenance=json_field(m, "provenance", str),
            )
        return cls(context=ctx, modules=tuple(modules.values()))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Catalog":
        """The catalog saved at path. A file nested too deeply for the JSON
        parser is a ValueError naming the file, like any malformed one."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"catalog file {path} is nested too deeply to parse") from None
        return cls.from_dict(data)


def compact_catalog(rs: RootSystem, bound: int) -> Catalog:
    """All compact irreducibles with coordinates up to the bound; the
    (bound+1)^rank classes are held to ``check_gram_cap`` before W is
    enumerated."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    check_gram_cap((bound + 1) ** rs.rank, rs)
    ctx = compact_context(rs)
    lams = dominant_box(rs.rank, bound)
    return Catalog(
        context=ctx, modules=tuple(compact_irreducible(lam, ctx) for lam in lams)
    )


def sl2_catalog(weight_bound: int = 3) -> Catalog:
    modules = sl2_presets(weight_bound)
    return Catalog(context=modules[0].ctx, modules=tuple(modules))
