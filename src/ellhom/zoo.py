"""A catalog of Grothendieck-group classes for the pairings to act on: one
pair context and its labelled classes. Compact irreducibles carry their
graded homology; standard-module classes and their duals come from
closed-orbit data (the fiber weight v and s = half dim(K/T)); the rank-one
split preset adds the zero class of its one open orbit. Catalogs serialize
to JSON so verification runs are reproducible and diffable.
"""

from __future__ import annotations

import json

from .charring import CharElement, json_field
from .koszul import GradedHomology, euler_class, kostant_homology
from .pairings import PairContext, compact_context
from .rootsystem import (
    Frozen,
    RootSystem,
    Weight,
    build_root_system,
    check_gram_cap,
    dominant_box,
    rho_shift,
    trivial_subgroup,
)

PROVENANCES = (
    "compact_irreducible",
    "standard_closed",
    "standard_open",
    "external",
)


class VirtualModule(Frozen):
    """A labeled Grothendieck-group class carrying its Euler class and,
    when available, the full graded homology behind it. Immutable."""

    __slots__ = ("label", "euler", "homology", "provenance")

    def __init__(self, label: str, euler: CharElement,
                 homology: GradedHomology | None = None, provenance: str = "external"):
        self._set(label=label, euler=euler, homology=homology, provenance=provenance)
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


def compact_irreducible(lam: Weight, rs: RootSystem) -> VirtualModule:
    """The class of the irreducible with highest weight lam of the compact
    group of rs; homology graded by the per-degree closed form (validated
    against the chain-complex oracle by the test suite)."""
    lam = tuple(lam)
    homology = kostant_homology(lam, rs)
    return VirtualModule(
        label=f"irr{lam}",
        euler=euler_class(homology),
        homology=homology,
        provenance="compact_irreducible",
    )


def standard_module_class(v: Weight, s: int, ctx: PairContext) -> CharElement:
    """Euler class of the standard module on a closed orbit with fiber
    weight v and s = half dim(K/T):
    (-1)^{s+|R+|} sum_{w in W0} eps(w) e^{w v} e^{rho-w rho}."""
    sign = (-1) ** (s + len(ctx.rs.positive_roots))
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)  # rho - w rho
        mu = tuple(x + y for x, y in zip(w.act(v), shift))
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return CharElement(ctx.rs.rank, terms)


def dual_standard_class(v: Weight, s: int, ctx: PairContext) -> CharElement:
    """Euler class of the dual of that standard module, from the direct
    formula (-1)^s sum_{w in W0} eps(w) e^{-w v} e^{rho+w rho}; must agree
    exactly with dual_class(standard_module_class(v, s, ctx), ctx)."""
    sign = (-1) ** s
    two_rho = tuple(2 * x for x in ctx.rs.rho)
    terms: dict[Weight, int] = {}
    for w in ctx.w0:
        shift = rho_shift(w, ctx.rs)
        rho_plus_wrho = tuple(t - c for t, c in zip(two_rho, shift))
        mu = tuple(-x + y for x, y in zip(w.act(v), rho_plus_wrho))
        terms[mu] = terms.get(mu, 0) + sign * w.sign
    return CharElement(ctx.rs.rank, terms)


class Catalog(Frozen):
    """An immutable zoo: one context plus its module classes. Each class
    must have the context's rank, and any stored homology must be over its
    R+; a ValueError names the first class that does not."""

    __slots__ = ("context", "modules")

    def __init__(self, context: PairContext, modules: tuple[VirtualModule, ...]):
        self._set(context=context, modules=modules)
        rank, positive = context.rs.rank, list(context.positive_system)
        for m in modules:
            if m.euler.rank != rank:
                raise ValueError(f"class {m.label!r} has rank {m.euler.rank}, not {rank}")
            if m.homology is not None and sorted(m.homology.positive_system) != positive:
                raise ValueError(f"class {m.label!r} has homology over a positive system other than R+")

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
    return Catalog(context=ctx, modules=tuple(compact_irreducible(lam, rs) for lam in lams))


def sl2_catalog(weight_bound: int = 3) -> Catalog:
    """The rank-one split preset, as for SL(2,R): W0 is trivial, the closed
    orbits give the discrete-series classes -e^mu for mu in [-bound, bound],
    each with e^mu as its homology in degree 1, and the open orbit gives the
    zero principal-series class PS0. The 2 * bound + 2 classes are held to
    ``check_gram_cap`` before the first is built."""
    if weight_bound < 0:
        raise ValueError(f"bound must be nonnegative, got {weight_bound}")
    rs = build_root_system("A", 1)
    check_gram_cap(2 * weight_bound + 2, rs)
    ctx = PairContext(rs, trivial_subgroup(rs))
    modules = [
        VirtualModule(
            label=f"DS{mu:+d}",
            euler=standard_module_class((mu,), 0, ctx),
            homology=GradedHomology(
                classes=(CharElement.zero(1), CharElement.monomial((mu,))),
                positive_system=ctx.positive_system,
                rank=1,
            ),
            provenance="standard_closed",
        )
        for mu in range(-weight_bound, weight_bound + 1)
    ]
    modules.append(VirtualModule(label="PS0", euler=CharElement.zero(1), provenance="standard_open"))
    return Catalog(context=ctx, modules=tuple(modules))
