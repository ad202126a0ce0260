"""Span tracer for the benchmark's traced passes.

``install`` replaces the functions and methods that callers inside
``ellhom`` look up at call time (module globals bound by ``from .x import
y``, and class attributes) with wrappers that open a span around each call.
Nothing under ``src/`` changes. A span keeps its name, start, end and
parent in memory; call counts and self times (span time minus the time its
child spans cover) are summed as spans close, and the layer counters are
read from each call's arguments and result.
"""

from __future__ import annotations

import gc
from array import array
from collections import defaultdict
from time import perf_counter

from ellhom import characters, charring, hwmodule, koszul, linalg, pairings, rootsystem, zoo


def _weyl_elements(tr, args, result):
    tr.counts["rootsystem.weyl_elements"] += result.order


def _subgroup_elements(tr, args, result):
    tr.counts["rootsystem.subgroup_elements"] += result.order


def _divide_steps(tr, args, result):
    # one quotient term per leading-term extraction
    tr.counts["charring.divide_exact.steps"] += len(result.terms)


def _term_pairs(tr, args, result):
    a, b = args
    other = len(b.terms) if isinstance(b, charring.CharElement) else 1
    tr.counts["charring.CharElement.mul.term_pairs"] += len(a.terms) * other


def _character_terms(tr, args, result):
    tr.counts["characters.terms"] += len(result.terms)


def _module_builds(tr, args, result):
    if id(result) not in tr.built_modules:
        tr.built_modules.add(id(result))
        tr.counts["hwmodule.module_for.builds"] += 1
        tr.counts["hwmodule.built_dim"] += result.dimension


def _complex_dim(tr, args, result):
    lam, _, rs = args[:3]
    dim = rs._module_cache[tuple(lam)].dimension
    tr.counts["koszul.complex_dim"] += dim * 2 ** len(rs.positive_roots)


def _rank_sizes(tr, args, result):
    rows = args[0]
    c = tr.counts
    c["linalg.rows"] += len(rows)
    c["linalg.nnz"] += sum(map(len, rows))
    c["linalg.max_rows"] = max(c["linalg.max_rows"], len(rows))
    c["linalg.rank"] += result


C, CR, H, K, P, R, Z = characters, charring, hwmodule, koszul, pairings, rootsystem, zoo

# (span name, every binding callers look it up through, counter)
SPANS = (
    ("rootsystem.enumerate_weyl_group", [(R, "enumerate_weyl_group")], _weyl_elements),
    ("rootsystem.subgroup_from_generators",
     [(R, "subgroup_from_generators"), (P, "subgroup_from_generators")], _subgroup_elements),
    ("rootsystem.WeylSubgroup.contains", [(R.WeylSubgroup, "__contains__")], None),
    ("rootsystem.rho_shift", [(R, "rho_shift"), (P, "rho_shift"), (Z, "rho_shift")], None),
    ("rootsystem.height", [(R.RootSystem, "height")], None),
    ("charring.divide_exact", [(CR, "divide_exact"), (C, "divide_exact")], _divide_steps),
    ("charring.CharElement.mul",
     [(CR.CharElement, "__mul__"), (CR.CharElement, "__rmul__")], _term_pairs),
    ("charring.CharElement.add", [(CR.CharElement, "__add__")], None),
    ("charring.torus_pairing", [(CR, "torus_pairing"), (P, "torus_pairing")], None),
    ("charring.half_denominator", [(CR, "half_denominator"), (P, "half_denominator")], None),
    ("characters.weyl_character", [(C, "weyl_character")], _character_terms),
    ("characters.freudenthal_character", [(C, "freudenthal_character")], _character_terms),
    ("hwmodule.module_for", [(H, "module_for"), (K, "module_for")], _module_builds),
    ("hwmodule.operator", [(H.HighestWeightModule, "operator")], None),
    ("hwmodule.structure_constants",
     [(H, "structure_constants"), (K, "structure_constants")], None),
    ("koszul.koszul_n_homology", [(K, "koszul_n_homology")], _complex_dim),
    ("koszul.kostant_homology", [(K, "kostant_homology"), (Z, "kostant_homology")], None),
    ("koszul.GradedHomology.add", [(K.GradedHomology, "__add__")], None),
    ("linalg.sparse_int_rank",
     [(linalg, "sparse_int_rank"), (K, "sparse_int_rank"), (P, "sparse_int_rank")], _rank_sizes),
    ("pairings.elliptic_pairing", [(P, "elliptic_pairing")], None),
    ("pairings.homological_pairing", [(P, "homological_pairing")], None),
    ("pairings.check_antisym_i", [(P, "check_antisym_i")], None),
    ("pairings.check_denominator_symmetry", [(P, "check_denominator_symmetry")], None),
    ("pairings.antisym_transport", [(P, "antisym_transport")], None),
    ("zoo.compact_catalog", [(Z, "compact_catalog")], None),
    ("zoo.Catalog.to_dict", [(Z.Catalog, "to_dict")], None),
    ("zoo.Catalog.from_dict", [(Z.Catalog, "from_dict")], None),
)

COUNTERS = (
    "rootsystem.weyl_elements",
    "rootsystem.subgroup_elements",
    "charring.divide_exact.steps",
    "charring.CharElement.mul.term_pairs",
    "characters.terms",
    "hwmodule.module_for.builds",
    "hwmodule.built_dim",
    "koszul.complex_dim",
    "linalg.rows",
    "linalg.nnz",
    "linalg.max_rows",
    "linalg.rank",
)


class Tracer:
    """Spans in parallel arrays (name id, parent span, start, end) plus
    per-name call counts, self times and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.built_modules: set[int] = set()
        # open spans: [span index, time covered by its children]
        self._stack: list[list] = []

    def wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        names_out, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            frame = [len(starts), 0.0]
            names_out.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, args, result)
                return result
            finally:
                t1 = perf_counter()
                ends[frame[0]] = t1
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def top_level_s(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(
            e - s
            for s, e, p in zip(self.span_start, self.span_end, self.span_parent)
            if p < 0
        )

    def write(self, path) -> None:
        """Write every span as a tab-separated line: index, name, parent
        index (-1 for none), start and end in seconds of perf_counter."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i, (n, p, s, e) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{names[n]}\t{p}\t{s!r}\t{e!r}\n")


def install() -> Tracer:
    """Wrap every binding listed in SPANS; one wrapper per original object,
    so all bindings of one function share it."""
    tr = Tracer()
    for name, bindings, counter in SPANS:
        wrappers: dict[int, object] = {}
        for owner, attr in bindings:
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = tr.wrap(name, fn, counter)
            setattr(owner, attr, classmethod(w) if is_classmethod else w)
    return tr


def cache_counts() -> dict[str, int]:
    """End-of-run sizes of the caches ellhom never evicts: the root-system
    lru_cache and each root system's module cache."""
    systems = [o for o in gc.get_objects() if isinstance(o, rootsystem.RootSystem)]
    modules = [m for rs in systems for m in rs._module_cache.values()]
    return {
        "rootsystem.cached_systems": rootsystem._cached_root_system.cache_info().currsize,
        "hwmodule.cached_modules": len(modules),
        "hwmodule.cached_dim": sum(m.dimension for m in modules),
    }


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-span calls and self times plus the counters, keyed by metric name."""
    out: dict[str, float] = {}
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = tr.calls.get(name, 0)
        out[f"{name}.self_s"] = tr.self_s.get(name, 0.0)
    for name in COUNTERS:
        out[name] = tr.counts.get(name, 0)
    return out
