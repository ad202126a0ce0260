"""Lie algebra homology of nilradicals by brute force, and Euler classes.

koszul_n_homology assembles the chain complex Lambda^p(n) tensor V with the
standard homology boundary

    d(x_1^...^x_p (x) v) = sum_a (-1)^{a+1} (omit x_a) (x) x_a v
                         + sum_{a<b} (-1)^{a+b+1} [x_a,x_b]^(omit both) (x) v,

splits it by torus weight, and computes exact integer ranks per weight per
degree. It is the ground-truth oracle: it uses only the module matrices and
structure constants from hwmodule, never a character-level closed form.

A GradedHomology is one sparse map {(p, mu): dim H_p[mu]} over (degree,
weight), the graded character sum_p t^p ch H_p; its Euler class is the value
at t = -1, one signed fold over the map. Sums and integer multiples, the
Grothendieck-group arithmetic of virtual modules, are one dict merge or one
dict comprehension; the per-degree CharElements are derived on demand.

The complex is assembled one torus weight mu at a time: every degree of
C_.(mu) is built together, so only one small subcomplex is alive at once.
The rows of the d_p block of mu are the basis vectors of C_p(mu), and its
columns are their boundary coordinates in C_{p-1}(mu). Each d_p block
with C_{p-1}(mu) != 0 gets one shape-only pick, linalg.triangular_pick:
rows R_p and columns P_p, one column per row, on which the unreduced d_p
is a triangular submatrix with nonzero diagonal. So d_p is injective on
span(R_p), and im d_p, read on the coordinates P_p, is all of them. Before
the rank of the d_p block is taken, two deletions rest on that one fact:

- (a) delete the rows P_{p+1}. im d_{p+1} reaches every coordinate in
  P_{p+1}, so C_p = im d_{p+1} + span(the other rows), and d_p d_{p+1} = 0
  keeps the rank.
- (b) delete the columns R_{p-1}. d_{p-1} is injective on span(R_{p-1}),
  so dropping those coordinates is injective on ker d_{p-1}, which
  contains im d_p, and keeps the rank.

Both are exact with no arithmetic and no certificate, and sparse_int_rank
stays the only rank routine.

The operator matrices and bracket constants are rational; hwmodule holds
each as integer numerators over one denominator. Each call takes one common
denominator D (the lcm of those denominators) and assembles D*d, which is
integral; a nonzero scalar multiple of a map has the same rank in every
block, so the homology is unchanged and every entry is an int. Everything
that depends only on a wedge subset (its weight, the subsets one degree
down that its terms land on, and the signs) is computed once per subset,
not once per basis vector.

A basis vector of Lambda^p(n) tensor V is a wedge subset S of degree p and a
basis number v of the module's one numbered basis; it is labelled
index(S) * dim V + v, so the sparse operators of hwmodule are used as they
are, with no per-weight offsets.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .characters import require_dominant, weyl_dimension
from .charring import CharElement, json_field, json_ints, merge_terms
from .hwmodule import module_for, structure_constants
from .linalg import sparse_int_rank, triangular_pick
from .rootsystem import CapExceededError, RootSystem, Weight

# bound on dim V, the dimension of the module
DIM_CAP = 2000
# bound on dim V * 2^|R+|, the dimension of the whole chain complex
COMPLEX_DIM_CAP = 1 << 16


class GradedHomology:
    """The graded character sum_p t^p ch H_p(n, V), p = 0..degrees-1, with
    the chosen n, stored as one sparse map terms {(p, mu): dim H_p[mu]}
    (nonzero int entries only). Immutable and hashable; two are equal when
    their degree counts, positive systems, ranks and terms are.

    ``classes`` is the per-degree view, a tuple of CharElements derived
    once and cached; ``euler_class`` is derived once and cached the same
    way, in ``_euler``."""

    __slots__ = ("terms", "degrees", "positive_system", "rank", "_classes", "_euler")

    def __init__(self, classes, positive_system, rank: int):
        terms: dict[tuple[int, Weight], int] = {}
        for p, cls in enumerate(classes):
            if not isinstance(cls, CharElement) or cls.rank != rank:
                raise ValueError(f"degree {p} is not a character of rank {rank}")
            terms.update(((p, mu), c) for mu, c in cls.terms.items())
        self._set(terms, len(classes), tuple(positive_system), rank)

    def _set(self, terms, degrees, positive_system, rank):
        set_slot = object.__setattr__
        set_slot(self, "terms", terms)
        set_slot(self, "degrees", degrees)
        set_slot(self, "positive_system", positive_system)
        set_slot(self, "rank", rank)
        set_slot(self, "_classes", None)
        set_slot(self, "_euler", None)

    @classmethod
    def _of(cls, terms, degrees: int, positive_system, rank: int) -> "GradedHomology":
        """The trusted constructor for arithmetic results: wraps terms
        without validating them. The caller guarantees keys (p, mu) with
        0 <= p < degrees and mu of length rank, and nonzero int values."""
        res = cls.__new__(cls)
        res._set(terms, degrees, positive_system, rank)
        return res

    def __setattr__(self, name, value):
        raise AttributeError(f"GradedHomology is immutable; cannot set {name!r}")

    @property
    def classes(self) -> tuple[CharElement, ...]:
        if self._classes is None:
            per_degree: list[dict[Weight, int]] = [{} for _ in range(self.degrees)]
            for (p, mu), c in self.terms.items():
                per_degree[p][mu] = c
            classes = tuple(CharElement._of(self.rank, d) for d in per_degree)
            object.__setattr__(self, "_classes", classes)
        return self._classes

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedHomology):
            return NotImplemented
        return (
            self.degrees == other.degrees
            and self.positive_system == other.positive_system
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degrees, self.positive_system, self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"GradedHomology(classes={self.classes!r}, positive_system={self.positive_system!r})"

    def __add__(self, other: "GradedHomology") -> "GradedHomology":
        if not isinstance(other, GradedHomology):
            return NotImplemented
        if self.positive_system != other.positive_system:
            raise ValueError("positive-system mismatch between graded homologies")
        terms = merge_terms(self.terms, other.terms)
        return GradedHomology._of(
            terms, max(self.degrees, other.degrees), self.positive_system, self.rank
        )

    def scale(self, c: int) -> "GradedHomology":
        if not isinstance(c, int):
            raise TypeError(f"scale factor {c!r} is not an int")
        terms = {key: v * c for key, v in self.terms.items()} if c else {}
        return GradedHomology._of(terms, self.degrees, self.positive_system, self.rank)

    def to_dict(self) -> dict:
        return {
            "degrees": [
                {"p": p, "class": cls.to_dict()} for p, cls in enumerate(self.classes)
            ],
            "positive_system": [list(a) for a in self.positive_system],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradedHomology":
        degrees = sorted(json_field(data, "degrees", list), key=lambda d: json_field(d, "p", int))
        if not degrees:
            raise ValueError("JSON key 'degrees' must not be empty")
        numbers = [d["p"] for d in degrees]
        if numbers != list(range(len(degrees))):
            raise ValueError(
                f"JSON key 'p' must number the degrees 0..{len(degrees) - 1}, each once, "
                f"got {numbers}"
            )
        classes = tuple(CharElement.from_dict(json_field(d, "class", dict)) for d in degrees)
        ps = json_ints(data, "positive_system", 2)
        return cls(classes=classes, positive_system=ps, rank=classes[0].rank)


def normalize_positive_system(positive_system, rs: RootSystem) -> tuple[Weight, ...]:
    """Validate that the given roots form a positive system w(R+) closed
    under addition, and return them in a canonical sorted order."""
    ps = tuple(sorted(tuple(a) for a in positive_system))
    if len(ps) != len(rs.positive_roots):
        raise ValueError("positive system has the wrong number of roots")
    seen = set(ps)
    if len(seen) != len(ps):
        raise ValueError("positive system has repeated roots")
    for alpha in ps:
        if alpha not in rs._full_set:
            raise ValueError(f"{alpha} is not a root")
        if tuple(-x for x in alpha) in seen:
            raise ValueError("positive system contains a root and its negative")
    for a in ps:
        for b in ps:
            total = tuple(x + y for x, y in zip(a, b))
            if total in rs._full_set and total not in seen:
                raise ValueError("positive system is not closed under addition")
    return ps


def koszul_n_homology(lam: Weight, positive_system, rs: RootSystem) -> GradedHomology:
    """Graded n-homology of the irreducible module V_lam, computed from the
    chain complex; n is spanned by the root spaces of the given system."""
    lam = tuple(lam)
    ps = normalize_positive_system(positive_system, rs)
    dim = weyl_dimension(lam, rs)
    if dim > DIM_CAP:
        raise CapExceededError(f"module too large: dim V{lam} = {dim} exceeds cap {DIM_CAP}")
    n_roots = len(ps)
    if dim << n_roots > COMPLEX_DIM_CAP:
        raise CapExceededError(
            f"chain complex too large: dim V{lam} * 2^{n_roots} = {dim << n_roots} "
            f"exceeds cap {COMPLEX_DIM_CAP}"
        )
    mod = module_for(rs, lam)
    if mod.dimension != dim:
        raise AssertionError(
            f"module construction produced dimension {mod.dimension}, expected {dim}"
        )
    spaces = mod.spaces
    # sorted weight order fixes the row order of every rank block
    weights = sorted(spaces)
    brackets = structure_constants(rs)
    ops = [mod.operator(alpha) for alpha in ps]
    index_of = {alpha: a for a, alpha in enumerate(ps)}

    # one common denominator for every coefficient of d: the lcm of the
    # operators' denominators and the brackets'; scaling d by a nonzero
    # constant changes no rank, so the scaled map is integral
    bracket_frac: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    for a in range(n_roots):
        for b in range(a + 1, n_roots):
            m_idx = index_of.get(tuple(x + y for x, y in zip(ps[a], ps[b])))
            if m_idx is not None:
                bracket_frac[(a, b)] = (m_idx, brackets[(ps[a], ps[b])])
    denom = lcm(*(d for _, d in ops), *(q for _, (_, q) in bracket_frac.values()))
    # bracket_of[(a, b)]: (index of ps[a] + ps[b], denom * bracket constant)
    bracket_of = {
        key: (m_idx, p * (denom // q)) for key, (m_idx, (p, q)) in bracket_frac.items()
    }
    # int_ops[a][v]: the image of basis vector v under x_a, scaled by denom,
    # as (basis numbers, entries, negated entries)
    int_ops = []
    for op, d in ops:
        scale = denom // d
        int_op = {}
        for v, image in op.items():
            vals = tuple(n * scale for n in image.values())
            int_op[v] = (tuple(image), vals, tuple(-x for x in vals))
        int_ops.append(int_op)

    # everything that depends only on a wedge subset, for every degree at
    # once: (degree, first label, x_a v terms, bracket terms, weight); a
    # basis vector (S, v) of degree p is the integer index(S) * dim + v
    tables = []
    index_in_degree: dict[tuple[int, ...], int] = {}
    for p in range(n_roots + 1):
        for i, subset in enumerate(combinations(range(n_roots), p)):
            index_in_degree[subset] = i
            sub_weight = [0] * rs.rank
            for a in subset:
                sub_weight = [x + y for x, y in zip(sub_weight, ps[a])]
            # x_a v terms: (operator of x_a, start of the omitted subset, odd sign)
            op_terms = [
                (int_ops[a], index_in_degree[subset[:pos] + subset[pos + 1:]] * dim, pos % 2)
                for pos, a in enumerate(subset)
            ]
            # bracket terms: (start of the target subset, scaled coefficient)
            br_terms = []
            for pa in range(p):
                for pb in range(pa + 1, p):
                    a, b = subset[pa], subset[pb]
                    found = bracket_of.get((a, b))
                    if found is None:
                        continue
                    m_idx, c = found
                    rest = tuple(x for x in subset if x != a and x != b)
                    if m_idx in rest:
                        continue
                    ins = sum(1 for x in rest if x < m_idx)
                    sgn = -1 if (pa + pb + ins) % 2 == 0 else 1
                    target = tuple(sorted(rest + (m_idx,)))
                    br_terms.append((index_in_degree[target] * dim, sgn * c))
            tables.append((p, i * dim, op_terms, br_terms, sub_weight))
    # (subset, module weight) pairs grouped by total weight in one pass; each
    # group lists degree by degree, subsets in order, weights sorted
    by_total: dict[Weight, list] = {}
    for p, start, op_terms, br_terms, sub_weight in tables:
        for w in weights:
            total = tuple([x + y for x, y in zip(sub_weight, w)])
            by_total.setdefault(total, []).append((p, start, op_terms, br_terms, spaces[w]))

    homology: dict[tuple[int, Weight], int] = {}
    for total, entries in by_total.items():
        # chain[p]: labels of the basis vectors of C_p(total), and their
        # boundaries {label in degree p - 1: entry}; only the degrees p
        # with C_p(total) != 0 appear, in increasing order
        chain: dict[int, tuple[list[int], list[dict[int, int]]]] = {}
        for p, start, op_terms, br_terms, space in entries:
            basis = chain.get(p)
            if basis is None:
                basis = chain[p] = ([], [])
            basis[0].extend(range(start + space.start, start + space.stop))
            block = basis[1]
            for v in space:
                col: dict[int, int] = {}
                # distinct terms of one column land on distinct basis vectors:
                # the omitted root, or the pair {a, b} and the root a + b, is
                # recovered from the target subset, so no entry ever cancels
                for int_op, base, odd in op_terms:
                    image = int_op.get(v)
                    if image is not None:
                        targets, vals, negs = image
                        col.update(zip([base + t for t in targets], negs if odd else vals))
                for base, c in br_terms:
                    col[base + v] = c
                block.append(col)
        # the pick of each d_p block, as (label in C_p, label in C_{p-1}) pairs
        picks = {
            p: [(labels[i], c) for i, c in triangular_pick(block)]
            for p, (labels, block) in chain.items()
            if p - 1 in chain
        }
        ranks: dict[int, int] = {}
        for p in picks:
            labels, block = chain[p]
            reached = {c for _, c in picks.get(p + 1, ())}  # (a): the rows P_{p+1}
            dropped = {r for r, _ in picks.get(p - 1, ())}  # (b): the columns R_{p-1}
            rows = []
            for label, col in zip(labels, block):
                if label in reached:
                    continue
                if not dropped.isdisjoint(col):
                    col = {c: x for c, x in col.items() if c not in dropped}
                if col:
                    rows.append(col)
            # the rank of the transpose equals the rank; columns become rows
            if rows:
                ranks[p] = sparse_int_rank(rows)
        for p, (labels, _) in chain.items():
            h = len(labels) - ranks.get(p, 0) - ranks.get(p + 1, 0)
            if h < 0:
                raise AssertionError("negative homology dimension; rank computation is wrong")
            if h:
                homology[p, total] = h
    return GradedHomology._of(homology, n_roots + 1, ps, rs.rank)


def euler_class(gh: GradedHomology) -> CharElement:
    """The graded character at t = -1: sum_p (-1)^p ch H_p, one signed fold
    over the terms, made on the first call and kept on gh."""
    if gh._euler is not None:
        return gh._euler
    out: dict[Weight, int] = {}
    get = out.get
    for (p, mu), c in gh.terms.items():
        v = get(mu, 0) + (-c if p & 1 else c)
        if v:
            out[mu] = v
        else:
            del out[mu]
    euler = CharElement._of(gh.rank, out)
    object.__setattr__(gh, "_euler", euler)
    return euler


def euler_class_closed_form(lam: Weight, rs: RootSystem) -> CharElement:
    """Closed form (-1)^{|R+|} sum_w eps(w) e^{w(lam+rho)+rho}; equals both
    the Koszul Euler class and half_denominator * weyl_character. It is the
    Euler class of kostant_homology, since (-1)^{|R+|} eps(w) =
    (-1)^{|R+| - l(w)}; a weight that is not dominant raises ValueError."""
    return euler_class(kostant_homology(lam, rs))


def kostant_homology(lam: Weight, rs: RootSystem) -> GradedHomology:
    """Per-degree closed form H_p = sum over w of length |R+|-p of
    e^{w(lam+rho)+rho}, for the standard positive system. Validated against
    koszul_n_homology by the test suite; used where the chain complex would
    blow the dimension cap."""
    require_dominant(lam, rs)
    lam_rho = tuple(x + 1 for x in lam)
    n = len(rs.positive_roots)
    terms: dict[tuple[int, Weight], int] = {}
    for w in rs.weyl_group():
        key = (n - w.length, tuple(x + 1 for x in w.act(lam_rho)))
        terms[key] = terms.get(key, 0) + 1
    return GradedHomology._of(terms, n + 1, tuple(sorted(rs.positive_roots)), rs.rank)
