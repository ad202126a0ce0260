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

The complex is assembled and reduced one torus weight mu at a time and,
within mu, one degree at a time in increasing order; dim C_p(mu) is
recorded for every degree first. The rows of the d_p block are the basis
vectors of C_p(mu), its columns their boundary coordinates in C_{p-1}(mu);
a block is built only when C_{p-1}(mu) != 0, so the lowest degree of mu
builds no rows. One rule deletes columns before each rank: the d_p block
drops R_{p-1}, the pivot rows (linalg.sparse_int_pivots) of the reduced
d_{p-1} block, from each new row in place. Those rows are independent, so
d_{p-1} is injective on span(R_{p-1}); dropping their coordinates is then
injective on ker d_{p-1}, which contains im d_p, and keeps the rank
exactly. Each reduced block has dim ker d_{p-1} = rank d_p + dim H_{p-1}
columns. The top degree of mu, whose pivots no block reads, takes only its
rank (sparse_int_rank).

The operator matrices and bracket constants are rational; hwmodule holds
each as integer numerators over one denominator. Each call takes one common
denominator D (the lcm of those denominators) and assembles D*d, which is
integral; a nonzero scalar multiple of a map has the same rank in every
block, so the homology is unchanged and every entry is an int.

A wedge subset S is its bitmask over the positive roots, of degree its
popcount, and the basis vector (S, v) of Lambda^p(n) tensor V, v a basis
number of the module, is labelled S * dim V + v: there is no index table,
and hwmodule's sparse operators are used as they are. Everything that
depends only on S is computed once per subset: its weight (that of S
without its lowest bit, plus that root) and its terms. The x_a term lands
on S ^ 1 << a, its sign the parity of the members of S below a; the
bracket term of (a, b) lands on rest | 1 << m, rest being S without a and
b and x_m = [x_a, x_b], its sign set by the two positions and the members
of rest below m.
"""

from __future__ import annotations

from math import lcm

from .characters import require_dominant, weyl_dimension
from .charring import CharElement, json_field, json_ints, merge_terms
from .hwmodule import module_for, structure_constants
from .linalg import sparse_int_pivots, sparse_int_rank
from .rootsystem import CapExceededError, Frozen, RootSystem, Weight

# bound on dim V, the dimension of the module
DIM_CAP = 2000
# bound on dim V * 2^|R+|, the dimension of the whole chain complex
COMPLEX_DIM_CAP = 1 << 16


class GradedHomology(Frozen):
    """The graded character sum_p t^p ch H_p(n, V), p = 0..degrees-1, with
    the chosen n, stored as one sparse map terms {(p, mu): dim H_p[mu]}
    (nonzero int entries only). Immutable; two are equal when their degree
    counts, positive systems, ranks and terms are.

    ``classes`` is the per-degree view, a tuple of CharElements."""

    __slots__ = ("terms", "degrees", "positive_system", "rank")

    def __init__(self, classes, positive_system, rank: int):
        terms: dict[tuple[int, Weight], int] = {}
        for p, cls in enumerate(classes):
            if not isinstance(cls, CharElement) or cls.rank != rank:
                raise ValueError(f"degree {p} is not a character of rank {rank}")
            terms.update(((p, mu), c) for mu, c in cls.terms.items())
        self._set(terms=terms, degrees=len(classes), positive_system=tuple(positive_system), rank=rank)

    @classmethod
    def _of(cls, terms, degrees: int, positive_system, rank: int) -> "GradedHomology":
        """The trusted constructor for arithmetic results: wraps terms
        without validating them. The caller guarantees keys (p, mu) with
        0 <= p < degrees and mu of length rank, and nonzero int values.
        Many arithmetic results are built, so the slots are filled directly,
        without ``_set``'s keyword call."""
        res = cls.__new__(cls)
        fill = object.__setattr__
        fill(res, "terms", terms)
        fill(res, "degrees", degrees)
        fill(res, "positive_system", positive_system)
        fill(res, "rank", rank)
        return res

    @property
    def classes(self) -> tuple[CharElement, ...]:
        per_degree: list[dict[Weight, int]] = [{} for _ in range(self.degrees)]
        for (p, mu), c in self.terms.items():
            per_degree[p][mu] = c
        return tuple(CharElement._of(self.rank, d) for d in per_degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedHomology):
            return NotImplemented
        return (
            self.degrees == other.degrees
            and self.positive_system == other.positive_system
            and self.rank == other.rank
            and self.terms == other.terms
        )

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
    """The given roots, sorted, when they are a positive system u(R+);
    ValueError otherwise. W acts simply transitively on positive systems,
    and the sum of u(R+) is u(2 rho), a regular weight: the walk of the
    roots' sum to the dominant chamber names the one u that can fit, and
    the roots are certified by comparison with u(R+)."""
    ps = sorted(tuple(a) for a in positive_system)
    for alpha in ps:
        if len(alpha) != rs.rank:
            raise ValueError(f"root {alpha} does not have rank {rs.rank}")
    u = rs.from_word(rs.dominant_walk(map(sum, zip(*ps, (0,) * rs.rank)))[1])
    if ps != sorted(u.act(a) for a in rs.positive_roots):
        raise ValueError(f"the roots are not a positive system of {rs.series}{rs.rank}")
    return tuple(ps)


def check_complex_caps(lam: Weight, rs: RootSystem) -> int:
    """dim V_lam, after checking it against DIM_CAP and the dimension of the
    chain complex of any positive system against COMPLEX_DIM_CAP; raises
    CapExceededError before anything is built."""
    lam = tuple(lam)
    dim = weyl_dimension(lam, rs)
    if dim > DIM_CAP:
        raise CapExceededError(f"module too large: dim V{lam} = {dim} exceeds cap {DIM_CAP}")
    n_roots = len(rs.positive_roots)
    if dim << n_roots > COMPLEX_DIM_CAP:
        raise CapExceededError(
            f"chain complex too large: dim V{lam} * 2^{n_roots} = {dim << n_roots} "
            f"exceeds cap {COMPLEX_DIM_CAP}"
        )
    return dim


def koszul_n_homology(lam: Weight, positive_system, rs: RootSystem) -> GradedHomology:
    """Graded n-homology of the irreducible module V_lam, computed from the
    chain complex; n is spanned by the root spaces of the given system."""
    lam = tuple(lam)
    ps = normalize_positive_system(positive_system, rs)
    dim = check_complex_caps(lam, rs)
    n_roots = len(ps)
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

    # everything that depends only on a wedge subset S, once per subset and
    # walked by degree (its popcount): its weight, its x_a v terms as
    # (operator of x_a, start of S without a, odd sign) and its bracket
    # terms as (start of the target subset, scaled coefficient); its
    # (subset, module weight) pairs are grouped by total weight and degree,
    # each degree listing its subsets by mask, weights sorted
    by_total: dict[Weight, dict[int, list]] = {}
    sub_weights = {0: (0,) * rs.rank}
    for S in sorted(range(1 << n_roots), key=int.bit_count):
        members = [a for a in range(n_roots) if S >> a & 1]
        if S:
            low = S & -S
            root = ps[low.bit_length() - 1]
            sub_weights[S] = tuple([x + y for x, y in zip(sub_weights[S ^ low], root)])
        op_terms = [(int_ops[a], (S ^ 1 << a) * dim, pos % 2) for pos, a in enumerate(members)]
        br_terms = []
        for pa, a in enumerate(members):
            for pb in range(pa + 1, len(members)):
                found = bracket_of.get((a, members[pb]))
                if found is None:
                    continue
                m_idx, c = found
                rest = S ^ 1 << a ^ 1 << members[pb]
                if not rest >> m_idx & 1:
                    ins = (rest & (1 << m_idx) - 1).bit_count()
                    br_terms.append(((rest | 1 << m_idx) * dim, c if (pa + pb + ins) % 2 else -c))
        start, p, sub_weight = S * dim, len(members), sub_weights[S]
        for w in weights:
            total = tuple([x + y for x, y in zip(sub_weight, w)])
            by_total.setdefault(total, {}).setdefault(p, []).append(
                (start, op_terms, br_terms, spaces[w])
            )

    homology: dict[tuple[int, Weight], int] = {}
    for total, chain in by_total.items():
        # chain[p]: the entries of C_p(total); only the degrees p with
        # C_p(total) != 0 appear, in increasing order
        dims = {p: sum(len(entry[3]) for entry in entries) for p, entries in chain.items()}
        ranks: dict[int, int] = {}
        for p, entries in chain.items():
            if p - 1 not in chain:
                dropped: set[int] = set()  # d_p is zero, so R_p is empty
                continue
            # the rank of the transpose equals the rank: the boundary of each
            # basis vector of C_p(total) is one row, without the columns R_{p-1}
            labels: list[int] = []
            rows: list[dict[int, int]] = []
            for start, op_terms, br_terms, space in entries:
                labels.extend(range(start + space.start, start + space.stop))
                for v in space:
                    row: dict[int, int] = {}
                    # distinct terms of one row land on distinct basis vectors:
                    # the omitted root, or the pair {a, b} and the root a + b, is
                    # recovered from the target subset, so no entry ever cancels
                    for int_op, base, odd in op_terms:
                        image = int_op.get(v)
                        if image is not None:
                            targets, vals, negs = image
                            row.update(zip([base + t for t in targets], negs if odd else vals))
                    for base, c in br_terms:
                        row[base + v] = c
                    for c in dropped.intersection(row):
                        del row[c]
                    rows.append(row)
            if p + 1 in chain:
                pivots = sparse_int_pivots(rows)
                ranks[p] = len(pivots)
                dropped = {labels[i] for i in pivots}
            else:
                ranks[p] = sparse_int_rank(rows)
        for p, n in dims.items():
            h = n - ranks.get(p, 0) - ranks.get(p + 1, 0)
            if h < 0:
                raise AssertionError("negative homology dimension; rank computation is wrong")
            if h:
                homology[p, total] = h
    return GradedHomology._of(homology, n_roots + 1, ps, rs.rank)


def euler_class(gh: GradedHomology) -> CharElement:
    """The graded character at t = -1: sum_p (-1)^p ch H_p, one signed fold
    over the terms."""
    out: dict[Weight, int] = {}
    get = out.get
    for (p, mu), c in gh.terms.items():
        v = get(mu, 0) + (-c if p & 1 else c)
        if v:
            out[mu] = v
        else:
            del out[mu]
    return CharElement._of(gh.rank, out)


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
