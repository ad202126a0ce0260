"""Concrete highest-weight modules in exact integer arithmetic.

The basis of V_lam is numbered 0..dim-1 from the highest weight down:
`spaces` maps each weight to the range of its basis numbers and
`weight_of` maps each basis number back to its weight. Every operator,
simple (e_i, f_i) or not (operator(root)), is one pair (map, d): an
integer sparse map {v: {t: n}} and one positive denominator d, sending
basis vector v to sum_t (n / d) * basis vector t. The map holds only
nonzero entries and the pair is in lowest terms: the gcd of d and all the
entries is 1.

The module is built weight space by weight space going down from the
highest weight. At each weight the candidate vectors are f_i applied to the
basis one level up; their e_j-images are integer numerators over one
denominator, and their Gram matrix under the contravariant form (the
symmetric form with <f_i x, y> = <x, e_i y> and <v, v> = 1 on the highest
weight line) is computed from the sl2 commutation relations alone. That
Gram matrix is integral (Shapovalov): every basis vector is a product of
f_i's on the highest weight vector. One fraction-free reduced row echelon
form of it does the rest: the form is nondegenerate on each weight space,
so the linear relations among the columns are those among the candidates,
the pivot columns are a basis and the reduced columns expand every
candidate over it. Operators for arbitrary root vectors follow by taking
iterated commutators, and the structure constants of the Lie algebra are
read off once per root system inside a small faithful module.

Nothing here consults the Weyl character formula or any closed form for
homology, so the chain complexes built on top of these matrices are an
independent oracle.
"""

from __future__ import annotations

from math import gcd, lcm

from .characters import require_dominant, weyl_dimension
from .linalg import int_rref
from .rootsystem import RootSystem, Weight

# (map, d): basis vector v goes to sum_t (map[v][t] / d) * basis vector t
SparseOperator = tuple[dict[int, dict[int, int]], int]
# (vec, d): the vector sum_t (vec[t] / d) * basis vector t
Column = tuple[dict[int, int], int]


def _reduced(vec: dict[int, int], d: int) -> Column:
    """vec / d in lowest terms, for d > 0."""
    g = gcd(d, *vec.values())
    if g == 1:
        return vec, d
    return {t: n // g for t, n in vec.items()}, d // g


def _apply(op: dict[int, dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """The integer map op applied to the sparse vector vec, keeping only
    nonzero entries."""
    out: dict[int, int] = {}
    for v, c in vec.items():
        image = op.get(v)
        if image:
            for t, a in image.items():
                out[t] = out.get(t, 0) + c * a
    return {t: c for t, c in out.items() if c}


def _apply_columns(cols: dict[int, Column], column: Column) -> Column:
    """The operator whose column u is cols[u] applied to column, over the
    product of its denominator and the lcm of the columns it meets."""
    vec, d = column
    hits = [(c, cols[u]) for u, c in vec.items() if u in cols]
    m = lcm(*(du for _, (_, du) in hits))
    out: dict[int, int] = {}
    for c, (image, du) in hits:
        c *= m // du
        for t, a in image.items():
            out[t] = out.get(t, 0) + c * a
    return {t: n for t, n in out.items() if n}, d * m


def _operator(cols: dict[int, Column]) -> SparseOperator:
    """One operator from columns in lowest terms, over the lcm of their
    denominators; it is in lowest terms too, since a column whose
    denominator holds the highest power of a prime p in the lcm is scaled
    by a factor prime to p and has an entry prime to p."""
    d = lcm(*(du for _, du in cols.values()))
    return {
        v: image if du == d else {t: n * (d // du) for t, n in image.items()}
        for v, (image, du) in cols.items()
    }, d


def _commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """[a, b] = a b - b a, in lowest terms."""
    (am, ad), (bm, bd) = a, b
    out = {}
    for v in sorted(am.keys() | bm.keys()):
        col = _apply(am, bm.get(v, {}))
        for t, c in _apply(bm, am.get(v, {})).items():
            col[t] = col.get(t, 0) - c
        col = {t: c for t, c in col.items() if c}
        if col:
            out[v] = col
    d = ad * bd
    g = gcd(d, *(n for col in out.values() for n in col.values()))
    if g == 1:
        return out, d
    return {v: {t: n // g for t, n in col.items()} for v, col in out.items()}, d // g


class HighestWeightModule:
    """The irreducible module V_lam on an explicit numbered weight basis."""

    def __init__(self, rs: RootSystem, lam: Weight):
        require_dominant(lam, rs)
        self.rs = rs
        self.lam = tuple(lam)
        self.spaces: dict[Weight, range] = {}
        self.weight_of: list[Weight] = []
        # gram[v][u]: the contravariant form on basis vectors of one weight
        self.gram: dict[int, dict[int, int]] = {}
        self.e: list[SparseOperator] = []
        self.f: list[SparseOperator] = []
        self._op_cache: dict[Weight, SparseOperator] = {}
        self._build()

    @property
    def dimension(self) -> int:
        return len(self.weight_of)

    @property
    def mults(self) -> dict[Weight, int]:
        """Weight multiplicities, read off the numbered basis."""
        return {w: len(space) for w, space in self.spaces.items()}

    def _build(self):
        simples = self.rs.simple_roots
        self.spaces[self.lam] = range(1)
        self.weight_of.append(self.lam)
        self.gram[0] = {0: 1}
        # column v of e_i and f_i, each in lowest terms over its own denominator
        e_cols: list[dict[int, Column]] = [{} for _ in simples]
        f_cols: list[dict[int, Column]] = [{} for _ in simples]
        level = [self.lam]
        while level:
            below = {tuple(x - a for x, a in zip(w, alpha)) for w in level for alpha in simples}
            level = [nu for nu in sorted(below) if self._process_weight(nu, e_cols, f_cols)]
        self.e = [_operator(cols) for cols in e_cols]
        self.f = [_operator(cols) for cols in f_cols]

    def _process_weight(self, nu: Weight, e_cols, f_cols) -> bool:
        # candidate (i, b) is f_i applied to basis vector b of weight nu + alpha_i
        cands = [
            (i, b)
            for i, alpha in enumerate(self.rs.simple_roots)
            for b in self.spaces.get(tuple(x + a for x, a in zip(nu, alpha)), ())
        ]
        if not cands:
            return False
        # e_j of each candidate f_i(b):  f_i(e_j b) + delta_ij <wt b, alpha_i^v> b
        images: list[list[Column]] = []
        for i, b in cands:
            row = [_apply_columns(f_cols[i], cols[b]) if b in cols else ({}, 1)
                   for cols in e_cols]
            vec, d = row[i]
            n = vec.pop(b, 0) + self.weight_of[b][i] * d
            if n:
                vec[b] = n
            images.append(row)
        # ecand[s][j]: the e_j-image of candidate s over the one denominator den
        den = lcm(*(d for row in images for _, d in row))
        ecand = [
            [{t: n * (den // d) for t, n in vec.items()} for vec, d in row]
            for row in images
        ]
        # <f_i b, x> = <b, e_i x>, integral
        gram_cand = []
        for i, b in cands:
            gram_row = []
            for ex in ecand:
                image = ex[i]
                q, r = divmod(sum(g * image.get(u, 0) for u, g in self.gram[b].items()), den)
                if r:
                    raise AssertionError(f"contravariant form is not integral at weight {nu}")
                gram_row.append(q)
            gram_cand.append(gram_row)
        rows, pivots, rref_den = int_rref(gram_cand)
        if not pivots:
            return False
        start = len(self.weight_of)
        space = self.spaces[nu] = range(start, start + len(pivots))
        self.weight_of.extend([nu] * len(space))
        for v, s in zip(space, pivots):
            self.gram[v] = {u: gram_cand[s][t] for u, t in zip(space, pivots) if gram_cand[s][t]}
            for cols, (vec, d) in zip(e_cols, images[s]):
                if vec:
                    cols[v] = _reduced(vec, d)
        for c, (i, b) in enumerate(cands):
            image = {v: row[c] for v, row in zip(space, rows) if row[c]}
            if image:
                f_cols[i][b] = _reduced(image, rref_den)
        return True

    # -- root-vector operators -------------------------------------------------

    def operator(self, root: Weight) -> SparseOperator:
        """The sparse map of a root vector x_root on the module. The basis of
        the root space is fixed by the recursion x_beta = [x_{alpha_i},
        x_{beta - alpha_i}] with i minimal, so the same operator is
        reproducible in every module."""
        root = tuple(root)
        cached = self._op_cache.get(root)
        if cached is not None:
            return cached
        rs = self.rs
        if root not in rs._full_set:
            raise ValueError(f"{root} is not a root")
        positive = root in rs._positive_set
        base = root if positive else tuple(-x for x in root)
        if base in rs.simple_roots:
            op = (self.e if positive else self.f)[rs.simple_roots.index(base)]
        else:
            alpha = next(
                a for a in rs.simple_roots
                if rs.is_positive_root(tuple(b - x for b, x in zip(base, a)))
            )
            gamma = tuple(b - x for b, x in zip(base, alpha))
            if not positive:
                alpha, gamma = tuple(-x for x in alpha), tuple(-x for x in gamma)
            op = _commutator(self.operator(alpha), self.operator(gamma))
        self._op_cache[root] = op
        return op


def module_for(rs: RootSystem, lam: Weight) -> HighestWeightModule:
    lam = tuple(lam)
    mod = rs._module_cache.get(lam)
    if mod is None:
        mod = HighestWeightModule(rs, lam)
        rs._module_cache[lam] = mod
    return mod


def _smallest_faithful_weight(rs: RootSystem) -> Weight:
    best = None
    for i in range(rs.rank):
        omega = tuple(int(j == i) for j in range(rs.rank))
        dim = weyl_dimension(omega, rs)
        if best is None or dim < best[0]:
            best = (dim, omega)
    return best[1]


def structure_constants(rs: RootSystem) -> dict[tuple[Weight, Weight], tuple[int, int]]:
    """Brackets [x_beta, x_gamma] = (p / q) * x_{beta+gamma} for all root
    pairs whose sum is a root, as (p, q) in lowest terms with q > 0, in the
    operator basis fixed by the recursion in HighestWeightModule.operator.
    Computed once per root system inside the smallest fundamental module
    (faithful since the algebra is simple) and checked for full
    proportionality there."""
    if rs._bracket_cache is not None:
        return rs._bracket_cache
    mod = module_for(rs, _smallest_faithful_weight(rs))
    ops = {beta: mod.operator(beta) for beta in rs.full_roots}
    brackets: dict[tuple[Weight, Weight], tuple[int, int]] = {}
    root_set = rs._full_set
    for beta in rs.full_roots:
        for gamma in rs.full_roots:
            total = tuple(b + g for b, g in zip(beta, gamma))
            if all(x == 0 for x in total):
                continue
            comm, dc = _commutator(ops[beta], ops[gamma])
            if total not in root_set:
                if comm:
                    raise AssertionError(
                        f"[x_{beta}, x_{gamma}] should vanish but does not"
                    )
                continue
            # comm / dc = (p / q) * target / dt
            target, dt = ops[total]
            p, q = 0, 1
            if target:
                v = min(target)
                t = min(target[v])
                p, q = comm.get(v, {}).get(t, 0) * dt, target[v][t] * dc
                g = gcd(p, q) if q > 0 else -gcd(p, q)
                p, q = p // g, q // g
            lhs = {v: {t: q * dt * x for t, x in col.items()} for v, col in comm.items()}
            rhs = {v: {t: p * dc * x for t, x in col.items()} for v, col in target.items()}
            if p == 0 or lhs != rhs:
                raise AssertionError(
                    f"[x_{beta}, x_{gamma}] is not a nonzero multiple of x_{total}"
                )
            brackets[(beta, gamma)] = (p, q)
    rs._bracket_cache = brackets
    return brackets
