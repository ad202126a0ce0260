"""Concrete highest-weight modules with exact rational matrices.

The basis of V_lam is numbered 0..dim-1 from the highest weight down:
`spaces` maps each weight to the range of its basis numbers and
`weight_of` maps each basis number back to its weight. Every operator,
simple (e_i, f_i) or not (operator(root)), is one sparse map
{v: {t: c}} sending basis vector v to sum_t c * basis vector t, and holds
only nonzero exact entries.

The module is built weight space by weight space going down from the
highest weight. At each weight the candidate vectors are f_i applied to the
basis one level up; their Gram matrix under the contravariant form (the
symmetric form with <f_i x, y> = <x, e_i y> and <v, v> = 1 on the highest
weight line) is computed from the sl2 commutation relations alone. One
reduced row echelon form of that matrix does the rest: the form is
nondegenerate on each weight space, so the linear relations among the
columns are those among the candidates, the pivot columns are a basis and
the reduced columns expand every candidate over it. Operators for
arbitrary root vectors follow by taking iterated commutators, and the
structure constants of the Lie algebra are read off once per root system
inside a small faithful module.

Nothing here consults the Weyl character formula or any closed form for
homology, so the chain complexes built on top of these matrices are an
independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import require_dominant, weyl_dimension
from .linalg import fraction_rref
from .rootsystem import RootSystem, Weight

# {v: {t: c}}: basis vector v goes to sum_t c * basis vector t
SparseOperator = dict[int, dict[int, Fraction]]


def _apply(op: SparseOperator, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """op applied to the sparse vector vec, keeping only nonzero entries."""
    out: dict[int, Fraction] = {}
    for v, c in vec.items():
        for t, a in op.get(v, {}).items():
            out[t] = out.get(t, 0) + c * a
    return {t: c for t, c in out.items() if c}


def _commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """[a, b] = a b - b a."""
    out = {}
    for v in sorted(a.keys() | b.keys()):
        col = _apply(a, b.get(v, {}))
        for t, c in _apply(b, a.get(v, {})).items():
            col[t] = col.get(t, 0) - c
        col = {t: c for t, c in col.items() if c}
        if col:
            out[v] = col
    return out


class HighestWeightModule:
    """The irreducible module V_lam on an explicit numbered weight basis."""

    def __init__(self, rs: RootSystem, lam: Weight):
        require_dominant(lam, rs)
        self.rs = rs
        self.lam = tuple(lam)
        self.spaces: dict[Weight, range] = {}
        self.weight_of: list[Weight] = []
        # gram[v][u]: the contravariant form on basis vectors of one weight
        self.gram: dict[int, dict[int, Fraction]] = {}
        self.e: list[SparseOperator] = [{} for _ in range(rs.rank)]
        self.f: list[SparseOperator] = [{} for _ in range(rs.rank)]
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
        self.gram[0] = {0: Fraction(1)}
        level = [self.lam]
        while level:
            below = {tuple(x - a for x, a in zip(w, alpha)) for w in level for alpha in simples}
            level = [nu for nu in sorted(below) if self._process_weight(nu)]

    def _process_weight(self, nu: Weight) -> bool:
        rank = self.rs.rank
        # candidate (i, b) is f_i applied to basis vector b of weight nu + alpha_i
        cands = [
            (i, b)
            for i, alpha in enumerate(self.rs.simple_roots)
            for b in self.spaces.get(tuple(x + a for x, a in zip(nu, alpha)), ())
        ]
        if not cands:
            return False
        # e_j of each candidate f_i(b):  f_i(e_j b) + delta_ij <wt b, alpha_i^v> b
        ecand = []
        for i, b in cands:
            images = [_apply(self.f[i], self.e[j].get(b, {})) for j in range(rank)]
            images[i][b] = images[i].get(b, 0) + Fraction(self.weight_of[b][i])
            if not images[i][b]:
                del images[i][b]
            ecand.append(images)
        # <f_i b, x> = <b, e_i x>
        gram_cand = [
            [sum((g * ex[i].get(u, 0) for u, g in self.gram[b].items()), Fraction(0))
             for ex in ecand]
            for i, b in cands
        ]
        rows, pivots = fraction_rref(gram_cand)
        if not pivots:
            return False
        start = len(self.weight_of)
        space = self.spaces[nu] = range(start, start + len(pivots))
        self.weight_of.extend([nu] * len(space))
        for v, s in zip(space, pivots):
            self.gram[v] = {u: gram_cand[s][t] for u, t in zip(space, pivots) if gram_cand[s][t]}
            for e_j, image in zip(self.e, ecand[s]):
                if image:
                    e_j[v] = image
        for c, (i, b) in enumerate(cands):
            image = {v: row[c] for v, row in zip(space, rows) if row[c]}
            if image:
                self.f[i][b] = image
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


def structure_constants(rs: RootSystem) -> dict[tuple[Weight, Weight], Fraction]:
    """Brackets [x_beta, x_gamma] = c * x_{beta+gamma} for all root pairs
    whose sum is a root, in the operator basis fixed by the recursion in
    HighestWeightModule.operator. Computed once per root system inside the
    smallest fundamental module (faithful since the algebra is simple) and
    checked for full proportionality there."""
    if rs._bracket_cache is not None:
        return rs._bracket_cache
    mod = module_for(rs, _smallest_faithful_weight(rs))
    ops = {beta: mod.operator(beta) for beta in rs.full_roots}
    brackets: dict[tuple[Weight, Weight], Fraction] = {}
    root_set = rs._full_set
    for beta in rs.full_roots:
        for gamma in rs.full_roots:
            total = tuple(b + g for b, g in zip(beta, gamma))
            if all(x == 0 for x in total):
                continue
            comm = _commutator(ops[beta], ops[gamma])
            if total not in root_set:
                if comm:
                    raise AssertionError(
                        f"[x_{beta}, x_{gamma}] should vanish but does not"
                    )
                continue
            target = ops[total]
            c = Fraction(0)
            if target:
                v = min(target)
                t = min(target[v])
                c = comm.get(v, {}).get(t, 0) / target[v][t]
            scaled = {v: {t: c * x for t, x in col.items()} for v, col in target.items()}
            if c == 0 or comm != scaled:
                raise AssertionError(
                    f"[x_{beta}, x_{gamma}] is not a nonzero multiple of x_{total}"
                )
            brackets[(beta, gamma)] = c
    rs._bracket_cache = brackets
    return brackets
