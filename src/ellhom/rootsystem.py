"""Root systems of types A-G in the fundamental-weight basis.

Every weight is an integer coordinate vector in the fundamental-weight
basis, so the Weyl vector is rho = (1,...,1), simple roots are columns of
the Cartan matrix, and all exponents used downstream (rho - w*rho,
w(lambda+rho)+rho, 2*rho) stay inside the integral weight lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import factorial, gcd
from operator import mul, neg

from .linalg import int_rref

Weight = tuple[int, ...]

DEFAULT_MAX_RANK = 8
WEYL_CAP = 10**6

VALID_RANKS = {
    "A": (1, DEFAULT_MAX_RANK),
    "B": (2, DEFAULT_MAX_RANK),
    "C": (2, DEFAULT_MAX_RANK),
    "D": (3, DEFAULT_MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class UnsupportedTypeError(ValueError):
    """Raised for a (series, rank) pair outside the supported table."""


class CapExceededError(RuntimeError):
    """Raised when a configured size cap would be exceeded."""


_VALID_TYPES_MESSAGE = (
    f"valid ranks: A1..A{DEFAULT_MAX_RANK}, B2..B{DEFAULT_MAX_RANK}, "
    f"C2..C{DEFAULT_MAX_RANK}, D3..D{DEFAULT_MAX_RANK}, E6..E8, F4, G2"
)


def cartan_matrix(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix whose column j is the simple root alpha_j in
    fundamental-weight coordinates (Bourbaki numbering)."""
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if series == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif series == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        # alpha_{rank-1} is the short root
        bond(rank - 2, rank - 1, -1, -2)
    elif series == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        # alpha_{rank-1} is the long root
        bond(rank - 2, rank - 1, -2, -1)
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
        c[rank - 2][rank - 1] = 0
        c[rank - 1][rank - 2] = 0
    elif series == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in edges:
            if i < rank and j < rank:
                bond(i, j)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif series == "G":
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in c)


def _symmetrizer(series: str, rank: int) -> tuple[int, ...]:
    """d_i = (alpha_i, alpha_i)/2, scaled to integers, so that
    d_i * C[i][j] is a symmetric matrix."""
    if series == "B":
        return tuple([2] * (rank - 1) + [1])
    if series == "C":
        return tuple([1] * (rank - 1) + [2])
    if series == "F":
        return (2, 2, 1, 1)
    if series == "G":
        return (1, 3)
    return tuple([1] * rank)


def classical_weyl_order(series: str, rank: int) -> int:
    if series == "A":
        return factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if series == "F":
        return 1152
    return 12  # G2


def _matvec(m, v) -> Weight:
    """Product of an integer matrix, given as a tuple of rows, and a vector
    of the same length as its rows."""
    return tuple([sum(map(mul, row, v)) for row in m])


def _matmul(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of two integer matrices given as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(_matvec(cols, row) for row in a)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as an integer matrix on weight coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    length: int
    sign: int

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def act(self, mu: Weight) -> Weight:
        # map() would silently truncate a short weight
        if len(mu) != len(self.matrix):
            raise ValueError("rank mismatch between Weyl element and weight")
        return _matvec(self.matrix, mu)


@dataclass(frozen=True)
class WeylSubgroup:
    """A subgroup of W given by an explicit, closed element list."""

    elements: tuple[WeylElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _matrices(self) -> frozenset:
        return frozenset(u.matrix for u in self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        return w.matrix in self._matrices


class RootSystem:
    """Cartan data of one simple factor, with lattice-level helpers."""

    def __init__(self, series: str, rank: int):
        self.series = series
        self.rank = rank
        self.cartan = cartan_matrix(series, rank)
        self.symmetrizer = _symmetrizer(series, rank)
        # alpha_i is column i of the Cartan matrix
        self.simple_roots: tuple[Weight, ...] = tuple(zip(*self.cartan))
        # root_coords(mu) = coord_matrix . mu / coord_scale: coord_matrix is
        # the inverse Cartan matrix in lowest terms over coord_scale; the
        # reduced echelon form of (C | 1) is (1 | C^-1)
        rows, _, den = int_rref([row + tuple(int(i == j) for j in range(rank))
                                 for i, row in enumerate(self.cartan)])
        inv = [row[rank:] for row in rows]
        g = gcd(den, *(x for row in inv for x in row))
        self.coord_scale = den // g
        self.coord_matrix = tuple(tuple(x // g for x in row) for row in inv)
        # height(mu) = (height_vector . mu) / height_scale: the column sums of
        # coord_matrix over coord_scale, reduced to lowest terms
        colsums = tuple(map(sum, zip(*self.coord_matrix)))
        g = gcd(self.coord_scale, *colsums)
        self.height_scale = self.coord_scale // g
        self.height_vector: Weight = tuple(x // g for x in colsums)
        self._simple_reflection_matrices = tuple(
            self._reflection_matrix(i) for i in range(rank)
        )
        self.positive_roots = self._generate_positive_roots()
        self._positive_set = frozenset(self.positive_roots)
        self.full_roots = self.positive_roots + tuple(
            tuple(-c for c in a) for a in self.positive_roots
        )
        self._full_set = frozenset(self.full_roots)
        rho2 = [0] * rank
        for a in self.positive_roots:
            rho2 = [x + y for x, y in zip(rho2, a)]
        if any(x != 2 for x in rho2):
            raise AssertionError("half sum of positive roots is not (1,...,1)")
        self.rho: Weight = tuple([1] * rank)
        self.weyl_order = classical_weyl_order(series, rank)
        # lazy caches, all keyed by immutable data
        self._weyl_group: WeylSubgroup | None = None
        self._module_cache: dict[Weight, object] = {}
        self._bracket_cache = None
        self._half_denominator = None
        self._full_denominator = None

    # -- construction helpers -------------------------------------------------

    def _reflection_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        # s_i(mu) = mu - mu_i * alpha_i, alpha_i = column i of the Cartan matrix
        n = self.rank
        return tuple(
            tuple(int(k == j) - (self.cartan[k][i] if j == i else 0) for j in range(n))
            for k in range(n)
        )

    def _generate_positive_roots(self) -> tuple[Weight, ...]:
        simples = [self.simple_root(i) for i in range(self.rank)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for beta in frontier:
                for m in self._simple_reflection_matrices:
                    img = _matvec(m, beta)
                    if img not in roots:
                        roots.add(img)
                        new.append(img)
            frontier = new
        scale, hvec = self.coord_scale, self.height_vector
        positive = []
        for beta in roots:
            coords = self._scaled_coords(beta)
            if all(x >= 0 for x in coords):
                if any(x % scale for x in coords):
                    raise AssertionError("non-integral root coordinates")
                # sort key: height, then simple-root coordinates, largest first
                key = (sum(map(mul, hvec, beta)), tuple(map(neg, coords)))
                positive.append((key, beta))
        if 2 * len(positive) != len(roots):
            raise AssertionError("positive system does not split the roots in half")
        return tuple(beta for _, beta in sorted(positive))

    # -- lattice helpers -------------------------------------------------------

    def simple_root(self, i: int) -> Weight:
        return self.simple_roots[i]

    def _require_rank(self, mu: Weight) -> None:
        if len(mu) != self.rank:
            raise ValueError(f"weight {mu} does not have rank {self.rank}")

    def _scaled_coords(self, mu: Weight) -> Weight:
        """coord_scale times the simple-root coordinates of mu."""
        self._require_rank(mu)
        return _matvec(self.coord_matrix, mu)

    def root_coords(self, mu: Weight) -> tuple[Fraction, ...]:
        """Coordinates of mu in the simple-root basis (rational in general)."""
        scale = self.coord_scale
        return tuple(Fraction(x, scale) for x in self._scaled_coords(mu))

    def height(self, mu: Weight) -> Fraction:
        """Sum of the simple-root coordinates of mu."""
        self._require_rank(mu)
        return Fraction(sum(map(mul, self.height_vector, mu)), self.height_scale)

    def in_positive_root_lattice(self, mu: Weight) -> bool:
        scale = self.coord_scale
        return all(x >= 0 and not x % scale for x in self._scaled_coords(mu))

    def inner(self, lam: Weight, mu: Weight) -> Fraction:
        """W-invariant bilinear form, normalized so (alpha_i,alpha_i) = 2*d_i.

        (lam, mu) = sum_j d_j lam_j x_j with x the root coordinates of mu,
        because (omega_j, alpha_i) = d_i when i = j and 0 otherwise."""
        self._require_rank(lam)
        x = self._scaled_coords(mu)
        return Fraction(
            sum(map(mul, map(mul, self.symmetrizer, lam), x)), self.coord_scale
        )

    def is_positive_root(self, mu: Weight) -> bool:
        return mu in self._positive_set

    # -- Weyl elements ---------------------------------------------------------

    def element_from_matrix(self, matrix) -> WeylElement:
        """Wrap an integer matrix as a WeylElement; the length is the
        inversion count #{alpha > 0 : w(alpha) < 0}.

        Membership in W itself (not just Aut(R), which can be larger by
        diagram automorphisms) is certified by walking m*rho back to the
        dominant chamber and requiring the word to reproduce m: rho is
        regular, so W acts simply transitively on its orbit."""
        matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        inv = 0
        for alpha in self.positive_roots:
            img = _matvec(matrix, alpha)
            if img not in self._full_set:
                raise ValueError("matrix does not permute the roots")
            if img not in self._positive_set:
                inv += 1
        mu = tuple(map(sum, matrix))  # m * rho
        word = []
        while True:
            i = next((i for i, x in enumerate(mu) if x < 0), None)
            if i is None:
                break
            alpha = self.simple_root(i)
            mu = tuple(x - mu[i] * a for x, a in zip(mu, alpha))
            word.append(i)
        rebuilt = self.identity_element().matrix
        for i in reversed(word):
            rebuilt = _matmul(self._simple_reflection_matrices[i], rebuilt)
        if mu != self.rho or rebuilt != matrix:
            raise ValueError("matrix permutes the roots but does not lie in the Weyl group")
        return WeylElement(matrix=matrix, length=inv, sign=(-1) ** inv)

    def identity_element(self) -> WeylElement:
        eye = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        return WeylElement(matrix=eye, length=0, sign=1)

    def simple_reflection(self, i: int) -> WeylElement:
        if not 0 <= i < self.rank:
            raise ValueError(f"simple reflection index {i} is not in 0..{self.rank - 1}")
        return WeylElement(matrix=self._simple_reflection_matrices[i], length=1, sign=-1)

    def compose(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        return self.element_from_matrix(_matmul(w1.matrix, w2.matrix))

    def from_word(self, word) -> WeylElement:
        """The product s_{i_1} ... s_{i_k} of the simple reflections in word."""
        matrix = self.identity_element().matrix
        for i in word:
            matrix = _matmul(matrix, self.simple_reflection(i).matrix)
        return self.element_from_matrix(matrix)

    def weyl_group(self) -> WeylSubgroup:
        """The full W, enumerated once and cached."""
        if self._weyl_group is None:
            self._weyl_group = enumerate_weyl_group(self)
        return self._weyl_group

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "series": self.series,
            "rank": self.rank,
            "positive_roots": [list(a) for a in self.positive_roots],
            "rho": list(self.rho),
            "weyl_order": self.weyl_order,
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.series}{self.rank})"


@lru_cache(maxsize=None)
def _cached_root_system(series: str, rank: int) -> RootSystem:
    return RootSystem(series, rank)


def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the root system of the given type, or reject it."""
    series = str(series).upper()
    try:
        rank = int(rank)
    except (TypeError, ValueError):
        raise UnsupportedTypeError(f"unsupported type/rank: {series}{rank}; rank must be an integer") from None
    lo_hi = VALID_RANKS.get(series)
    if lo_hi is None or not lo_hi[0] <= rank <= lo_hi[1]:
        raise UnsupportedTypeError(f"unsupported type/rank: {series}{rank}; {_VALID_TYPES_MESSAGE}")
    return _cached_root_system(series, rank)


def parse_type(token: str) -> RootSystem:
    """Parse a combined type token like 'A2' or 'G2'."""
    token = token.strip()
    if not token or not token[0].isalpha():
        raise UnsupportedTypeError(f"unsupported type/rank: {token!r}; {_VALID_TYPES_MESSAGE}")
    if len(token) == 1:
        raise UnsupportedTypeError(
            f"unsupported type/rank: {token!r} has no rank; {_VALID_TYPES_MESSAGE}"
        )
    return build_root_system(token[0], token[1:])


def check_weyl_cap(rs: RootSystem) -> int:
    """|W| of rs, or CapExceededError when it exceeds WEYL_CAP (read at
    call time). Called before any work with at least |W| elements or
    terms: enumerating W, or expanding a Weyl denominator."""
    if rs.weyl_order > WEYL_CAP:
        raise CapExceededError(
            f"group too large: |W({rs.series}{rs.rank})| = {rs.weyl_order} exceeds cap {WEYL_CAP}"
        )
    return rs.weyl_order


def enumerate_weyl_group(rs: RootSystem) -> WeylSubgroup:
    """Breadth-first closure of the simple reflections; the full W, or
    CapExceededError before any work when its order exceeds WEYL_CAP.

    Right multiplication by s_i changes only column i of a matrix:
    s_i = 1 - alpha_i e_i^T, so col_i(w s_i) = col_i(w) - w alpha_i, one
    dot product per row instead of a full matrix product. The BFS depth at
    which an element first appears is its length.
    """
    predicted = check_weyl_cap(rs)
    identity = rs.identity_element()
    seen = {identity.matrix: identity}
    frontier = [identity.matrix]
    depth = 0
    while frontier:
        depth += 1
        sign = (-1) ** depth
        new = []
        for m in frontier:
            for i, alpha in enumerate(rs.simple_roots):
                prod = tuple([
                    (*row[:i], row[i] - sum(map(mul, row, alpha)), *row[i + 1:]) for row in m
                ])
                if prod not in seen:
                    if len(seen) >= predicted:
                        raise AssertionError(f"enumerated more than {predicted} Weyl elements")
                    seen[prod] = WeylElement(matrix=prod, length=depth, sign=sign)
                    new.append(prod)
        frontier = new
    if len(seen) != predicted:
        raise AssertionError(
            f"enumerated {len(seen)} Weyl elements, expected {predicted}"
        )
    elements = sorted(seen.values(), key=lambda w: (w.length, w.matrix))
    return WeylSubgroup(elements=tuple(elements))


def subgroup_from_generators(rs: RootSystem, generators) -> WeylSubgroup:
    """Close a generator list into a subgroup of W, validating as we go.

    Every element other than the identity is certified exactly once by
    ``element_from_matrix``, and WEYL_CAP is checked before each insert. A
    generator, taken as an integer matrix, that is already in the closure
    of the earlier ones is skipped; any other is certified, inserted, and
    the closure is taken again from all elements seen so far under the
    generators kept. Each round ends closed under right multiplication by
    the kept generators, which in a finite group makes it the subgroup they
    generate.
    """
    identity = rs.identity_element()
    seen = {identity.matrix: identity}
    kept = []

    def insert(matrix):
        element = rs.element_from_matrix(matrix)
        if len(seen) >= WEYL_CAP:
            raise CapExceededError(f"group too large: subgroup closure exceeds cap {WEYL_CAP}")
        seen[matrix] = element

    for g in generators:
        rows = g.matrix if isinstance(g, WeylElement) else g
        g = tuple(tuple(int(v) for v in row) for row in rows)
        if g in seen:
            continue
        insert(g)
        kept.append(g)
        frontier = list(seen)
        while frontier:
            new = []
            for m in frontier:
                for k in kept:
                    prod = _matmul(m, k)
                    if prod not in seen:
                        insert(prod)
                        new.append(prod)
            frontier = new
    elements = sorted(seen.values(), key=lambda w: (w.length, w.matrix))
    return WeylSubgroup(elements=tuple(elements))


def trivial_subgroup(rs: RootSystem) -> WeylSubgroup:
    return WeylSubgroup(elements=(rs.identity_element(),))


def rho_shift(w: WeylElement, rs: RootSystem) -> Weight:
    """rho - w*rho, which is the sum of R+ \\cap (-w R+), i.e. of the
    positive roots sent negative by w^{-1}. Always in the root lattice."""
    return tuple(r - x for r, x in zip(rs.rho, w.act(rs.rho)))


def dominant_box(rank: int, bound: int) -> list[Weight]:
    """All dominant weights with every coordinate at most bound, sorted."""
    return list(product(range(bound + 1), repeat=rank))
