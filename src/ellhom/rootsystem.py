"""Root systems of types A-G in the fundamental-weight basis.

Every weight is an integer coordinate vector in the fundamental-weight
basis, so the Weyl vector is rho = (1,...,1), simple roots are columns of
the Cartan matrix, and all exponents used downstream (rho - w*rho,
w(lambda+rho)+rho, 2*rho) stay inside the integral weight lattice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
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


class WeylElement(namedtuple("WeylElement", "matrix length")):
    """A Weyl group element as an integer matrix on weight coordinates,
    with its length; equal and hashed by value. Its sign is derived from
    the length."""

    __slots__ = ()

    @property
    def sign(self) -> int:
        return (-1) ** self.length

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def act(self, mu: Weight) -> Weight:
        # map() would silently truncate a short weight
        if len(mu) != len(self.matrix):
            raise ValueError("rank mismatch between Weyl element and weight")
        return _matvec(self.matrix, mu)


class Frozen:
    """Base of the immutable records: each field is a slot, written once
    by the constructor through ``_set``; any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class WeylSubgroup(Frozen):
    """A subgroup of W given by an explicit, closed element list, kept in
    (length, matrix) order. Immutable; membership is by matrix."""

    __slots__ = ("elements", "_matrices")

    def __init__(self, elements):
        elements = tuple(sorted(elements, key=lambda w: (w.length, w.matrix)))
        self._set(elements=elements, _matrices=frozenset(u.matrix for u in elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

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

    # -- construction helpers -------------------------------------------------

    def _reflection_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        # s_i(mu) = mu - mu_i * alpha_i, alpha_i = column i of the Cartan matrix
        n = self.rank
        return tuple(
            tuple(int(k == j) - (self.cartan[k][i] if j == i else 0) for j in range(n))
            for k in range(n)
        )

    def _generate_positive_roots(self) -> tuple[Weight, ...]:
        roots = set(self.simple_roots)
        frontier = list(self.simple_roots)
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

    def dominant_walk(self, mu) -> tuple[Weight, list[int]]:
        """The dominant weight in the W-orbit of mu, and the word i_1 ... i_k
        that reaches it: s_{i_k} ... s_{i_1} mu is dominant. Each step
        reflects in the first negative coordinate."""
        mu = tuple(mu)
        simple_roots = self.simple_roots
        word = []
        while True:
            for i, x in enumerate(mu):
                if x < 0:
                    mu = tuple([y - x * a for y, a in zip(mu, simple_roots[i])])
                    word.append(i)
                    break
            else:
                return mu, word

    def _with_length(self, matrix) -> WeylElement:
        """The Weyl element of a matrix that lies in W (a product of
        simple reflections or of Weyl elements), with its length
        #{alpha > 0 : w(alpha) < 0}. Nothing is certified."""
        positive = self._positive_set
        length = sum(_matvec(matrix, alpha) not in positive for alpha in self.positive_roots)
        return WeylElement(matrix, length)

    def element_from_matrix(self, matrix) -> WeylElement:
        """Certify an integer matrix from outside as an element of W, with
        its length; ValueError otherwise, naming the shape of one that is
        not rank x rank. Run it only on matrices from outside: a product of
        Weyl elements lies in W and needs only its length.

        The chamber walk is the whole certificate: walk m*rho back to the
        dominant chamber and require the word's product u to be m. If it
        is, m lies in W. If m lies in W, u^-1 m rho is dominant and in the
        W-orbit of rho, so it is rho; rho is regular, so u^-1 m = 1. This
        refuses every matrix outside W, among them those that permute the
        roots, such as -1 in A2 or a diagram automorphism."""
        matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        cols = sorted({len(row) for row in matrix})
        if len(matrix) != self.rank or cols != [self.rank]:
            shape = f"{len(matrix)} x {'/'.join(map(str, cols)) or 0}"
            raise ValueError(f"matrix of shape {shape} is not {self.rank} x {self.rank}")
        _, word = self.dominant_walk(map(sum, matrix))  # m * rho
        element = self.from_word(word)
        if element.matrix != matrix:
            raise ValueError("matrix does not lie in the Weyl group")
        return element

    def identity_element(self) -> WeylElement:
        eye = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        return WeylElement(eye, 0)

    def simple_reflection(self, i: int) -> WeylElement:
        if not 0 <= i < self.rank:
            raise ValueError(f"simple reflection index {i} is not in 0..{self.rank - 1}")
        return WeylElement(self._simple_reflection_matrices[i], 1)

    def from_word(self, word) -> WeylElement:
        """The product s_{i_1} ... s_{i_k} of the simple reflections in
        word. It lies in W by construction, so only its length is
        computed; nothing is certified."""
        matrix = self.identity_element().matrix
        for i in word:
            matrix = _matmul(matrix, self.simple_reflection(i).matrix)
        return self._with_length(matrix)

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


def check_gram_cap(n: int, rs: RootSystem) -> None:
    """CapExceededError when n * max(n, |W|) exceeds WEYL_CAP (read at call
    time), the one rule for work sized by W: for n = 1, enumerating W or
    expanding one Weyl denominator (|W| elements or terms); for n classes
    or weights over rs, their n^2 pairings, each over classes of about |W|
    terms; for n = |W|, |W| expansions of at least |W| terms each. Called
    before W is enumerated and before the first class is built."""
    work = n * max(n, rs.weyl_order)
    if work > WEYL_CAP:
        raise CapExceededError(
            f"too much work: {n} * max({n}, |W({rs.series}{rs.rank})|) = {work} exceeds cap {WEYL_CAP}"
        )


def enumerate_weyl_group(rs: RootSystem) -> WeylSubgroup:
    """Breadth-first closure of the simple reflections; the full W, or
    CapExceededError from ``check_gram_cap(1, rs)`` before any work when
    its order exceeds WEYL_CAP.

    Right multiplication by s_i changes only column i of a matrix:
    s_i = 1 - alpha_i e_i^T, so col_i(w s_i) = col_i(w) - w alpha_i, one
    dot product per row instead of a full matrix product. The BFS depth at
    which an element first appears is its length.
    """
    check_gram_cap(1, rs)
    predicted = rs.weyl_order
    identity = rs.identity_element()
    seen = {identity.matrix: identity}
    frontier = [identity.matrix]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for m in frontier:
            for i, alpha in enumerate(rs.simple_roots):
                prod = tuple([
                    (*row[:i], row[i] - sum(map(mul, row, alpha)), *row[i + 1:]) for row in m
                ])
                if prod not in seen:
                    if len(seen) >= predicted:
                        raise AssertionError(f"enumerated more than {predicted} Weyl elements")
                    seen[prod] = WeylElement(prod, depth)
                    new.append(prod)
        frontier = new
    if len(seen) != predicted:
        raise AssertionError(
            f"enumerated {len(seen)} Weyl elements, expected {predicted}"
        )
    return WeylSubgroup(seen.values())


def subgroup_from_generators(rs: RootSystem, generators) -> WeylSubgroup:
    """Close a generator list into a subgroup of W, validating as we go.

    A generator, taken as an integer matrix, that is already in the closure
    of the earlier ones is skipped; any other is certified by
    ``element_from_matrix`` and kept, and the closure is taken again from
    all elements seen so far under the generators kept. W is closed under
    products, so a closure product needs only its length. WEYL_CAP is
    checked before each insert, so it bounds the closure actually built
    and a small subgroup of a large W stays cheap. Each round ends closed under right
    multiplication by the kept generators, which in a finite group makes it
    the subgroup they generate.
    """
    identity = rs.identity_element()
    seen = {identity.matrix: identity}
    kept = []

    def insert(element):
        if len(seen) >= WEYL_CAP:
            raise CapExceededError(f"group too large: subgroup closure exceeds cap {WEYL_CAP}")
        seen[element.matrix] = element

    for g in generators:
        rows = g.matrix if isinstance(g, WeylElement) else g
        g = tuple(tuple(int(v) for v in row) for row in rows)
        if g in seen:
            continue
        insert(rs.element_from_matrix(g))
        kept.append(g)
        frontier = list(seen)
        while frontier:
            new = []
            for m in frontier:
                for k in kept:
                    prod = _matmul(m, k)
                    if prod not in seen:
                        insert(rs._with_length(prod))
                        new.append(prod)
            frontier = new
    return WeylSubgroup(seen.values())


def trivial_subgroup(rs: RootSystem) -> WeylSubgroup:
    return WeylSubgroup((rs.identity_element(),))


def rho_shift(w: WeylElement, rs: RootSystem) -> Weight:
    """rho - w*rho, which is the sum of R+ \\cap (-w R+), i.e. of the
    positive roots sent negative by w^{-1}. Always in the root lattice."""
    return tuple(r - x for r, x in zip(rs.rho, w.act(rs.rho)))


def dominant_box(rank: int, bound: int) -> list[Weight]:
    """All dominant weights with every coordinate at most bound, sorted."""
    return list(product(range(bound + 1), repeat=rank))
