"""Exact arithmetic in the character ring of a compact torus.

Elements are finitely supported integer combinations of lattice characters
e^mu, stored as sparse dicts keyed by weight coordinate vectors. The
normalized Haar integral of e^mu is the Kronecker delta at mu = 0, so every
torus integral below is a constant-term extraction.

Weights are packed into single ints only inside a product or a division,
in ``CharElement.__mul__``, ``root_product`` and ``divide_exact`` (the
packed exponent vectors of Monagan and Pearce, CASC 2007): each coordinate
is given a radix wide enough for the box every term of the loop stays in,
so packing is additive without carries and the inner loops add ints
instead of building tuples. Stored terms keep their tuple keys. Sums merge
the two term maps in C and visit only the weights they share.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, repeat
from math import prod
from numbers import Rational
from operator import add, le, mul, neg, sub

from .rootsystem import RootSystem, Weight, WeylElement, check_weyl_cap

_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               bool: "true or false", type(None): "null"}


def json_field(data, key: str, *kinds):
    """data[key] of parsed JSON, or ValueError naming the key when data is
    not an object, has no such key, or holds a value of none of the given
    types (true and false are not integers)."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with key {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"JSON object has no key {key!r}")
    value = data[key]
    if type(value) not in kinds:
        names = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ValueError(f"JSON key {key!r} must be {names}, got {type(value).__name__}")
    return value


def json_ints(data, key: str, depth: int):
    """data[key] of parsed JSON, a list of integers nested depth lists
    deep (1 for a weight, 3 for a list of matrices), as nested tuples; or
    ValueError naming the key."""

    def walk(value, depth):
        if type(value) is not list:
            raise ValueError(f"JSON key {key!r} must hold lists, got {type(value).__name__}")
        if depth > 1:
            return tuple(walk(v, depth - 1) for v in value)
        if not set(map(type, value)) <= {int}:
            raise ValueError(f"JSON key {key!r} must hold integers")
        return tuple(value)

    return walk(json_field(data, key, list), depth)


class CharElement:
    """A formal Laurent polynomial sum of c_mu * e^mu with integer c_mu."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Weight, int] | None = None):
        self.rank = rank
        clean: dict[Weight, int] = {}
        if terms:
            for mu, c in terms.items():
                if len(mu) != rank:
                    raise ValueError(f"weight {mu} does not have rank {rank}")
                if type(c) is not int:
                    if not isinstance(c, Rational) or c.denominator != 1:
                        raise ValueError(f"coefficient {c!r} at {mu} is not an integer")
                    c = int(c)
                if c:
                    clean[tuple(mu)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of(cls, rank: int, terms: dict[Weight, int]) -> "CharElement":
        """The trusted constructor for ring-arithmetic results: wraps terms
        without validating them. The caller guarantees what ``__init__``
        checks, tuple keys of length rank and nonzero int coefficients;
        input from outside the program goes through ``__init__``."""
        res = CharElement.__new__(cls)
        res.rank, res.terms = rank, terms
        return res

    @classmethod
    def zero(cls, rank: int) -> "CharElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "CharElement":
        return cls(rank, {tuple([0] * rank): 1})

    @classmethod
    def monomial(cls, mu: Weight, coeff: int = 1) -> "CharElement":
        return cls(len(mu), {tuple(mu): coeff})

    # -- ring structure --------------------------------------------------------

    def _check_rank(self, other: "CharElement"):
        if self.rank != other.rank:
            raise ValueError("rank mismatch between character-ring elements")

    def __add__(self, other: "CharElement") -> "CharElement":
        if not isinstance(other, CharElement):
            return NotImplemented
        self._check_rank(other)
        return CharElement._of(self.rank, merge_terms(self.terms, other.terms))

    def __neg__(self) -> "CharElement":
        return CharElement._of(self.rank, {mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other: "CharElement") -> "CharElement":
        if not isinstance(other, CharElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product with an int or another CharElement.

        Weights are packed into ints for the pair loop. Coordinate j of a
        weight of one operand lies in [lo_a, hi_a], of the other in
        [lo_b, hi_b]; with radix r_j = (hi_a - lo_a) + (hi_b - lo_b) + 1 and
        place_j the product of the radices before j, a weight mu of the
        first packs to sum_j (mu_j - lo_a_j) * place_j, and likewise for the
        second. Digit j of a sum of two packed weights is at most r_j - 1,
        so no carry occurs and no bound check is needed: ka + kb is the
        packed form of mu + nu, decoded digit by digit by quotient and
        remainder and shifted back by lo_a + lo_b.
        """
        if isinstance(other, int):
            if other == 0:
                return CharElement.zero(self.rank)
            return CharElement._of(self.rank, {mu: c * other for mu, c in self.terms.items()})
        if not isinstance(other, CharElement):
            return NotImplemented
        self._check_rank(other)
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        if not small:
            return CharElement.zero(self.rank)
        cols_s, cols_l = tuple(zip(*small)), tuple(zip(*large))
        lo_s, lo_l = tuple(map(min, cols_s)), tuple(map(min, cols_l))
        lo = tuple(map(add, lo_s, lo_l))
        hi = map(add, map(max, cols_s), map(max, cols_l))
        radices = [h - l + 1 for h, l in zip(hi, lo)]
        places = tuple(accumulate(radices[:-1], mul, initial=1))
        off_s = sum(map(mul, lo_s, places))
        off_l = sum(map(mul, lo_l, places))
        packed_large = [(sum(map(mul, nu, places)) - off_l, d) for nu, d in large.items()]
        out: dict[int, int] = {}
        get = out.get
        for mu, c in small.items():
            ka = sum(map(mul, mu, places)) - off_s
            for kb, d in packed_large:
                k = ka + kb
                out[k] = get(k, 0) + c * d
        return CharElement._of(self.rank, _unpack({k: c for k, c in out.items() if c}, radices, lo))

    __rmul__ = __mul__

    def shift(self, mu: Weight, coeff: int = 1) -> "CharElement":
        """Multiplication by coeff * e^mu.

        Column-wise, as in ``weyl_act``: coordinate j of every shifted
        weight at once is column j of the weights plus mu_j, added with
        map() and skipped where mu_j = 0."""
        if len(mu) != self.rank:
            raise ValueError(f"weight {mu} does not have rank {self.rank}")
        if type(coeff) is not int:
            raise ValueError(f"coefficient {coeff!r} is not an int")
        if coeff == 0:
            return CharElement.zero(self.rank)
        terms = self.terms
        cols = [
            map(add, col, repeat(m)) if m else col for col, m in zip(zip(*terms), mu)
        ]
        # with no columns (rank 0 or no terms) the keys are terms' own
        keys = zip(*cols) if cols else terms
        values = terms.values() if coeff == 1 else map(mul, terms.values(), repeat(coeff))
        return CharElement._of(self.rank, dict(zip(keys, values)))

    def conjugate(self) -> "CharElement":
        """Complex conjugation on the compact torus: e^mu -> e^-mu."""
        return CharElement._of(self.rank, {tuple(map(neg, mu)): c for mu, c in self.terms.items()})

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mu: Weight) -> int:
        return self.terms.get(tuple(mu), 0)

    def constant_term(self) -> int:
        return self.terms.get(tuple([0] * self.rank), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Weight]:
        return sorted(self.terms)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mu in self.support():
            c = self.terms[mu]
            parts.append(f"{'+' if c > 0 and parts else ''}{c}*e{list(mu)}")
        return "".join(parts)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [{"w": list(mu), "c": str(self.terms[mu])} for mu in self.support()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CharElement":
        terms = json_field(data, "terms", list)
        return cls(
            json_field(data, "rank", int),
            {json_ints(t, "w", 1): int(json_field(t, "c", str)) for t in terms},
        )


def merge_terms(a: dict, b: dict) -> dict:
    """The sum of two sparse maps with nonzero values, with no zero entry:
    one C-level merge, then a pass over the keys they share only. Keys
    keep the order of a followed by the new keys of b."""
    out = {**a, **b}
    for key in a.keys() & b.keys():
        v = a[key] + b[key]
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _unpack(packed: dict[int, int], radices, lo) -> dict[Weight, int]:
    """Decode packed keys digit by digit (quotient and remainder by each
    radix in turn) and shift digit j back by lo[j]."""
    keys = list(packed)
    digits = []
    for r, base in zip(radices, lo):
        digits.append([k % r + base for k in keys])
        keys = [k // r for k in keys]
    weights = zip(*digits) if digits else repeat((), len(packed))
    return dict(zip(weights, packed.values()))


def weyl_act(w: WeylElement, a: CharElement) -> CharElement:
    """e^mu -> e^{w mu}, extended linearly; a ring automorphism.

    Coordinate i of every image at once is sum_j m_ij * (column j of the
    weights of a): whole columns are added, negated or scaled with map(),
    and zero entries of the matrix are skipped. Coefficients are kept in
    the order of a's terms.
    """
    if w.rank != a.rank:
        raise ValueError("rank mismatch between Weyl element and character")
    terms = a.terms
    cols = tuple(zip(*terms))
    images = []
    for row in w.matrix:
        image = None
        for m, col in zip(row, cols):
            if not m:
                continue
            part = col if m == 1 else map(neg, col) if m == -1 else map(mul, col, repeat(m))
            image = part if image is None else list(map(add, image, part))
        images.append(repeat(0, len(terms)) if image is None else image)
    return CharElement._of(a.rank, dict(zip(zip(*images), terms.values())))


def torus_integral(a: CharElement) -> int:
    """Normalized Haar integral over the torus: the coefficient of e^0."""
    return a.constant_term()


def torus_pairing(a: CharElement, b: CharElement) -> int:
    """Integral of a * conj(b); by character orthogonality this is the
    coefficient dot product sum_mu a_mu b_mu."""
    a._check_rank(b)
    small, large = (a.terms, b.terms)
    if len(small) > len(large):
        small, large = large, small
    return sum(map(mul, small.values(), map(large.get, small, repeat(0))))


def root_product(roots, rank: int) -> CharElement:
    """prod over the weights beta in roots of (1 - e^beta), in rank coordinates.

    Every term of the product is e^{sum of a subset of roots}, so its
    coordinate j lies in [lo_j, hi_j], lo_j the sum of the negative j-th
    coordinates and hi_j the sum of the positive ones. With radix
    r_j = hi_j - lo_j + 1 and place_j the product of the radices before j,
    mu packs to sum_j (mu_j - lo_j) * place_j, and every partial product
    stays inside the same box: adding the signed packed beta,
    sum_j beta_j * place_j, to a packed term is the packed form of its
    shift by beta, with no carry. Each factor is then one pass over an
    int-keyed dict, and keys are decoded only at the end.
    """
    roots = [tuple(beta) for beta in roots]
    if any(len(beta) != rank for beta in roots):
        raise ValueError(f"a weight in the product does not have rank {rank}")
    cols = tuple(zip(*roots)) or ((),) * rank
    lo = [sum(x for x in col if x < 0) for col in cols]
    radices = [sum(x for x in col if x > 0) - low + 1 for col, low in zip(cols, lo)]
    places = tuple(accumulate(radices[:-1], mul, initial=1))
    out = {-sum(map(mul, lo, places)): 1}
    for kb in [sum(map(mul, beta, places)) for beta in roots]:
        new = dict(out)
        get = new.get
        for k, c in out.items():
            k += kb
            v = get(k, 0) - c
            if v:
                new[k] = v
            else:
                del new[k]
        out = new
    return CharElement._of(rank, _unpack(out, radices, lo))


def weyl_denominator_full(rs: RootSystem) -> CharElement:
    """D = prod over all roots of (1 - e^alpha), expanded once per root
    system and kept on it; it has at least |W| terms, so check_weyl_cap first."""
    check_weyl_cap(rs)
    if rs._full_denominator is None:
        rs._full_denominator = root_product(rs.full_roots, rs.rank)
    return rs._full_denominator


def half_denominator(rs: RootSystem) -> CharElement:
    """prod over positive roots of (1 - e^alpha), expanded once per root
    system and kept on it; it has |W| terms, so check_weyl_cap first."""
    check_weyl_cap(rs)
    if rs._half_denominator is None:
        rs._half_denominator = root_product(rs.positive_roots, rs.rank)
    return rs._half_denominator


_INEXACT = "division is not exact in the character ring"


def divide_exact(p: CharElement, q: CharElement, rs: RootSystem) -> CharElement:
    """Exact division p / q in the character ring, or ValueError if q does
    not divide p.

    Term order: height first (the sum of simple-root coordinates, positive
    on the positive roots, taken as the integer dot product h(mu) with
    ``rs.height_vector``), then lexicographic order of the weight. Each
    step divides the leading remainder term by the leading term of q and
    subtracts that multiple of q. The order is compatible with addition, so
    every term a step adds to the remainder lies below the term it removes.

    Inside the loop a weight is one int (the packed exponents of Monagan
    and Pearce, CASC 2007). Over p's bounding box lo_j <= mu_j <= hi_j,
    with radix r_j = hi_j - lo_j + 1, lexicographic places (place_j the
    product of the radices after j, so the first coordinate is the most
    significant) and span the product of all radices, the key is

        K(mu) = h(mu) * span + sum_j mu_j * place_j.

    On the box the sum lies in [base, base + span), base = sum_j lo_j *
    place_j, so the integer order of K is the term order; and K is linear,
    so the key of mono + nu is K(mono) + K(nu). The remainder is a dict
    keyed by -K, and its leading term comes from a heap of these ints
    instead of a scan of the whole remainder: the heap's minimum is the
    leading term. A key is pushed when it enters the remainder; a popped
    key that has since cancelled is skipped, and by the remark above it
    never returns. Only a popped leading term is decoded back to a weight,
    by divmod with span (giving its height and digits) and then with each
    place; quotient terms keep weight tuples.

    Termination certificate: if p = q x then Newt(p) = Newt(q) + Newt(x)
    (Ostrowski), so every term of x lies in the box
    min_j(p) - min_j(q) <= x_j <= max_j(p) - max_j(q) and has height at
    least min h(p) - min h(q). A quotient term outside these bounds, or a
    leading coefficient that q's leading coefficient does not divide,
    raises ValueError before anything is subtracted. Quotient terms
    strictly decrease in the term order and the box is finite, so the loop
    ends on every input. A quotient term in the box plus a term of q lies
    in p's box, so every remainder key stays on the box where K is exact.
    """
    if not p.rank == q.rank == rs.rank:
        raise ValueError(
            f"rank mismatch in division: {p.rank}, {q.rank} and root system {rs.rank}"
        )
    if q.is_zero():
        raise ZeroDivisionError("division by the zero character")
    if p.is_zero():
        return CharElement.zero(p.rank)
    hvec = rs.height_vector
    pcols, qcols = tuple(zip(*p.terms)), tuple(zip(*q.terms))
    plo = tuple(map(min, pcols))
    phi = tuple(map(max, pcols))
    radices = tuple(h - l + 1 for h, l in zip(phi, plo))
    places = tuple(accumulate(radices[:0:-1], mul, initial=1))[::-1]
    span = prod(radices)
    kvec = tuple(h * span + place for h, place in zip(hvec, places))
    base = sum(map(mul, plo, places))

    def height(mu: Weight) -> int:
        return sum(map(mul, hvec, mu))

    qlead = max(q.terms, key=lambda nu: (height(nu), nu))
    qlc, hq = q.terms[qlead], height(qlead)
    # every quotient height is at least min h(p) - min h(q)
    h_min = min(map(height, p.terms)) - min(map(height, q.terms))
    lo = tuple(a - min(b) for a, b in zip(plo, qcols))
    hi = tuple(a - max(b) for a, b in zip(phi, qcols))
    # mono_j = digit_j + plo_j - qlead_j for the popped term's digits
    shift = tuple(map(sub, plo, qlead))
    kq = sum(map(mul, kvec, qlead))
    # -K(t - qlead + nu) = -K(t) + (K(qlead) - K(nu))
    qdeltas = [(kq - sum(map(mul, kvec, nu)), d) for nu, d in q.terms.items()]
    heap = [-sum(map(mul, kvec, mu)) for mu in p.terms]
    rem = dict(zip(heap, p.terms.values()))
    heapq.heapify(heap)
    heappop, heappush, get = heapq.heappop, heapq.heappush, rem.get
    quot: dict[Weight, int] = {}
    while rem:
        nt = heappop(heap)
        ct = get(nt)
        if ct is None:
            continue
        c, r = divmod(ct, qlc)
        ht, rest = divmod(-nt - base, span)
        digits = []
        for place in places:
            digit, rest = divmod(rest, place)
            digits.append(digit)
        mono = tuple(map(add, digits, shift))
        if r:
            raise ValueError(f"{_INEXACT}: the leading coefficient {qlc} does not divide {ct}")
        if ht - hq < h_min:
            raise ValueError(f"{_INEXACT}: quotient term {mono} is below the height bound")
        if not (all(map(le, lo, mono)) and all(map(le, mono, hi))):
            raise ValueError(f"{_INEXACT}: quotient term {mono} is outside the Newton box")
        quot[mono] = c
        for delta, d in qdeltas:
            k = nt + delta
            v = get(k)
            if v is None:
                rem[k] = -c * d
                heappush(heap, k)
            elif v == c * d:
                del rem[k]
            else:
                rem[k] = v - c * d
    return CharElement._of(p.rank, quot)
