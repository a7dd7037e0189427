"""Exact field and sparse multivariate polynomial arithmetic with a Gröbner engine.

Coefficients are exact: `fractions.Fraction` over the rationals, reduced
residues in ``[0, p)`` over a prime field.  Rational coefficients are
`Fraction`s wherever a polynomial is handed out.  A polynomial enters the
engine one way (`_packed`), over Q as integers under one common scale, and
the reduction loop (`_divide`) reduces by integer multiples of its
divisors, so no step builds a `Fraction`.  Substitution is part of that
one way in: images are packed once (`_pack_images`), and the substitution
kernel (`_substitution`) expands a polynomial at them into one packed
integer term map under one scale, which `substitute` unpacks and
`_normal_form_at`, a morphism's action, hands to `_divide` as it is.
Every reducer record is normalized one way (`_remainder_record`):
primitive over Q, monic over F_p.
Buchberger's loop runs on reducer records alone: S-pairs are built and
reduced as packed integer term maps, and `Fraction`s are built only for the
basis returned.  Monomials are exponent tuples at the API and guard-bit
packed ints (`_Packing`) inside the reduction loop, the S-pairs, the pair
update and the minimalization of a basis; a packed row may weigh its
variables (`WeightOrder`), and `groebner` can truncate the basis of an ideal
homogeneous in that weight at a bound, which then decides membership up to
the bound and refuses heavier inputs.  Polynomials are sparse term maps
and carry no caches.  All values are immutable after construction and
every operation is a pure function, so concurrent use on distinct values is
safe.  The only writes after construction are a
`GroebnerBasis`'s table of reducer records, built once on first use, and the
packed layout of each order and arity (`_packing`).  Each caches a value
derived from immutable data and is stored whole, so concurrent writers store
equal values and a reader never sees a half-written entry.
"""

from __future__ import annotations

import re as _re
import struct as _struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm as int_lcm, prod
from operator import (add as _add, le as _le, mul as _mul, neg as _neg,
                      sub as _sub)
from typing import Iterable, Iterator, Sequence

from .errors import (HypothesisError, ParseError, ResourceLimitError,
                     RingMismatchError, TruncationError)

Monomial = tuple[int, ...]

# ---------------------------------------------------------------------------
# resource guards


@dataclass
class ResourceLimits:
    """Guards for the Gröbner engine; trip with an error, never a wrong answer."""

    max_basis: int = 10_000
    max_degree: int = 64
    max_terms: int = 100_000


LIMITS = ResourceLimits()


def set_limits(max_basis: int | None = None, max_degree: int | None = None,
               max_terms: int | None = None) -> None:
    """Adjust the process-wide resource guards (CLI startup hook)."""
    if max_basis is not None:
        LIMITS.max_basis = max_basis
    if max_degree is not None:
        LIMITS.max_degree = max_degree
    if max_terms is not None:
        LIMITS.max_terms = max_terms


def _check_degree(deg: int) -> None:
    if deg > LIMITS.max_degree:
        raise ResourceLimitError(
            f"polynomial degree {deg} exceeds guard {LIMITS.max_degree}")


def _check_terms(n: int) -> None:
    if n > LIMITS.max_terms:
        raise ResourceLimitError(
            f"term count {n} exceeds guard {LIMITS.max_terms}")


# ---------------------------------------------------------------------------
# ground fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond any desk-scale modulus
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """The ground field: rationals when ``p`` is None, else the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- scalar arithmetic ---------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int or Fraction into a canonical scalar of this field."""
        if self.p is None:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ParseError(
                    f"coefficient {value} not invertible mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    def zero(self):
        return _ZERO if self.p is None else 0

    def one(self):
        return _ONE if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return _ONE / a     # a Fraction for an int argument too
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator:
        """All field elements; only available over a prime field."""
        if self.p is None:
            raise ValueError("rational field is not enumerable")
        return iter(range(self.p))


Scalar = object  # Fraction over Q, int over F_p

_ZERO, _ONE = Fraction(0), Fraction(1)     # immutable, so shared

QQ = FieldDescriptor()


def GF(p: int) -> FieldDescriptor:
    return FieldDescriptor(p)


# ---------------------------------------------------------------------------
# monomial orders


def _drl_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _drl_rows(start: int, stop: int, arity: int) -> list[tuple[int, ...]]:
    """Degrevlex on the variables [start, stop) of `arity` as sums compared
    lexicographically: the degree, then e_start + … + e_k for k falling;
    each row a 0/1 multiplier per variable."""
    return [tuple(int(start <= i < k) for i in range(arity))
            for k in range(stop, start, -1)]


class MonomialOrder:
    """A monomial order given by a sort key; larger key = larger monomial.

    `_rows` gives the order as a matrix of non-negative integer
    multipliers, one row of `arity` entries each: row r stands for the sum
    r_1·e_1 + … + r_n·e_n, and comparing these sums lexicographically, then
    the exponents, is the order.
    """

    name = "degrevlex"

    def key(self, m: Monomial):
        return _drl_key(m)

    def _rows(self, arity: int) -> list[tuple[int, ...]]:
        return _drl_rows(0, arity, arity)

    def __repr__(self):
        return f"<order {self.name}>"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class LexOrder(MonomialOrder):
    name = "lex"

    def key(self, m: Monomial):
        return m

    def _rows(self, arity: int) -> list[tuple[int, ...]]:
        return []


class BlockOrder(MonomialOrder):
    """Eliminates the first ``n_front`` variables: front block dominates."""

    def __init__(self, n_front: int):
        self.n_front = n_front
        self.name = f"block{n_front}"

    def key(self, m: Monomial):
        k = self.n_front
        return (_drl_key(m[:k]), _drl_key(m[k:]))

    def _rows(self, arity: int) -> list[tuple[int, ...]]:
        k = min(self.n_front, arity)
        return _drl_rows(0, k, arity) + _drl_rows(k, arity, arity)


class WeightOrder(MonomialOrder):
    """The weight w_1·e_1 + … + w_n·e_n first, then degrevlex.  The weights
    are non-negative integers, one per variable, so this is a well-order;
    variables of weight 0 are ordered by degrevlex alone.  An ideal whose
    generators are homogeneous in the weight has a Gröbner basis of
    homogeneous elements under it, which `groebner` can bound by weight."""

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(weights)
        if any(w < 0 for w in self.weights):
            raise ValueError(f"weights must be non-negative: {self.weights}")
        self.name = f"weight{self.weights}"

    def key(self, m: Monomial):
        return (sum(map(_mul, m, self.weights)), _drl_key(m))

    def _rows(self, arity: int) -> list[tuple[int, ...]]:
        if arity != len(self.weights):
            raise RingMismatchError(f"{len(self.weights)} weights for "
                                    f"{arity} variables")
        return [self.weights] + _drl_rows(0, arity, arity)


DEGREVLEX = MonomialOrder()
LEX = LexOrder()


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(_le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# packed monomials (M. Monagan and R. Pearce, "Sparse polynomial division
# using a heap", J. Symb. Comput. 46, 2011)

_WIDTH = 16                     # bits per field; the top bit is a guard bit
_FIELD_BOUND = 1 << (_WIDTH - 1)
_FIELD_CODE = {16: "H", 32: "I"}[_WIDTH]    # `struct` code of one field


class _Packing:
    """Monomials of `arity` variables under `order` as one int each; one
    per order and arity (`_packing`).

    The int is a row of `_WIDTH`-bit fields: the values of the order's rows
    (`MonomialOrder._rows`) in the high fields, the first row highest, then
    e_1 … e_n.  Packing is linear, pack(m) = Σ e_i·units[i], so:

    - int comparison is the monomial order, and a product is one `+`;
    - lm divides m exactly when ``not (m - lm) & guard``: a field of m
      smaller than lm's borrows from its own guard bit, and since every
      multiplier is non-negative, the row fields of m - lm are non-negative
      where its exponent fields are;
    - a sum whose field overflows sets that field's guard bit, which
      `_divide` and `_s_remainder` test on every product and
      `_update_pairs` on every lcm,
      so an exponent never wraps.

    Every field is at most the largest multiplier (1 for the 0/1 rows of
    degrevlex, lex and the block orders) times the total degree, so a
    monomial of degree below `degree_limit`, `_FIELD_BOUND` over that
    multiplier, packs with its guard bits clear.  `shift` is the bit offset
    of the first row's field, None when the order has no row (lex).
    """

    __slots__ = ("units", "guard", "low", "size", "fields", "degree_limit",
                 "shift")

    def __init__(self, order: MonomialOrder, arity: int):
        rows = order._rows(arity)
        top = len(rows) + arity - 1
        self.units = [
            sum(row[i] << _WIDTH * (top - r) for r, row in enumerate(rows))
            | 1 << _WIDTH * (arity - 1 - i)
            for i in range(arity)]
        self.guard = sum(_FIELD_BOUND << _WIDTH * f for f in range(top + 1))
        self.low = (1 << _WIDTH * arity) - 1
        self.size = _WIDTH // 8 * arity
        self.fields = _struct.Struct(f">{arity}{_FIELD_CODE}")
        stretch = max([1, *(w for row in rows for w in row)])
        self.degree_limit = -(-_FIELD_BOUND // stretch)
        self.shift = _WIDTH * top if rows else None

    def pack(self, m: Monomial) -> int:
        return sum(map(_mul, m, self.units))

    def unpack(self, packed: int) -> Monomial:
        return self.fields.unpack((packed & self.low).to_bytes(self.size, "big"))


# equal orders share a layout, also when built apart (elimination builds a
# BlockOrder per call)
_packing = lru_cache(maxsize=64)(_Packing)


def _packed(p: "Polynomial", packing: _Packing) -> tuple[dict[int, int], int]:
    """The one way into the engine: p's terms with packed monomials
    (`_Packing`), in p's term order, and a scale.  Over Q the coefficients
    are integers standing for p·scale, with scale the lcm of p's denominators;
    over F_p they are p's residues, under scale 1.  A degree whose fields
    could reach a guard bit is a `ResourceLimitError`, raised before
    anything is packed."""
    deg = max(map(sum, p.terms), default=0)
    if deg >= packing.degree_limit:
        raise ResourceLimitError(
            f"degree {deg} does not fit the {_WIDTH}-bit fields of a packed "
            f"monomial")
    units = packing.units
    coeffs, scale = p.terms.values(), 1
    if p.field.p is None:
        ratios = [c.as_integer_ratio() for c in coeffs]
        scale = int_lcm(*[d for _, d in ratios])
        coeffs = [n * (scale // d) for n, d in ratios]
    return dict(zip([sum(map(_mul, m, units)) for m in p.terms],
                    coeffs)), scale


def _pack_images(images: Sequence["Polynomial"], packing: _Packing
                 ) -> list[tuple[dict[int, Scalar], int, int]]:
    """Each image packed once (`_packed`), as (term map, scale, total
    degree): the images `_substitution` takes."""
    return [(*_packed(im, packing), im.total_degree()) for im in images]


def _nonzero(terms: dict[int, Scalar], modulus: int | None
             ) -> dict[int, Scalar]:
    """The nonzero terms of a packed term map, reduced mod p over F_p."""
    if modulus is not None:
        terms = {m: c % modulus for m, c in terms.items()}
    return {m: c for m, c in terms.items() if c}


def _product(a: tuple[dict[int, Scalar], int], b: tuple[dict[int, Scalar], int],
             modulus: int | None) -> tuple[dict[int, Scalar], int]:
    """a·b for packed term maps with their total degrees, (terms, degree).
    The guards are `Polynomial.__mul__`'s: the degree before the product,
    unless a factor is zero, the term count after it.  A degree that passes
    `max_degree` but not the `_WIDTH`-bit fields of a 0/1 layout is a
    `ResourceLimitError`, so no field reaches its guard bit."""
    (ta, da), (tb, db) = a, b
    if not (ta and tb):
        return {}, -1
    deg = da + db
    _check_degree(deg)
    if deg >= _FIELD_BOUND:
        raise ResourceLimitError(
            f"degree {deg} does not fit the {_WIDTH}-bit fields of a packed "
            f"monomial")
    out: dict[int, Scalar] = {}
    get = out.get
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    out = _nonzero(out, modulus)
    _check_terms(len(out))
    return out, deg


def _substitution(p: "Polynomial", images: Sequence[tuple], packing: _Packing,
                  modulus: int | None) -> tuple[dict[int, Scalar], int]:
    """The substitution kernel: p at images packed in `packing`
    (`_pack_images`), as a packed term map and one scale.  Over Q the
    integers stand for p(images)·scale; over F_p they are residues, under
    scale 1.

    Each power of an image is built once, from the image, as far as a term
    needs it, and each term is its coefficient times one product per
    variable it uses (`_product`, which keeps the guards).  A layout with
    multipliers above 1 (`WeightOrder`) fills its fields before the degree
    reaches `_FIELD_BOUND`, so there the highest degree a product can
    reach, Σ e_i·deg(image_i) over p's terms, is checked against the
    layout's `degree_limit` before any product.  Over Q the
    coefficients are integers under den, the lcm of p's denominators, so a
    term c·x^e stands under den·Π s_i^e_i, with s_i the images' scales; its
    coefficient is lifted to the common scale den·Π s_i^E_i, with E_i the
    highest exponent of x_i in p, before any product."""
    coeffs, scale = p.terms.values(), 1
    if modulus is None:
        ratios = [c.as_integer_ratio() for c in coeffs]
        scale = int_lcm(*[d for _, d in ratios])
        coeffs = [n * (scale // d) for n, d in ratios]
    else:
        coeffs = [c % modulus for c in coeffs]
    scales = [s for _, s, _ in images]
    if any(s != 1 for s in scales):         # over Q only
        tops = [max(e) for e in zip(*p.terms)]
        coeffs = [c * prod(map(pow, scales, map(_sub, tops, m)))
                  for m, c in zip(p.terms, coeffs)]
        scale *= prod(map(pow, scales, tops))
    powers = [[(terms, deg)] for terms, _, deg in images]
    if packing.degree_limit < _FIELD_BOUND:
        degs = [deg for _, _, deg in images]
        top = max((sum(map(_mul, m, degs)) for m in p.terms), default=0)
        if top >= packing.degree_limit:
            raise ResourceLimitError(
                f"degree {top} does not fit the {_WIDTH}-bit fields of a "
                f"packed monomial")
    result: dict[int, Scalar] = {}
    get = result.get
    for m, c in sorted(zip(p.terms, coeffs)):
        part = {0: c}, 0
        for e, pw in zip(m, powers):
            if e:
                while len(pw) < e:
                    pw.append(_product(pw[-1], pw[0], modulus))
                part = _product(part, pw[e - 1], modulus)
        for k, v in part[0].items():
            result[k] = get(k, 0) + v
    return _nonzero(result, modulus), scale


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse multivariate polynomial over an exact field.

    Treat instances as immutable; arithmetic returns fresh objects.
    """

    __slots__ = ("arity", "field", "terms")

    def __init__(self, arity: int, field: FieldDescriptor,
                 terms: dict[Monomial, Scalar] | None = None):
        self.arity = arity
        self.field = field
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(arity: int, field: FieldDescriptor) -> "Polynomial":
        return Polynomial(arity, field)

    @staticmethod
    def constant(value, arity: int, field: FieldDescriptor) -> "Polynomial":
        c = field.scalar(value)
        if c == field.zero():
            return Polynomial(arity, field)
        return Polynomial(arity, field, {(0,) * arity: c})

    @staticmethod
    def one(arity: int, field: FieldDescriptor) -> "Polynomial":
        return Polynomial.constant(1, arity, field)

    @staticmethod
    def variable(i: int, arity: int, field: FieldDescriptor) -> "Polynomial":
        exps = [0] * arity
        exps[i] = 1
        return Polynomial(arity, field, {tuple(exps): field.one()})

    @staticmethod
    def monomial(m: Monomial, field: FieldDescriptor, coeff=1) -> "Polynomial":
        c = field.scalar(coeff)
        if c == field.zero():
            return Polynomial(len(m), field)
        return Polynomial(len(m), field, {m: c})

    @staticmethod
    def combination(arity: int, field: FieldDescriptor,
                    monomials: Sequence[Monomial], coeffs: Sequence[Scalar]
                    ) -> "Polynomial":
        """sum c·m over paired monomials and field scalars (a coefficient
        vector read in a monomial basis); zero coefficients are dropped."""
        return Polynomial(arity, field,
                          {m: c for m, c in zip(monomials, coeffs) if c})

    def coefficients(self, monomials: Sequence[Monomial]) -> list | None:
        """The coefficient vector in the basis `monomials` (distinct), the
        inverse of `combination`; None when a term lies outside the list."""
        zero = self.field.zero()
        vec = [self.terms.get(m, zero) for m in monomials]
        # terms hold no zero coefficient, so the nonzero entries are the
        # terms found in the list
        if len(vec) - vec.count(zero) != len(self.terms):
            return None
        return vec

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        return max((sum(m) for m in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get((0,) * self.arity, self.field.zero())

    def _record(self, order: MonomialOrder) -> tuple:
        """The reducer record (lm, lc, packed lm, packed tail) that
        `_divide` divides by, normalized as a remainder's
        (`_remainder_record`).  Built afresh on every call; a
        `GroebnerBasis` keeps its elements'."""
        packing = _packing(order, self.arity)
        work, scale = _packed(self, packing)
        return _remainder_record([(m, c, scale) for m, c in
                                  sorted(work.items(), reverse=True)],
                                 packing.unpack, self.field.p)

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder = DEGREVLEX):
        return self.terms[self.leading_monomial(order)]

    def _same_ring(self, other: "Polynomial") -> None:
        if self.arity != other.arity or self.field != other.field:
            raise RingMismatchError(
                f"ring mismatch: {self.arity} vars over {self.field} vs "
                f"{other.arity} vars over {other.field}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        f = self.field
        terms = dict(self.terms)
        zero = f.zero()
        for m, c in other.terms.items():
            v = f.add(terms.get(m, zero), c)
            if v == zero:
                terms.pop(m, None)
            else:
                terms[m] = v
        return Polynomial(self.arity, f, terms)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(self.arity, f,
                          {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        if self.terms and other.terms:
            # over a field the degrees of nonzero factors add
            _check_degree(max(map(sum, self.terms))
                          + max(map(sum, other.terms)))
        f = self.field
        zero = f.zero()
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                v = f.add(terms.get(m, zero), f.mul(c1, c2))
                if v == zero:
                    terms.pop(m, None)
                else:
                    terms[m] = v
        _check_terms(len(terms))
        return Polynomial(self.arity, f, terms)

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.scalar(c)
        if c == f.zero():
            return Polynomial(self.arity, f)
        return Polynomial(self.arity, f,
                          {m: f.mul(v, c) for m, v in self.terms.items()})

    def mul_monomial(self, m: Monomial, coeff=None) -> "Polynomial":
        f = self.field
        c = f.one() if coeff is None else coeff
        return Polynomial(self.arity, f,
                          {monomial_mul(mm, m): f.mul(v, c)
                           for mm, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        if (n > LIMITS.max_degree and self.field.is_rational
                and self.total_degree() == 0
                and abs(self.constant_term()) != 1):
            # a nonconstant power trips the degree guard within a few
            # squarings; a rational constant's numerator would only grow
            raise ResourceLimitError(
                f"exponent {n} of the constant {self.constant_term()} "
                f"exceeds guard max_degree {LIMITS.max_degree}")
        result = Polynomial.one(self.arity, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self, i: int) -> "Polynomial":
        f = self.field
        zero = f.zero()
        terms: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            v = f.mul(c, f.scalar(e))
            if v == zero:
                continue
            mm = list(m)
            mm[i] = e - 1
            terms[tuple(mm)] = v
        return Polynomial(self.arity, f, terms)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at polynomial images (ring morphism on generators)."""
        if len(images) != self.arity:
            raise RingMismatchError("substitution needs one image per variable")
        if not images:
            # constants into the 0-variable ring of the same field
            return Polynomial(0, self.field, dict(self.terms))
        arity, f = images[0].arity, self.field
        if any(im.arity != arity or im.field != f for im in images):
            raise RingMismatchError("substitution needs images in one ring "
                                    "over the polynomial's field")
        packing = _packing(DEGREVLEX, arity)
        work, scale = _substitution(self, _pack_images(images, packing),
                                    packing, f.p)
        unpack = packing.unpack
        return Polynomial(arity, f, {
            unpack(m): c if f.p else Fraction(c, scale)
            for m, c in work.items()})

    def evaluate(self, values: Sequence) -> Scalar:
        """Evaluate at field scalars."""
        f = self.field
        vals = [f.scalar(v) for v in values]
        total = f.zero()
        for m, c in self.terms.items():
            acc = c
            for i, e in enumerate(m):
                for _ in range(e):
                    acc = f.mul(acc, vals[i])
            total = f.add(total, acc)
        return total

    def extend_arity(self, new_arity: int, position_map: Sequence[int]) -> "Polynomial":
        """Re-index variables into a larger ring; old var i -> position_map[i]."""
        terms: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            exps = [0] * new_arity
            for i, e in enumerate(m):
                exps[position_map[i]] = e
            terms[tuple(exps)] = c
        return Polynomial(new_arity, self.field, terms)

    def split(self, n: int) -> dict[Monomial, "Polynomial"]:
        """Group by the first n exponents: {front: polynomial in the rest}."""
        out: dict[Monomial, Polynomial] = {}
        for m, c in self.terms.items():
            part = out.get(m[:n])
            if part is None:
                part = out[m[:n]] = Polynomial(self.arity - n, self.field)
            part.terms[m[n:]] = c
        return out

    # -- canonical form ---------------------------------------------------------

    def monic(self, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading_coeff(order)))

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.arity == other.arity
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, self.field, self.key()))

    def __repr__(self):
        return f"Polynomial({self.to_string([f'x{i}' for i in range(self.arity)])})"

    def to_string(self, names: Sequence[str]) -> str:
        """Canonical text form: degrevlex-descending terms, explicit '*' and '^'."""
        if self.is_zero:
            return "0"
        pieces = []
        for m in sorted(self.terms, key=_drl_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            neg = False
            if self.field.is_rational and c < 0:
                neg, c = True, -c
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            pieces.append((neg, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out


# ---------------------------------------------------------------------------
# parser
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := nat | nat'/'nat | name | '(' expr ')'


_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN_SPEC = (("nat", r"\d+"), ("name", _NAME_RE.pattern),
               ("op", r"[-+*^/()]"), ("ws", r"\s+"))

_TOKEN_RE = _re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC))

# each parenthesis level costs four frames of the recursive descent, so the
# nesting is bounded well inside the interpreter's recursion limit
_MAX_NESTING = 100


def is_name(text: str) -> bool:
    """Whether `text` is one `name` token of the expression grammar."""
    return _NAME_RE.fullmatch(text) is not None


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], names: Sequence[str],
                 field: FieldDescriptor):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(names)}
        self.field = field
        self.arity = len(self.names)
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text = self.take()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}")

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.peek()[1]!r}")
        return p

    def expr(self) -> Polynomial:
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.base()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "nat":
                raise ParseError("exponent must be a non-negative integer")
            p = p ** _nat(text)
        return p

    def base(self) -> Polynomial:
        kind, text = self.take()
        if kind == "nat":
            if self.peek() == ("op", "/"):
                self.take()
                kind2, text2 = self.take()
                if kind2 != "nat":
                    raise ParseError("denominator of a rational literal must "
                                     "be a non-negative integer")
                den = _nat(text2)
                if den == 0:
                    raise ParseError("zero denominator in rational literal")
                value = Fraction(_nat(text), den)
                return Polynomial.constant(self.field.scalar(value),
                                           self.arity, self.field)
            return Polynomial.constant(_nat(text), self.arity, self.field)
        if kind == "name":
            if text not in self.index:
                raise ParseError(f"unknown identifier {text!r}")
            return Polynomial.variable(self.index[text], self.arity, self.field)
        if (kind, text) == ("op", "("):
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            self.expect(")")
            return p
        if (kind, text) == ("op", "/"):
            raise ParseError("division only allowed inside a rational literal")
        raise ParseError(f"unexpected token {text!r}")


def _nat(text: str) -> int:
    try:
        return int(text)
    except ValueError:      # more digits than the interpreter converts
        raise ParseError(f"integer literal of {len(text)} digits is too long"
                         ) from None


def poly_parse(text: str, names: Sequence[str], field: FieldDescriptor) -> Polynomial:
    """Parse the expression grammar into a canonical Polynomial."""
    return _Parser(_tokenize(text), names, field).parse()


# ---------------------------------------------------------------------------
# Gröbner bases


@dataclass(frozen=True)
class GroebnerBasis:
    """A Gröbner basis under `order`; `groebner` returns it reduced, monic
    and sorted.

    A `bound` makes it a basis up to that value of the order's first row
    (`groebner`): it decides membership for inputs whose terms all lie at or
    below the bound, and `normal_form` refuses any other input.

    `_records` holds the reducer records of `polys` under `order`
    (`Polynomial._record`: primitive over Q, monic over F_p), parallel to
    `polys`: those `groebner` built the elements from, or built on first
    use.
    """

    polys: tuple[Polynomial, ...]
    order: MonomialOrder
    bound: int | None = None
    _records: list[tuple] | None = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        rings = {(g.arity, g.field) for g in self.polys}
        if len(rings) > 1:
            raise RingMismatchError("Gröbner basis elements live in different "
                                    "rings")

    def _reducers(self) -> list[tuple]:
        if self._records is None:
            object.__setattr__(self, "_records",
                               [g._record(self.order) for g in self.polys])
        return self._records

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(r[0] for r in self._reducers())

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def contains_one(self) -> bool:
        return any(g.total_degree() == 0 for g in self.polys)


def _check_bound(gb: GroebnerBasis, monomials: Iterable[int],
                 packing: _Packing) -> None:
    """A basis with a `bound` reduces only inputs whose packed monomials
    have their first-row field at or below it: anything higher is a
    `TruncationError`, never a remainder the truncated basis cannot
    vouch for."""
    top = max(monomials, default=0) >> packing.shift
    if top > gb.bound:
        raise TruncationError(f"an input of weight {top} lies above the "
                              f"bound {gb.bound} of its Gröbner basis")


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Full remainder of multivariate division by the elements of `gb`, monic
    or not: no term divisible by any LT.  p is packed (`_packed`), reduced by
    `_divide` and unpacked, its terms in the order found; over Q a term
    that comes out under the entry scale with its entry value keeps p's
    `Fraction`.  A bounded basis refuses an input above its bound
    (`_check_bound`)."""
    for g in gb.polys[:1]:      # __post_init__ checked the rest
        if g.arity != p.arity or g.field != p.field:
            raise RingMismatchError("normal form: basis lives in another ring")
    if gb.bound is not None:
        packing = _packing(gb.order, p.arity)
        _check_bound(gb, map(packing.pack, p.terms), packing)
    reducers = gb._reducers()
    if not reducers or p.is_zero:
        return p
    packing = _packing(gb.order, p.arity)
    unpack, modulus = packing.unpack, p.field.p
    work, scale = _packed(p, packing)
    entry = dict(work)
    result: dict[Monomial, Scalar] = {}
    for m, c, s in _divide(work, scale, reducers, packing, modulus):
        t = unpack(m)
        if modulus is None:     # c stands for c / s
            c = (p.terms[t] if s == scale and entry.get(m) == c
                 else Fraction(c, s))
        result[t] = c
    return Polynomial(p.arity, p.field, result)


def _normal_form_at(p: Polynomial, images: Sequence[tuple],
                    gb: GroebnerBasis, arity: int) -> Polynomial:
    """The normal form by `gb`, in `arity` variables over p's field, of p
    at images packed in the layout of gb's order (`_pack_images`): the
    substitution kernel's term map (`_substitution`) goes straight into
    `_divide`, and only the remainder is unpacked.  A bounded basis
    refuses a term map above its bound (`_check_bound`)."""
    modulus = p.field.p
    packing = _packing(gb.order, arity)
    work, scale = _substitution(p, images, packing, modulus)
    if gb.bound is not None:
        _check_bound(gb, work, packing)
    unpack = packing.unpack
    return Polynomial(arity, p.field, {
        unpack(m): c if modulus else Fraction(c, s)
        for m, c, s in _divide(work, scale, gb._reducers(), packing, modulus)})


def _divide(work: dict[int, Scalar], scale: int, reducers: Sequence[tuple],
            packing: _Packing, modulus: int | None) -> list[tuple]:
    """The one reduction loop: the remainder of the packed term map `work`,
    which it uses up, by reducer records (`Polynomial._record`), as
    (packed monomial, coefficient, scale) triples, largest first.  Each term
    is reduced by the first record, in list order, whose leading monomial
    divides it; a product that does not fit the fields is a
    `ResourceLimitError`.

    Over Q `work` holds integers standing for work / scale.  To reduce c·m
    by L·lm + tail, with g = gcd(c, L), the work and the scale are
    multiplied by L/g and (c/g)·q·tail is subtracted, so no `Fraction` is
    built.  The scale only grows by whole factors: the last term's is a
    multiple of the others'.  Over F_p every record is monic, so c·q·tail is
    subtracted as it is, and the scale is left as given.
    """
    guard = packing.guard
    # terms are popped largest first; a popped monomial missing from `work`
    # was cancelled after it was queued
    queue = list(map(_neg, work))
    heapify(queue)
    result = []
    while queue:
        m = -heappop(queue)
        c = work.pop(m, None)
        if c is None:
            continue
        for _, lc, lm, tail in reducers:
            q = m - lm
            if not q & guard:
                # c becomes the quotient term's coefficient
                if lc != 1:     # over Q only: F_p records are monic
                    g = gcd(c, lc)
                    if g != lc:
                        a = lc // g
                        scale *= a
                        for k in work:
                            work[k] *= a
                    c //= g
                for gm, gc in tail:
                    mm = gm + q
                    if mm & guard:
                        raise ResourceLimitError(
                            f"a product in the reduction does not fit the "
                            f"{_WIDTH}-bit fields of a packed monomial")
                    old = work.get(mm)
                    v = -c * gc if old is None else old - c * gc
                    if modulus is not None:
                        v %= modulus
                    if v:
                        if old is None:
                            heappush(queue, -mm)
                        work[mm] = v
                    elif old is not None:
                        del work[mm]
                _check_terms(len(work))
                break
        else:
            result.append((m, c, scale))
    return result


def _s_remainder(reducers: list[tuple], i: int, j: int, lcm: int,
                 packing: _Packing, modulus: int | None) -> list[tuple]:
    """The remainder (`_divide`) by `reducers` of the S-pair of records i
    and j, whose leading monomials have the packed lcm `lcm`.

    The S-pair is a packed integer term map built from the tails alone, with
    q·lm = lcm: (L_j/g)·q_i·tail_i − (L_i/g)·q_j·tail_j for leading
    coefficients L and g = gcd(L_i, L_j), which over F_p, where records are
    monic, is q_i·tail_i − q_j·tail_j.  A lex tail can have a higher degree
    than its leading monomial, so every shifted term is tested for a field
    that does not fit: a `ResourceLimitError`.
    """
    _, lc_i, lm_i, tail_i = reducers[i]
    _, lc_j, lm_j, tail_j = reducers[j]
    g = gcd(lc_i, lc_j)
    guard = packing.guard
    work: dict[int, int] = {}
    for q, factor, tail in ((lcm - lm_i, lc_j // g, tail_i),
                            (lcm - lm_j, -(lc_i // g), tail_j)):
        for m, c in tail:
            m += q
            if m & guard:
                raise ResourceLimitError(
                    f"an S-pair does not fit the {_WIDTH}-bit fields of a "
                    f"packed monomial")
            v = work.get(m, 0) + factor * c
            if modulus is not None:
                v %= modulus
            if v:
                work[m] = v
            else:               # a term of tail_i cancelled
                del work[m]
    return _divide(work, 1, reducers, packing, modulus)


def _remainder_record(rem: list[tuple], unpack, modulus: int | None
                      ) -> tuple:
    """The reducer record of nonzero (packed monomial, coefficient, scale)
    triples, largest first, such as a remainder (`_divide`): over Q their
    primitive part with a positive leading coefficient, over F_p their monic
    residues.  Every record is normalized here, `Polynomial._record`'s too."""
    monomials = [m for m, _, _ in rem]
    if modulus is None:
        top = rem[-1][2]
        coeffs = [c if s == top else c * (top // s) for _, c, s in rem]
        g = gcd(*coeffs) if coeffs[0] > 0 else -gcd(*coeffs)
        coeffs = [c // g for c in coeffs]
    else:
        inv = pow(rem[0][1], -1, modulus)
        coeffs = [c * inv % modulus for _, c, _ in rem]
    return (unpack(monomials[0]), coeffs[0], monomials[0],
            tuple(zip(monomials[1:], coeffs[1:])))


def _update_pairs(records: list[tuple], record: tuple,
                  P: dict[tuple[int, int], int], order: MonomialOrder
                  ) -> list[tuple[int, int]]:
    """Gebauer-Möller pair update on appending h, with reducer record
    `record`, to the basis whose reducer records are `records`.  `P` maps
    each live pair to the packed lcm (`_Packing`) of its leading monomials;
    the update deletes the pairs it prunes from `P`, enters the new ones
    and returns them.

    Equality, strict divisibility by lm(h) and the product criterion read
    only the exponent fields (``& packing.low``): the row fields are
    combinations of the exponents with non-negative multipliers, so they
    agree and divide where the exponents do.  Every
    exponent field of a record is below `_FIELD_BOUND`, so lcm(lm_i, lm_h)
    is a field-wise max by the exponent fields' guard bits G (16-bit
    fields shown): ge = ((a | G) − b) & G holds the guard bit of each field
    where a ≥ b, mask = (ge >> 15)·0xFFFF fills those fields, and
    lcm = b ^ ((a ^ b) & mask).  The full packed lcm, row fields included,
    is built only for the new pairs.  A row field of lcm(lm_i, lm_h) is at
    most that of lm_i·lm_h, so only where a product's row field reaches its
    guard bit is every full lcm built; one that does not fit is a
    `ResourceLimitError`, whether its pair is kept or not.
    """
    lmh, _, plmh, _ = record
    t = len(records)
    packing = _packing(order, len(lmh))
    guard, low = packing.guard, packing.low
    G = guard & low             # the exponent fields' guard bits
    if any((r[2] + plmh) & (guard ^ G) for r in records):
        full = [packing.pack(map(max, r[0], lmh)) for r in records]
        if any(L & guard for L in full):
            raise ResourceLimitError(
                f"an lcm of leading monomials does not fit the {_WIDTH}-bit "
                f"fields of a packed monomial")
    b = plmh & low
    ones = (1 << _WIDTH) - 1
    exps = [r[2] & low for r in records]
    lcms = [b ^ (a ^ b) & ((((a | G) - b) & G) >> _WIDTH - 1) * ones
            for a in exps]
    # drop old pairs whose lcm is strictly divisible by lm(h)
    drop = [(i, j) for (i, j), L in P.items()
            if not (L - plmh) & guard
            and lcms[i] != L & low and lcms[j] != L & low]
    for pair in drop:
        del P[pair]
    # group candidate new pairs by lcm, keep minimal representatives; int
    # order on exponent fields is lex, which extends strict divisibility,
    # so a divisor is seen first
    groups: dict[int, list[int]] = {}
    for i, L in enumerate(lcms):
        groups.setdefault(L, []).append(i)
    minimal: list[int] = []
    for L in sorted(groups):
        if all((L - L2) & G for L2 in minimal):
            minimal.append(L)
    new = []
    for L in minimal:
        # product (coprime) criterion: the lcm is the product
        if any(L == exps[i] + b for i in groups[L]):
            continue
        pair = (groups[L][0], t)
        P[pair] = packing.pack(packing.unpack(L))
        new.append(pair)
    return new


def groebner(gens: Iterable[Polynomial], order: MonomialOrder = DEGREVLEX,
             bound: int | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis by Buchberger with Gebauer-Möller elimination.

    Output is deterministic: monic, auto-reduced, sorted by leading monomial,
    each element's terms largest first.  Pairs are drawn by the sugar
    strategy (A. Giovini, T. Mora, G. Niesi, L. Robbiano, C. Traverso, "One
    sugar cube, please", ISSAC 1991): smallest sugar first, then smallest
    packed lcm, then smallest indices.  A generator's sugar is its total
    degree; a pair's is deg lcm + max(ecart_i, ecart_j), with an element's
    ecart its sugar minus the degree of its leading monomial; a remainder's
    is its pair's, raised to its own degree if that is higher.  The loop
    runs on reducer records alone: generators, packed (`_packed`) and
    sorted by packed leading monomial, and S-pairs (`_s_remainder`) are
    reduced by `_divide`, and a nonzero remainder becomes a record
    (`_remainder_record`) and counts against `max_basis`.  Polynomials are
    built only for the reduced basis, which keeps its records.

    With a `bound`, the basis is truncated at that value of the order's
    first row, its weight (the degree of degrevlex; `WeightOrder`'s
    weight), as `degBound` in Singular and `DegreeLimit` in Macaulay2 do.
    Every generator must be homogeneous in the weight, else it is a
    `HypothesisError`; then every S-pair and remainder is homogeneous of
    the weight of its packed lcm, generators above the bound are dropped
    and a pair whose lcm lies above it is never reduced.  The sugar is then
    the weight itself, with every ecart 0: pairs are drawn weight by weight,
    the normal strategy of homogeneous Buchberger.  The result reduces
    every element of the ideal of weight at most `bound` to zero, so it
    decides membership up to the bound, and `normal_form` refuses a larger
    input (`_check_bound`).
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:                # the zero ideal: complete at every weight
        return GroebnerBasis((), order)
    arity, field = gens[0].arity, gens[0].field
    for g in gens:
        if g.arity != arity or g.field != field:
            raise RingMismatchError("generators live in different rings")
    packing = _packing(order, arity)
    works = sorted(((*_packed(g, packing), max(map(sum, g.terms)))
                    for g in gens), key=lambda work: max(work[0]))
    if bound is not None:
        shift = packing.shift
        if shift is None:
            raise HypothesisError(f"{order.name} has no weight row to bound")
        if any(len({m >> shift for m in work}) > 1 for work, _, _ in works):
            raise HypothesisError(
                f"a generator is not homogeneous in the first row of "
                f"{order.name}, so no basis can be bounded in it")
        works = [(work, scale, max(work) >> shift)
                 for work, scale, _ in works if max(work) >> shift <= bound]
    modulus, unpack = field.p, packing.unpack
    if bound is None:
        def weight(m: int) -> int:      # the total degree
            return sum(unpack(m))
    else:
        def weight(m: int) -> int:      # the first row's field
            return m >> shift
    reducers: list[tuple] = []
    ecarts: list[int] = []      # parallel to reducers
    P: dict[tuple[int, int], int] = {}
    queue: list = []            # (sugar, packed lcm, pair), pruned pairs too

    def insert(rem: list[tuple], sugar: int) -> None:
        if len(reducers) >= LIMITS.max_basis:
            raise ResourceLimitError(
                f"basis size exceeds guard {LIMITS.max_basis}")
        record = _remainder_record(rem, unpack, modulus)
        ecart = sugar - weight(record[2])
        for pair in _update_pairs(reducers, record, P, order):
            lcm = P[pair]
            if bound is not None and lcm >> shift > bound:
                del P[pair]     # above the bound: never reduced
                continue
            heappush(queue, (weight(lcm) + max(ecarts[pair[0]], ecart),
                             lcm, pair))
        reducers.append(record)
        ecarts.append(ecart)

    for work, scale, deg in works:
        rem = _divide(work, scale, reducers, packing, modulus)
        if rem:
            insert(rem, deg)
    while P:
        sugar, lcm, pair = heappop(queue)
        if P.pop(pair, None) is None:
            continue
        rem = _s_remainder(reducers, *pair, lcm, packing, modulus)
        if rem:
            deg = max([sum(unpack(m)) for m, _, _ in rem])
            _check_degree(deg)
            # with a bound, rem is homogeneous of its pair's weight
            insert(rem, max(sugar, deg) if bound is None else sugar)
    # minimalize: drop elements whose LT is divisible by another LT, on
    # packed leading monomials, smallest first; packed ints compare as the
    # order does, so the basis comes out sorted
    lms = [r[2] for r in reducers]
    minimal: list[int] = []
    for k in sorted(range(len(reducers)), key=lms.__getitem__):
        if all((lms[k] - lms[i]) & packing.guard for i in minimal):
            minimal.append(k)
    # interreduce each element by the others
    table = [reducers[k] for k in minimal]
    records = []
    for n, (_, lc, lm, tail) in enumerate(table):
        rem = _divide({lm: lc, **dict(tail)}, 1, table[:n] + table[n + 1:],
                      packing, modulus)
        records.append(_remainder_record(rem, unpack, modulus))
    one = field.one()
    polys = [Polynomial(arity, field, {lm: one, **{
        unpack(m): c if modulus else Fraction(c, lc) for m, c in tail}})
        for lm, lc, _, tail in records]
    basis = GroebnerBasis(tuple(polys), order, bound)
    object.__setattr__(basis, "_records", records)
    return basis


def _block_basis(first: GroebnerBasis, second: GroebnerBasis, n_first: int,
                 arity: int) -> GroebnerBasis:
    """The basis of I_first + I_second in `arity` variables, the first
    `n_first` first's and the rest second's, under BlockOrder(n_first):
    the two bases side by side, each element moved into its block.  No
    Buchberger run.  When both factors are under degrevlex, their reducer
    records are moved too (`_block_records`); a nested block ring's basis
    builds its records on first use."""
    basis = GroebnerBasis(
        tuple(g.extend_arity(arity, range(n_first)) for g in first.polys)
        + tuple(g.extend_arity(arity, range(n_first, arity))
                for g in second.polys), BlockOrder(n_first))
    if first.order == second.order == DEGREVLEX:
        object.__setattr__(basis, "_records",
                           _block_records(first, arity, 0)
                           + _block_records(second, arity, n_first))
    return basis


def _block_records(gb: GroebnerBasis, arity: int, offset: int
                   ) -> list[tuple]:
    """The reducer records of gb's elements, under degrevlex, moved to the
    variables offset, offset + 1, … of `arity`, which form one block of a
    BlockOrder: those of `Polynomial._record` on the moved elements.

    Under degrevlex a packed monomial is its block's row fields, then its
    exponent fields (`_Packing`), and a BlockOrder holds the same rows for
    each block, so every packed monomial moves by whole fields: the rows
    to the block's row fields, the exponents to the block's exponent
    fields.  That keeps the term order, the leading monomial and the
    normalized coefficients."""
    if not gb.polys:
        return []
    width = gb.polys[0].arity
    after = arity - offset - width
    rows, low = _WIDTH * width, (1 << _WIDTH * width) - 1
    row_shift, exp_shift = _WIDTH * (arity + after), _WIDTH * after
    before, behind = (0,) * offset, (0,) * after

    def move(m: int) -> int:
        return (m >> rows) << row_shift | (m & low) << exp_shift

    return [(before + lm + behind, lc, move(plm),
             tuple([(move(m), c) for m, c in tail]))
            for lm, lc, plm, tail in gb._reducers()]


def ideal_membership(p: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(p, gb).is_zero


def elimination_ideal(gens: Iterable[Polynomial], eliminate: Sequence[int]
                      ) -> list[Polynomial]:
    """Generators of I ∩ F[kept vars], as polynomials of the smaller ring.

    Internally permutes the ring so the eliminated block comes first and runs
    Buchberger under the block order.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    arity = gens[0].arity
    elim = sorted(set(eliminate))
    keep = [i for i in range(arity) if i not in set(elim)]
    perm = elim + keep                      # new position j holds old var perm[j]
    old_to_new = {old: new for new, old in enumerate(perm)}
    moved = [g.extend_arity(arity, [old_to_new[i] for i in range(arity)])
             for g in gens]
    gb = groebner(moved, BlockOrder(len(elim)))
    # an element lies in the smaller ring when its only part is free of the
    # eliminated block
    free = (0,) * len(elim)
    split = (g.split(len(elim)) for g in gb)
    return [parts[free] for parts in split if list(parts) == [free]]


def standard_monomials(gb: GroebnerBasis, arity: int, maxdeg: int
                       ) -> list[Monomial]:
    """Monomials of degree <= maxdeg outside the leading-term ideal, by
    degree then degrevlex.

    Walks the staircase: every divisor of a standard monomial is standard,
    so each degree is built from x_i·m for the standard monomials m one
    degree lower.
    """
    lts = gb.leading_monomials
    out = []
    level = [(0,) * arity]
    for _ in range(maxdeg + 1):
        level = sorted((m for m in level
                        if not any(monomial_divides(lt, m) for lt in lts)),
                       key=_drl_key, reverse=True)
        if not level:
            break
        out += level
        if len(out) > LIMITS.max_terms:
            raise ResourceLimitError("standard monomial count exceeds guard")
        level = {m[:i] + (m[i] + 1,) + m[i + 1:]
                 for m in level for i in range(arity)}
    return out
