"""Finitely presented commutative unital algebras and their morphisms.

An algebra A = F[x1..xn]/I is carried by its presentation; elements are
normal forms against the lazily computed reduced Gröbner basis of I.
Morphisms are unital, determined by per-generator images, and validated by
ideal membership at construction.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Iterable, Sequence

from .errors import (MorphismError, ParseError, ResourceLimitError,
                     RingMismatchError, UnsupportedFieldError)
from .polyring import (DEGREVLEX, BlockOrder, FieldDescriptor, GroebnerBasis,
                       Monomial, Polynomial, _block_basis, _normal_form_at,
                       _pack_images, _packing, groebner, ideal_membership,
                       is_name, normal_form, poly_parse, standard_monomials)
from .solve import SOLVE_GUARD, solve_system


class AlgebraPresentation:
    """A = F[vars]/(relations); the zero algebra (1 in I) is allowed, flagged."""

    def __init__(self, field: FieldDescriptor, variables: Sequence[str],
                 relations: Sequence[Polynomial] = ()):
        names = list(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.vars: tuple[str, ...] = tuple(names)
        rels = []
        for r in relations:
            if isinstance(r, str):
                r = poly_parse(r, names, field)
            if r.arity != len(names) or r.field != field:
                raise RingMismatchError("relation lives in another ring")
            if not r.is_zero:
                rels.append(r)
        self.relations: tuple[Polynomial, ...] = tuple(rels)
        self._gb: GroebnerBasis | None = None

    # -- presentation-level structure -----------------------------------------

    @property
    def arity(self) -> int:
        return len(self.vars)

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner(self.relations, DEGREVLEX)
        return self._gb

    def is_zero_algebra(self) -> bool:
        return self.gb().contains_one()

    def parse(self, text: str) -> Polynomial:
        return poly_parse(text, self.vars, self.field)

    def nf(self, p: Polynomial | str) -> Polynomial:
        if isinstance(p, str):
            p = self.parse(p)
        return normal_form(p, self.gb())

    def element(self, p: Polynomial | str) -> "ElementRep":
        return ElementRep(self, self.nf(p))

    def elements(self, monomials: Sequence[Monomial],
                 rows: Iterable[Sequence]) -> list["ElementRep"]:
        """The elements whose coefficient vectors over `monomials` are
        `rows`."""
        return [self.element(Polynomial.combination(self.arity, self.field,
                                                    monomials, row))
                for row in rows]

    def zero_element(self) -> "ElementRep":
        return ElementRep(self, Polynomial.zero(self.arity, self.field))

    def one_element(self) -> "ElementRep":
        return self.element(Polynomial.one(self.arity, self.field))

    def standard_monomials(self, maxdeg: int) -> list[Monomial]:
        return standard_monomials(self.gb(), self.arity, maxdeg)

    def finite_basis(self) -> list[Monomial] | None:
        """All standard monomials when A is finite-dimensional, else None.

        A is finite-dimensional exactly when 1 ∈ I or every variable x_i has
        a pure power x_i^e_i among the leading monomials; then no standard
        monomial has degree above the sum of the e_i − 1.
        """
        pure = {i: e for lt in self.gb().leading_monomials
                for i, e in enumerate(lt) if e and e == sum(lt)}
        if len(pure) < self.arity and not self.is_zero_algebra():
            return None
        return self.standard_monomials(sum(e - 1 for e in pure.values()))

    def dimension(self) -> int | None:
        """The vector-space dimension; None when A is infinite-dimensional."""
        basis = self.finite_basis()
        return None if basis is None else len(basis)

    def contains_ideal(self, p: Polynomial) -> bool:
        return ideal_membership(p, self.gb())

    # -- identity & serialization ----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.field == other.field and self.vars == other.vars
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.field, self.vars, self.relations))

    def __repr__(self):
        rels = ", ".join(r.to_string(self.vars) for r in self.relations)
        return f"<{self.field}[{', '.join(self.vars)}]/({rels})>"

    def to_json(self) -> dict:
        return {"field": "Q" if self.field.is_rational else {"p": self.field.p},
                "vars": list(self.vars),
                "relations": [r.to_string(self.vars) for r in self.relations]}

    @staticmethod
    def from_json(doc: dict) -> "AlgebraPresentation":
        try:
            fdoc = doc["field"]
            if fdoc == "Q":
                field = FieldDescriptor()
            else:
                p = fdoc["p"]
                if not isinstance(p, int) or isinstance(p, bool):
                    raise ParseError(f"bad algebra document: the prime "
                                     f"must be an integer, got {p!r}")
                field = FieldDescriptor(p)
            variables, relations = doc["vars"], doc.get("relations", [])
            if not (_is_string_list(variables) and _is_string_list(relations)):
                raise ParseError("bad algebra document: vars and relations "
                                 "must be lists of strings")
            for name in variables:
                if not is_name(name):
                    raise ParseError(f"bad algebra document: variable name "
                                     f"{name!r} is not an identifier")
            return AlgebraPresentation(field, variables, relations)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad algebra document: {exc}") from exc


def field_algebra(field: FieldDescriptor) -> AlgebraPresentation:
    """The ground field as the empty presentation."""
    return AlgebraPresentation(field, ())


class ElementRep:
    """An element of a presented algebra, stored as its own normal form."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: AlgebraPresentation, poly: Polynomial):
        self.algebra = algebra
        self.poly = poly

    def _same(self, other: "ElementRep"):
        if self.algebra != other.algebra:
            raise RingMismatchError("elements of different algebras")

    def __add__(self, other):
        self._same(other)
        return ElementRep(self.algebra, self.algebra.nf(self.poly + other.poly))

    def __sub__(self, other):
        self._same(other)
        return ElementRep(self.algebra, self.algebra.nf(self.poly - other.poly))

    def __mul__(self, other):
        self._same(other)
        return ElementRep(self.algebra, self.algebra.nf(self.poly * other.poly))

    def __pow__(self, n: int):
        return ElementRep(self.algebra, self.algebra.nf(self.poly ** n))

    def scale(self, c):
        return ElementRep(self.algebra, self.poly.scale(c))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __eq__(self, other):
        return (isinstance(other, ElementRep) and self.algebra == other.algebra
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.algebra, self.poly))

    def __repr__(self):
        return f"<{self.poly.to_string(self.algebra.vars)}>"

    def to_string(self) -> str:
        return self.poly.to_string(self.algebra.vars)


class AlgebraMorphism:
    """A unital morphism source -> target given by generator images.

    Validated at construction: every source relation must map into the target
    ideal.  Images are stored as normal forms, and packed for the layout of
    the target's basis order (`polyring._pack_images`) on first apply, once
    per morphism.
    """

    def __init__(self, source: AlgebraPresentation, target: AlgebraPresentation,
                 images: Sequence[Polynomial | str], check: bool = True):
        if source.field != target.field:
            raise RingMismatchError("source and target fields differ")
        if len(images) != source.arity:
            raise MorphismError(
                f"expected {source.arity} images, got {len(images)}")
        self.source = source
        self.target = target
        imgs = []
        for im in images:
            if isinstance(im, str):
                im = target.parse(im)
            if im.arity != target.arity or im.field != target.field:
                raise RingMismatchError("image lives outside the target ring")
            imgs.append(target.nf(im))
        self.images: tuple[Polynomial, ...] = tuple(imgs)
        self._packed_images: list[tuple] | None = None
        if check:
            self._validate()

    def _validate(self) -> None:
        for r in self.source.relations:
            img = self.apply_poly(r)
            if not img.is_zero:
                raise MorphismError(
                    "relation violated: "
                    f"{r.to_string(self.source.vars)} maps to "
                    f"{img.to_string(self.target.vars)}")

    # -- action -----------------------------------------------------------------

    def apply_poly(self, p: Polynomial) -> Polynomial:
        """The normal form of p at the images, by one pass of the
        substitution kernel into the reduction loop
        (`polyring._normal_form_at`)."""
        if p.arity != self.source.arity or p.field != self.source.field:
            raise RingMismatchError("argument lives outside the source ring")
        gb, arity = self.target.gb(), self.target.arity
        if self._packed_images is None:
            self._packed_images = _pack_images(self.images,
                                               _packing(gb.order, arity))
        return _normal_form_at(p, self._packed_images, gb, arity)

    def apply(self, a: ElementRep) -> ElementRep:
        return ElementRep(self.target, self.apply_poly(a.poly))

    # -- structure ----------------------------------------------------------------

    @staticmethod
    def identity(a: AlgebraPresentation) -> "AlgebraMorphism":
        return AlgebraMorphism(a, a, [Polynomial.variable(i, a.arity, a.field)
                                      for i in range(a.arity)], check=False)

    def compose(self, first: "AlgebraMorphism") -> "AlgebraMorphism":
        """self ∘ first (apply `first`, then self)."""
        if first.target != self.source:
            raise RingMismatchError("composition mismatch")
        return AlgebraMorphism(first.source, self.target,
                               [self.apply_poly(im) for im in first.images],
                               check=False)

    def __eq__(self, other):
        return (isinstance(other, AlgebraMorphism) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        imgs = ", ".join(f"{v}->{im.to_string(self.target.vars)}"
                         for v, im in zip(self.source.vars, self.images))
        return f"<morphism {imgs or '1->1'}>"

    def to_json(self) -> dict:
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "images": [im.to_string(self.target.vars) for im in self.images]}

    @staticmethod
    def from_json(doc: dict, base_dir: str = ".") -> "AlgebraMorphism":
        if not isinstance(doc, dict):
            raise ParseError("bad morphism document: expected an object")
        for key in ("source", "target"):
            if not isinstance(doc.get(key), (str, dict)):
                raise ParseError(f"bad morphism document: {key!r} must be a "
                                 "file name or an algebra document")
        if not _is_string_list(doc.get("images")):
            raise ParseError("bad morphism document: 'images' must be a list "
                             "of strings")
        src = _resolve_algebra(doc["source"], base_dir)
        tgt = _resolve_algebra(doc["target"], base_dir)
        return AlgebraMorphism(src, tgt, doc["images"])


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _resolve_algebra(ref, base_dir: str) -> AlgebraPresentation:
    if isinstance(ref, str):
        return load_algebra(os.path.join(base_dir, ref)
                            if not os.path.isabs(ref) else ref)
    return AlgebraPresentation.from_json(ref)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"unreadable JSON document {path}: {exc}") from exc


def load_algebra(path: str) -> AlgebraPresentation:
    return AlgebraPresentation.from_json(_read_json(path))


def load_morphism(path: str) -> AlgebraMorphism:
    return AlgebraMorphism.from_json(_read_json(path),
                                     os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# constructions


def _fresh_name(base: str, used: Iterable[str]) -> str:
    used = set(used)
    if base not in used:
        return base
    k = 0
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


class _BlockPresentation(AlgebraPresentation):
    """F[first's variables, then second's]/(I_first + I_second) on `names`.

    The basis is the factors' reduced bases lifted side by side under
    BlockOrder(first.arity), or {1} when a factor is zero: no Buchberger
    run, and its reducer records are the factors' records moved into the
    block layout by whole fields (`polyring._block_basis`).  It is reduced,
    since each basis element of the package lies in one variable block on
    which its order is degrevlex, and the blocks of the two factors are
    disjoint.
    """

    def __init__(self, names: Sequence[str], first: AlgebraPresentation,
                 second: AlgebraPresentation):
        if first.field != second.field:
            raise RingMismatchError("tensor factors over different fields")
        super().__init__(first.field, names)
        self.factor_a = first
        self.factor_b = second
        self.relations = (tuple(map(self.embed_a, first.relations))
                          + tuple(map(self.embed_b, second.relations)))

    def embed_a(self, p: Polynomial) -> Polynomial:
        return p.extend_arity(self.arity, range(self.factor_a.arity))

    def embed_b(self, p: Polynomial) -> Polynomial:
        return p.extend_arity(self.arity, range(self.factor_a.arity,
                                                self.arity))

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            a, b = self.factor_a, self.factor_b
            self._gb = (GroebnerBasis((Polynomial.one(self.arity, self.field),),
                                      BlockOrder(a.arity))
                        if a.is_zero_algebra() or b.is_zero_algebra() else
                        _block_basis(a.gb(), b.gb(), a.arity, self.arity))
        return self._gb


class TensorPresentation(_BlockPresentation):
    """A ⊗ B presented on the disjoint (suffix-renamed) variable union.

    Remembers the factor split so normal forms can be read as sums
    v ⊗ c_v over monomials of the first factor.
    """

    def __init__(self, a: AlgebraPresentation, b: AlgebraPresentation):
        super().__init__([v + "_1" for v in a.vars]
                         + [v + "_2" for v in b.vars], a, b)


def tensor_product(a: AlgebraPresentation, b: AlgebraPresentation
                   ) -> TensorPresentation:
    """A ⊗_F B; for finite-dimensional inputs the dimension multiplies."""
    return TensorPresentation(a, b)


def tensor_morphism(f: AlgebraMorphism, g: AlgebraMorphism
                    ) -> AlgebraMorphism:
    """f ⊗ g: f.source ⊗ g.source -> f.target ⊗ g.target, checked."""
    target = tensor_product(f.target, g.target)
    return AlgebraMorphism(tensor_product(f.source, g.source), target,
                           [*map(target.embed_a, f.images),
                            *map(target.embed_b, g.images)])


def direct_sum(a: AlgebraPresentation, b: AlgebraPresentation
               ) -> tuple[AlgebraPresentation, AlgebraMorphism, AlgebraMorphism]:
    """A ⊕ B as a unital presentation with a splitting idempotent.

    Adds a variable e with e^2 = e; A sits on the e side (u = u·e), B on the
    1-e side, and each relation has its constant term c·1 rewritten to c·e
    (resp. c·(1-e)).  Returns (presentation, p1, p2) with the projections as
    variable substitutions.
    """
    if a.field != b.field:
        raise RingMismatchError("direct sum over different fields")
    field = a.field
    names = [v + "_1" for v in a.vars] + [v + "_2" for v in b.vars]
    e_name = _fresh_name("e", names)
    names = names + [e_name]
    n, m = a.arity, b.arity
    total = n + m + 1
    e_idx = total - 1
    e = Polynomial.variable(e_idx, total, field)
    one = Polynomial.one(total, field)
    rels = [e * e - e]
    for i in range(n):
        u = Polynomial.variable(i, total, field)
        rels.append(u * e - u)
    for j in range(m):
        v = Polynomial.variable(n + j, total, field)
        rels.append(v * (one - e) - v)
    for r in a.relations:
        lifted = r.extend_arity(total, list(range(n)))
        c = lifted.constant_term()
        rels.append(lifted - Polynomial.constant(c, total, field)
                    + e.scale(c))
    for r in b.relations:
        lifted = r.extend_arity(total, list(range(n, n + m)))
        c = lifted.constant_term()
        rels.append(lifted - Polynomial.constant(c, total, field)
                    + (one - e).scale(c))
    ds = AlgebraPresentation(field, names, rels)
    zero_a = Polynomial.zero(a.arity, field)
    zero_b = Polynomial.zero(b.arity, field)
    p1 = AlgebraMorphism(ds, a, [Polynomial.variable(i, a.arity, field)
                                 for i in range(n)]
                         + [zero_a] * m + [Polynomial.one(a.arity, field)])
    p2 = AlgebraMorphism(ds, b, [zero_b] * n
                         + [Polynomial.variable(j, b.arity, field)
                            for j in range(m)]
                         + [Polynomial.zero(b.arity, field)])
    return ds, p1, p2


class PolynomialExtension:
    """A[x]: the source algebra with one fresh (last) homotopy variable."""

    def __init__(self, a: AlgebraPresentation, var_name: str = "x"):
        field = a.field
        x_name = _fresh_name(var_name, a.vars)
        total = a.arity + 1
        self.base = a
        self.algebra = _BlockPresentation(
            list(a.vars) + [x_name], a, AlgebraPresentation(field, [x_name]))
        self.x_index = total - 1
        self.x_name = x_name
        base_vars = [Polynomial.variable(i, total, field) for i in range(a.arity)]
        self.embed = AlgebraMorphism(a, self.algebra, base_vars, check=False)
        proj = [Polynomial.variable(i, a.arity, field) for i in range(a.arity)]
        self.p0 = AlgebraMorphism(self.algebra, a,
                                  proj + [Polynomial.zero(a.arity, field)],
                                  check=False)
        self.p1 = AlgebraMorphism(self.algebra, a,
                                  proj + [Polynomial.one(a.arity, field)],
                                  check=False)
        ext_vars = base_vars + [Polynomial.one(total, field) - self.x_poly()]
        self.flip = AlgebraMorphism(self.algebra, self.algebra, ext_vars,
                                    check=False)

    def x_poly(self) -> Polynomial:
        return Polynomial.variable(self.x_index, self.algebra.arity,
                                   self.algebra.field)


def polynomial_extension(a: AlgebraPresentation, var_name: str = "x"
                         ) -> PolynomialExtension:
    return PolynomialExtension(a, var_name)


# ---------------------------------------------------------------------------
# enumeration over prime fields


def enumerate_points(a: AlgebraPresentation) -> list[AlgebraMorphism]:
    """All unital morphisms A -> F_p, the F_p-solutions of A's relations, in
    lex order."""
    if a.field.is_rational:
        raise UnsupportedFieldError("points over Q are not enumerable")
    fld = field_algebra(a.field)
    return [AlgebraMorphism(a, fld, [Polynomial.constant(v, 0, a.field)
                                     for v in assignment], check=False)
            for assignment in solve_system(a.relations, a.arity,
                                           a.field).solutions]


def enumerate_hom(a: AlgebraPresentation, b: AlgebraPresentation,
                  imagedeg: int) -> list[AlgebraMorphism]:
    """All morphisms A -> B with images supported on standard monomials of
    degree <= imagedeg, by exhaustive coefficient search (prime fields)."""
    if a.field != b.field:
        raise RingMismatchError("enumerate_hom needs a common field")
    if a.field.is_rational:
        raise UnsupportedFieldError("hom enumeration needs a prime field")
    p = a.field.p
    basis = b.standard_monomials(imagedeg)
    n_coef = len(basis) * a.arity
    if p ** n_coef > SOLVE_GUARD:
        raise ResourceLimitError(
            f"hom search space {p}^{n_coef} exceeds guard {SOLVE_GUARD}")
    homs = []
    for coeffs in itertools.product(range(p), repeat=n_coef):
        hom = AlgebraMorphism(a, b, [
            Polynomial.combination(b.arity, b.field, basis,
                                   coeffs[i * len(basis):(i + 1) * len(basis)])
            for i in range(a.arity)], check=False)
        if all(hom.apply_poly(r).is_zero for r in a.relations):
            homs.append(hom)
    return homs
