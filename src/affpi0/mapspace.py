"""Truncated presentations of the morphism-space pro-algebra of two algebras.

For presented A and B and a truncation (one finite set of standard monomials
v of B, shared by every generator of A), the level algebra is generated by
coordinates z[a,v] subject to the relations obtained by substituting each
generator a of A by sum_v v*z[a,v] into the relations of A, reducing modulo
the ideal of B, and collecting the coefficient of every standard monomial of
B.

Over a free B (no relations) every relation of a level is homogeneous in
the weight |v| of z[a,v] (`weight_order`), so an element of weight w lies in
the level ideal exactly when a basis truncated at weight w reduces it to
zero (`bounded_basis`).

The universal map υ: A -> B ⊗ (level) is a morphism (`universal`), and the
maps of M are written as in the paper, from υ, `tensor_morphism` (f ⊗ g),
`compose` and `identity`: the associated morphism of φ is the ψ with
(id_B ⊗ ψ) ∘ υ = φ, the comultiplication is the one associated with
(υ_BC ⊗ id) ∘ υ_AB, and coassociativity compares (id ⊗ Φ) ∘ Φ with
(Φ ⊗ id) ∘ Φ.  Structural maps of the truncation tower, the functorial action,
and the exponential / tensor / direct-sum law witnesses live here too.

The inverse limit is never materialized: every statement is per level.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import itemgetter
from typing import Sequence

from .algebra import (AlgebraMorphism, AlgebraPresentation, ElementRep,
                      TensorPresentation, direct_sum, enumerate_hom,
                      enumerate_points, field_algebra, tensor_morphism,
                      tensor_product)
from .errors import (HypothesisError, MorphismError, PropertyViolationError,
                     RingMismatchError, TruncationError)
from .polyring import (GroebnerBasis, Monomial, Polynomial, WeightOrder,
                       _normal_form_at, _pack_images, _packing, _split_at,
                       groebner, monomial_divides)


def z_name(generator: str, monomial: Monomial) -> str:
    """Deterministic, parseable coordinate name z__<gen>__<exponents>."""
    tail = "_".join(str(e) for e in monomial) if monomial else "c"
    return f"z__{generator}__{tail}"


class MapSpacePresentation:
    """One truncation level of the morphism-space pro-algebra of (A, B).

    The level is built in packed form, with no ring built only to reach
    it: A's relations at the universal family are reduced by B's basis and
    split on B's exponents in one block substitution (`polyring._split_at`).
    `universal_ring` (B ⊗ level) is built only when read."""

    def __init__(self, a: AlgebraPresentation, b: AlgebraPresentation,
                 monomials: Sequence[Monomial]):
        if a.field != b.field:
            raise RingMismatchError("map space needs a common ground field")
        self.a = a
        self.b = b
        self.monomials = tuple(monomials)
        self.field = a.field
        lts = b.gb().leading_monomials
        for v in self.monomials:
            if any(monomial_divides(lt, v) for lt in lts):
                raise TruncationError(
                    f"the truncation contains the non-standard monomial {v}")
        # z coordinates: generator-major, monomials in given (standard) order
        self.zvars = [(gi, v) for gi in range(a.arity) for v in self.monomials]
        self.z_names = tuple(z_name(a.vars[gi], v) for gi, v in self.zvars)
        self.z_index = {pair: k for k, pair in enumerate(self.zvars)}
        self.n_b = b.arity
        self.n_z = len(self.zvars)
        # B ⊗ F[z]'s layout: B's variables first, then the z's
        arity = self.n_b + self.n_z
        # the universal substitution: generator -> sum_v v * z[a,v]
        images: list[dict] = [{} for _ in a.vars]
        for k, (gi, v) in enumerate(self.zvars):
            unknown = (0,) * k + (1,) + (0,) * (self.n_z - k - 1)
            images[gi][v + unknown] = self.field.one()
        self.upsilon_images = [Polynomial(arity, self.field, terms)
                               for terms in images]
        # relation ideal: coefficients of standard B-monomials in each
        # relation at the family; sorted by key, so equal ones are neighbours
        found = sorted(((coeff.key(), coeff) for by_v in _split_at(
            a.relations, self.upsilon_images, b.gb(), self.n_b, arity)
            for coeff in by_v.values()), key=itemgetter(0))
        j_gens = [coeff for k, (key, coeff) in enumerate(found)
                  if key and (k == 0 or key != found[k - 1][0])]
        self.algebra = AlgebraPresentation(self.field, self.z_names, j_gens)
        self._bounded: dict[int, GroebnerBasis] = {}
        self._families: dict[tuple, list[tuple]] = {}

    # -- the weight grading over a free target ----------------------------------

    @cached_property
    def weight_order(self) -> WeightOrder:
        """WeightOrder of the weight |v| of each coordinate z[a,v].  Over a
        free B the coefficient of the B-monomial w in r(sum_v v·z[a,v]) has
        weight |w|, so every relation of the level is homogeneous; over a B
        with relations, products of B-monomials reduce and mix weights, so
        that is a HypothesisError."""
        if self.b.relations:
            raise HypothesisError("the level is weight-graded only over a "
                                  "free target algebra")
        return WeightOrder([sum(v) for _, v in self.zvars])

    def bounded_basis(self, bound: int) -> GroebnerBasis:
        """The level ideal's basis under `weight_order`, truncated at weight
        `bound` (`polyring.groebner`): it decides membership of every
        element of weight <= bound, and its normal forms refuse a heavier
        one.  Built once per bound."""
        gb = self._bounded.get(bound)
        if gb is None:
            gb = self._bounded[bound] = groebner(
                self.algebra.relations, self.weight_order, bound)
        return gb

    def families_at(self, q: Polynomial, points: Sequence[tuple], bound: int
                    ) -> Polynomial:
        """q, a polynomial in one block of A's generators per point of a
        free B in `points`, at the universal family evaluated at those
        points, in the level.  The generator a of block i goes to
        sum_v points[i]^v·z[a,v], of weight at most T, so q's image has
        weight at most deg(q)·T; it is reduced by `bounded_basis(bound)` in
        one pass of the substitution kernel into the reduction loop
        (`polyring._normal_form_at`), and a bound below its weight is a
        TruncationError."""
        if q.arity != self.a.arity * len(points) or q.field != self.field:
            raise RingMismatchError("polynomial outside the blocks of the "
                                    "source algebra's generators")
        gb = self.bounded_basis(bound)
        images = [im for point in points for im in self._family_at(point)]
        return _normal_form_at(q, images, gb, self.n_z)

    def _family_at(self, point: tuple) -> list[tuple]:
        """υ's images at `point`, a ↦ sum_v point^v·z[a,v], packed for
        `weight_order` (`polyring._pack_images`); built once per point."""
        packed = self._families.get(point)
        if packed is None:
            field, n_z, width = self.field, self.n_z, len(self.monomials)
            units = [(0,) * k + (1,) + (0,) * (n_z - k - 1) for k in range(n_z)]
            coeffs = [field.scalar(prod(map(pow, point, v)))
                      for v in self.monomials]
            packed = self._families[point] = _pack_images(
                [Polynomial.combination(n_z, field,
                                        units[gi * width:(gi + 1) * width],
                                        coeffs)
                 for gi in range(self.a.arity)],
                _packing(self.weight_order, n_z))
        return packed

    # -- the universal map -------------------------------------------------------

    @cached_property
    def universal_ring(self) -> TensorPresentation:
        """B ⊗ (this level), where the universal map lands; built at the
        first read of `universal`."""
        return tensor_product(self.b, self.algebra)

    @cached_property
    def universal(self) -> AlgebraMorphism:
        """The universal map υ: A -> B ⊗ (this level), a ↦ sum_v v ⊗ z[a,v].

        A's relations go to zero: the level's ideal is made of their
        coefficients."""
        return AlgebraMorphism(self.a, self.universal_ring,
                               self.upsilon_images, check=False)

    def upsilon_poly(self, p: Polynomial) -> dict[Monomial, Polynomial]:
        """Image of an element of A in B ⊗ (this level), as {v: z-coefficient}.

        Coefficients come back J-reduced; the expansion is unique because the
        standard monomials of B and of the level algebra are bases.
        """
        if p.arity != self.a.arity or p.field != self.field:
            raise RingMismatchError("element lives outside the source algebra")
        return self.universal.apply_poly(p).split(self.n_b)

    def upsilon(self, a: ElementRep) -> dict[Monomial, Polynomial]:
        if a.algebra != self.a:
            raise RingMismatchError("element of a different algebra")
        return self.upsilon_poly(a.poly)

    def __repr__(self):
        return (f"<map space {len(self.z_names)} coordinates, "
                f"{len(self.algebra.relations)} relations>")


def mapspace_presentation(a: AlgebraPresentation, b: AlgebraPresentation,
                          trunc: int | Sequence[Monomial]
                          ) -> MapSpacePresentation:
    """The level cut by `trunc`: B's standard monomials up to that degree, or
    the given monomials."""
    if isinstance(trunc, int):
        trunc = b.standard_monomials(trunc)
    return MapSpacePresentation(a, b, trunc)


def require_tower(tower: int) -> None:
    """Level 0 of a tower holds only the constant families (B's degree-0
    monomials), so nothing varies along it: a route over levels 1..tower
    needs tower >= 1, else it is a HypothesisError."""
    if tower < 1:
        raise HypothesisError(f"the map-space tower needs tower >= 1 (level 0 "
                              f"is degenerate), got {tower}")


def structural_morphism(small: MapSpacePresentation, big: MapSpacePresentation
                        ) -> AlgebraMorphism:
    """Level map big -> small of the tower, the functor action of
    (id_A, id_B): z[a,v] -> z[a,v] or 0.

    Well-definedness (each relation of the big level lands in the small level's
    ideal) is checked; a failure is an implementation bug, not an input error.
    """
    if small.a != big.a or small.b != big.b:
        raise RingMismatchError("tower levels of different map spaces")
    if not set(small.monomials) <= set(big.monomials):
        raise TruncationError("structural morphism needs nested truncations")
    try:
        return functor_action(AlgebraMorphism.identity(small.a),
                              AlgebraMorphism.identity(small.b), big, small)
    except MorphismError as exc:  # pragma: no cover - theory guarantees this
        raise PropertyViolationError(
            f"structural morphism not well defined: {exc}") from exc


def associated_morphism(m: MapSpacePresentation, phi: AlgebraMorphism
                        ) -> AlgebraMorphism:
    """The morphism from the level algebra associated with phi: A -> B ⊗ C.

    `phi` must land in a TensorPresentation whose first factor is B.  The
    coordinate z[a,v] is forced to the coefficient of v in phi(a); uniqueness
    holds by construction, and the factorization through the universal map is
    verified before returning.
    """
    target = phi.target
    if not isinstance(target, TensorPresentation):
        raise RingMismatchError("phi must land in a tensor presentation")
    if phi.source != m.a or target.factor_a != m.b:
        raise RingMismatchError("phi does not match this map space")
    psi = _level_morphism(m, target.factor_b,
                          [im.split(m.b.arity) for im in phi.images])
    _verify_factorization(m, phi, psi)
    return psi


def _level_morphism(m: MapSpacePresentation, target: AlgebraPresentation,
                    coeffs: Sequence[dict[Monomial, Polynomial]]
                    ) -> AlgebraMorphism:
    """The checked morphism from level m sending z[a,v] to coeffs[a][v].

    A coefficient on a monomial outside the truncation must reduce to
    zero in the target, else it is a TruncationError; the others are reduced
    by AlgebraMorphism, and coordinates without a coefficient go to zero.
    """
    images = [Polynomial.zero(target.arity, m.field)] * m.n_z
    for gi, by_monomial in enumerate(coeffs):
        for v, coeff in by_monomial.items():
            k = m.z_index.get((gi, v))
            if k is not None:
                images[k] = coeff
            elif not target.nf(coeff).is_zero:
                raise TruncationError(
                    f"the image of {m.a.vars[gi]} needs monomial {v} outside "
                    "the truncation")
    return AlgebraMorphism(m.algebra, target, images, check=True)


def _verify_factorization(m: MapSpacePresentation, phi: AlgebraMorphism,
                          psi: AlgebraMorphism) -> None:
    """Check phi = (id_B ⊗ psi) ∘ upsilon."""
    got = tensor_morphism(AlgebraMorphism.identity(m.b), psi).compose(
        m.universal)
    if got != phi:
        raise PropertyViolationError("universal factorization failed",
                                     witness=(phi.images, got.images))


def point_from_morphism(m: MapSpacePresentation, phi: AlgebraMorphism
                        ) -> AlgebraMorphism:
    """The point of the level algebra associated with a morphism A -> B."""
    if phi.source != m.a or phi.target != m.b:
        raise RingMismatchError("morphism does not match this map space")
    return _level_morphism(m, field_algebra(m.field), [
        {v: Polynomial.constant(c, 0, m.field) for v, c in im.terms.items()}
        for im in phi.images])


def morphism_from_point(m: MapSpacePresentation, point: AlgebraMorphism
                        ) -> AlgebraMorphism:
    """The morphism A -> B recovered from a point of the level algebra."""
    if point.source != m.algebra:
        raise RingMismatchError("point of a different level algebra")
    images = [Polynomial.combination(
        m.b.arity, m.field, m.monomials,
        [point.images[m.z_index[(gi, v)]].constant_term() for v in m.monomials])
        for gi in range(m.a.arity)]
    return AlgebraMorphism(m.a, m.b, images, check=True)


def points_crosscheck(a: AlgebraPresentation, b: AlgebraPresentation,
                      degree: int) -> dict:
    """Bijection between Hom(A,B) bounded at `degree` and points of the level.

    Every enumerated morphism must map to a distinct point and back to itself;
    a count mismatch raises PropertyViolationError.
    """
    m = mapspace_presentation(a, b, degree)
    homs = enumerate_hom(a, b, degree)
    points = enumerate_points(m.algebra)
    matching = []
    seen = set()
    for phi in homs:
        pt = point_from_morphism(m, phi)
        back = morphism_from_point(m, pt)
        if back != phi:
            raise PropertyViolationError("point does not recover its morphism",
                                         witness=phi)
        key = tuple(im.constant_term() for im in pt.images)
        seen.add(key)
        matching.append({"morphism": [im.to_string(b.vars) for im in phi.images],
                         "point": [str(c) for c in key]})
    point_keys = {tuple(im.constant_term() for im in pt.images) for pt in points}
    if seen != point_keys or len(homs) != len(points):
        raise PropertyViolationError(
            f"hom/point mismatch: {len(homs)} morphisms vs {len(points)} points",
            witness=(sorted(seen), sorted(point_keys)))
    return {"hom_count": len(homs), "point_count": len(points),
            "degree": degree, "matching": matching}


def functor_action(f: AlgebraMorphism, g: AlgebraMorphism,
                   m_source: MapSpacePresentation,
                   m_target: MapSpacePresentation) -> AlgebraMorphism:
    """Level component of the bifunctor: M(A,B) -> M(A',B') for f: A -> A',
    g: B' -> B (covariant in the source, contravariant in the target).

    z[a,v] goes to B's coefficient of v in f(a) at the target level's
    family pushed through g, a' ↦ sum_w g(w)·z'[a',w] (`_monomial_image`),
    in one block substitution (`polyring._split_at`).  For f = id
    (`_is_identity`) that is the family itself, already reduced since g's
    images are normal forms and the z''s are free, so it is split as it
    is.  `_level_morphism` normalizes and checks the images."""
    if f.source != m_source.a or f.target != m_target.a:
        raise RingMismatchError("f does not connect the source algebras")
    if g.source != m_target.b or g.target != m_source.b:
        raise RingMismatchError("g must map the new target algebra into the old")
    n_b, n_z = m_source.n_b, m_target.n_z
    g_of = {w: _monomial_image(g, w) for w in m_target.monomials}
    terms: list[dict] = [{} for _ in m_target.a.vars]
    for k, (gi, w) in enumerate(m_target.zvars):
        unit = (0,) * k + (1,) + (0,) * (n_z - k - 1)
        for v, c in g_of[w].terms.items():
            terms[gi][v + unit] = c
    family = [Polynomial(n_b + n_z, m_source.field, t) for t in terms]
    coeffs = ([p.split(n_b) for p in family] if _is_identity(f) else
              _split_at(f.images, family, m_source.b.gb(), n_b, n_b + n_z))
    return _level_morphism(m_source, m_target.algebra, coeffs)


def _is_identity(f: AlgebraMorphism) -> bool:
    """f is an endomorphism sending each generator to itself."""
    a = f.source
    one = a.field.one()
    return f.target == a and all(
        im.terms == {tuple(int(j == i) for j in range(a.arity)): one}
        for i, im in enumerate(f.images))


def _monomial_image(g: AlgebraMorphism, w: Monomial) -> Polynomial:
    """g(w) as a normal form: 1's for w = 1 and g's stored image for a
    generator, with no substitution; one pass of `apply_poly` else."""
    degree = sum(w)
    if degree == 0:
        return g.target.nf(Polynomial.one(g.target.arity, g.target.field))
    if degree == 1:
        return g.images[w.index(1)]
    return g.apply_poly(Polynomial.monomial(w, g.source.field))


def comultiplication(m_ac: MapSpacePresentation, m_bc: MapSpacePresentation,
                     m_ab: MapSpacePresentation
                     ) -> tuple[AlgebraMorphism, TensorPresentation]:
    """The composition comultiplication M(A,C) -> M(B,C) ⊗ M(A,B).

    Defined as the morphism associated with (upsilon_BC ⊗ id) ∘ upsilon_AB,
    which sends a through B's universal family and then through C's.
    """
    if m_ab.a != m_ac.a or m_bc.a != m_ab.b or m_bc.b != m_ac.b:
        raise RingMismatchError("comultiplication inputs do not chain")
    t = tensor_product(m_bc.algebra, m_ab.algebra)
    through = tensor_morphism(m_bc.universal, AlgebraMorphism.identity(
        m_ab.algebra)).compose(m_ab.universal)
    # (C ⊗ M(B,C)) ⊗ M(A,B) and C ⊗ t list the same variables, and their
    # bases are the same lifted factor bases, so normal forms agree
    phi = AlgebraMorphism(m_ac.a, tensor_product(m_ac.b, t), through.images,
                          check=False)
    return associated_morphism(m_ac, phi), t


def coassociativity_check(a: AlgebraPresentation, b: AlgebraPresentation,
                          c: AlgebraPresentation, d: AlgebraPresentation,
                          degree: int) -> dict:
    """Verify (id ⊗ Phi_ABC) Phi_ACD = (Phi_BCD ⊗ id) Phi_ABD.

    Both bracketings of M(C,D) ⊗ M(B,C) ⊗ M(A,B) list the same variables,
    and their bases are the factors' reduced bases side by side, so the two
    sides' images are normal forms for the same leading monomials and are
    compared as polynomials.
    """
    m_ab = mapspace_presentation(a, b, degree)
    m_bc = mapspace_presentation(b, c, degree)
    m_cd = mapspace_presentation(c, d, degree)
    m_ac = mapspace_presentation(a, c, degree)
    m_ad = mapspace_presentation(a, d, degree)
    m_bd = mapspace_presentation(b, d, degree)

    phi_acd, _ = comultiplication(m_ad, m_cd, m_ac)      # M(A,D)->M(C,D)⊗M(A,C)
    phi_abc, _ = comultiplication(m_ac, m_bc, m_ab)      # M(A,C)->M(B,C)⊗M(A,B)
    phi_abd, _ = comultiplication(m_ad, m_bd, m_ab)      # M(A,D)->M(B,D)⊗M(A,B)
    phi_bcd, _ = comultiplication(m_bd, m_cd, m_bc)      # M(B,D)->M(C,D)⊗M(B,C)

    left = tensor_morphism(AlgebraMorphism.identity(m_cd.algebra),
                           phi_abc).compose(phi_acd)
    right = tensor_morphism(phi_bcd, AlgebraMorphism.identity(
        m_ab.algebra)).compose(phi_abd)
    if left.images != right.images:
        raise PropertyViolationError("coassociativity failed",
                                     witness=(left.images, right.images))
    return {"ok": True, "generators": len(left.images), "degree": degree}


# ---------------------------------------------------------------------------
# natural isomorphism laws


def _renaming_correspondence(left: AlgebraPresentation,
                             right: AlgebraPresentation,
                             left_to_right: list[int]) -> dict:
    """Check a variable bijection is an isomorphism of presentations.

    Verifies both induced substitutions map relations into the other ideal
    (ideal membership) and that the two maps are mutually inverse on
    generators, which fails when the mapping is not a bijection.
    """
    field = left.field
    fwd_images = [Polynomial.variable(left_to_right[i], right.arity, field)
                  for i in range(left.arity)]
    right_to_left = [0] * right.arity
    for i, j in enumerate(left_to_right):
        right_to_left[j] = i
    bwd_images = [Polynomial.variable(right_to_left[j], left.arity, field)
                  for j in range(right.arity)]
    failures = []
    for r in left.relations:
        if not right.contains_ideal(r.substitute(fwd_images)):
            failures.append(("forward", r.to_string(left.vars)))
    for r in right.relations:
        if not left.contains_ideal(r.substitute(bwd_images)):
            failures.append(("backward", r.to_string(right.vars)))
    for i in range(left.arity):
        roundtrip = fwd_images[i].substitute(bwd_images)
        if roundtrip != Polynomial.variable(i, left.arity, field):
            failures.append(("roundtrip", left.vars[i]))
    if failures:
        raise PropertyViolationError("natural isomorphism witness failed",
                                     witness=failures)
    return {"ok": True, "generators": left.arity,
            "relations_checked": len(left.relations) + len(right.relations)}


def verify_exponential_law(a: AlgebraPresentation, b: AlgebraPresentation,
                           b2: AlgebraPresentation, d: int, d2: int) -> dict:
    """Witness M(A, B ⊗ B') ≅ M(M(A,B), B') at matched truncation levels.

    Left side: truncation by product monomials v·v' of B ⊗ B'; right side:
    the uniform level d' built over the level-d algebra of (A, B).  The
    correspondence z[a, v⊗v'] <-> z[z[a,v], v'] is checked both ways.
    """
    t = tensor_product(b, b2)
    vs = b.standard_monomials(d)
    v2s = b2.standard_monomials(d2)
    prod_monos = [tuple(v) + tuple(w) for v in vs for w in v2s]
    left = mapspace_presentation(a, t, prod_monos)
    m1 = mapspace_presentation(a, b, d)
    right = mapspace_presentation(m1.algebra, b2, d2)
    # left z (gi, v ++ w)  ->  right z (index of z[a_gi, v], w)
    mapping = []
    for gi, mono in left.zvars:
        v, w = mono[:b.arity], mono[b.arity:]
        inner = m1.z_index[(gi, v)]
        mapping.append(right.z_index[(inner, w)])
    report = _renaming_correspondence(left.algebra, right.algebra, mapping)
    report.update({"law": "exponential", "left_coords": left.n_z,
                   "right_coords": right.n_z})
    return report


def verify_tensor_law(a: AlgebraPresentation, a2: AlgebraPresentation,
                      b: AlgebraPresentation, d: int) -> dict:
    """Witness M(A ⊗ A', B) ≅ M(A,B) ⊗ M(A',B) at a uniform level."""
    ta = tensor_product(a, a2)
    left = mapspace_presentation(ta, b, d)
    m1 = mapspace_presentation(a, b, d)
    m2 = mapspace_presentation(a2, b, d)
    right = tensor_product(m1.algebra, m2.algebra)
    mapping = []
    for gi, v in left.zvars:
        if gi < a.arity:
            mapping.append(m1.z_index[(gi, v)])
        else:
            mapping.append(m1.n_z + m2.z_index[(gi - a.arity, v)])
    report = _renaming_correspondence(left.algebra, right, mapping)
    report.update({"law": "tensor", "left_coords": left.n_z,
                   "right_coords": right.arity})
    return report


def verify_directsum_law(a: AlgebraPresentation, b: AlgebraPresentation,
                         b2: AlgebraPresentation) -> dict:
    """Witness M(A, B ⊕ B') ≅ M(A,B) ⊗ M(A,B') for finite-dimensional B, B'.

    Both directions are built from the universal property (associated
    morphisms through the two projections, and through the split embedding
    v ↦ v·e, v' ↦ v'·(1-e)) and checked to be mutually inverse on generators.
    """
    basis_b, basis_b2 = b.finite_basis(), b2.finite_basis()
    if basis_b is None or basis_b2 is None:
        raise TruncationError("direct-sum law witness needs finite-dimensional "
                              "summands")
    ds, p1, p2 = direct_sum(b, b2)
    m_ds = mapspace_presentation(a, ds, ds.finite_basis())
    m1 = mapspace_presentation(a, b, basis_b)
    m2 = mapspace_presentation(a, b2, basis_b2)
    right = tensor_product(m1.algebra, m2.algebra)
    field = a.field

    # forward: associated morphism of psi : A -> DS ⊗ (M1 ⊗ M2),
    # psi(a) = sum_v (v·e) ⊗ z1[a,v] + sum_v' (v'·(1-e)) ⊗ z2[a,v']
    t_fwd = tensor_product(ds, right)
    e_poly = Polynomial.variable(ds.arity - 1, ds.arity, field)
    sides = ((m1, right.embed_a, range(b.arity), e_poly),
             (m2, right.embed_b, range(b.arity, b.arity + b2.arity),
              Polynomial.one(ds.arity, field) - e_poly))
    psi_images = []
    for gi in range(a.arity):
        acc = Polynomial.zero(t_fwd.arity, field)
        for m, embed, block, idempotent in sides:
            for v in m.monomials:
                v_in_ds = ds.nf(Polynomial.monomial(v, field).extend_arity(
                    ds.arity, block) * idempotent)
                zk = embed(Polynomial.variable(m.z_index[(gi, v)], m.n_z,
                                               field))
                acc = acc + t_fwd.embed_a(v_in_ds) * t_fwd.embed_b(zk)
        psi_images.append(t_fwd.nf(acc))
    psi = AlgebraMorphism(a, t_fwd, psi_images, check=True)
    forward = associated_morphism(m_ds, psi)      # M(A, DS) -> M1 ⊗ M2

    # backward: pair the associated morphisms of (p_i ⊗ id) ∘ upsilon_DS
    ident = AlgebraMorphism.identity(a)
    back1 = functor_action(ident, p1, m1, m_ds)
    back2 = functor_action(ident, p2, m2, m_ds)
    backward = AlgebraMorphism(right, m_ds.algebra,
                               back1.images + back2.images, check=True)

    ok_fb = backward.compose(forward) == AlgebraMorphism.identity(m_ds.algebra)
    ok_bf = forward.compose(backward) == AlgebraMorphism.identity(right)
    if not (ok_fb and ok_bf):
        raise PropertyViolationError("direct-sum law maps are not mutually "
                                     "inverse", witness=(ok_fb, ok_bf))
    return {"ok": True, "law": "directsum",
            "left_coords": m_ds.n_z, "right_coords": right.arity,
            "dim_b": len(basis_b), "dim_b2": len(basis_b2)}
