"""Randomized cross-validation between independent computation routes.

All assertions here are one-sided or theorem-backed so they cannot flake:
soundness directions of truncated computations, agreement of independently
implemented paths on inputs where the relevant stabilization holds, and
brute-force oracles run only in the direction they certify.
"""

from __future__ import annotations

import random
from fractions import Fraction

from affpi0.algebra import AlgebraPresentation, enumerate_points
from affpi0.derham import derham_h0, form_is_zero, universal_derivation
from affpi0.linalg import in_span
from affpi0.mapspace import mapspace_presentation, point_from_morphism
from affpi0.pi0 import equalizer_membership, idempotent_search
from affpi0.polyring import (GF, QQ, Polynomial, groebner, ideal_membership,
                             normal_form)
from harnesses import monomials_up_to


def _random_poly(rng, arity, field, maxdeg=2, terms=3, span=2):
    p = Polynomial.zero(arity, field)
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, maxdeg)):
            mono[rng.randrange(arity)] += 1
        coeff = rng.randint(-span, span)
        p = p + Polynomial.monomial(tuple(mono), field, field.scalar(coeff))
    return p


def test_membership_brute_force_soundness_direction():
    """If the degree-bounded span contains p, the Gröbner verdict must agree."""
    rng = random.Random(101)
    names = ["x", "y"]
    for trial in range(10):
        gens = [_random_poly(rng, 2, QQ) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = groebner(gens)
        p = _random_poly(rng, 2, QQ)
        bound = max(p.total_degree(), 0) + 4
        span_rows = []
        for g in gens:
            room = bound - max(g.total_degree(), 0)
            for m in monomials_up_to(2, max(room, 0)):
                span_rows.append(g.mul_monomial(m))
        coords = sorted({m for q in span_rows for m in q.terms}
                        | set(p.terms))
        rows = [[q.terms.get(m, Fraction(0)) for m in coords]
                for q in span_rows]
        target = [p.terms.get(m, Fraction(0)) for m in coords]
        if in_span(rows, target, QQ):
            assert ideal_membership(p, gb)


def test_derham_kernel_elements_pass_equalizer_everywhere():
    """ker d ⊆ the path-component subalgebra: theorem-backed, never flaky."""
    rng = random.Random(7)
    presentations = [
        AlgebraPresentation(QQ, ["x"], ["x^3 - x"]),
        AlgebraPresentation(QQ, ["e"], ["e^2 - e"]),
        AlgebraPresentation(QQ, ["x", "y"], ["x*y"]),
        AlgebraPresentation(QQ, ["x", "y"], ["x^2 + y^2 - 1"]),
        AlgebraPresentation(QQ, ["u", "v"], ["u^2 - u", "v^2"]),
    ]
    for a in presentations:
        kernel = derham_h0(a, 3)
        for elem in kernel.basis:
            verdict = equalizer_membership(a, elem, 2)
            assert verdict.passed, (a, elem)


def test_idempotents_are_derivation_kernel_elements():
    """d(e) = (2e-1)·de vanishes for idempotents: exact, certificate-level."""
    for rels in (["x^3 - x"], ["x^2 - x"], ["x^4 - x^2"]):
        a = AlgebraPresentation(QQ, ["x"], rels)
        for e in idempotent_search(a, 3).idempotents:
            ok, _ = form_is_zero(universal_derivation(e))
            assert ok


def test_points_of_level_algebras_recover_enumerated_morphisms():
    rng = random.Random(13)
    pairs = [
        (AlgebraPresentation(GF(2), ["t"], ["t^2 - t"]),
         AlgebraPresentation(GF(2), ["x"], ["x^2 - x"])),
        (AlgebraPresentation(GF(3), ["t"], ["t^2 - 1"]),
         AlgebraPresentation(GF(3), ["x"], ["x^2 - 1"])),
        (AlgebraPresentation(GF(2), ["t"], ["t^3 - t"]),
         AlgebraPresentation(GF(2), ["x"], [])),
    ]
    from affpi0.algebra import enumerate_hom

    for a, b in pairs:
        m = mapspace_presentation(a, b, 1)
        homs = enumerate_hom(a, b, 1)
        points = enumerate_points(m.algebra)
        keys = {tuple(im.constant_term() for im in
                      point_from_morphism(m, phi).images) for phi in homs}
        assert len(keys) == len(homs) == len(points)


def test_normal_form_is_canonical_for_cosets():
    """nf(p) == nf(q) exactly when p - q is in the ideal."""
    rng = random.Random(29)
    names = ["x", "y"]
    gens = [Polynomial.zero(2, QQ)]
    gb = groebner([
        AlgebraPresentation(QQ, names, ["x^2 - y", "y^3 - 1"]).relations[0],
        AlgebraPresentation(QQ, names, ["x^2 - y", "y^3 - 1"]).relations[1],
    ])
    for _ in range(20):
        p = _random_poly(rng, 2, QQ, maxdeg=3)
        q = _random_poly(rng, 2, QQ, maxdeg=3)
        same = normal_form(p, gb) == normal_form(q, gb)
        member = ideal_membership(p - q, gb)
        assert same == member


def test_tensor_point_counts_multiply_over_prime_fields():
    from affpi0.algebra import tensor_product

    f5 = GF(5)
    a = AlgebraPresentation(f5, ["x"], ["x^2 - 1"])
    b = AlgebraPresentation(f5, ["y"], ["y^2 - 4"])
    t = tensor_product(a, b)
    assert len(enumerate_points(t)) == \
        len(enumerate_points(a)) * len(enumerate_points(b))
