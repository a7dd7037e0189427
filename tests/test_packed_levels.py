"""Map-space levels built in packed form, against the ring-built references.

A level's relation ideal J comes from one packed substitution of the
universal family into the layout of B ⊗ F[z], reduced by B's reducer
records moved into that layout; the functor action M(id, g) is read off
g's images of the target level's monomials; a block ring's basis takes its
factors' records moved by whole fields.  The tests keep the code these
replace as references (J through the relation ring B ⊗ F[z] and a
substitution morphism, the action through the universal ring B' ⊗ M' and
υ, block records packed afresh from the lifted elements) and check that
the new code gives the same relations, in the same order, and the same
images, on a grid over Q, F_2, F_3 and F_5.
"""

from __future__ import annotations

import itertools

import pytest

from affpi0 import mapspace, pi0
from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation, direct_sum,
                            field_algebra, tensor_product)
from affpi0.errors import TruncationError
from affpi0.mapspace import (MapSpacePresentation, functor_action,
                             mapspace_presentation, z_name)
from affpi0.polyring import (GF, QQ, BlockOrder, GroebnerBasis, Polynomial,
                             WeightOrder)
from affpi0.simplicial import (_degeneracy_alpha, _face_alpha, delta_algebra,
                               moore_complex, simplicial_map)

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


# ---------------------------------------------------------------------------
# the replaced code, kept as references


def reference_block_gb(t) -> GroebnerBasis:
    """A block ring's basis with its reducer records packed afresh from
    the lifted elements on first use."""
    a, b = t.factor_a, t.factor_b
    polys = ((Polynomial.one(t.arity, t.field),)
             if a.is_zero_algebra() or b.is_zero_algebra() else
             tuple(map(t.embed_a, a.gb())) + tuple(map(t.embed_b, b.gb())))
    return GroebnerBasis(polys, BlockOrder(a.arity))


def reference_ring(b, c):
    """b ⊗ c whose basis is `reference_block_gb`."""
    ring = tensor_product(b, c)
    ring._gb = reference_block_gb(ring)
    return ring


def reference_upsilon(a, b, monomials, ring) -> AlgebraMorphism:
    """The universal substitution a ↦ sum_v v·z[a,v] into `ring`, B's
    variables first, then the z's."""
    zvars = [(gi, v) for gi in range(a.arity) for v in monomials]
    images: list[dict] = [{} for _ in a.vars]
    for k, (gi, v) in enumerate(zvars):
        unknown = (0,) * k + (1,) + (0,) * (len(zvars) - k - 1)
        images[gi][v + unknown] = a.field.one()
    return AlgebraMorphism(a, ring, [Polynomial(ring.arity, a.field, terms)
                                     for terms in images], check=False)


def reference_relations(a, b, monomials) -> list[Polynomial]:
    """J's generators through the relation ring B ⊗ F[z]: the coefficients
    of B's standard monomials in A's relations at the universal family,
    deduplicated and sorted."""
    names = [z_name(a.vars[gi], v) for gi in range(a.arity) for v in monomials]
    ring = reference_ring(b, AlgebraPresentation(a.field, names))
    substitution = reference_upsilon(a, b, monomials, ring)
    j_gens, seen = [], set()
    for r in a.relations:
        for coeff in substitution.apply_poly(r).split(b.arity).values():
            key = coeff.key()
            if key and key not in seen:
                seen.add(key)
                j_gens.append(coeff)
    j_gens.sort(key=lambda p: p.key())
    return j_gens


def reference_functor_action(f, g, m_source: MapSpacePresentation,
                             m_target: MapSpacePresentation
                             ) -> AlgebraMorphism:
    """The action through the universal ring B' ⊗ M' for every f: the
    coefficient c_w of w in υ'(f(a)), times g(w)."""
    universal = reference_upsilon(
        m_target.a, m_target.b, m_target.monomials,
        reference_ring(m_target.b, m_target.algebra))
    field = m_source.field
    coeffs = []
    for image in f.images:
        acc: dict = {}
        for w, coeff in universal.apply_poly(image).split(
                m_target.n_b).items():
            g_w = g.apply_poly(Polynomial.monomial(w, field))
            for v, c in g_w.terms.items():
                piece = coeff.scale(c)
                prev = acc.get(v)
                acc[v] = piece if prev is None else prev + piece
        coeffs.append(acc)
    return mapspace._level_morphism(m_source, m_target.algebra, coeffs)


# ---------------------------------------------------------------------------
# the grid


def level(a, b, trunc) -> MapSpacePresentation:
    """A level whose relations, terms in order, are the reference's."""
    m = mapspace_presentation(a, b, trunc)
    want = reference_relations(a, b, m.monomials)
    assert m.algebra.relations == tuple(want)
    assert [list(r.terms.items()) for r in m.algebra.relations] \
        == [list(r.terms.items()) for r in want]
    return m


def same_action(g, m_source, m_target) -> None:
    """M(id, g) equals the υ route's, or both refuse the truncation."""
    ident = AlgebraMorphism.identity(m_source.a)
    try:
        want = reference_functor_action(ident, g, m_source, m_target)
    except TruncationError:
        with pytest.raises(TruncationError):
            functor_action(ident, g, m_source, m_target)
        return
    got = functor_action(ident, g, m_source, m_target)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.images == want.images


# sources whose levels up to Δ^3 at tower 2 have small bases; the circle
# and the cusp only at tower 1 (their levels on Δ^3 at tower 2 take
# seconds to minutes)
SOURCES = {"idempotent": (["t"], ["t^2 - t"], (1, 2)),
           "dual_numbers": (["t"], ["t^2"], (1, 2)),
           "three_points": (["t"], ["t^3 - t"], (1, 2)),
           "free_line": (["t"], [], (1, 2)),
           "point": ([], [], (1, 2)),
           "circle": (["x", "y"], ["x^2 + y^2 - 1"], (1,)),
           "cusp": (["x", "y"], ["y^2 - x^3"], (1,))}

GRID = [(field, name, tower) for field in FIELDS for name in SOURCES
        for tower in SOURCES[name][2]]


@pytest.mark.parametrize("field, name, tower", GRID,
                         ids=[f"{f}-{n}-T{t}" for f, n, t in GRID])
def test_cosimplicial_structure_maps_match_the_universal_route(field, name,
                                                               tower):
    """Every face and degeneracy between the levels on Δ^0..Δ^3."""
    names, rels, _ = SOURCES[name]
    a = A_of(field, names, rels)
    levels = [level(a, delta_algebra(n, field).presentation, tower)
              for n in range(4)]
    alphas = [(_face_alpha(i, n), n) for n in range(1, 4)
              for i in range(n + 1)]
    alphas += [(_degeneracy_alpha(i, n), n) for n in range(3)
               for i in range(n + 1)]
    for alpha, n in alphas:
        same_action(simplicial_map(alpha, n, field),
                    levels[len(alpha) - 1], levels[n])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["idempotent", "three_points", "circle"])
def test_line_maps_match_the_universal_route(field, name):
    """The line F[x] at towers 1–2 on both sides: the flip x ↦ 1 − x, the
    square x ↦ x² (which leaves a tower-1 truncation), the two evaluations
    and the unit inclusion F → F[x]."""
    names, rels, _ = SOURCES[name]
    a = A_of(field, names, rels)
    line = A_of(field, ["x"], [])
    point = field_algebra(field)
    lines = {t: level(a, line, t) for t in (1, 2)}
    points = level(a, point, 0)
    for g_images in (["1 - x"], ["x^2"], ["x"]):
        g = AlgebraMorphism(line, line, g_images)
        for t_src, t_tgt in itertools.product((1, 2), repeat=2):
            same_action(g, lines[t_src], lines[t_tgt])
    for value in (0, 1):
        g = AlgebraMorphism(line, point, [Polynomial.constant(value, 0, field)])
        same_action(g, points, lines[2])
    unit = AlgebraMorphism(point, line, [])
    for t in (1, 2):
        same_action(unit, lines[t], points)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_targets_with_relations_match_the_universal_route(field):
    """F[x]/(x² − x) with its swap, its evaluations and its unit, and the
    back maps of the direct-sum law M(A, B ⊕ B') ≅ M(A,B) ⊗ M(A,B')."""
    a = A_of(field, ["t"], ["t^3 - t"])
    split = A_of(field, ["x"], ["x^2 - x"])
    point = field_algebra(field)
    m_split, m_point = level(a, split, 1), level(a, point, 0)
    for g_images in (["1 - x"], ["x"]):
        same_action(AlgebraMorphism(split, split, g_images), m_split, m_split)
    for value in (0, 1):
        same_action(AlgebraMorphism(split, point,
                                    [Polynomial.constant(value, 0, field)]),
                    m_point, m_split)
    same_action(AlgebraMorphism(point, split, []), m_split, m_point)
    nilpotent = A_of(field, ["n"], ["n^2"])
    for b, b2 in ((split, point), (split, nilpotent), (point, point)):
        ds, p1, p2 = direct_sum(b, b2)
        m_ds = level(a, ds, ds.finite_basis())
        same_action(p1, level(a, b, b.finite_basis()), m_ds)
        same_action(p2, level(a, b2, b2.finite_basis()), m_ds)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_relations_over_block_targets_match_the_relation_ring(field):
    """J over targets that are block rings themselves (the exponential
    law's B ⊗ B'), whose bases are under a block order, and over the zero
    algebra."""
    a = A_of(field, ["t", "s"], ["t^2 - s", "s*t - 1"])
    b = A_of(field, ["e"], ["e^2 - e"])
    b2 = A_of(field, ["m"], ["m^2"])
    t = tensor_product(b, b2)
    level(a, t, t.finite_basis())
    level(a, tensor_product(t, b), 1)
    level(a, A_of(field, ["x"], ["x - 1", "x"]), [])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equal_coefficients_give_one_relation(field):
    """A relation of A given twice: J lists each of its coefficients
    once, over a free target and over one with relations."""
    a = A_of(field, ["t"], ["t^2 - t", "t^2 - t", "t^3 - t"])
    for b in (A_of(field, ["x"], []), A_of(field, ["x"], ["x^2 - x"])):
        relations = level(a, b, 1).algebra.relations
        assert len(set(relations)) == len(relations)


def test_a_non_identity_source_map_keeps_the_universal_route(monkeypatch):
    """f ≠ id goes through υ', and agrees with the reference."""
    calls = []
    upsilon_poly = MapSpacePresentation.upsilon_poly

    def spy(self, p):
        calls.append(p)
        return upsilon_poly(self, p)

    monkeypatch.setattr(MapSpacePresentation, "upsilon_poly", spy)
    a = A_of(QQ, ["t"], ["t^3 - t"])
    a2 = A_of(QQ, ["s"], ["s^2 - s"])
    line = A_of(QQ, ["x"], [])
    f = AlgebraMorphism(a, a2, ["s"])
    g = AlgebraMorphism(line, line, ["1 - x"])
    m_src, m_tgt = level(a, line, 2), level(a2, line, 2)
    got = functor_action(f, g, m_src, m_tgt)
    assert len(calls) == a.arity
    assert got == reference_functor_action(f, g, m_src, m_tgt)


# ---------------------------------------------------------------------------
# block bases from their factors' records


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_block_records_are_the_lifted_elements_records(field):
    """Nested tensors, both ways round, and zero factors on either side."""
    a = A_of(field, ["x", "y"], ["x^2 + y^2 - 1", "3*x*y - 2"])
    b = A_of(field, ["u"], ["2*u^3 - u"])
    c = A_of(field, ["s", "t"], ["s*t - 1"])
    zero = A_of(field, ["w"], ["1"])
    free = A_of(field, ["v"], [])
    rings = [tensor_product(a, b), tensor_product(b, a),
             tensor_product(tensor_product(a, b), c),
             tensor_product(c, tensor_product(a, b)),
             tensor_product(tensor_product(a, c), tensor_product(b, free)),
             tensor_product(a, zero), tensor_product(zero, a),
             tensor_product(tensor_product(a, zero), b),
             tensor_product(field_algebra(field), a),
             tensor_product(a, field_algebra(field)),
             tensor_product(free, a), tensor_product(a, free)]
    for ring in rings:
        gb = ring.gb()
        order = BlockOrder(ring.factor_a.arity)
        assert gb.order == order
        assert gb.polys == reference_block_gb(ring).polys
        assert gb._reducers() == [g._record(order) for g in gb.polys]


# ---------------------------------------------------------------------------
# design pins


CIRCLE = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])


def test_moore_complex_builds_no_universal_or_relation_ring(monkeypatch):
    """The cosimplicial route's structure maps are read off the simplicial
    maps: no υ, no B' ⊗ M', and no B ⊗ F[z] for any level."""
    upsilon_calls, rings = [], []
    upsilon_poly = MapSpacePresentation.upsilon_poly
    tensor = mapspace.tensor_product

    def upsilon_spy(self, p):
        upsilon_calls.append(p)
        return upsilon_poly(self, p)

    def tensor_spy(b, c):
        rings.append((b, c))
        return tensor(b, c)

    monkeypatch.setattr(MapSpacePresentation, "upsilon_poly", upsilon_spy)
    monkeypatch.setattr(mapspace, "tensor_product", tensor_spy)
    complex_ = moore_complex(CIRCLE, 1, 2, 2)
    assert complex_.dd_zero and complex_.h0_dimension == 1
    assert upsilon_calls == [] and rings == []
    for slice_ in complex_.space.levels:
        assert "universal_ring" not in vars(slice_.mspace)
        assert "relation_ring" not in vars(slice_.mspace)


def test_relation_ring_is_built_when_read():
    m = mapspace_presentation(A_of(QQ, ["t"], ["t^3 - t"]),
                              A_of(QQ, ["x"], ["x^2 - x"]), 1)
    assert "relation_ring" not in vars(m)
    assert m.relation_ring.gb().leading_monomials[:1] == ((2,) + (0,) * 2,)


def test_pi0_builds_one_bounded_basis_of_level_one(monkeypatch):
    """On the four parabolas at D=2 the idempotents need the slice at
    ⌊8²/4⌋ = 16: the one basis of level 1 is bounded at weight 16 and
    serves the de Rham check at D=2 too."""
    runs = []
    groebner = mapspace.groebner

    def spy(gens, order, bound=None):
        runs.append((order, bound))
        return groebner(gens, order, bound)

    monkeypatch.setattr(mapspace, "groebner", spy)
    relation = "*".join(f"(y - x^2 - {i})" for i in range(4))
    result = pi0.pi0_presentation(A_of(QQ, ["x", "y"], [relation]), 2, 2)
    assert result.component_count == 4
    assert [bound for _, bound in runs] == [16]
    assert isinstance(runs[0][0], WeightOrder)
