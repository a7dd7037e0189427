"""Maps into a level built in packed form, against the ring-built references.

A level's relation ideal J, the functor action M(f, g) and the root
solver's system each come from one block substitution
(`polyring._split_at`): polynomials at images in the layout of B ⊗ F[z]
(or A ⊗ F[u]), reduced by B's (or A's) reducer records moved into that
layout, split on that block.  For f = id the action's substitution is the
identity, and the pushed family is split as it is.  A block ring's basis
takes its factors' records moved by whole fields.  The tests keep the
code these replace as references (J through the relation ring B ⊗ F[z]
and a substitution morphism, the action through the universal ring
B' ⊗ M' and υ', the root system through A ⊗ F[u] and e^k − e, block
records packed afresh from the lifted elements) and check that the new
code gives the same relations, systems and images, in the same order, on
a grid over Q, F_2, F_3 and F_5.
"""

from __future__ import annotations

import itertools

import pytest

from affpi0 import algebra, mapspace, pi0
from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation, direct_sum,
                            field_algebra, tensor_product)
from affpi0.errors import TruncationError
from affpi0.mapspace import (MapSpacePresentation, functor_action,
                             mapspace_presentation, z_name)
from affpi0.polyring import (GF, QQ, BlockOrder, GroebnerBasis, Polynomial,
                             WeightOrder)
from affpi0.simplicial import (_degeneracy_alpha, _face_alpha, delta_algebra,
                               moore_complex, simplicial_map)
from harnesses import perfbench_etale_cases

FIELDS = [QQ, GF(2), GF(3), GF(5)]
CIRCLE = AlgebraPresentation(QQ, ["x", "y"], ["x^2 + y^2 - 1"])


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


def same_action(g, m_source, m_target, f=None) -> None:
    """M(f, g), with f the identity unless given, equals the υ' route's,
    or both refuse the truncation."""
    if f is None:
        f = AlgebraMorphism.identity(m_source.a)
    try:
        want = reference_functor_action(f, g, m_source, m_target)
    except TruncationError:
        with pytest.raises(TruncationError):
            functor_action(f, g, m_source, m_target)
        return
    got = functor_action(f, g, m_source, m_target)
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


def source_maps(field) -> list[AlgebraMorphism]:
    """f: A → A' into F[s]/(s³ − s): t ↦ s, t ↦ 1 − s and t ↦ s² + s from
    the free line, t ↦ s from F[t]/(t³ − t), and the unit of F, whose
    level has no coordinates."""
    a2 = A_of(field, ["s"], ["s^3 - s"])
    line = A_of(field, ["t"], [])
    return ([AlgebraMorphism(line, a2, [image])
             for image in ("s", "1 - s", "s^2 + s")]
            + [AlgebraMorphism(A_of(field, ["t"], ["t^3 - t"]), a2, ["s"]),
               AlgebraMorphism(field_algebra(field), a2, [])])


def target_maps(field, name) -> list[tuple]:
    """(g: B' → B, truncation of B, truncation of B') for one kind of
    target."""
    line = A_of(field, ["x"], [])
    split = A_of(field, ["x"], ["x^2 - x"])
    point = field_algebra(field)
    zero = A_of(field, ["w"], ["w - 1", "w"])
    if name == "free":
        return [(AlgebraMorphism(line, line, [image]), t_src, t_tgt)
                for image in ("1 - x", "x^2", "x")
                for t_src, t_tgt in ((1, 1), (1, 2), (2, 1))]
    if name == "split":
        return ([(AlgebraMorphism(split, split, [image]), 1, 1)
                 for image in ("1 - x", "x")]
                + [(AlgebraMorphism(split, point, [str(value)]), 0, 1)
                   for value in (0, 1)]
                + [(AlgebraMorphism(point, split, []), 1, 0)])
    if name == "tensor":
        t = tensor_product(split, A_of(field, ["m"], ["m^2"]))
        basis = t.finite_basis()
        return [(AlgebraMorphism(t, t, images), basis, basis)
                for images in (["1 - x_1", "m_2"], ["x_1", "m_2"])]
    if name == "nested":
        t = tensor_product(tensor_product(split, A_of(field, ["m"], ["m^2"])),
                           split)
        return [(AlgebraMorphism(t, t, images), 1, 1)
                for images in (["x_1_1", "m_2_1", "1 - x_2"],
                               ["x_1_1", "m_2_1", "x_2"])]
    if name == "zero":
        return [(AlgebraMorphism(split, zero, ["0"]), [], 1),
                (AlgebraMorphism.identity(zero), [], [])]
    maps = []
    for b, b2 in ((split, point), (split, A_of(field, ["n"], ["n^2"])),
                  (point, point)):
        ds, p1, p2 = direct_sum(b, b2)
        maps += [(p1, b.finite_basis(), ds.finite_basis()),
                 (p2, b2.finite_basis(), ds.finite_basis())]
    return maps


TARGETS = ["free", "split", "tensor", "nested", "zero", "direct_sum"]


@pytest.mark.parametrize("name", TARGETS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_non_identity_source_maps_match_the_universal_route(field, name):
    """M(f, g) for every f of `source_maps` and every g of one kind of
    target: a free line, F[x]/(x² − x), a block ring, a nested block ring
    (whose records are built on first use), the zero algebra, and the
    projections of the direct-sum law."""
    levels: dict = {}

    def cached(a, b, trunc):
        key = (a, b, tuple(trunc) if isinstance(trunc, list) else trunc)
        if key not in levels:
            levels[key] = level(a, b, trunc)
        return levels[key]

    for f in source_maps(field):
        for g, t_src, t_tgt in target_maps(field, name):
            same_action(g, cached(f.source, g.target, t_src),
                        cached(f.target, g.source, t_tgt), f)


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


def test_a_non_identity_source_map_builds_no_universal_ring(monkeypatch):
    """f ≠ id is one block substitution at the target level's family
    pushed through g: no υ', no B' ⊗ M', and the reference's images."""
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
    assert calls == []
    assert "universal_ring" not in vars(m_src)
    assert "universal_ring" not in vars(m_tgt)
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
# the root solver's system


def reference_root_system(a, k, slice_monos, cut) -> list[Polynomial]:
    """e^k − e at the generic element of the cut, reduced in A ⊗ F[u]
    and split on A's exponents."""
    r = len(cut)
    ring = tensor_product(a, AlgebraPresentation(
        a.field, [f"u{j}" for j in range(r)]))
    terms = {}
    for j, row in enumerate(cut):
        unknown = (0,) * j + (1,) + (0,) * (r - j - 1)
        for m, c in zip(slice_monos, row):
            if c:
                terms[m + unknown] = c
    generic = Polynomial(ring.arity, a.field, terms)
    return list(ring.nf(generic ** k - generic).split(a.arity).values())


ROOT_CASES = [
    *perfbench_etale_cases(),
    *((name, A_of(QQ, ["x", "y"], [rel]), 2) for name, rel in (
        ("cusp", "y^2 - x^3"), ("node", "y^2 - x^2 - x^3"),
        ("circle", "x^2 + y^2 - 1"),
        ("parabolas", "*".join(f"(y - x^2 - {i})" for i in range(4))))),
    ("zero", A_of(QQ, ["x"], ["x - 1", "x"]), 2),
]


def handed_system(monkeypatch, call) -> list[Polynomial]:
    """The system `call` hands to the solver, which is stopped there: over
    Q some k = 3 systems trip its root guard, which is not compared."""

    class Handed(Exception):
        pass

    def spy(system, *args):
        raise Handed(system)

    monkeypatch.setattr(pi0, "solve_system", spy)
    with pytest.raises(Handed) as handed:
        call()
    return handed.value.args[0]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name, a, degree", ROOT_CASES,
                         ids=[name for name, _, _ in ROOT_CASES])
def test_root_system_matches_the_tensor_ring(monkeypatch, name, a, degree,
                                             k):
    """The system of `iskp_subalgebra` (k = 3) is the reference's, in its
    order, terms in order.  `idempotent_search` (k = 2) splits each of
    these algebras, over Q or finite over F_5, and hands no system."""
    if k == 2:
        monkeypatch.setattr(pi0, "solve_system", None)
        assert pi0.idempotent_search(a, degree).complete
        return
    got = handed_system(monkeypatch, lambda: pi0.iskp_subalgebra(a, k,
                                                                 degree))
    slice_monos, cut = pi0._cut(a, degree, pi0._line_level(a, 1))
    want = reference_root_system(a, k, slice_monos, cut)
    assert got == want
    assert [list(p.terms.items()) for p in got] \
        == [list(p.terms.items()) for p in want]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_empty_cut_gives_the_empty_system(monkeypatch, field, k):
    """On the circle, infinite: k = 2 keeps the solver over F_p only."""
    a = A_of(field, ["x", "y"], ["x^2 + y^2 - 1"])
    slice_monos = a.standard_monomials(1)
    if k == 2 and field.is_rational:
        monkeypatch.setattr(pi0, "solve_system", None)
        pi0._root_solutions(a, k, slice_monos, [])
        return
    got = handed_system(monkeypatch, lambda: pi0._root_solutions(
        a, k, slice_monos, []))
    assert got == reference_root_system(a, k, slice_monos, []) == []


# ---------------------------------------------------------------------------
# design pins


def test_idempotent_search_builds_no_ring(monkeypatch):
    """The root solver reduces by A's basis moved into the block layout:
    no A ⊗ F[u]."""
    rings = []
    tensor = algebra.tensor_product

    def spy(b, c):
        rings.append((b, c))
        return tensor(b, c)

    for module in (algebra, mapspace, pi0):
        monkeypatch.setattr(module, "tensor_product", spy)
    report = pi0.idempotent_search(CIRCLE, 2)
    assert report.complete and len(report.idempotents) == 2
    assert rings == []


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
