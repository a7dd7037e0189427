"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass line on success (run with -s to see them all);
a failing assertion marks the criterion red.  Tolerances are exact equality:
every comparison below is between exact rationals, residues, or normal forms.
"""

from __future__ import annotations


from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation,
                            enumerate_points, field_algebra,
                            polynomial_extension)
from affpi0.derham import derham_h0, integral_phi1, universal_derivation
from affpi0.homotopy import SearchBounds, homotopy_search
from affpi0.mapspace import (mapspace_presentation, points_crosscheck,
                             verify_directsum_law, verify_exponential_law,
                             verify_tensor_law)
from affpi0.matrix_homotopy import (block_lemma_checks,
                                    conjugation_homotopy_check,
                                    gamma_and_stability_checks,
                                    permutation_homotopy,
                                    rotation_matrix_checks)
from affpi0.pi0 import (equalizer_membership, equalizer_subspace,
                        idempotent_search, pi0_presentation)
from affpi0.polyring import GF, QQ, Polynomial
from affpi0.simplicial import (CosimplicialSpace,
                               check_cosimplicial_identities,
                               cup_leibniz_check, cup_product, moore_complex,
                               sing_h0)

from harnesses import p0p1_invariance_harness


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


CUBIC = A_of(QQ, ["x"], ["x^3 - x"])
IDEMP = A_of(QQ, ["e"], ["e^2 - e"])
IDEMP_T = A_of(QQ, ["t"], ["t^2 - t"])
CIRCLE = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
NODE = A_of(QQ, ["x", "y"], ["x*y"])


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_pi0_of_three_point_scheme():
    kernel = derham_h0(CUBIC, 2)
    assert kernel.dimension == 3
    idem = idempotent_search(CUBIC, 2)
    assert idem.complete and idem.count == 8
    halves = CUBIC.element("1/2*x^2 + 1/2*x")
    assert any(e == halves for e in idem.idempotents)
    res = pi0_presentation(CUBIC, 2)
    assert res.component_count == 3
    _report(1, "Q[x]/(x^3-x): derham dim 3, 8 idempotents, 3 components")


def test_criterion_02_connectedness():
    for a, name in ((CIRCLE, "circle"), (NODE, "node")):
        kernel = derham_h0(a, 6)
        assert kernel.dimension == 1
        assert kernel.basis[0].poly.total_degree() == 0
        assert kernel.stabilized
    _report(2, "circle and node: derham_h0 at D=6 is span{1}, stabilized")


def test_criterion_03_de_rham_theorem_degree_zero():
    cases = ((CUBIC, 2, 2), (CIRCLE, 6, 2), (NODE, 6, 2), (IDEMP, 2, 2))
    for a, degree, tower in cases:
        dr = derham_h0(a, degree)
        eq = equalizer_subspace(a, degree, tower)
        sh = sing_h0(a, tower, degree)
        assert eq.dimension == dr.dimension
        for level in sh.levels:
            assert level.dimension == dr.dimension
            assert ({e.to_string() for e in level.basis}
                    == {e.to_string() for e in eq.basis})
        dr_strings = {e.to_string() for e in dr.basis}
        eq_strings = {e.to_string() for e in eq.basis}
        assert dr_strings == eq_strings
    _report(3, "sing_h0 = equalizer = derham_h0, dimension-exact per level")


def test_criterion_04_points_bijection():
    rep = points_crosscheck(A_of(GF(3), ["t"], ["t^2 - 1"]),
                            A_of(GF(3), ["x"], ["x^2 - 1"]), 1)
    assert rep["hom_count"] == rep["point_count"] == 4
    assert len(rep["matching"]) == 4
    rep2 = points_crosscheck(A_of(GF(2), ["t"], ["t^2 - t"]),
                             field_algebra(GF(2)), 0)
    assert rep2["hom_count"] == rep2["point_count"] == 2
    _report(4, "hom/point bijection: 4 = 4 over F3, 2 = 2 over F2")


def test_criterion_05_equalizer_membership():
    verdict = equalizer_membership(IDEMP, IDEMP.element("e"), 3)
    assert verdict.passed and verdict.level == 3
    free = A_of(QQ, ["t"], [])
    verdict = equalizer_membership(free, free.element("t"), 3)
    assert not verdict.passed
    assert verdict.level == 1
    m = mapspace_presentation(free, A_of(QQ, ["x"], []), 1)
    z1 = Polynomial.variable(1, 2, QQ)
    assert verdict.residual == z1
    _report(5, "e passes at depth 3; t fails at level 1 with residual z1")


def test_criterion_06_homotopy_search_soundness():
    free_t, free_u = A_of(QQ, ["t"], []), A_of(QQ, ["u"], [])
    f = AlgebraMorphism(free_t, free_u, ["0"])
    g = AlgebraMorphism(free_t, free_u, ["u"])
    found = homotopy_search(f, g, SearchBounds(1, 1))
    assert found.status == "found"
    f0 = AlgebraMorphism(IDEMP_T, field_algebra(QQ), ["0"])
    g1 = AlgebraMorphism(IDEMP_T, field_algebra(QQ), ["1"])
    for bound in range(5):
        res = homotopy_search(f0, g1, SearchBounds(bound, bound))
        assert res.status == "none-within-bounds"
    _report(6, "free search found at xdeg=1; idempotent endpoints certified "
               "none for bounds <= 4")


def test_criterion_07_natural_isomorphism_laws():
    exp = verify_exponential_law(A_of(QQ, ["t"], ["t^2"]),
                                 A_of(QQ, ["e1"], ["e1^2"]),
                                 A_of(QQ, ["e2"], ["e2^2"]), 1, 1)
    assert exp["ok"]
    f2 = GF(2)
    tens = verify_tensor_law(A_of(f2, ["t"], ["t^2 - t"]),
                             A_of(f2, ["s"], ["s^2 - s"]),
                             field_algebra(f2), 0)
    assert tens["ok"]
    dsum = verify_directsum_law(A_of(QQ, ["t"], ["t^2 - 1"]),
                                field_algebra(QQ), field_algebra(QQ))
    assert dsum["ok"]
    # direct-sum law confirmed by F3 point counts: 4 = 2 * 2
    f3 = GF(3)
    a3 = A_of(f3, ["t"], ["t^2 - 1"])
    from affpi0.algebra import direct_sum
    ds, _, _ = direct_sum(field_algebra(f3), field_algebra(f3))
    n_sum = len(enumerate_points(mapspace_presentation(a3, ds, 1).algebra))
    n_one = len(enumerate_points(
        mapspace_presentation(a3, field_algebra(f3), 0).algebra))
    assert n_sum == n_one * n_one == 4
    _report(7, "exponential, tensor and direct-sum law witnesses verified; "
               "F3 counts 4 = 2*2")


def test_criterion_08_matrix_lemma_suite():
    rot = rotation_matrix_checks()
    assert rot["ok"] and rot["det_is_one"]
    conj = conjugation_homotopy_check()
    assert conj["ok"]
    blocks = block_lemma_checks()
    assert blocks["ok"] and blocks["corner_conjugation"]
    cycle = permutation_homotopy([1, 2, 0], [1, 1, 1])
    assert cycle["ok"] and cycle["links"] == 2
    gamma = gamma_and_stability_checks()
    assert gamma["ok"]
    _report(8, "det R = 1, conjugation endpoints, swap/corner/3-cycle/Gamma "
               "all exact")


def test_criterion_09_integration_homotopy():
    a = A_of(QQ, ["y"], [])
    ext = polynomial_extension(a)
    for j in range(4):
        for k in range(7):
            elem = ext.algebra.element(
                Polynomial.monomial((j, k), QQ))
            lhs = ext.p1.apply(elem) - ext.p0.apply(elem)
            rhs = integral_phi1(universal_derivation(elem), ext)
            assert lhs == rhs
    _report(9, "(p1 - p0)(y^j x^k) = phi1(d(y^j x^k)) exactly, j<=3, k<=6")


def test_criterion_10_cosimplicial_moore_cup():
    space = CosimplicialSpace(IDEMP, 1, 2, 3)
    idents = check_cosimplicial_identities(space)
    assert idents["ok"], idents["failures"]
    cx = moore_complex(IDEMP, 1, 2, 3)
    assert cx.dd_zero
    cx_free = moore_complex(A_of(QQ, ["t"], []), 1, 2, 2)
    assert cx_free.dd_zero
    # cup product unit law and Leibniz samples
    space2 = CosimplicialSpace(A_of(QQ, ["t"], ["t^2 - 1"]), 1, 2, 2)
    alg0 = space2.levels[0].mspace.algebra
    one = Polynomial.one(alg0.arity, QQ)
    c = alg0.parse(alg0.vars[0])
    lvl, prod = cup_product(space2, (0, one), (0, c))
    assert lvl == 0 and prod == c
    assert cup_leibniz_check(space2, (0, c), (0, alg0.parse(
        f"{alg0.vars[0]}^2 + 2")))
    _report(10, "cosimplicial identities (levels <= 3), d∘d = 0, cup unit "
                "and Leibniz all exact")


def test_criterion_11_homotopy_invariance_harness():
    for a in (field_algebra(QQ), IDEMP, CUBIC):
        for hook in ("pi0", "derham_h0", "sing_h0"):
            rep = p0p1_invariance_harness(a, hook, degree=2, tower_depth=1)
            assert rep["ok"]
    _report(11, "p0/p1 agree on pi0, derham_h0 and sing_h0 spanning sets of "
                "A[x] for Q, Q[e]/(e^2-e), Q[x]/(x^3-x)")
