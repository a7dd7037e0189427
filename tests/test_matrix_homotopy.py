"""Tests for the symbolic rotation-matrix lemma suite."""

from __future__ import annotations

import pytest

from affpi0 import matrix_homotopy
from affpi0.algebra import AlgebraPresentation
from affpi0.errors import PropertyViolationError
from affpi0.matrix_homotopy import (NCPoly, _matrix, adjacent_transpositions,
                                    block_lemma_checks,
                                    conjugation_homotopy_check,
                                    gamma_and_stability_checks, mat_mul,
                                    permutation_homotopy, rotation,
                                    rotation_inverse, rotation_matrix_checks,
                                    verify_all)
from affpi0.polyring import QQ
from harnesses import reversed_entry_products


def test_rotation_checks_all_pass():
    rep = rotation_matrix_checks()
    assert rep["ok"]
    assert rep["det_is_one"] and rep["inverse_ok"]


def test_rotation_determinant_expansion_by_hand():
    ring = AlgebraPresentation(QQ, ["x"])
    det = ring.parse("(1 - x^2)^2 - x*(x^3 - 2*x)")
    assert det == ring.parse("1")


def test_conjugation_endpoints_and_multiplicativity():
    rep = conjugation_homotopy_check()
    assert rep["ok"]
    assert rep["endpoint_zero"] and rep["endpoint_one"]
    assert rep["multiplicative"] and rep["trace_preserved"]


def test_block_lemmas():
    rep = block_lemma_checks()
    assert rep["ok"]
    assert rep["corner_conjugation"]


def test_corner_conjugation_fails_on_reversed_entry_products(monkeypatch):
    assert block_lemma_checks()["corner_conjugation"]
    monkeypatch.setattr(matrix_homotopy, "mat_mul",
                        reversed_entry_products(mat_mul))
    rep = block_lemma_checks()
    assert [k for k, v in rep.items() if not v] == ["corner_conjugation",
                                                    "ok"]


def test_ncpoly_words_concatenate():
    c, a, ci = NCPoly.sym("c"), NCPoly.sym("a"), NCPoly.sym("c_inv")
    word = c * a * ci
    assert list(word.terms) == [(("c", "a", "c_inv"), 0)]


def test_ncpoly_noncommutative():
    a, b = NCPoly.sym("a"), NCPoly.sym("b")
    assert (a * b) != (b * a)


def test_adjacent_transposition_decomposition():
    assert adjacent_transpositions([0, 1, 2]) == []
    assert adjacent_transpositions([1, 0]) == [0]
    three_cycle = adjacent_transpositions([1, 2, 0])
    assert len(three_cycle) == 2


def test_permutation_identity_empty_chain():
    rep = permutation_homotopy([0, 1], [1, 1])
    assert rep["ok"] and rep["links"] == 0


def test_permutation_simple_swap_single_link():
    rep = permutation_homotopy([1, 0], [1, 1])
    assert rep["ok"] and rep["links"] == 1


def test_permutation_three_cycle_two_links():
    rep = permutation_homotopy([1, 2, 0], [1, 1, 1])
    assert rep["ok"] and rep["links"] == 2


def test_permutation_mixed_sizes():
    rep = permutation_homotopy([1, 0], [2, 1])
    assert rep["ok"] and rep["links"] == 2


def test_permutation_guard():
    with pytest.raises(PropertyViolationError):
        permutation_homotopy([0, 1], [4, 1])


def test_gamma_and_stability():
    rep = gamma_and_stability_checks()
    assert rep["ok"]
    assert rep["gamma_multiplicative"]


def test_verify_all_and_only_filter():
    rep = verify_all()
    assert rep["ok"]
    rep_rot = verify_all("rotation")
    assert rep_rot["ok"] and "rotation" in rep_rot
    with pytest.raises(ValueError):
        verify_all("nonsense")


def test_certificate_instantiates_over_concrete_algebra():
    """The swap homotopy type-checks as an elementary homotopy over B = Q[u]."""
    from affpi0.algebra import polynomial_extension

    b = AlgebraPresentation(QQ, ["u"], [])
    ext = polynomial_extension(b)
    bx = ext.algebra
    # instantiate the 2x2 swap homotopy entries at alpha = u, beta = u^2
    ring = AlgebraPresentation(QQ, ["x", "al", "be"])
    conj = mat_mul(rotation_inverse(ring),
                   mat_mul(_matrix(ring, [["al", "0"], ["0", "be"]]),
                           rotation(ring)))
    images = [bx.parse("x"), bx.parse("u"), bx.parse("u^2")]
    inst = [[e.substitute(images) for e in row] for row in conj]
    # endpoints: x=0 gives diag(u, u^2), x=1 gives diag(u^2, u)
    at0 = [[ext.p0.apply_poly(e) for e in row] for row in inst]
    at1 = [[ext.p1.apply_poly(e) for e in row] for row in inst]
    assert at0[0][0] == b.parse("u") and at0[1][1] == b.parse("u^2")
    assert at0[0][1].is_zero and at0[1][0].is_zero
    assert at1[0][0] == b.parse("u^2") and at1[1][1] == b.parse("u")


def test_permutation_generic_blocks_size_three():
    # generic (non-scalar) blocks: the endpoint identities are multilinear in
    # every block entry, so this exercises all coordinates of a 3x3 block
    rep = permutation_homotopy([1, 0], [3, 2])
    assert rep["ok"] and rep["links"] == 2


def test_permutation_five_blocks():
    rep = permutation_homotopy([4, 3, 2, 1, 0], [1, 2, 1, 2, 1])
    assert rep["ok"] and rep["links"] == 2
