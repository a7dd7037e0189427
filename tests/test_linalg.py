"""The linear-algebra vocabulary against sympy over Q and brute force over F_3."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from affpi0 import linalg
from affpi0.polyring import GF, QQ, Polynomial
from harnesses import monomials_up_to

F3 = GF(3)


def random_matrix(rng, nrows, ncols, field, rank=None):
    """A seeded matrix; with `rank`, a product of two thin factors."""
    pick = ((lambda: Fraction(rng.randint(-3, 3))) if field.is_rational
            else (lambda: rng.randrange(field.p)))
    if rank is None:
        return [[pick() for _ in range(ncols)] for _ in range(nrows)]
    if rank == 0:
        return [[field.zero()] * ncols for _ in range(nrows)]
    left = [[pick() for _ in range(rank)] for _ in range(nrows)]
    right = [[pick() for _ in range(ncols)] for _ in range(rank)]
    return linalg.mat_mul(left, right, field)


# shapes (rows, columns, rank of the construction or None): empty,
# zero-width, square, wide, tall, and rank-deficient
SHAPES = [(0, 0, None), (0, 3, None), (3, 0, None), (1, 1, None),
          (3, 3, None), (2, 5, None), (5, 2, None), (4, 4, 2), (5, 3, 1),
          (3, 4, 0), (4, 6, 3)]


def cases(field, seeds=3):
    rng = random.Random(20261018)
    for nrows, ncols, rank in SHAPES:
        for _ in range(seeds):
            yield random_matrix(rng, nrows, ncols, field, rank), ncols, rng


def as_polynomials(rows, ncols, field):
    """Row i as the polynomial sum_j rows[i][j]·x^j."""
    monos = [(j,) for j in range(ncols)]
    return [Polynomial.combination(1, field, monos, row) for row in rows]


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in rows for v in row])


def sympy_rows(m):
    return [[Fraction(int(v.p), int(v.q)) for v in m.row(i)]
            for i in range(m.rows)]


def span_rref(vectors, ncols):
    """The canonical basis of a span of vectors, through sympy."""
    if not vectors:
        return []
    reduced, pivots = to_sympy(vectors, ncols).rref()
    return sympy_rows(reduced[:len(pivots), :])


# ---------------------------------------------------------------------------
# over Q, against sympy


def test_rank_and_row_basis_match_sympy():
    for rows, ncols, _ in cases(QQ):
        assert linalg.rank(rows, QQ) == to_sympy(rows, ncols).rank()
        assert linalg.row_basis(rows, QQ) == span_rref(rows, ncols)


def test_nullspaces_match_sympy():
    for rows, ncols, _ in cases(QQ):
        m = to_sympy(rows, ncols)
        right = linalg.nullspace(rows, ncols, QQ)
        want = [[Fraction(int(v.p), int(v.q)) for v in vec]
                for vec in m.nullspace()]
        assert span_rref(right, ncols) == span_rref(want, ncols)
        assert len(right) == ncols - m.rank()
        left = linalg.left_nullspace(rows, QQ)
        want = [[Fraction(int(v.p), int(v.q)) for v in vec]
                for vec in m.T.nullspace()]
        assert span_rref(left, len(rows)) == span_rref(want, len(rows))
        assert len(left) == len(rows) - m.rank()
        for w in left:
            assert linalg.mat_mul([w], rows, QQ) == [[Fraction(0)] * ncols]
        # the same relations among the rows read as polynomials, canonical
        assert linalg.relations(as_polynomials(rows, ncols, QQ), QQ) \
            == span_rref(want, len(rows))


def test_in_span_matches_sympy():
    for rows, ncols, rng in cases(QQ):
        inside = linalg.mat_mul([[Fraction(rng.randint(-2, 2))
                                  for _ in rows]], rows, QQ)[0] \
            if rows else [Fraction(0)] * ncols
        outside = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        for target in (inside, outside):
            m = to_sympy(rows, ncols)
            want = (m.col_join(to_sympy([target], ncols)).rank() == m.rank())
            assert linalg.in_span(rows, target, QQ) == want


def test_mat_mul_matches_sympy():
    rng = random.Random(5)
    for n, k, m in [(2, 3, 4), (3, 1, 2), (1, 4, 1), (3, 3, 3), (0, 2, 2),
                    (2, 0, 3)]:
        a = random_matrix(rng, n, k, QQ)
        b = random_matrix(rng, k, m, QQ)
        got = linalg.mat_mul(a, b, QQ)
        if k == 0:
            # no rows in b: each product row is empty
            assert got == [[] for _ in range(n)]
            continue
        assert got == sympy_rows(to_sympy(a, k) * to_sympy(b, m))


def reference_mat_mul(a, b, field):
    """The loop `mat_mul` replaced: field additions and products of the
    entries, zero weights skipped."""
    zero = field.zero()
    width = len(b[0]) if b else 0
    out = []
    for weights in a:
        acc = [zero] * width
        for w, row in zip(weights, b):
            if w != zero:
                acc = [field.add(s, field.mul(w, v)) for s, v in zip(acc, row)]
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, F3, GF(32003)], ids=str)
def test_mat_mul_matches_the_entrywise_loop(field):
    """Same values and types, over Q with fractions of unlike
    denominators, integer entries and zero rows."""
    rng = random.Random(11)
    if field.is_rational:
        def pick():
            return rng.choice([Fraction(0), Fraction(rng.randint(-9, 9)),
                               Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 12))])
    else:
        def pick():
            return rng.choice([0, rng.randrange(field.p)])
    for n, k, m in [(2, 3, 4), (3, 1, 2), (1, 4, 1), (4, 4, 4), (0, 2, 2),
                    (2, 0, 3), (3, 5, 0)]:
        a = [[pick() for _ in range(k)] for _ in range(n)]
        b = [[pick() for _ in range(m)] for _ in range(k)]
        if n:
            a[0] = [field.zero()] * k
        got = linalg.mat_mul(a, b, field)
        want = reference_mat_mul(a, b, field)
        assert got == want
        assert [list(map(type, row)) for row in got] \
            == [list(map(type, row)) for row in want]


# ---------------------------------------------------------------------------
# over F_3, against brute force


def vectors(n):
    return [list(v) for v in itertools.product(range(3), repeat=n)]


def combine(weights, rows, ncols):
    return [sum(w * row[j] for w, row in zip(weights, rows)) % 3
            for j in range(ncols)]


def span(rows, ncols):
    return {tuple(combine(w, rows, ncols)) for w in vectors(len(rows))}


def test_rank_row_basis_and_in_span_by_brute_force():
    for rows, ncols, _ in cases(F3):
        spanned = span(rows, ncols)
        basis = linalg.row_basis(rows, F3)
        assert span(basis, ncols) == spanned
        assert 3 ** linalg.rank(rows, F3) == len(spanned)
        for target in vectors(ncols):
            assert linalg.in_span(rows, target, F3) == (tuple(target)
                                                        in spanned)


def test_nullspaces_by_brute_force():
    for rows, ncols, _ in cases(F3):
        kernel = {tuple(x) for x in vectors(ncols)
                  if all(sum(a * b for a, b in zip(row, x)) % 3 == 0
                         for row in rows)}
        assert span(linalg.nullspace(rows, ncols, F3), ncols) == kernel
        relations = {tuple(w) for w in vectors(len(rows))
                     if not any(combine(w, rows, ncols))}
        assert span(linalg.left_nullspace(rows, F3), len(rows)) == relations
        among = linalg.relations(as_polynomials(rows, ncols, F3), F3)
        assert span(among, len(rows)) == relations
        assert linalg.row_basis(among, F3) == among


def test_mat_mul_by_brute_force():
    rng = random.Random(9)
    for n, k, m in [(2, 3, 4), (3, 1, 2), (1, 4, 1), (3, 3, 3)]:
        a = random_matrix(rng, n, k, F3)
        b = random_matrix(rng, k, m, F3)
        assert linalg.mat_mul(a, b, F3) == [combine(row, b, m) for row in a]


# ---------------------------------------------------------------------------
# coefficient vectors of polynomials


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_coefficients_inverts_combination(field):
    rng = random.Random(3)
    monos = list(monomials_up_to(2, 3))
    for _ in range(20):
        vec = [field.scalar(rng.choice([0, 0, 1, 2, -1])) for _ in monos]
        p = Polynomial.combination(2, field, monos, vec)
        assert p.coefficients(monos) == vec
        assert Polynomial.combination(2, field, monos,
                                      p.coefficients(monos)) == p


def test_coefficients_of_a_term_outside_the_list_is_none():
    monos = list(monomials_up_to(2, 1))
    p = Polynomial.monomial((2, 0), QQ) + Polynomial.monomial((0, 1), QQ)
    assert p.coefficients(monos) is None
    assert p.coefficients([]) is None
    assert Polynomial.zero(2, QQ).coefficients([]) == []
    assert Polynomial.zero(2, QQ).coefficients(monos) == [Fraction(0)] * 3
