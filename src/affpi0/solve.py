"""Exact solution of zero-dimensional polynomial systems over Q and F_p.

Over a prime field the solver is exhaustive.  Over the rationals it
triangularizes with a lex Gröbner basis and back-substitutes through the
rational roots of univariate eliminants, its roots modulo a prime lifted
p-adically and checked exactly (`factor.roots_int`); these are all of an
eliminant's rational roots, so a solution set is certified complete
whenever every branch produced a univariate eliminant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ResourceLimitError
from .linalg import rref
from .polyring import LEX, QQ as QQ_FIELD, FieldDescriptor, Polynomial, groebner

SOLVE_GUARD = 200_000


@dataclass
class SolveResult:
    solutions: list[tuple]
    complete: bool


def solve_system(gens: Sequence[Polynomial], nvars: int,
                 field: FieldDescriptor) -> SolveResult:
    """Field-rational common zeros of the generators.

    The `complete` flag certifies that every solution was enumerated; an
    underdetermined linear system over Q yields one particular solution with
    the flag down.
    """
    gens = [g for g in gens if not g.is_zero]
    if any(g.total_degree() == 0 for g in gens):
        return SolveResult([], True)
    if field.is_rational:
        points, complete = _solve_rational(gens, nvars)
        return SolveResult(sorted(set(points)), complete)
    p = field.p
    if p ** nvars > SOLVE_GUARD:
        raise ResourceLimitError(
            f"solution search space {p}^{nvars} exceeds guard {SOLVE_GUARD}")
    sols = [assign for assign in itertools.product(range(p), repeat=nvars)
            if all(g.evaluate(assign) == 0 for g in gens)]
    return SolveResult(sols, True)


def _solve_rational(gens: list[Polynomial], n: int
                    ) -> tuple[list[tuple], bool]:
    """Rational zeros in n variables and their completeness flag.

    Branches on the last variable with a univariate eliminant and splices
    each rational root into the points found below it.  When no eliminant
    exists the system is solved exactly if it is linear (one particular
    rational point, flagged incomplete when underdetermined); otherwise the
    branch is abandoned as incomplete.
    """
    if n == 0:
        return ([()] if all(g.constant_term() == 0 for g in gens) else []), True
    if not gens:
        # positive-dimensional: pick the origin of this branch, incomplete
        return [(Fraction(0),) * n], False
    gb = groebner(gens, LEX)
    if gb.contains_one():
        return [], True
    pick = next(((var, g) for var in range(n - 1, -1, -1) for g in gb
                 if all(not any(m[:var] + m[var + 1:]) for m in g.terms)),
                None)
    if pick is None:
        if all(g.total_degree() <= 1 for g in gb):
            return _solve_linear(list(gb), n)
        return [], False
    var, eliminant = pick
    powers = [(0,) * var + (k,) + (0,) * (n - var - 1)
              for k in range(max(m[var] for m in eliminant.terms) + 1)]
    points, complete = [], True
    for root in rational_roots(eliminant.coefficients(powers)):
        substituted = [h for h in (_plug_var(g, var, root) for g in gb)
                       if not h.is_zero]
        below, below_complete = _solve_rational(substituted, n - 1)
        points += [s[:var] + (root,) + s[var:] for s in below]
        complete &= below_complete
    return points, complete


def _solve_linear(gens: list[Polynomial], n: int) -> tuple[list[tuple], bool]:
    """A linear system: one particular point, complete when it is unique."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    reduced, pivots = rref([g.coefficients(units + [(0,) * n]) for g in gens],
                           QQ_FIELD)
    if n in pivots:
        return [], True        # inconsistent: certified empty branch
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = -reduced[r][n]
    return [tuple(particular)], len(pivots) == n


def _plug_var(g: Polynomial, var: int, value: Fraction) -> Polynomial:
    """Evaluate one variable and drop it from the ring."""
    terms: dict = {}
    for m, c in g.terms.items():
        v = c * value ** m[var]
        key = m[:var] + m[var + 1:]
        v = terms.get(key, Fraction(0)) + v
        terms[key] = v
    terms = {m: c for m, c in terms.items() if c != 0}
    return Polynomial(g.arity - 1, g.field, terms)


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of sum_i coeffs[i] x^i, ascending, with
    multiplicity ignored: `factor.roots_int` of its integer multiple."""
    # imported on first use, so start-up does not load the kernel
    from .factor import roots_int
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []  # zero polynomial: callers treat separately
    den = lcm(*[c.denominator for c in coeffs])
    return roots_int([int(c * den) for c in coeffs])
