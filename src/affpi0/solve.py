"""Exact solution of zero-dimensional polynomial systems over Q and F_p.

Over a prime field the solver is exhaustive.  Over the rationals it
triangularizes with a lex Gröbner basis and back-substitutes through the
rational roots of univariate eliminants; the rational root theorem is
exhaustive for rational points, so a solution set is certified complete
whenever every branch produced a univariate eliminant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ResourceLimitError
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
        sols = set()
        complete = _solve_rational(gens, nvars, {}, list(range(nvars)), sols)
        return SolveResult(sorted(sols), complete)
    p = field.p
    if p ** nvars > SOLVE_GUARD:
        raise ResourceLimitError(
            f"solution search space {p}^{nvars} exceeds guard {SOLVE_GUARD}")
    sols = [assign for assign in itertools.product(range(p), repeat=nvars)
            if all(g.evaluate(assign) == 0 for g in gens)]
    return SolveResult(sols, True)


def _record(out: set, assignment: dict, nvars: int) -> None:
    out.add(tuple(assignment[i] for i in range(nvars)))


def _solve_rational(gens: list[Polynomial], total_vars: int,
                    assignment: dict, positions: list[int], out: set) -> bool:
    """Branch on any variable with a univariate eliminant; returns completeness.

    `positions` maps the current (shrunken) ring back to original variable
    indices.  When no eliminant exists the remaining system is solved exactly
    if it is linear (one particular rational point, flagged incomplete when
    underdetermined); otherwise the branch is abandoned as incomplete.
    """
    if not positions:
        if all(g.constant_term() == 0 for g in gens):
            _record(out, assignment, total_vars)
        return True
    if not gens:
        # positive-dimensional: pick the origin of this branch, incomplete
        for pos in positions:
            assignment[pos] = Fraction(0)
        _record(out, assignment, total_vars)
        return False
    gb = groebner(gens, LEX)
    if gb.contains_one():
        return True
    n = len(positions)
    pick = None
    for var in range(n - 1, -1, -1):
        for g in gb:
            if all(all(e == 0 for i, e in enumerate(m) if i != var)
                   for m in g.terms):
                pick = (var, g)
                break
        if pick:
            break
    if pick is None:
        if all(g.total_degree() <= 1 for g in gb):
            return _solve_linear_branch(list(gb), total_vars, assignment,
                                        positions, out)
        return False
    var, eliminant = pick
    complete = True
    for root in rational_roots(_univariate_coeffs(eliminant, var)):
        substituted = []
        for g in gb:
            h = _plug_var(g, var, root)
            if not h.is_zero:
                substituted.append(h)
        sub_positions = positions[:var] + positions[var + 1:]
        assignment[positions[var]] = root
        complete &= _solve_rational(substituted, total_vars, assignment,
                                    sub_positions, out)
    return complete


def _solve_linear_branch(gens: list[Polynomial], total_vars: int,
                         assignment: dict, positions: list[int],
                         out: set) -> bool:
    from .linalg import rref

    n = len(positions)
    rows = []
    for g in gens:
        row = [Fraction(0)] * (n + 1)
        for m, c in g.terms.items():
            if sum(m) == 0:
                row[n] = -c
            else:
                row[m.index(1)] = c
        rows.append(row)
    reduced, pivots = rref(rows, QQ_FIELD)
    if n in pivots:
        return True        # inconsistent: certified empty branch
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][n]
    for pos, value in zip(positions, particular):
        assignment[pos] = value
    _record(out, assignment, total_vars)
    return len(pivots) == n


def _univariate_coeffs(g: Polynomial, var: int) -> list[Fraction]:
    deg = max(m[var] for m in g.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in g.terms.items():
        coeffs[m[var]] += c
    return coeffs


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
    """All rational roots of sum_i coeffs[i] x^i, with multiplicity ignored."""
    # strip trailing zeros and factor out x^k
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []  # zero polynomial: callers treat separately
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return sorted(roots)
    # clear denominators to an integer polynomial
    from math import gcd, isqrt, lcm
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    lead, const = abs(ints[-1]), abs(ints[0])
    for name, value in (("leading coefficient", lead), ("constant", const)):
        if isqrt(value) > SOLVE_GUARD:
            raise ResourceLimitError(
                f"rational root search: isqrt of the {name} {value} exceeds "
                f"guard SOLVE_GUARD = {SOLVE_GUARD}")
    for q in _divisors(lead):
        for p in _divisors(const):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if _poly_at(ints, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _poly_at(ints: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
