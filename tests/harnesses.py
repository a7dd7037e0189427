"""Test harnesses shared by several test modules."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import Iterator

from affpi0 import derham, pi0, simplicial
from affpi0.matrix_homotopy import _transpose
from affpi0.algebra import AlgebraPresentation, polynomial_extension
from affpi0.errors import PropertyViolationError
from affpi0.polyring import (DEGREVLEX, Monomial, monomial_div,
                             monomial_lcm)


def monomials_up_to(arity: int, maxdeg: int) -> Iterator[Monomial]:
    """All exponent tuples of total degree <= maxdeg, by degree then
    degrevlex descending."""
    for deg in range(maxdeg + 1):
        yield from sorted(_compositions(arity, deg), key=DEGREVLEX.key,
                          reverse=True)


def _compositions(arity: int, deg: int) -> Iterator[Monomial]:
    if arity == 0:
        if deg == 0:
            yield ()
        return
    for first in range(deg, -1, -1):
        for rest in _compositions(arity - 1, deg - first):
            yield (first,) + rest


def p0p1_invariance_harness(a: AlgebraPresentation, hook: str,
                            degree: int = 2, tower_depth: int = 2) -> dict:
    """Check that the two evaluations of A[x] induce the same map on a
    computed invariant (named hook: pi0 | derham_h0 | sing_h0)."""
    ext = polynomial_extension(a)
    ax = ext.algebra
    if hook == "derham_h0":
        spanning = derham.derham_h0(ax, degree).basis
    elif hook == "pi0":
        spanning = pi0.equalizer_subspace(ax, degree, tower_depth).basis
    elif hook == "sing_h0":
        spanning = simplicial.sing_h0(ax, tower_depth, degree).levels[-1].basis
    else:
        raise ValueError(f"unknown invariant hook {hook!r}")
    disagreements = []
    for elem in spanning:
        left = ext.p0.apply(elem)
        right = ext.p1.apply(elem)
        if left != right:
            disagreements.append(elem)
    if disagreements:
        raise PropertyViolationError(
            f"p0/p1 disagree on the {hook} spanning set",
            witness=disagreements[0])
    return {"ok": True, "hook": hook, "spanning_size": len(spanning)}


def reversed_entry_products(mat_mul):
    """mat_mul with every entry product taken as b·a instead of a·b: the same
    over commuting entries, a different word over noncommuting ones."""
    return lambda a, b: _transpose(mat_mul(_transpose(b), _transpose(a)))


def reference_s_polynomial(g1, lm1, g2, lm2):
    """The S-polynomial of g1 and g2, with leading monomials lm1 and lm2,
    on exponent tuples and field scalars: q1·g1/lc1 − q2·g2/lc2, where
    q_i·lm_i is the lcm of lm1 and lm2."""
    lcm = monomial_lcm(lm1, lm2)
    f = g1.field
    a = g1.mul_monomial(monomial_div(lcm, lm1), f.inv(g1.terms[lm1]))
    b = g2.mul_monomial(monomial_div(lcm, lm2), f.inv(g2.terms[lm2]))
    return a - b


def perfbench_etale_cases(seed: int = 1) -> list[tuple]:
    """The seeded étale algebras of the benchmark's idempotent jobs over
    Q and F_5, as (name, algebra, degree)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).resolve().parent.parent
        / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(jobs)
    finally:
        sys.dont_write_bytecode = saved
    return [(job["name"].split("/")[1],
             AlgebraPresentation.from_json(job["algebra"]), job["degree"])
            for job in jobs.pi0_routes(seed)
            if job["name"].startswith(("idempotent/etale",
                                       "idempotent/f5etale"))]
