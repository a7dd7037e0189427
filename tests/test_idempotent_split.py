"""The idempotent split against the solver route it replaced.

For k = 2 over Q, and over F_p on a finite algebra, `_root_solutions`
splits the algebra the level-1 cut generates instead of solving e² = e.
The replaced route (e² − e at the generic element of the cut, one block
substitution, `solve_system`) is kept here as the reference, and the two
must list the same idempotents in the same order, both complete.
"""

from __future__ import annotations

import pytest

from affpi0 import linalg, pi0
from affpi0.algebra import AlgebraPresentation
from affpi0.polyring import GF, QQ, Polynomial, _split_at
from affpi0.solve import solve_system
from harnesses import perfbench_etale_cases
from test_pi0 import FINITE_ALGEBRAS


def reference_idempotents(a, slice_monos, cut):
    """The k = 2 solver route: the coefficients of e² − e at the generic
    element of the cut, solved, sorted by slice coordinates."""
    field = a.field
    r = len(cut)
    terms = {}
    for j, row in enumerate(cut):
        unknown = (0,) * j + (1,) + (0,) * (r - j - 1)
        for m, c in zip(slice_monos, row):
            if c:
                terms[m + unknown] = c
    generic = Polynomial(a.arity + r, field, terms)
    z = Polynomial.variable(0, 1, field)
    system = list(_split_at([z ** 2 - z], [generic], a.gb(), a.arity,
                            a.arity + r)[0].values())
    result = solve_system(system, r, field)
    vectors = sorted(map(tuple, linalg.mat_mul(result.solutions, cut, field)))
    return a.elements(slice_monos, vectors), result.complete


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


def parabolas(copies: int) -> str:
    return "*".join(f"(y - x^2 - {i})" for i in range(copies))


CASES = [
    *(pytest.param(A_of(field, names, rels), degree, id=f"{name}-{degree}")
      for name, (field, names, rels, top) in FINITE_ALGEBRAS.items()
      for degree in range(top + 1)),
    *(pytest.param(A_of(field, names, rels), degree,
                   id=f"{field}-{name}-{degree}")
      for field, name, names, rels in (
          (QQ, "circle", ["x", "y"], ["x^2 + y^2 - 1"]),
          (QQ, "node", ["x", "y"], ["y^2 - x^2 - x^3"]),
          (QQ, "cusp", ["x", "y"], ["y^2 - x^3"]),
          (QQ, "lines", ["x", "y"], ["y^2 - y"]),
          (QQ, "dual", ["e"], ["e^2"]),
          (GF(3), "dual", ["e"], ["e^2"]))
      for degree in range(5)),
    *(pytest.param(a, degree, id=f"seed{seed}-{name}")
      for seed in range(1, 11)
      for name, a, degree in perfbench_etale_cases(seed)),
    *(pytest.param(A_of(QQ, ["x", "y"], [parabolas(4)]), degree,
                   id=f"four-parabolas-{degree}") for degree in (2, 3)),
    *(pytest.param(A_of(QQ, ["x", "y"], ["x^2 + 1", "y^2 + 1"]), degree,
                   id=f"i-and-i-{degree}") for degree in range(3)),
    *(pytest.param(A_of(field, ["x"], ["x - 1", "x"]), 2, id=f"zero-{field}")
      for field in (QQ, GF(3))),
]


@pytest.mark.parametrize("a, degree", CASES)
def test_the_split_lists_the_solver_routes_idempotents(a, degree):
    slice_monos, cut = pi0._cut(a, degree, pi0._line_level(a, 1))
    got, complete = pi0._root_solutions(a, 2, slice_monos, cut)
    want, want_complete = reference_idempotents(a, slice_monos, cut)
    assert complete and want_complete
    assert got == want
