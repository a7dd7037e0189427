"""Exact dense linear algebra over the package's ground fields.

Matrices are lists of rows of field scalars (Fraction or residues).  The
vocabulary the geometry modules share: RREF, the canonical row basis, rank,
right and left kernels, the relations among polynomials, membership of a
vector in a row span, and products.
Everything is exact; no pivoting heuristics needed.  Elimination is
fraction-free, in the integer-preserving style of E. H. Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968): over Q it runs on integer rows, so a `Fraction` is built
only for an entry of a returned pivot row.  Products (`mat_mul`) run on
integer rows too, one `Fraction` per nonzero entry of the product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polyring import FieldDescriptor, Polynomial


def rref(rows: list[list], field: FieldDescriptor) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (fresh matrix) and pivot column indices.

    One elimination loop for both fields.  Over Q each row is scaled to
    primitive integers; clearing column c of row i by the pivot row, whose
    entry there is a, takes (a/g)·row_i − (b/g)·pivot row for b = row_i[c]
    and g = gcd(a, b), and divides the result by its content.  Over F_p the
    same step is a·row_i − b·pivot row on residues.  Each pivot row is
    divided by its pivot at the end, and the zero rows follow."""
    modulus = field.p
    if modulus is None:
        m = []
        for row in rows:
            ratios = [v.as_integer_ratio() for v in row]
            den = lcm(*[d for _, d in ratios])
            row = [n * (den // d) for n, d in ratios]
            content = gcd(*row)
            m.append([v // content for v in row] if content > 1 else row)
    else:
        m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        a = top[c]
        for i, row in enumerate(m):
            b = row[c]
            if b and i != r:
                if modulus is None:
                    g = gcd(a, b)
                    x, y = a // g, b // g
                    row = [x * u - y * v for u, v in zip(row, top)]
                    content = gcd(*row)
                    if content > 1:
                        row = [u // content for u in row]
                else:
                    row = [(a * u - b * v) % modulus for u, v in zip(row, top)]
                m[i] = row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = field.zero()
    out = []
    for row, c in zip(m, pivots):
        a = row[c]
        if modulus is None:
            out.append([Fraction(v, a) if v else zero for v in row])
        else:
            inv = pow(a, -1, modulus)
            out.append([v * inv % modulus for v in row])
    return out + [[zero] * ncols for _ in m[r:]], pivots


def row_basis(rows: list[list], field: FieldDescriptor) -> list[list]:
    """The nonzero rows of the RREF: the canonical basis of the row span."""
    reduced, pivots = rref(rows, field)
    return reduced[:len(pivots)]


def rank(rows: list[list], field: FieldDescriptor) -> int:
    return len(rref(rows, field)[1])


def nullspace(rows: list[list], ncols: int, field: FieldDescriptor) -> list[list]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, one = field.zero(), field.one()
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    return basis


def left_nullspace(rows: list[list], field: FieldDescriptor) -> list[list]:
    """Basis of the relations {w : w·rows = 0} among the rows."""
    return nullspace([list(col) for col in zip(*rows)], len(rows), field)


def relations(polys: Sequence[Polynomial], field: FieldDescriptor
              ) -> list[list]:
    """The canonical basis (the RREF rows) of {w : Σ w_i·polys_i = 0}, read
    over the monomials the polynomials use."""
    support = sorted({m for p in polys for m in p.terms})
    return row_basis(left_nullspace([p.coefficients(support) for p in polys],
                                    field), field)


def in_span(rows: list[list], target: list, field: FieldDescriptor) -> bool:
    """Whether target is a combination x·rows of the rows."""
    # solve rows^T x = target: the target column must not hold a pivot
    augmented = [list(col) for col in zip(*rows, target)]
    return len(rows) not in rref(augmented, field)[1]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence],
            field: FieldDescriptor) -> list[list]:
    """a·b: row i is the combination of the rows of b weighted by row i of a,
    zero weights skipped; with no rows in b every product row is empty.

    Fraction-free like `rref`: over Q the rows of b are integers under one
    common denominator and each weight row is brought to integers under
    its own, so a row accumulates plain integers and a `Fraction` is built
    only for a nonzero entry of the product.  Over F_p the integer sums
    are reduced once at the end."""
    modulus = field.p
    zero = field.zero()
    width = len(b[0]) if b else 0
    if modulus is None:
        ratios = [[v.as_integer_ratio() for v in row] for row in b]
        scale = lcm(*[d for row in ratios for _, d in row])
        b = [[n * (scale // d) for n, d in row] for row in ratios]
    out = []
    for weights in a:
        if modulus is None:
            ratios = [w.as_integer_ratio() for w in weights]
            den = lcm(*[d for _, d in ratios])
            weights = [n * (den // d) for n, d in ratios]
        acc = [0] * width
        for w, row in zip(weights, b):
            if w:
                acc = [s + w * v for s, v in zip(acc, row)]
        if modulus is None:
            den *= scale
            out.append([Fraction(v, den) if v else zero for v in acc])
        else:
            out.append([v % modulus for v in acc])
    return out
