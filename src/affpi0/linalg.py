"""Exact dense linear algebra over the package's ground fields.

Matrices are lists of rows of field scalars (Fraction or residues).  Only the
small helpers the geometry modules need: RREF, rank, nullspace, membership of
a vector in a row span.  Everything is exact; no pivoting heuristics needed.
"""

from __future__ import annotations

from typing import Sequence

from .polyring import FieldDescriptor


def rref(rows: list[list], field: FieldDescriptor) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (fresh matrix) and pivot column indices."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    zero = field.zero()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


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


def solve_in_span(rows: list[list], target: list, field: FieldDescriptor
                  ) -> list | None:
    """Coefficients x with x·rows = target, or None if target is outside the span."""
    if not rows:
        return None if any(v != field.zero() for v in target) else []
    ncols = len(rows[0])
    # transpose: solve A^T x = target
    aug = [[rows[j][i] for j in range(len(rows))] + [target[i]]
           for i in range(ncols)]
    red, pivots = rref(aug, field)
    n = len(rows)
    if n in pivots:
        return None
    zero = field.zero()
    x = [zero] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


def in_span(rows: list[list], target: list, field: FieldDescriptor) -> bool:
    return solve_in_span(rows, target, field) is not None


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence],
            field: FieldDescriptor) -> list[list]:
    zero = field.zero()
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for k, v in enumerate(row):
                if v != zero:
                    acc = field.add(acc, field.mul(v, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def identity_matrix(n: int, field: FieldDescriptor) -> list[list]:
    zero, one = field.zero(), field.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
