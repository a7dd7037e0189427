"""Symbolic verification of the 2x2 rotation-matrix homotopy lemmas.

Everything here is an exact identity: matrices carry polynomial entries over
commuting symbols (plus the homotopy variable x), and a small layer of
noncommuting words covers the corner-conjugation check, whose identity keeps
the order of c, α and c⁻¹ without cancelling them.  Reports are pass/fail
with the offending residual on fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .algebra import AlgebraPresentation
from .errors import PropertyViolationError
from .polyring import QQ, Polynomial

# ---------------------------------------------------------------------------
# commutative symbolic matrices


def _matrix(ring: AlgebraPresentation, entries: Sequence[Sequence[str]]
            ) -> list[list[Polynomial]]:
    """The matrix of the entries parsed in `ring`, a polynomial ring over Q."""
    return [[ring.parse(e) for e in row] for row in entries]


def mat_mul(a, b):
    """The product of matrices over Polynomial or NCPoly entries."""
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)),
                 start=a[0][0].scale(0)) for j in range(m)] for i in range(n)]


def mat_eval_x(a, ring: AlgebraPresentation, value: int):
    """Substitute the symbol named x by a constant, keeping the same ring."""
    images = [Polynomial.constant(value, ring.arity, QQ) if nm == "x"
              else Polynomial.variable(i, ring.arity, QQ)
              for i, nm in enumerate(ring.vars)]
    return [[e.substitute(images) for e in row] for row in a]


def rotation(ring: AlgebraPresentation):
    """The determinant-1 polynomial matrix of rotation-by-x homotopies."""
    return _matrix(ring, [["1 - x^2", "x^3 - 2*x"], ["x", "1 - x^2"]])


def rotation_inverse(ring: AlgebraPresentation):
    # adjugate; the determinant is 1
    return _matrix(ring, [["1 - x^2", "-(x^3 - 2*x)"], ["-x", "1 - x^2"]])


# ---------------------------------------------------------------------------
# noncommuting words


class NCPoly:
    """Linear combinations of (word, x-power) with word concatenation.

    Words are tuples of symbol names and multiply by concatenation, with no
    cancellation.  The homotopy variable x stays central and carries its own
    exponent.
    """

    def __init__(self, terms: dict[tuple[tuple[str, ...], int], Fraction]
                 | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def sym(name: str) -> "NCPoly":
        return NCPoly({((name,), 0): Fraction(1)})

    @staticmethod
    def const(c) -> "NCPoly":
        return NCPoly({((), 0): Fraction(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return NCPoly(out)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        out: dict = {}
        for (w1, k1), c1 in self.terms.items():
            for (w2, k2), c2 in other.terms.items():
                key = (w1 + w2, k1 + k2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return NCPoly(out)

    def scale(self, c) -> "NCPoly":
        return NCPoly({k: v * Fraction(c) for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for (w, k), c in sorted(self.terms.items()):
            body = "*".join(w) or "1"
            if k:
                body += f"*x^{k}"
            bits.append(f"{c}*{body}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the lemma suite


def rotation_matrix_checks() -> dict:
    """det = 1 exactly, endpoints at x=0 and x=1, and a symbolic inverse."""
    ring = AlgebraPresentation(QQ, ["x"])
    r = rotation(ring)
    det = r[0][0] * r[1][1] - r[0][1] * r[1][0]
    det_ok = det == Polynomial.one(ring.arity, QQ)
    r0 = mat_eval_x(r, ring, 0)
    ident = _matrix(ring, [["1", "0"], ["0", "1"]])
    r1 = mat_eval_x(r, ring, 1)
    antidiag = _matrix(ring, [["0", "-1"], ["1", "0"]])
    rinv = rotation_inverse(ring)
    inv_ok = mat_mul(r, rinv) == ident and mat_mul(rinv, r) == ident
    report = {
        "det_is_one": det_ok,
        "at_zero_is_identity": r0 == ident,
        "at_one_is_antidiagonal": r1 == antidiag,
        "inverse_ok": inv_ok,
    }
    report["ok"] = all(report.values())
    if not report["ok"]:
        report["residual"] = det.to_string(ring.vars)
    return report


def conjugation_homotopy_check() -> dict:
    """Conjugation by the rotation matrix interpolates the 2x2 swap morphism."""
    ring = AlgebraPresentation(QQ, ["x", "a", "b", "c", "d", "e", "f", "g",
                                    "h"])
    r, rinv = rotation(ring), rotation_inverse(ring)
    m = _matrix(ring, [["a", "b"], ["c", "d"]])
    conj = mat_mul(rinv, mat_mul(m, r))
    at0 = mat_eval_x(conj, ring, 0)
    at1 = mat_eval_x(conj, ring, 1)
    swapped = _matrix(ring, [["d", "-c"], ["-b", "a"]])
    n = _matrix(ring, [["e", "f"], ["g", "h"]])
    conj_n = mat_mul(rinv, mat_mul(n, r))
    conj_mn = mat_mul(rinv, mat_mul(mat_mul(m, n), r))
    multiplicative = conj_mn == mat_mul(conj, conj_n)
    trace = conj[0][0] + conj[1][1]
    report = {
        "endpoint_zero": at0 == m,
        "endpoint_one": at1 == swapped,
        "multiplicative": multiplicative,
        "trace_preserved": trace == ring.parse("a + d"),
    }
    report["ok"] = all(report.values())
    return report


def block_lemma_checks() -> dict:
    """Block swap by conjugation, and the corner-conjugation word identity."""
    ring = AlgebraPresentation(QQ, ["x", "al", "be"])
    r, rinv = rotation(ring), rotation_inverse(ring)
    m = _matrix(ring, [["al", "0"], ["0", "be"]])
    conj = mat_mul(rinv, mat_mul(m, r))
    at0 = mat_eval_x(conj, ring, 0)
    at1 = mat_eval_x(conj, ring, 1)
    swapped = _matrix(ring, [["be", "0"], ["0", "al"]])
    scalar = _matrix(ring, [["al", "0"], ["0", "al"]])
    degenerate = mat_eval_x(mat_mul(rinv, mat_mul(scalar, r)), ring, 1) \
        == scalar

    al = NCPoly.sym("al_nc")
    c = NCPoly.sym("c")
    c_inv = NCPoly.sym("c_inv")
    one = NCPoly.const(1)
    zero = NCPoly({})
    left = mat_mul([[one, zero], [zero, c]],
                   mat_mul([[zero, zero], [zero, al]],
                           [[one, zero], [zero, c_inv]]))
    corner = left == [[zero, zero], [zero, c * al * c_inv]]

    report = {
        "swap_endpoint_zero": at0 == m,
        "swap_endpoint_one": at1 == swapped,
        "degenerate_equal_blocks": degenerate,
        "corner_conjugation": corner,
    }
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# permutations of diagonal blocks


def _place(ring: AlgebraPresentation, size: int, blocks):
    """The size x size zero matrix with each (row, column, block) of `blocks`
    written with the block's top-left entry at (row, column)."""
    out = [[Polynomial.zero(ring.arity, QQ) for _ in range(size)]
           for _ in range(size)]
    for top, left, blk in blocks:
        for i, row in enumerate(blk):
            out[top + i][left:left + len(row)] = row
    return out


def _block_diag(ring: AlgebraPresentation,
                blocks: list[list[list[Polynomial]]], size: int):
    offsets = accumulate((len(blk) for blk in blocks), initial=0)
    return _place(ring, size, [(p, p, blk) for p, blk in zip(offsets, blocks)])


def _generic_block(ring: AlgebraPresentation, prefix: str, k: int):
    return [[ring.parse(f"{prefix}_{i}_{j}") for j in range(k)]
            for i in range(k)]


def _block_symbols(sizes: Sequence[int]) -> list[str]:
    names = []
    for b, k in enumerate(sizes):
        for i in range(k):
            for j in range(k):
                names.append(f"a{b}_{i}_{j}")
    return names


def _permutation_matrix(ring: AlgebraPresentation, sigma: Sequence[int],
                        sizes: Sequence[int]):
    """Rows of the permuted layout against columns of the original layout."""
    starts = list(accumulate(sizes, initial=0))
    cols = [starts[t] + off for t in sigma for off in range(sizes[t])]
    one = [[Polynomial.one(ring.arity, QQ)]]
    return _place(ring, len(cols), [(i, c, one) for i, c in enumerate(cols)])


def _transpose(m):
    return [list(col) for col in zip(*m)]


def adjacent_transpositions(sigma: Sequence[int]) -> list[int]:
    """Bubble-sort decomposition; entry i means "swap positions i, i+1"."""
    perm = list(sigma)
    swaps = []
    for top in range(len(perm) - 1, 0, -1):
        for i in range(top):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                swaps.append(i)
    return swaps


def permutation_homotopy(sigma: Sequence[int], sizes: Sequence[int]) -> dict:
    """Certificate chain for permuting diagonal blocks inside the doubled size.

    Identity: empty chain.  A single adjacent transposition of equal-size
    blocks: one rotation-conjugation link.  General permutations: two links
    through diag(0, P D P^{-1}) with P the numeric block permutation matrix,
    following the corner-conjugation route.
    """
    n = len(sigma)
    if sorted(sigma) != list(range(n)) or len(sizes) != n:
        raise ValueError("sigma must be a permutation with one size per block")
    if n > 5 or any(s > 3 for s in sizes) or any(s < 1 for s in sizes):
        raise PropertyViolationError("permutation guard: n <= 5, sizes <= 3")
    ring = AlgebraPresentation(QQ, ["x"] + _block_symbols(sizes))
    swaps = adjacent_transpositions(sigma)
    if not swaps:
        return {"ok": True, "links": 0, "transpositions": []}

    k = sum(sizes)
    blocks = [_generic_block(ring, f"a{i}", sizes[i]) for i in range(n)]
    start = _block_diag(ring, blocks, k)
    perm_blocks = [blocks[sigma[i]] for i in range(n)]
    end = _block_diag(ring, perm_blocks, k)

    if len(swaps) == 1 and sizes[swaps[0]] == sizes[swaps[0] + 1]:
        # direct window swap, no padding: the conjugated window replaces
        # the two blocks it swaps
        i = swaps[0]
        s = sizes[i]
        r, rinv = _block_rotation(ring, s)
        window = _block_diag(ring, [blocks[i], blocks[i + 1]], 2 * s)
        conj = mat_mul(rinv, mat_mul(window, r))
        ambient = _block_diag(ring, blocks[:i] + [conj] + blocks[i + 2:], k)
        ok = (mat_eval_x(ambient, ring, 0) == start
              and mat_eval_x(ambient, ring, 1) == end)
        return {"ok": ok, "links": 1, "transpositions": swaps}

    # general route: pad to 2k and go through diag(0, P D P^{-1})
    big = 2 * k
    r, rinv = _block_rotation(ring, k)
    padded = _block_diag(ring, [start], big)
    conj1 = mat_mul(rinv, mat_mul(padded, r))
    p = _permutation_matrix(ring, sigma, sizes)
    p_inv = _transpose(p)
    # diag(I_k, P): the padding block stays, the others are permuted
    big_p = _permutation_matrix(ring, [0] + [1 + t for t in sigma],
                                [k, *sizes])
    link1 = mat_mul(big_p, mat_mul(conj1, _transpose(big_p)))
    l1_start = mat_eval_x(link1, ring, 0)
    l1_end = mat_eval_x(link1, ring, 1)
    conjugated = mat_mul(p, mat_mul(start, p_inv))
    expect_mid = _place(ring, big, [(k, k, conjugated)])
    ok1 = l1_start == padded and l1_end == expect_mid

    padded_end = _block_diag(ring, [end], big)
    conj2 = mat_mul(rinv, mat_mul(padded_end, r))
    l2_start = mat_eval_x(conj2, ring, 0)
    l2_end = mat_eval_x(conj2, ring, 1)
    # the second link runs from diag(PDP^{-1}, 0) to diag(0, PDP^{-1});
    # reversed it glues onto link 1 (conjugated layout equals the permuted one)
    ok_layout = conjugated == end
    ok2 = l2_start == padded_end and l2_end == expect_mid and ok_layout
    return {"ok": ok1 and ok2, "links": 2, "transpositions": swaps}


def _block_rotation(ring: AlgebraPresentation, k: int):
    """The rotation matrix and its inverse with k x k scalar blocks."""
    def spread(m):
        return _place(ring, 2 * k, [(bi * k + t, bj * k + t, [[m[bi][bj]]])
                                    for bi in range(2) for bj in range(2)
                                    for t in range(k)])
    return spread(rotation(ring)), spread(rotation_inverse(ring))


# ---------------------------------------------------------------------------
# stability structure


def gamma_and_stability_checks() -> dict:
    """Block direct sum is multiplicative and commutative up to certificates."""
    ring = AlgebraPresentation(QQ, ["x", "m", "n", "m2", "n2"])
    gamma = _matrix(ring, [["m", "0"], ["0", "n"]])
    gamma2 = _matrix(ring, [["m2", "0"], ["0", "n2"]])
    prod = mat_mul(gamma, gamma2)
    expect = _matrix(ring, [["m*m2", "0"], ["0", "n*n2"]])
    gamma_mult = prod == expect

    # structural map M -> diag(M, 0) respects products
    m = _matrix(ring, [["m"]])
    m2 = _matrix(ring, [["m2"]])
    up = _block_diag(ring, [mat_mul(m, m2)], 2)
    up2 = mat_mul(_block_diag(ring, [m], 2), _block_diag(ring, [m2], 2))
    structural_mult = up == up2

    swap_cert = permutation_homotopy([1, 0], [1, 1])
    report = {
        "gamma_multiplicative": gamma_mult,
        "structural_multiplicative": structural_mult,
        "gamma_commutativity_certificate": swap_cert["ok"],
    }
    report["ok"] = all(report.values())
    return report


def verify_all(only: str | None = None) -> dict:
    """Run the lemma suite; keys match the CLI's --only choices."""
    suite = {
        "rotation": rotation_matrix_checks,
        "conjugation": conjugation_homotopy_check,
        "blocks": block_lemma_checks,
        "permutation": lambda: permutation_homotopy([1, 2, 0], [1, 1, 1]),
        "gamma": gamma_and_stability_checks,
    }
    if only is not None:
        if only not in suite:
            raise ValueError(f"unknown lemma group {only!r}")
        picked = {only: suite[only]}
    else:
        picked = suite
    results = {name: fn() for name, fn in picked.items()}
    results["ok"] = all(r["ok"] for r in results.values())
    return results
