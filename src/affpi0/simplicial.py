"""The standard simplicial algebra, cosimplicial map spaces, and Moore data.

Level n of the standard simplicial algebra is presented as a free polynomial
ring on x1..xn with the substitution x0 = 1 - sum recorded.  Monotone maps
act through the preimage-sum formula; applying the map-space functor levelwise
gives a cosimplicial system of truncated presentations whose slices carry the
Moore complex, degree-0 (and truncated degree-1) cohomology, the cup product,
and the prism maps.  Pro-limits are never taken: every report names its tower
level and degree slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import (AlgebraMorphism, AlgebraPresentation, ElementRep,
                      TensorPresentation, tensor_morphism, tensor_product)
from .errors import HypothesisError, PropertyViolationError
from .mapspace import (MapSpacePresentation, functor_action,
                       mapspace_presentation, require_tower)
from .pi0 import equalizer_subspace
from .polyring import FieldDescriptor, Monomial, Polynomial


# ---------------------------------------------------------------------------
# the standard simplicial algebra


@dataclass(frozen=True)
class DeltaLevel:
    """F[Delta_n] presented freely on x1..xn after eliminating x0."""

    n: int
    presentation: AlgebraPresentation

    def x0(self) -> Polynomial:
        """The recorded substitution 1 - sum of the presented variables."""
        p = Polynomial.one(self.n, self.presentation.field)
        for i in range(self.n):
            p = p - Polynomial.variable(i, self.n, self.presentation.field)
        return p

    def vertex_class(self, i: int) -> Polynomial:
        """The class [x_i] written through the substitution."""
        if i == 0:
            return self.x0()
        return Polynomial.variable(i - 1, self.n, self.presentation.field)


def delta_algebra(n: int, field: FieldDescriptor) -> DeltaLevel:
    if n < 0:
        raise ValueError("simplex level must be non-negative")
    names = [f"x{i}" for i in range(1, n + 1)]
    return DeltaLevel(n, AlgebraPresentation(field, names, ()))


def simplicial_map(alpha: Sequence[int], target_level: int,
                   field: FieldDescriptor) -> AlgebraMorphism:
    """The structure map F[Delta_b] -> F[Delta_a] of a monotone map.

    `alpha` lists the values of a monotone function {0..a} -> {0..b} with
    b = target_level; the class [x_i] maps to the sum of [x_j] over the
    preimage of i, rewritten through the x0 substitutions on both sides.
    """
    a = len(alpha) - 1
    b = target_level
    if a < 0 or any(v < 0 or v > b for v in alpha):
        raise ValueError("alpha must take values in the target range")
    if any(alpha[i] > alpha[i + 1] for i in range(a)):
        raise ValueError("alpha must be monotone")
    src = delta_algebra(b, field)
    dst = delta_algebra(a, field)
    images = []
    for i in range(1, b + 1):
        img = Polynomial.zero(dst.n, field)
        for j, v in enumerate(alpha):
            if v == i:
                img = img + dst.vertex_class(j)
        images.append(img)
    return AlgebraMorphism(src.presentation, dst.presentation, images,
                           check=False)


def _face_alpha(i: int, n: int) -> tuple[int, ...]:
    """The injection {0..n-1} -> {0..n} skipping i."""
    if not 0 <= i <= n or n < 1:
        raise ValueError("face index out of range")
    return tuple(j for j in range(n + 1) if j != i)


def _degeneracy_alpha(i: int, n: int) -> tuple[int, ...]:
    """The surjection {0..n+1} -> {0..n} doubling i."""
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    return tuple(min(j, i) if j <= i + 1 else j - 1 for j in range(n + 2))


def face_map(i: int, n: int, field: FieldDescriptor) -> AlgebraMorphism:
    """d_i: F[Delta_n] -> F[Delta_{n-1}] induced by the injection skipping i."""
    return simplicial_map(_face_alpha(i, n), n, field)


def degeneracy_map(i: int, n: int, field: FieldDescriptor) -> AlgebraMorphism:
    """s_i: F[Delta_n] -> F[Delta_{n+1}] induced by the surjection doubling i."""
    return simplicial_map(_degeneracy_alpha(i, n), n, field)


def check_simplicial_functoriality(field: FieldDescriptor, max_level: int = 3
                                   ) -> dict:
    """(beta after alpha)* = alpha* after beta* on a grid of monotone maps."""
    failures = []
    for b in range(max_level + 1):
        for mid in range(max_level + 1):
            for a in range(max_level + 1):
                alphas = [al for al in
                          itertools.combinations_with_replacement(
                              range(mid + 1), a + 1)]
                betas = [be for be in
                         itertools.combinations_with_replacement(
                             range(b + 1), mid + 1)]
                for al in alphas[:6]:
                    for be in betas[:6]:
                        comp = tuple(be[j] for j in al)
                        lhs = simplicial_map(comp, b, field)
                        rhs = simplicial_map(al, mid, field).compose(
                            simplicial_map(be, b, field))
                        if lhs != rhs:
                            failures.append((al, be))
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# cosimplicial truncated map spaces


@dataclass
class LevelSlice:
    mspace: MapSpacePresentation
    basis: list[Monomial]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class CosimplicialSpace:
    """Levels 0..N of the map space into the simplicial algebra, sliced.

    A monotone map alpha: {0..a} -> {0..b} acts as M(A, -) of its structure
    map F[Delta_b] -> F[Delta_a], a morphism from level a to level b that is
    built on first read, as is its matrix on the degree-bounded slices of
    standard monomials.  Cofaces go up a level, codegeneracies down.
    """

    def __init__(self, a: AlgebraPresentation, tower: int, degree: int,
                 levels: int):
        self.a = a
        self.field = a.field
        self.tower = tower
        self.degree = degree
        self.n_levels = levels
        self.deltas = [delta_algebra(n, a.field) for n in range(levels + 1)]
        self.levels: list[LevelSlice] = []
        for n in range(levels + 1):
            m = mapspace_presentation(a, self.deltas[n].presentation, tower)
            self.levels.append(LevelSlice(m, m.algebra.standard_monomials(degree)))
        self.ident = AlgebraMorphism.identity(a)
        self._maps: dict[tuple, AlgebraMorphism] = {}
        self._matrices: dict[tuple, list[list]] = {}

    def structure_map(self, alpha: Sequence[int], level: int
                      ) -> AlgebraMorphism:
        """M(A, -) of simplicial_map(alpha, level): level len(alpha) - 1 ->
        `level`."""
        key = (tuple(alpha), level)
        if key not in self._maps:
            self._maps[key] = functor_action(
                self.ident, simplicial_map(alpha, level, self.field),
                self.levels[len(alpha) - 1].mspace, self.levels[level].mspace)
        return self._maps[key]

    def structure_matrix(self, alpha: Sequence[int], level: int
                         ) -> list[list]:
        """The matrix of structure_map(alpha, level) on the slices."""
        key = (tuple(alpha), level)
        if key not in self._matrices:
            morphism = self.structure_map(alpha, level)
            self._matrices[key] = self._slice_matrix(
                len(alpha) - 1, level, morphism.apply_poly)
        return self._matrices[key]

    def differential_matrix(self, n: int) -> list[list]:
        """The Moore coboundary X^n -> X^{n+1} (`alternating_sum`) on the
        slices."""
        return self._slice_matrix(n, n + 1,
                                  lambda poly: alternating_sum(self, n, poly))

    def _slice_matrix(self, source: int, target: int, image) -> list[list]:
        """The matrix whose columns are `image` of the standard monomials of
        slice `source`, read in slice `target`; an image outside that slice
        is a PropertyViolationError."""
        dst = self.levels[target].basis
        cols = []
        for mono in self.levels[source].basis:
            img = image(Polynomial.monomial(mono, self.field))
            col = img.coefficients(dst)
            if col is None:
                raise PropertyViolationError(
                    "image leaves the degree slice; raise the degree bound",
                    witness=next(mm for mm in img.terms if mm not in dst))
            cols.append(col)
        return [list(row) for row in zip(*cols)]


def check_cosimplicial_identities(space: CosimplicialSpace) -> dict:
    """All five identity families, as exact morphism equalities."""
    def d(n: int, i: int) -> AlgebraMorphism:     # level n-1 -> n
        return space.structure_map(_face_alpha(i, n), n)

    def s(n: int, i: int) -> AlgebraMorphism:     # level n+1 -> n
        return space.structure_map(_degeneracy_alpha(i, n), n)

    failures = []
    n_max = space.n_levels
    # d^j d^i = d^i d^{j-1} for i < j (composites level n-1 -> n+1)
    for n in range(1, n_max):
        for j in range(n + 2):
            for i in range(j):
                if d(n + 1, j).compose(d(n, i)) \
                        != d(n + 1, i).compose(d(n, j - 1)):
                    failures.append(("dd", n, i, j))
    # codegeneracy vs coface families (composites level n -> n); at n = 1
    # only the identity case occurs
    for n in range(1, n_max + 1):
        for j in range(n):
            for i in range(n + 1):
                lhs = s(n - 1, j).compose(d(n, i))
                if i < j:
                    rhs = d(n - 1, i).compose(s(n - 2, j - 1))
                elif i in (j, j + 1):
                    rhs = AlgebraMorphism.identity(
                        space.levels[n - 1].mspace.algebra)
                else:
                    rhs = d(n - 1, i - 1).compose(s(n - 2, j))
                if lhs != rhs:
                    failures.append(("sd", n, i, j))
    # s^j s^i = s^i s^{j+1} for i <= j (composites level n+2 -> n)
    for n in range(n_max - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                if s(n, j).compose(s(n + 1, i)) \
                        != s(n, i).compose(s(n + 1, j + 1)):
                    failures.append(("ss", n, i, j))
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# Moore complex


@dataclass
class MooreComplex:
    space: CosimplicialSpace
    normalized_dimensions: list[int]     # per level: dim N^n
    dd_zero: bool
    h0_dimension: int | None             # None with no d^0 (levels < 1)
    h1_dimension: int | None             # None with no d^1 (levels < 2)


def moore_complex(a: AlgebraPresentation, tower: int, degree: int,
                  levels: int) -> MooreComplex:
    """Build the normalized complex on slices and check d∘d = 0 exactly;
    truncation level 0 is degenerate (every coface is the identity), so
    tower < 1 is a HypothesisError."""
    require_tower(tower)
    space = CosimplicialSpace(a, tower, degree, levels)
    field = a.field
    diffs = [space.differential_matrix(n) for n in range(levels)]
    dd_zero = True
    for n in range(levels - 1):
        prod = linalg.mat_mul(diffs[n + 1], diffs[n], field)
        if any(v != field.zero() for row in prod for v in row):
            dd_zero = False
    # N^n is the joint kernel of the codegeneracies out of level n
    normalized = []
    for n in range(levels + 1):
        stacked = [row for i in range(n) for row in
                   space.structure_matrix(_degeneracy_alpha(i, n - 1), n - 1)]
        normalized.append(space.levels[n].dimension
                          - linalg.rank(stacked, field))
    h0 = len(linalg.nullspace(diffs[0], space.levels[0].dimension, field)) \
        if levels >= 1 else None
    h1 = None
    if levels >= 2:
        # ker(delta^1) ∩ N^1 modulo the image of delta^0
        stacked = space.structure_matrix(_degeneracy_alpha(0, 0), 0) \
            + diffs[1]
        kernel = linalg.nullspace(stacked, space.levels[1].dimension, field)
        h1 = len(kernel) - linalg.rank(diffs[0], field)
    return MooreComplex(space, normalized, dd_zero, h0, h1)


# ---------------------------------------------------------------------------
# degree-0 cohomology


@dataclass
class SingLevel:
    tower: int
    basis: list[ElementRep]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class SingH0Result:
    levels: list[SingLevel]
    note: str = "tower level 0 is degenerate and excluded"


def sing_h0(a: AlgebraPresentation, tower: int, degree: int) -> SingH0Result:
    """Kernel of d^0 - d^1 on the level-0 slice, per tower level d = 1..T.

    Level 0 of the cosimplicial space, M_d(A, F[Delta^0]), is A on renamed
    generators, so its slice is A's.  The cofaces of Delta^1 are x1 -> 1
    and x1 -> 0, so d^0 - d^1 of a slice element is its evaluation
    difference (x->1) - (x->0) in M_d(A, F[x]), and the kernel is the
    level-d equalizer cut (`pi0.equalizer_subspace`), reduced by the
    level's basis bounded at weight degree·d; no structure map is built.
    `moore_complex` keeps the cosimplicial route, with its checked
    structure maps, and cross-checks this H^0.  With T < 1 no level would
    be reported, so that is a HypothesisError."""
    require_tower(tower)
    return SingH0Result([SingLevel(d, equalizer_subspace(a, degree, d).basis)
                         for d in range(1, tower + 1)])


# ---------------------------------------------------------------------------
# cup product


def cup_product(space: CosimplicialSpace, cn: tuple[int, Polynomial],
                cm: tuple[int, Polynomial]) -> tuple[int, Polynomial]:
    """Front/back pullbacks multiplied in the level-(n+m) algebra."""
    n, pn = cn
    m, pm = cm
    if n + m > space.n_levels:
        raise HypothesisError("cup product needs level n+m in the space")
    # the front face keeps vertices 0..n, the back face n..n+m
    pull_n = space.structure_map(range(n + 1), n + m)
    pull_m = space.structure_map(range(n, n + m + 1), n + m)
    prod = space.levels[n + m].mspace.algebra.nf(
        pull_n.apply_poly(pn) * pull_m.apply_poly(pm))
    return (n + m, prod)


def alternating_sum(space: CosimplicialSpace, level: int,
                    poly: Polynomial) -> Polynomial:
    """The Moore coboundary of one cochain: the signed sum of its coface
    images, each a normal form of level + 1, so the sum is one too."""
    acc = Polynomial.zero(space.levels[level + 1].mspace.algebra.arity,
                          space.field)
    for i in range(level + 2):
        img = space.structure_map(_face_alpha(i, level + 1),
                                  level + 1).apply_poly(poly)
        acc = acc + (img if i % 2 == 0 else -img)
    return acc


def cup_leibniz_check(space: CosimplicialSpace, cn: tuple[int, Polynomial],
                      cm: tuple[int, Polynomial]) -> bool:
    """d(c ⌣ c') = dc ⌣ c' + (-1)^n c ⌣ dc' on the given cochains."""
    n, pn = cn
    m, pm = cm
    level, prod = cup_product(space, cn, cm)
    lhs = alternating_sum(space, level, prod)
    left = cup_product(space, (n + 1, alternating_sum(space, n, pn)), cm)[1]
    right = cup_product(space, cn, (m + 1, alternating_sum(space, m, pm)))[1]
    rhs = left + (right if n % 2 == 0 else -right)
    target = space.levels[level + 1].mspace.algebra
    return target.nf(lhs - rhs).is_zero


# ---------------------------------------------------------------------------
# prism maps


def prism_map(n: int, i: int, field: FieldDescriptor
              ) -> tuple[AlgebraMorphism, TensorPresentation]:
    """The map F[Delta_n] ⊗ F[x] -> F[Delta_{n+1}] splitting the prism.

    Vertex classes: [x_j] -> [x_j] (j < i), [x_i] -> [x_i + x_{i+1}],
    [x_j] -> [x_{j+1}] (j > i), and x -> [x_{i+1} + ... + x_{n+1}].
    Well-definedness (the unit relation 1 - sum is preserved) is checked
    exactly at construction.
    """
    if not 0 <= i <= n:
        raise ValueError("prism index out of range")
    src_delta = delta_algebra(n, field)
    line = AlgebraPresentation(field, ["x"], ())
    src = tensor_product(src_delta.presentation, line)
    dst = delta_algebra(n + 1, field)

    def vertex_image(j: int) -> Polynomial:
        if j < i:
            return dst.vertex_class(j)
        if j == i:
            return dst.vertex_class(i) + dst.vertex_class(i + 1)
        return dst.vertex_class(j + 1)

    images = [vertex_image(j) for j in range(1, n + 1)]
    x_image = Polynomial.zero(dst.n, field)
    for k in range(i + 1, n + 2):
        x_image = x_image + dst.vertex_class(k)
    images.append(x_image)
    # exact unit check: the images of all vertex classes sum to 1
    total = vertex_image(0)
    for j in range(1, n + 1):
        total = total + vertex_image(j)
    if total != Polynomial.one(dst.n, field):
        raise PropertyViolationError("prism map does not preserve the unit",
                                     witness=total)
    return AlgebraMorphism(src, dst.presentation, images, check=True), src


def prism_identities_check(n: int, field: FieldDescriptor) -> dict:
    """The simplicial prism relations against faces, for one level n."""
    failures = []
    line = AlgebraPresentation(field, ["x"], ())

    def tensor_face(j: int, level: int) -> AlgebraMorphism:
        """d_j ⊗ id on the presented tensor rings."""
        return tensor_morphism(face_map(j, level, field),
                               AlgebraMorphism.identity(line))

    def evaluation(value: int, level: int) -> AlgebraMorphism:
        """id ⊗ (x -> value): F[Delta_level] ⊗ F[x] -> F[Delta_level]."""
        src = tensor_product(delta_algebra(level, field).presentation, line)
        dst = delta_algebra(level, field).presentation
        images = [Polynomial.variable(k, dst.arity, field)
                  for k in range(level)]
        images.append(Polynomial.constant(value, dst.arity, field))
        return AlgebraMorphism(src, dst, images, check=False)

    prisms = [prism_map(n, i, field)[0] for i in range(n + 1)]
    # top and bottom of the prism
    top = face_map(0, n + 1, field).compose(prisms[0])
    if top != evaluation(1, n):
        failures.append(("top", 0))
    bottom = face_map(n + 1, n + 1, field).compose(prisms[n])
    if bottom != evaluation(0, n):
        failures.append(("bottom", n))
    # adjacent pieces glue
    for i in range(n):
        left = face_map(i + 1, n + 1, field).compose(prisms[i])
        right = face_map(i + 1, n + 1, field).compose(prisms[i + 1])
        if left != right:
            failures.append(("glue", i))
    # commuting relations with the remaining faces
    if n >= 1:
        lower = [prism_map(n - 1, i, field)[0] for i in range(n)]
        for i in range(n + 1):
            for j in range(n + 2):
                if j < i:
                    lhs = face_map(j, n + 1, field).compose(prisms[i])
                    rhs = lower[i - 1].compose(tensor_face(j, n))
                    if lhs != rhs:
                        failures.append(("below", i, j))
                elif j > i + 1:
                    lhs = face_map(j, n + 1, field).compose(prisms[i])
                    rhs = lower[i].compose(tensor_face(j - 1, n))
                    if lhs != rhs:
                        failures.append(("above", i, j))
    # collapse: restricting the prism to F[Delta_n] ⊗ 1 is the degeneracy
    for i in range(n + 1):
        degeneracy = degeneracy_map(i, n, field)
        for k in range(n):
            restricted = prisms[i].images[k]
            if restricted != degeneracy.images[k]:
                failures.append(("collapse", i, k))
    return {"ok": not failures, "level": n, "failures": failures}
