"""affpi0: exact homotopy invariants of affine schemes.

Finitely presented commutative unital algebras over Q or F_p, truncated
presentations of morphism-space pro-algebras, algebraic homotopy checking,
the path-component subalgebra and pi0 scheme, degree-0 de Rham and intrinsic
singular cohomology, and symbolic matrix homotopy lemmas.
"""

from .polyring import (FieldDescriptor, GF, QQ, Polynomial, GroebnerBasis,
                       groebner, normal_form, ideal_membership,
                       elimination_ideal, standard_monomials, poly_parse,
                       DEGREVLEX, LEX, BlockOrder, set_limits)
from .algebra import (AlgebraPresentation, AlgebraMorphism, ElementRep,
                      tensor_product, direct_sum, polynomial_extension,
                      enumerate_points, enumerate_hom)
from .mapspace import mapspace_presentation
from .derham import derham_h0
from .pi0 import pi0_presentation

__version__ = "0.1.0"

__all__ = [
    "FieldDescriptor", "GF", "QQ", "Polynomial", "GroebnerBasis",
    "groebner", "normal_form", "ideal_membership", "elimination_ideal",
    "standard_monomials", "poly_parse", "DEGREVLEX", "LEX", "BlockOrder",
    "set_limits", "AlgebraPresentation", "AlgebraMorphism", "ElementRep",
    "tensor_product", "direct_sum", "polynomial_extension",
    "enumerate_points", "enumerate_hom", "mapspace_presentation",
    "derham_h0", "pi0_presentation", "__version__",
]
