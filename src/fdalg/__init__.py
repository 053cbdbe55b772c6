"""fdalg: exact computations with finite-dimensional algebras.

Submodules
----------
linalg        exact scalars (rationals, prime fields) and dense matrices
algebras      structure-constant algebras, radicals, idempotents
modules       right modules, hom spaces, isomorphism testing
forms         double modules, general bilinear forms, the correspondence
involutions   hyperbolic involutions, transfer, duality orbits
posets        finite posets, incidence algebras, order-reversing maps
steinitz      Steinitz-class calculus over abstract class groups
verify        the defining-equation checkers of constructors and CLI checks
cli           JSON command-line front end
"""

from .linalg import Field, Matrix, QQ

__all__ = ["Field", "Matrix", "QQ"]

__version__ = "0.1.0"
