"""Exact computation with Nichols algebras of diagonal type.

Everything runs over cyclotomic fields with rational coefficients; there is
no floating point in any code path that decides a rank, a dimension, or an
axiom.  The heavy linear algebra runs in one pure-Python kernel
(`nicholsforge._kernel`) on cyclotomic residues: integer numerators over one
denominator.
"""

from ._kernel import KERNEL_NAME

__version__ = "0.1.0"

__all__ = ["KERNEL_NAME", "__version__"]
