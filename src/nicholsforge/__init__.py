"""Exact computation with Nichols algebras of diagonal type.

Everything runs over cyclotomic fields with rational coefficients; there is
no floating point in any code path that decides a rank, a dimension, or an
axiom.  The heavy linear algebra runs in one pure-Python kernel
(`nicholsforge._kernel`) on cyclotomic residues: integer numerators over one
denominator.
"""

__version__ = "0.1.0"

__all__ = ["KERNEL_NAME", "__version__"]


def __getattr__(name: str):
    # KERNEL_NAME is resolved on first use, so that importing the package,
    # as every command does before its own module, compiles no kernel
    if name == "KERNEL_NAME":
        from ._kernel import KERNEL_NAME

        return KERNEL_NAME
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
