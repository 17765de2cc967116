"""Rationals at the edges of the package: parsing "p/q" and printing it.

Inside the package a rational is an integer numerator over a positive
denominator (scalars keep one denominator for all their coefficients), so
`fractions` is met only where text is parsed.  `RAT_BACKEND` names that
representation for the benchmark header.
"""

from fractions import Fraction
from math import gcd

RAT_BACKEND = "integers"


def rat_from_string(s):
    """Parse "p/q" or "p" into a Fraction. Whitespace is tolerated.

    Malformed text, a zero denominator included, raises ValueError.
    """
    s = s.strip()
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def rat_to_string(num, den):
    """Canonical textual form of num/den (den > 0): "p/q" in lowest terms, "p" when q == 1."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return str(num)
    return f"{num}/{den}"
