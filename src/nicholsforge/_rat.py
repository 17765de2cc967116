"""Rationals at the edges of the package: parsing "p/q" and printing it.

Inside the package a rational is an integer numerator over a positive
denominator (scalars keep one denominator for all their coefficients), and
text parses straight into that pair, so no `fractions` import is needed to
read a document.  `RAT_BACKEND` names that representation for the
benchmark header.
"""

from math import gcd

RAT_BACKEND = "integers"


def integer(part: str) -> int:
    """An optional sign and ASCII digits, with whitespace around them.

    int() alone would also take underscores ("1_000") and non-ASCII digits.
    The command line parses its integers here too, and argparse names this
    function in its message for text that does not parse.
    """
    text = part.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {part!r}")
    return int(text)


def rat_from_string(s):
    """Parse "p/q" or "p" into (numerator, denominator), in lowest terms with
    a positive denominator.  Whitespace is tolerated.

    Malformed text, a zero denominator included, raises ValueError.
    """
    s = s.strip()
    if "/" not in s:
        return integer(s), 1
    num, den = (integer(part) for part in s.split("/", 1))
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def rat_to_string(num, den):
    """Canonical textual form of num/den (den > 0): "p/q" in lowest terms, "p" when q == 1."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return str(num)
    return f"{num}/{den}"
