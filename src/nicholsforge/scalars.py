"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Scalar is the unique reduced representative of an element of Q(zeta_N)
modulo the N-th cyclotomic polynomial: a conductor N plus a residue tuple of
euler_phi(N) integer numerators, lowest degree first, and one positive
denominator, divided through by their gcd (see the kernel package).  Equal
values at one conductor are therefore equal tuples.  Arithmetic between different
conductors lifts both operands to the least common conductor via
zeta_N = zeta_L^(L/N); no conductor descent is attempted, so the same value
may legitimately live at several conductors and equality compares after
lifting.  For that reason Scalars are deliberately unhashable.

Fields are built in field_context alone, which refuses any conductor above
MAX_CONDUCTOR with FieldTooLarge, whether it was read or formed by lifting
to a least common conductor: the largest admitted field builds in about
half a second, and a conductor near 1000 already takes several.

No floating point appears anywhere: every rank and kernel decision upstream
depends on exact zero tests.  Text parses straight into integers; `fractions`
is imported only where a `Fraction` (or another non-integer number) is
handed in as an operand or a coefficient.
"""

from __future__ import annotations

import re
import threading
from math import lcm
from typing import NamedTuple

from ._kernel import active as _K
from ._rat import rat_from_string, rat_to_string

__all__ = [
    "Scalar",
    "MAX_CONDUCTOR",
    "FieldTooLarge",
    "make_scalar",
    "root_of_unity",
    "from_rational",
    "euler_phi",
    "cyclotomic_polynomial",
    "parse_scalar",
    "parse_int",
    "scalar_to_json",
    "ZERO",
    "ONE",
]


def euler_phi(n: int) -> int:
    assert n >= 1
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# RLock: the recursion below re-enters while holding the lock.
_cyclo_cache: dict[int, tuple] = {}
_cyclo_lock = threading.RLock()


def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, lowest degree first, monic."""
    cached = _cyclo_cache.get(n)
    if cached is not None:
        return cached
    with _cyclo_lock:
        cached = _cyclo_cache.get(n)
        if cached is not None:
            return cached
        # x^n - 1 = prod_{d | n} Phi_d
        poly = [0] * (n + 1)
        poly[0] = -1
        poly[n] = 1
        for d in _divisors(n):
            if d != n:
                lead, poly, rem = _K.poly_pseudo_divmod(poly, cyclotomic_polynomial(d))
                assert lead == 1 and not rem, "division was not exact"
        result = tuple(poly)
        _cyclo_cache[n] = result
        return result


class FieldContext(NamedTuple):
    conductor: int
    phi: int
    modpoly: tuple
    red: tuple  # residues of x^phi .. x^(2*phi-2) modulo modpoly


_ctx_cache: dict[int, FieldContext] = {}
_ctx_lock = threading.Lock()

MAX_CONDUCTOR = 512


class FieldTooLarge(ValueError):
    """A cyclotomic field above MAX_CONDUCTOR was asked for."""


def _reduce_list(coeffs: list, modpoly: tuple, phi: int) -> list:
    """Integer coefficients reduced modulo the monic modpoly, padded to phi."""
    work = list(coeffs)
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for k in range(phi):
                mk = modpoly[k]
                if mk:
                    work[i - phi + k] -= c * mk
    while len(work) < phi:
        work.append(0)
    return work[:phi]


def field_context(n: int) -> FieldContext:
    ctx = _ctx_cache.get(n)
    if ctx is not None:
        return ctx
    with _ctx_lock:
        ctx = _ctx_cache.get(n)
        if ctx is not None:
            return ctx
        if n > MAX_CONDUCTOR:
            raise FieldTooLarge(f"Q(zeta_{n}) is beyond the largest supported conductor, "
                                f"{MAX_CONDUCTOR}")
        modpoly = cyclotomic_polynomial(n)
        phi = len(modpoly) - 1
        red = []
        for e in range(phi, 2 * phi - 1):
            mono = [0] * (e + 1)
            mono[e] = 1
            red.append(tuple(_reduce_list(mono, modpoly, phi)))
        ctx = FieldContext(n, phi, modpoly, tuple(red))
        _ctx_cache[n] = ctx
        return ctx


class Scalar:
    """Element of Q(zeta_N) in canonical reduced form.

    Immutable.  Unhashable on purpose: equal values can carry different
    conductors, which would break hash consistency.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, coeffs: tuple):
        # Expects already-reduced data; use make_scalar for raw input.
        self.conductor = conductor
        self.coeffs = coeffs

    # -- lifting ----------------------------------------------------------

    def _lift_to(self, target: int) -> tuple:
        # The power basis of Z[zeta_N] is an integral basis and Z[zeta_N] is
        # Z[zeta_L] cut down to Q(zeta_N), so lifting keeps the gcd of the
        # numerators and the denominator at 1: the result is canonical.
        if target == self.conductor:
            return self.coeffs
        step = target // self.conductor
        ctx = field_context(target)
        *nums, den = self.coeffs
        raw = [0] * ((len(nums) - 1) * step + 1)
        for k, c in enumerate(nums):
            if c:
                raw[k * step] = c
        return (*_reduce_list(raw, ctx.modpoly, ctx.phi), den)

    @staticmethod
    def _align(a: "Scalar", b: "Scalar"):
        if a.conductor == b.conductor:
            return field_context(a.conductor), a.coeffs, b.coeffs
        target = lcm(a.conductor, b.conductor)
        return field_context(target), a._lift_to(target), b._lift_to(target)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if not isinstance(other, int):
            from fractions import Fraction

            if not isinstance(other, Fraction):
                return None
        return Scalar(1, (other.numerator, other.denominator))

    # The three hot operations go straight to the kernel when both operands
    # are Scalars at one conductor.

    def __add__(self, other):
        if other.__class__ is Scalar and other.conductor == self.conductor:
            return Scalar(self.conductor, _K.poly_add(self.coeffs, other.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx, a, b = self._align(self, other)
        return Scalar(ctx.conductor, _K.poly_add(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Scalar and other.conductor == self.conductor:
            return Scalar(self.conductor, _K.poly_sub(self.coeffs, other.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx, a, b = self._align(self, other)
        return Scalar(ctx.conductor, _K.poly_sub(a, b))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(self.conductor, _K.poly_neg(self.coeffs))

    def __mul__(self, other):
        if other.__class__ is Scalar and other.conductor == self.conductor:
            red = field_context(self.conductor).red
            return Scalar(self.conductor, _K.poly_mul(self.coeffs, other.coeffs, red))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx, a, b = self._align(self, other)
        return Scalar(ctx.conductor, _K.poly_mul(a, b, ctx.red))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        ctx = field_context(self.conductor)
        return Scalar(self.conductor, _K.poly_inv(self.coeffs, ctx.modpoly))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return _K.poly_is_zero(self.coeffs)

    def __bool__(self) -> bool:
        return not _K.poly_is_zero(self.coeffs)

    def is_one(self) -> bool:
        # 1 at any conductor is (1, 0, ..., 0, 1)
        c = self.coeffs
        return c[0] == 1 and c[-1] == 1 and c.count(0) == len(c) - 2

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        _, a, b = self._align(self, other)
        return a == b

    def multiplicative_order(self):
        """Order as a root of unity, or None if self is not one.

        Any root of unity inside Q(zeta_N) has order dividing 2N, which
        bounds the search.
        """
        if self.is_zero():
            return None
        bound = 2 * self.conductor
        power = self
        for k in range(1, bound + 1):
            if power.is_one():
                return k
            power = power * self
        return None

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        *nums, den = self.coeffs
        if all(not c for c in nums[1:]):
            return rat_to_string(nums[0], den)
        parts = []
        for k, c in enumerate(nums):
            if not c:
                continue
            mono = "" if k == 0 else (f"zeta({self.conductor})" if k == 1 else f"zeta({self.conductor})^{k}")
            cs = rat_to_string(c, den)
            if mono:
                if cs == "1":
                    cs = ""
                elif cs == "-1":
                    cs = "-"
                else:
                    cs += "*"
            term = cs + mono
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar[{self}]"


ZERO = Scalar(1, (0, 1))
ONE = Scalar(1, (1, 1))


def _as_pair(c) -> tuple:
    """A rational coefficient as (numerator, positive denominator) in lowest terms."""
    if isinstance(c, str):
        return rat_from_string(c)
    if not isinstance(c, int):
        from fractions import Fraction

        c = Fraction(c)
    return c.numerator, c.denominator


def make_scalar(conductor: int, raw_coeffs) -> Scalar:
    """Canonical representative of sum_k raw_coeffs[k] * zeta_N^k.

    raw_coeffs may be any length (reduced modulo Phi_N) and entries may be
    rationals, ints, or "p/q" strings.
    """
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")
    ctx = field_context(conductor)
    coeffs = [_as_pair(c) for c in raw_coeffs]
    den = lcm(*(d for _, d in coeffs))
    nums = [n * (den // d) for n, d in coeffs]
    return Scalar(conductor, _K.poly_canonical([*_reduce_list(nums, ctx.modpoly, ctx.phi), den]))


def root_of_unity(conductor: int, k: int = 1) -> Scalar:
    """zeta_N^k; its multiplicative order is N / gcd(N, k)."""
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")
    field_context(conductor)  # an oversized field is refused before raw is allocated
    k %= conductor
    raw = [0] * (k + 1)
    raw[k] = 1
    return make_scalar(conductor, raw)


def from_rational(value) -> Scalar:
    return Scalar(1, _as_pair(value))


_ZETA_RE = re.compile(r"^(-?)zeta\(([0-9]+)\)(?:\^(-?[0-9]+))?$")


def parse_scalar(obj) -> Scalar:
    """Accepts the JSON object form, "zeta(N)^k", "p/q" strings, and ints, never booleans."""
    if isinstance(obj, Scalar):
        return obj
    if isinstance(obj, dict):
        if any(isinstance(v, bool) for v in (obj["conductor"], *obj["coeffs"])):
            raise ValueError(f"cannot parse scalar from {obj!r}: booleans are not numbers")
        return make_scalar(obj["conductor"], obj["coeffs"])
    if isinstance(obj, int) and not isinstance(obj, bool):
        return from_rational(obj)
    if isinstance(obj, str):
        text = obj.strip()
        m = _ZETA_RE.match(text)
        if m:
            sign, conductor, exp = m.group(1), int(m.group(2)), m.group(3)
            value = root_of_unity(conductor, 1) ** (int(exp) if exp else 1)
            return -value if sign == "-" else value
        return from_rational(text)
    raise ValueError(f"cannot parse scalar from {obj!r}")


def parse_int(obj, what: str) -> int:
    """A JSON integer; booleans, fractional numbers and strings are refused."""
    if type(obj) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} must be an integer, got {obj!r}")
    return obj


def scalar_to_json(s: Scalar) -> dict:
    *nums, den = s.coeffs
    return {
        "conductor": s.conductor,
        "coeffs": [rat_to_string(c, den) for c in nums],
    }
