"""Exact rational-complex scalars for the symbolic engine.

Every coefficient in the symbolic engine is an element of Q(i): a complex
number whose real and imaginary parts are exact rationals.  No floating
point ever enters, so equality of symbolic expressions is decidable and
exact.

A value is held as three Python ints ``(a, b, d)`` meaning
``(a + b*i) / d``, with ``d > 0`` and ``gcd(a, b, d) == 1``.  That form is
unique, so equality is a comparison of the three ints, and every
operation is integer arithmetic followed by at most one ``math.gcd``.

One rule, ``_coerce``, says what enters Q(i): an int, a Fraction or a
RationalComplex.  Each part given to the constructor is an int or a
Fraction; a float, str, ``Decimal`` or complex part is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        r, i = _coerce(re), _coerce(im)
        for part, z in ((re, r), (im, i)):
            if z is None or z is part:  # z is part: a RationalComplex
                raise TypeError(
                    "a RationalComplex part is an int or a Fraction, "
                    f"not {type(part).__name__}"
                )
        a, b, d = r._a * i._d, i._a * r._d, r._d * i._d
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self._a, self._b, self._d) == (other._a, other._b, other._d)

    def __hash__(self):
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__


def _raw(a: int, b: int, d: int) -> RationalComplex:
    """Wrap ints already in canonical form (d > 0, gcd(a, b, d) == 1)."""
    z = _new(RationalComplex)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> RationalComplex:
    """Canonical form of (a + b*i)/d for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(RationalComplex)
    z._a, z._b, z._d = a, b, d
    return z


def _coerce(value) -> "RationalComplex | None":
    """The one rule for what enters Q(i): int, Fraction or RationalComplex."""
    if isinstance(value, RationalComplex):
        return value
    if isinstance(value, (int, Fraction)):  # already in lowest terms
        return _raw(value.numerator, 0, value.denominator)
    return None


ZERO = RationalComplex(0)
ONE = RationalComplex(1)
I = RationalComplex(0, 1)
MINUS_I = RationalComplex(0, -1)


def format_scalar(z: RationalComplex) -> str:
    """Canonical text form: ``a/b``, ``c/d*i`` or ``a/b + c/d*i``, lowest terms."""
    return format_triple(z._a, z._b, z._d)


def format_triple(a: int, b: int, d: int) -> str:
    """format_scalar of (a + b*i)/d, d > 0, straight from the ints: the
    sign comes from a and b, and each printed ratio takes one gcd."""
    if not b:
        return _ratio(a, d)
    if not a:
        im = _ratio(b, d)
        if im == "1":
            return "i"
        if im == "-1":
            return "-i"
        return f"{im}*i"
    mag = _ratio(abs(b), d)
    imtxt = "i" if mag == "1" else f"{mag}*i"
    sign = "+" if b > 0 else "-"
    return f"{_ratio(a, d)} {sign} {imtxt}"


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, printed as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"
