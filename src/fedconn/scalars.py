"""Exact Gaussian-rational scalars.

A Scalar is (a + b*i)/q with integers a, b and q > 0, kept reduced so that
gcd(a, b, q) = 1.  All arithmetic is exact; there is no float anywhere in
this package.  The single-gcd normalization makes these faster than a pair
of Fractions.  Scalars are the Weyl and Moyal weights and the exact type a
``Poly`` takes and hands out at its boundary; a Poly, t-only values
included, computes on Gaussian-integer numerators over one common
denominator and makes a Scalar only when a number is read.  The formatting
functions work on such a numerator pair and denominator directly, so a Poly
prints without building Scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Scalar:
    """A Gaussian rational (a + b*i)/q in lowest terms."""

    __slots__ = ("a", "b", "q")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            # q = 1 makes gcd(a, b, q) = 1 automatic
            self.a, self.b, self.q = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        q = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self.a = re.numerator * (q // re.denominator)
        self.b = im.numerator * (q // im.denominator)
        self.q = q

    @staticmethod
    def _mk(a: int, b: int, q: int) -> "Scalar":
        z = Scalar.__new__(Scalar)
        z.a, z.b, z.q = a, b, q
        return z

    @staticmethod
    def _make(a: int, b: int, q: int) -> "Scalar":
        if q < 0:
            a, b, q = -a, -b, -q
        g = gcd(a, b, q)
        if g > 1:
            a //= g
            b //= g
            q //= g
        z = Scalar.__new__(Scalar)
        z.a, z.b, z.q = a, b, q
        return z

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if type(value) is Scalar:
            return value
        if type(value) is int:
            return Scalar._mk(value, 0, 1)
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot build Scalar from {value!r}")

    # -- exact views ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.q)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and not self.b and self.q == 1

    def is_real(self) -> bool:
        return not self.b

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        if self.q == other.q:
            return Scalar._make(self.a + other.a, self.b + other.b, self.q)
        return Scalar._make(
            self.a * other.q + other.a * self.q,
            self.b * other.q + other.b * self.q,
            self.q * other.q,
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar._mk(-self.a, -self.b, self.q)

    def __sub__(self, other):
        other = Scalar.of(other)
        if self.q == other.q:
            return Scalar._make(self.a - other.a, self.b - other.b, self.q)
        return Scalar._make(
            self.a * other.q - other.a * self.q,
            self.b * other.q - other.b * self.q,
            self.q * other.q,
        )

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        if not self.b and not other.b:
            return Scalar._make(self.a * other.a, 0, self.q * other.q)
        return Scalar._make(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.q * other.q,
        )

    __rmul__ = __mul__

    def mul_int(self, n: int) -> "Scalar":
        if not n:
            return ZERO
        g = gcd(n, self.q)
        n //= g
        return Scalar._mk(self.a * n, self.b * n, self.q // g)

    def __truediv__(self, other):
        other = Scalar.of(other)
        n = other.a * other.a + other.b * other.b
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar._make(
            (self.a * other.a + self.b * other.b) * other.q,
            (self.b * other.a - self.a * other.b) * other.q,
            n * self.q,
        )

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.q == other.q
        if isinstance(other, int):
            return self.q == 1 and self.b == 0 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def _frac_str(n: int, d: int) -> str:
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _imag_str(n: int, d: int) -> str:
    if n == d:
        return "i"
    if n == -d:
        return "-i"
    return f"{_frac_str(n, d)}*i"


def format_gaussian(a: int, b: int, q: int) -> str:
    """Canonical string of (a + b*i)/q, q > 0, in any terms: '0', '5/4', '-2',
    'i', '1/2-i', '3+2*i'."""
    if not b:
        return _frac_str(a, q) if a else "0"
    if not a:
        return _imag_str(b, q)
    im = "+" + _imag_str(b, q) if b > 0 else _imag_str(b, q)
    return _frac_str(a, q) + im


def format_scalar(z: Scalar) -> str:
    """The canonical string of z (``format_gaussian``)."""
    return format_gaussian(z.a, z.b, z.q)


def gaussian_is_atomic(a: int, b: int) -> bool:
    """True when format_gaussian(a, b, q) can sit inside a product without parentheses."""
    if a and b:
        return False
    return a >= 0 and b >= 0


def gaussian_is_negative(a: int, b: int) -> bool:
    """True for a strictly negative real or pure imaginary (a + b*i)/q."""
    return (not b and a < 0) or (not a and b < 0)
