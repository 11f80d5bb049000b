"""Gaussian rationals: exact scalars a + b*i with rational a, b.

All coefficient arithmetic in this package runs over this field.  The two
components are arbitrary-precision ``fractions.Fraction`` values, so every
operation is exact; there is deliberately no float conversion anywhere.

Scalars are immutable and slotted.  The public constructor and :meth:`of`
coerce their inputs through ``Fraction``; results of arithmetic are built
by a private constructor that skips that coercion, because both parts are
already ``Fraction`` values, and re-normalising them was most of the cost
of an operation.  Almost every scalar the engines meet is real, so the
ring operations take real fast paths: a sum of two reals adds one part,
a product with a real factor costs one or two ``Fraction`` products
instead of four, and a division by a real divides each part once instead
of going through the norm.  Equality, hashing, printing and immutability
behave as for a frozen dataclass with fields ``re`` and ``im``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction

_Q0 = Fraction(0)


class GaussianRational:
    __slots__ = ("re", "im")
    __match_args__ = ("re", "im")

    def __init__(self, re=_Q0, im=_Q0):
        # Accept ints (and anything Fraction accepts exactly) in either slot.
        _set_re(self, Fraction(re))
        _set_im(self, Fraction(im))

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- immutability, equality, hashing, pickling ---------------------------

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # Like a dataclass: only another GaussianRational compares, so
        # GaussianRational(0) == 0 is False.
        if other.__class__ is GaussianRational:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        if self.im or other.im:
            return _make(self.re + other.re, self.im + other.im)
        return _make(self.re + other.re, _Q0)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self.re, -self.im if self.im else _Q0)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not b:
                return _make(a * c, _Q0)
            return _make(a * c, b * c)
        if not b:
            return _make(a * c, a * d)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _make(a / c, b / c if b else _Q0)
        n = c * c + d * d
        return _make((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result, base, e = ONE, self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return _make(self.re, -self.im if self.im else _Q0)

    def norm_sq(self) -> Fraction:
        """|a+bi|^2 = a^2 + b^2, as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        return f"{self.re}{sign}{mag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
_new = object.__new__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """A scalar from two parts that are already Fractions, uncoerced."""
    g = _new(GaussianRational)
    _set_re(g, re)
    _set_im(g, im)
    return g


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))
