"""Gaussian rationals: exact scalars a + b*i with rational a, b.

All coefficient arithmetic in this package runs over this field.  The two
components are arbitrary-precision ``fractions.Fraction`` values, so every
operation is exact; there is deliberately no float conversion anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # Accept ints (and anything Fraction accepts exactly) in either slot.
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        n = o.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

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
        return GaussianRational(self.re, -self.im)

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


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))
