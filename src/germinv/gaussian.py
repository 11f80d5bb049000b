"""Gaussian rationals: exact scalars a + b*i with rational a, b.

All coefficient arithmetic in this package runs over this field, exactly;
there is deliberately no float conversion anywhere.

A scalar is stored as three Python ints ``(a, b, d)``, the value
``(a + b*i) / d``, always in canonical form: ``d > 0`` and
``gcd(a, b, d) == 1``.  Each value has exactly one such triple, so
equality compares the triples and a scalar is zero exactly when
``a == b == 0``.  The arithmetic is written once, on the ints, and
restores the canonical form with one ``math.gcd`` per result (Knuth,
TAOCP vol. 2, 4.5.1, on a rational kept as a reduced integer pair).

Below the public API the bare triple is the only coefficient form: a
:class:`~germinv.poly.Poly` stores triples and both Milnor engines reduce
on them, with no scalar object per term.  Every update ``h[k] += factor *
c``, in normal forms, s-polynomials, the oracle's echelon and a Poly's
sum, product and scaling, runs in :func:`add_multiple`; the divisions of
a reduction step run in :func:`quotient`.  :class:`GaussianRational`
wraps one triple and is the public scalar type, which a Poly accepts and
hands out; its ``+``, ``-`` and ``*`` call :func:`add_multiple` and its
``/`` calls :func:`quotient` on the operands' triples.

``fractions.Fraction`` appears only at the boundary: the constructor and
:meth:`of` coerce through it, and the read-only properties ``re`` and
``im`` return the parts as Fractions, which printing, hashing and
pickling use.  No arithmetic goes through ``Fraction``.

Scalars are immutable and slotted.  Equality, hashing, printing and
immutability behave as for a frozen record (``germinv._record``) with
fields ``re`` and ``im``: ``hash(g) == hash((g.re, g.im))``,
``GaussianRational(0) != 0``, and assignment raises
``dataclasses.FrozenInstanceError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import frozen_delattr, frozen_setattr


class GaussianRational:
    __slots__ = ("_a", "_b", "_d")
    __match_args__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Accept ints (and anything Fraction accepts exactly) in either slot.
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # Over the lcm of two reduced denominators the triple is canonical:
        # a prime of d divides the denominator of the part that holds its
        # full power, and so not that part's numerator.
        g = gcd(q, s)
        _set_a(self, p * (s // g))
        _set_b(self, r * (q // g))
        _set_d(self, q // g * s)

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if value.__class__ is int:
            return _make(value, 0, 1)
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- the parts, as Fractions ---------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- immutability, equality, hashing, pickling ---------------------------

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    def __eq__(self, other):
        # Like a dataclass: only another GaussianRational compares, so
        # GaussianRational(0) == 0 is False.
        if other.__class__ is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        return _sum(triple(self), (1, 0, 1), triple(other))

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        return _sum((0, 0, 1), triple(self), triple(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        return _make(*quotient(triple(self), triple(other)))

    def __rtruediv__(self, other) -> "GaussianRational":
        return _make(*quotient(triple(other), triple(self)))

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
        return bool(self._a or self._b)

    def norm_sq(self) -> Fraction:
        """|a+bi|^2 = a^2 + b^2, as an exact Fraction."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    @property
    def is_rational(self) -> bool:
        return not self._b

    def height(self) -> int:
        """max(|a| + |b|, d): each part of ``self ** e`` has a numerator and
        a denominator of at most ``height ** e`` in absolute value."""
        return max(abs(self._a) + abs(self._b), self._d)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
        return f"{re}{sign}{mag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d from a triple that is already canonical."""
    g = _new(GaussianRational)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _sum(x: tuple, factor: tuple, y: tuple) -> GaussianRational:
    """x + factor * y as a scalar; a zero x or y stays out of add_multiple."""
    h = {0: x} if x[0] or x[1] else {}
    if y[0] or y[1]:
        add_multiple(h, factor, ((0, y),))
    return _make(*h.get(0, (0, 0, 1)))


def triple(value) -> tuple[int, int, int]:
    """The canonical triple (a, b, d) of an int, Fraction or GaussianRational."""
    g = GaussianRational.of(value)
    return g._a, g._b, g._d


def quotient(x: tuple, y: tuple) -> tuple[int, int, int]:
    """x / y on canonical triples; y must be nonzero."""
    a, b, d = x
    c, e, f = y
    if not e:
        if not c:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if c < 0:
            c, f = -c, -f
        a, b, d = a * f, b * f, d * c
    else:
        # (a+bi)/d / ((c+ei)/f) = (a+bi)(c-ei) f / (d (c^2+e^2))
        a, b = (a * c + b * e) * f, (b * c - a * e) * f
        d *= c * c + e * e
    g = gcd(d, a, b)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def add_multiple(h: dict, factor: tuple, terms) -> dict:
    """h[k] += factor * c for each (k, c) of terms, in order; returns h.

    factor, each c and each value of h are canonical triples.  A term that
    cancels is deleted, so h never holds a zero; the values of terms must
    be nonzero, as a Poly's and an echelon row's are.  Each term forms
    ``old + factor * c`` on the ints and restores the canonical form with
    one gcd over the result, skipped when its denominator is 1.  Only a sum
    over two different denominators takes one more gcd, for their lcm: a
    sum over their product would hand the last gcd operands about twice as
    long, which costs more than it saves once coefficients grow.  A real
    factor and a real c skip the imaginary parts.  A zero factor leaves h
    as it is, and ``add_multiple({}, s, terms)`` scales.
    """
    fa, fb, fd = factor
    if not (fa or fb):
        return h
    get = h.get
    for k, (a, b, d) in terms:
        d *= fd
        if fb:
            a, b = a * fa - b * fb, a * fb + b * fa
        elif b:
            a, b = a * fa, b * fa
        else:
            a *= fa
        old = get(k)
        if old is not None:
            e, f, od = old
            if od == d:
                a += e
                b += f
            else:
                g = gcd(d, od)
                d1, od1 = d // g, od // g
                a, b, d = a * od1 + e * d1, b * od1 + f * d1, d1 * od
            if not (a or b):
                del h[k]
                continue
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        h[k] = a, b, d
    return h


ZERO = GaussianRational()
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
