"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial germ is stored as a map from exponent vectors (tuples of
non-negative ints, one slot per variable) to nonzero coefficients, each
the canonical int triple ``(a, b, d)`` of :mod:`germinv.gaussian`.  The
zero polynomial is the empty map, and equality and hashing are structural.
The triples stay inside: methods take scalars (int, Fraction or
:class:`~germinv.gaussian.GaussianRational`) and hand coefficients out,
and pickle them, as GaussianRationals.

The variable count ``nvars`` is fixed per polynomial; mixing different
variable counts in one operation is a hard error, never a broadcast.
Variable *names* are not part of the value: parsing and printing take a
name tuple, and ``str(poly)`` falls back to x, y, z / z1..zn defaults.

The parser is the one reader of names and scalars: a name is one token of
its grammar (a letter or ``_``, then letters, digits or ``_``, in any
script), :func:`variable_names` lists those an expression mentions, and
:func:`parse_scalar` reads a scalar as an expression without variables.

Terms are iterated and printed in graded lexicographic order: ascending
total degree, and within one degree descending lexicographically in the
exponents, so a germ reads off like a Taylor expansion from its lowest
order upward.  ``parse_poly(str(f), names) == f`` holds for every f.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Iterator, Mapping, Sequence

from .errors import InputError, ParseError, ZeroPolynomialError
from .gaussian import GaussianRational, ZERO, _make, add_multiple, triple

Monomial = tuple[int, ...]


# -- monomial helpers --------------------------------------------------------

def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_quotient(b: Monomial, a: Monomial) -> Monomial:
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grlex_key(m: Monomial):
    """Sort key for printing/iteration: degree up, then lex down."""
    return (sum(m), tuple(-e for e in m))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent vectors of the given total degree, lex-descending."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


# -- the polynomial type -----------------------------------------------------

class Poly:
    # _view: germinv.localring's index of the terms under the local order,
    # built on first use there and cached like _hash
    __slots__ = ("nvars", "_terms", "_hash", "_view")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise InputError("a polynomial needs at least one variable")
        clean: dict[Monomial, tuple] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise InputError(
                    f"exponent vector {mono} has length {len(mono)}, expected {nvars}"
                )
            if any(e < 0 for e in mono):
                raise InputError(f"negative exponent in {mono}")
            c = triple(coeff)
            if mono in clean:  # two keys that read as one exponent vector
                add_multiple(clean, (1, 0, 1), ((mono, c),))
            elif c[0] or c[1]:
                clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_view", None)

    @staticmethod
    def _clean(nvars: int, terms: dict[Monomial, tuple]) -> "Poly":
        """A Poly that adopts terms without checking them: every key must be
        an exponent vector of length nvars, every value a nonzero canonical
        triple.  For results built from another Poly's terms."""
        poly = object.__new__(Poly)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_view", None)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # rebuilt through the checked constructor; the caches are not kept
        return Poly, (self.nvars, self.terms())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise InputError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly._clean(nvars, {mono: (1, 0, 1)})

    @staticmethod
    def monomial(nvars: int, mono: Monomial, coeff=1) -> "Poly":
        return Poly(nvars, {tuple(mono): coeff})

    # -- structural queries ------------------------------------------------

    def items(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in canonical graded-lex order (a fresh list)."""
        return [(m, _make(*self._terms[m])) for m in sorted(self._terms, key=grlex_key)]

    def terms(self) -> dict[Monomial, GaussianRational]:
        return {m: _make(*c) for m, c in self._terms.items()}

    def monomials(self):
        """The exponent vectors present, as a read-only view (no copy)."""
        return self._terms.keys()

    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def coeff(self, mono: Monomial) -> GaussianRational:
        return _make(*self._terms.get(tuple(mono), (0, 0, 1)))

    def constant_term(self) -> GaussianRational:
        return self.coeff((0,) * self.nvars)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- degree structure --------------------------------------------------

    def degree(self) -> int:
        """Largest total degree of a term; undefined for 0."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(mono_degree(m) for m in self._terms)

    def order(self) -> int:
        """Smallest total degree of a term (the multiplicity at 0)."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no order")
        return min(mono_degree(m) for m in self._terms)

    def homogeneous_component(self, degree: int) -> "Poly":
        return Poly._clean(
            self.nvars,
            {m: c for m, c in self._terms.items() if mono_degree(m) == degree},
        )

    def initial_form(self) -> "Poly":
        """The lowest-degree homogeneous part; errors on 0."""
        return self.homogeneous_component(self.order())

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        degrees = {mono_degree(m) for m in self._terms}
        return len(degrees) == 1

    def truncate_jet(self, max_degree: int) -> "Poly":
        """Drop every term of total degree > max_degree."""
        return Poly._clean(
            self.nvars,
            {m: c for m, c in self._terms.items() if mono_degree(m) <= max_degree},
        )

    # -- arithmetic --------------------------------------------------------

    def _check_same_vars(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise InputError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check_same_vars(other)
        return Poly._clean(self.nvars,
                           add_multiple(dict(self._terms), (1, 0, 1), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._clean(self.nvars, {m: (-a, -b, d) for m, (a, b, d) in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.constant(self.nvars, other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same_vars(other)
        acc: dict[Monomial, tuple] = {}
        terms = other._terms.items()
        for m1, c1 in self._terms.items():
            add_multiple(acc, c1, [(mono_mul(m1, m2), c2) for m2, c2 in terms])
        return Poly._clean(self.nvars, acc)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, scalar) -> "Poly":
        return Poly._clean(self.nvars, add_multiple({}, triple(scalar), self._terms.items()))

    def mul_term(self, mono: Monomial, coeff) -> "Poly":
        """Multiply by coeff * x^mono.  No engine calls it; it is kept for
        perfbench's tracer, which counts its calls, and for tests."""
        return self * Poly.monomial(self.nvars, mono, coeff)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InputError("negative exponent")
        result = Poly.constant(self.nvars, 1)
        base, e = self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and substitution -----------------------------------------

    def partial(self, index: int) -> "Poly":
        """d/dx_index."""
        if not 0 <= index < self.nvars:
            raise InputError(f"variable index {index} out of range")
        # nothing merges (m -> m - e_index is injective); gcd(a, b, d) == 1
        acc: dict[Monomial, tuple] = {}
        for m, (a, b, d) in self._terms.items():
            e = m[index]
            if e:
                g = gcd(e, d)
                acc[m[:index] + (e - 1,) + m[index + 1:]] = a * (e // g), b * (e // g), d // g
        return Poly._clean(self.nvars, acc)

    def jacobian(self) -> tuple["Poly", ...]:
        """All first partials, in variable order."""
        return tuple(self.partial(i) for i in range(self.nvars))

    def evaluate(self, point: Sequence) -> GaussianRational:
        if len(point) != self.nvars:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        values = [GaussianRational.of(p) for p in point]
        total = ZERO
        for m, term in self.terms().items():
            for v, e in zip(values, m):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Plug images[i] in for variable i; images share one variable count."""
        if len(images) != self.nvars:
            raise InputError(
                f"{len(images)} substitution images for {self.nvars} variables"
            )
        out_vars = images[0].nvars
        for img in images:
            if img.nvars != out_vars:
                raise InputError("substitution images disagree on variable count")
        powers: list[dict[int, Poly]] = [
            {0: Poly.constant(out_vars, 1)} for _ in range(self.nvars)
        ]

        def power(i: int, e: int) -> Poly:
            cache = powers[i]
            if e not in cache:
                top = max(cache)
                acc = cache[top]
                for k in range(top + 1, e + 1):
                    acc = acc * images[i]
                    cache[k] = acc
            return cache[e]

        total = Poly.zero(out_vars)
        for m, c in self._terms.items():
            term = Poly._clean(out_vars, {(0,) * out_vars: c})
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def translate(self, point: Sequence) -> "Poly":
        """f(z + p), exactly."""
        if len(point) != self.nvars:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        images = [
            Poly.variable(self.nvars, i) + Poly.constant(self.nvars, point[i])
            for i in range(self.nvars)
        ]
        return self.substitute(images)

    def restrict_to_line(self, direction: Sequence) -> "Poly":
        """One-variable germ t |-> f(t * v); v needs a nonzero entry."""
        if len(direction) != self.nvars:
            raise InputError(f"direction has {len(direction)} entries, expected {self.nvars}")
        if not any(direction):
            raise InputError("direction vector must have a nonzero entry")
        t = Poly.variable(1, 0)
        return self.substitute([t.scale(v) for v in direction])

    def linear_change(self, matrix: Sequence[Sequence]) -> "Poly":
        """f(M z) for a square matrix of scalars acting on the variables."""
        if len(matrix) != self.nvars:
            raise InputError("matrix size does not match variable count")
        images = []
        for row in matrix:
            if len(row) != self.nvars:
                raise InputError("matrix is not square")
            img = Poly.zero(self.nvars)
            for j, entry in enumerate(row):
                img = img + Poly.variable(self.nvars, j).scale(entry)
            images.append(img)
        return self.substitute(images)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self, default_names(self.nvars))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self!s})"


# -- parsing -----------------------------------------------------------------

_DEFAULTS = ("x", "y", "z")

# The largest degree of any term the parser forms, and so the largest
# exponent it accepts after '^'.  A literal is checked on its digits, and a
# power or product on its result's top degree, before it is formed:
# x^99999999999, (x^100)^1000 or x^10000*x^10000 would otherwise reach the
# engines, whose work grows with the degree (the staircase of x^e alone has
# e-1 monomials), and (x^10000)^10000 ran out of memory.  The bundled
# corpus, the benchmark and the tests use degrees up to 101; at 10000,
# milnor x^10000 still reports within a second.  The cap bounds degrees,
# not the expanded size of a product or of a germ in several variables:
# MAX_TERMS does that.
MAX_EXPONENT = 10_000

# The most terms a power or product in the parser may expand to.  Each is
# bounded before it is formed (_Parser._check_expansion), so
# (x+y+z)^10000, about 5*10^7 terms, is refused at once rather than
# expanded.  The bundled corpus, the benchmark's CLI calls and the tests
# expand to at most 4 terms per power or product.  The cap bounds terms,
# not coefficient size: on a 2-vCPU VM with Python 3.11, (x+y)^1000 (1001
# terms) parses in about 1.5 s, and the costliest accepted power, the
# univariate (x+1)^1999, in about 8 s.
MAX_TERMS = 2_000

# The most decimal digits of a parsed coefficient's numerator or denominator,
# the most str() converts by default.  int() holds a literal to it; a sum,
# product or power is refused before it is formed if a bound on its result
# exceeds it (_bounded), so ((2^10000)^10000)^10000 (out of memory) and
# (1/3)^10000 (4772 digits, unprintable) are refused at once.
MAX_DIGITS = 4_300
_DIGIT_LIMIT = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars == 1:
        return ("t",)
    if nvars <= 3:
        return _DEFAULTS[:nvars]
    return tuple(f"z{i + 1}" for i in range(nvars))


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        text, n = self.text, len(self.text)
        pos = self.pos
        while pos < n and text[pos].isspace():
            pos += 1
        self.pos = pos
        if pos >= n:
            return ("end", "", pos)
        ch = text[pos]
        if ch in "+-*^()":
            return ("op", ch, pos)
        if ch.isdecimal():
            end = pos
            while end < n and text[end].isdecimal():
                end += 1
            # A rational literal may continue with /denominator.
            if end < n and text[end] == "/":
                d = end + 1
                if d < n and text[d].isdecimal():
                    end = d
                    while end < n and text[end].isdecimal():
                        end += 1
            return ("number", text[pos:end], pos)
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            return ("name", text[pos:end], pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def take(self):
        kind, value, pos = self.peek()
        self.pos = pos + len(value)
        return kind, value, pos


def _is_name(text: str) -> bool:
    """True iff text is exactly one name token."""
    try:
        return _Tokenizer(text).peek()[:2] == ("name", text)
    except ParseError:
        return False


def exceeds_digits(top: int, e: int = 1) -> bool:
    """True iff top**e (top >= 0) has more than MAX_DIGITS digits; the power
    is formed only when it has fewer bits than _DIGIT_LIMIT * 2**e."""
    return e * (top.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or top ** e >= _DIGIT_LIMIT


def _bounded(size: int, den: int, pos: int, e: int = 1) -> tuple[int, int]:
    """(size**e, den**e), refused if either has more than MAX_DIGITS digits."""
    if exceeds_digits(max(size, den), e):
        raise ParseError(f"coefficient above the maximum of {MAX_DIGITS} digits", pos)
    return size ** e, den ** e


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ['^' int],
    atom := number | 'i' | variable | '(' expr ')' | ('+'|'-') atom.

    Each rule returns (p, S, D) with p = P/D, P over the Gaussian integers and
    S >= the sum of |re| + |im| over P's coefficients, which bounds each of
    them.  S(PQ) <= S(P)S(Q), so a product is bounded by (S1*S2, D1*D2), a
    power by (S^e, D^e), and a sum over L = lcm(D1, D2) by (S1*L/D1 + S2*L/D2, L).
    """

    def __init__(self, text: str, names: Sequence[str]):
        seen = set()
        for name in names:
            if name == "i":
                raise InputError("variable name 'i' is reserved for the imaginary unit")
            if not _is_name(name):
                raise InputError(f"{name!r} is not a variable name")
            if name in seen:
                raise InputError(f"duplicate variable name {name!r}")
            seen.add(name)
        self.toks = _Tokenizer(text)
        self.names = {name: idx for idx, name in enumerate(names)}
        self.nvars = len(names) or 1  # parse_scalar: a constant no name reaches

    def parse(self) -> Poly:
        poly, _, _ = self.expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return poly

    def expr(self) -> tuple[Poly, int, int]:
        kind, value, pos = self.toks.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.toks.take()
            negate = value == "-"
        poly, size, den = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, pos = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.take()
                rhs, size2, den2 = self.term()
                common = lcm(den, den2)
                size, den = _bounded(size * (common // den) + size2 * (common // den2),
                                     common, pos)
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly, size, den

    def term(self) -> tuple[Poly, int, int]:
        poly, size, den = self.factor()
        while True:
            kind, value, pos = self.toks.peek()
            if kind == "op" and value == "*":
                self.toks.take()
                rhs, size2, den2 = self.factor()
                if poly and rhs:
                    self._check_expansion(len(poly) * len(rhs), poly.order() + rhs.order(),
                                          poly.degree() + rhs.degree(), pos)
                size, den = _bounded(size * size2, den * den2, pos)
                poly = poly * rhs
            else:
                return poly, size, den

    def factor(self) -> tuple[Poly, int, int]:
        base, size, den = self.atom()
        kind, value, pos = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.take()
            kind, value, pos = self.toks.peek()
            if kind == "op" and value == "-":
                raise ParseError("negative exponent", pos)
            if kind != "number" or "/" in value:
                raise ParseError("exponent must be a non-negative integer", pos)
            digits = value.lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"exponent above the maximum of {MAX_EXPONENT}", pos)
            self.toks.take()
            e = int(value)
            if base and e > 1:
                self._check_expansion(comb(len(base) + e - 1, e), base.order() * e,
                                      base.degree() * e, pos)
            size, den = _bounded(size, den, pos, e)
            base = base ** e
        return base, size, den

    def _check_expansion(self, products: int, low: int, high: int, pos: int):
        """Refuse a power or product whose result has a term of degree above
        MAX_EXPONENT or could exceed MAX_TERMS terms.

        Its terms number at most ``products`` (the distinct products of
        its factors' terms) and at most the monomials of degree low..high.
        """
        if high > MAX_EXPONENT:
            raise ParseError(f"degree {high} above the maximum of {MAX_EXPONENT}", pos)
        n = self.nvars
        window = comb(high + n, n) - comb(low - 1 + n, n)
        bound = min(products, window)
        if bound > MAX_TERMS:
            raise ParseError(f"expansion of up to {bound} terms above the maximum of "
                             f"{MAX_TERMS}", pos)

    def atom(self) -> tuple[Poly, int, int]:
        kind, value, pos = self.toks.take()
        if kind == "number":
            try:
                number = Fraction(value)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {value!r}", pos) from None
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number literal of {len(value)} characters is too long",
                                 pos) from None
            return (Poly.constant(self.nvars, number), number.numerator,
                    number.denominator)
        if kind == "name":
            if value == "i":
                return Poly.constant(self.nvars, GaussianRational(0, 1)), 1, 1
            if value in self.names:
                return Poly.variable(self.nvars, self.names[value]), 1, 1
            raise ParseError(f"unknown variable {value!r}", pos)
        if kind == "op" and value == "(":
            bounded = self.expr()
            kind, value, pos = self.toks.take()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
            return bounded
        if kind == "op" and value in "+-":
            inner, size, den = self.atom()
            return (-inner if value == "-" else inner), size, den
        raise ParseError(
            "expected a number, variable or '('" if kind == "end"
            else f"unexpected {value!r}",
            pos,
        )


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse an expression over the named variables into a Poly.

    Grammar: + - * ^ and parentheses over integer/rational/Gaussian-rational
    literals (``i`` is the imaginary unit) and the given variable names.
    Raises :class:`ParseError` with a character position on bad syntax,
    unknown variables, exponents that are negative, a term of degree above
    :data:`MAX_EXPONENT`, a power or product that could expand to more
    than :data:`MAX_TERMS` terms, or a coefficient whose numerator or
    denominator could exceed :data:`MAX_DIGITS` digits; :class:`InputError`
    on a name that is ``i``, repeated, or not exactly one name token.
    """
    if len(names) < 1:
        raise InputError("at least one variable name is required")
    return _Parser(text, tuple(names)).parse()


def parse_scalar(text: str) -> GaussianRational:
    """Parse an expression without variables, such as ``-3/4``, ``2^10``
    or ``1/2 - 3*i``: the grammar and the bounds of :func:`parse_poly`."""
    return _Parser(text, ()).parse().constant_term()


def variable_names(text: str) -> set[str]:
    """The variable names an expression mentions: its name tokens other
    than ``i``. Raises :class:`ParseError` at a character the parser
    refuses."""
    toks, names = _Tokenizer(text), set()
    while (token := toks.take())[0] != "end":
        if token[0] == "name":
            names.add(token[1])
    names.discard("i")
    return names


# -- printing ----------------------------------------------------------------

def _format_monomial(mono: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _format_coeff(c: tuple, with_monomial: bool) -> tuple[str, str]:
    """Return (sign, magnitude-string) of a triple; mixed coefficients keep
    their parens.  A pure part n/d is already reduced, as its Fraction is."""
    a, b, d = c
    if a and b:
        return "+", f"({_make(a, b, d)})"
    n = abs(a or b)
    mag = str(n) if d == 1 else f"{n}/{d}"
    sign = "+" if a > 0 or b > 0 else "-"
    if b:
        return sign, "i" if mag == "1" else f"{mag}*i"
    return sign, "" if mag == "1" and with_monomial else mag


def format_poly(f: Poly, names: Sequence[str]) -> str:
    if len(names) != f.nvars:
        raise InputError(f"{len(names)} names for {f.nvars} variables")
    if not f:
        return "0"
    pieces = []
    for mono, coeff in sorted(f._terms.items(), key=lambda kv: grlex_key(kv[0])):
        monomial = _format_monomial(mono, names)
        sign, mag = _format_coeff(coeff, bool(monomial))
        if monomial and mag:
            body = f"{mag}*{monomial}"
        else:
            body = monomial or mag or "1"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- small constructors shared across modules --------------------------------

def fermat(l: int, nvars: int) -> Poly:
    """Sum of l-th powers of all variables, the reference germ of degree l."""
    if l < 1 or nvars < 1:
        raise InputError("fermat(l, nvars) needs l >= 1 and nvars >= 1")
    total = Poly.zero(nvars)
    for i in range(nvars):
        total = total + Poly.variable(nvars, i) ** l
    return total
