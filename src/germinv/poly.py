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
One findall pass of one regular expression lexes a text into a token list,
read by index; a character the grammar refuses ends it as an error token,
raised only when the parser reaches it.  Each grammar rule returns a term
dict with its exact order and degree and a bound on its coefficients: a sum
adds into one dict, a product multiplies two, a power of one term is formed
from its exponents, and a parse forms one Poly, at the end.

Terms are iterated and printed in graded lexicographic order: ascending
total degree, and within one degree descending lexicographically in the
exponents, so a germ reads off like a Taylor expansion from its lowest
order upward.  ``parse_poly(str(f), names) == f`` holds for every f.
"""

from __future__ import annotations

import re
from math import comb, gcd, lcm
from operator import add
from typing import Iterator, Mapping, Sequence

from .errors import InputError, IterationLimitError, ParseError, ZeroPolynomialError
from .gaussian import GaussianRational, _make, add_multiple, triple

Monomial = tuple[int, ...]


# -- monomial helpers --------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _product(p: dict, q: dict) -> dict:
    """The term dict of a product of two term dicts."""
    acc: dict[Monomial, tuple] = {}
    terms = q.items()
    for m1, c1 in p.items():
        add_multiple(acc, c1, [(mono_mul(m1, m2), c2) for m2, c2 in terms])
    return acc


def _term_power(mono: Monomial, c: tuple, e: int) -> tuple[Monomial, tuple]:
    """(c*x^mono)^e = (c^e)*x^(e*mono), with no products."""
    if c != (1, 0, 1):
        c = (c[0] ** e, 0, c[2] ** e) if not c[1] else triple(_make(*c) ** e)
    return tuple(k * e for k in mono), c


# -- packed monomials -------------------------------------------------------
#
# Inside both Milnor engines a monomial is one int of FIELD_BITS-bit fields,
# from the top the degree, then e_n, ..., e_1, each field's top bit a clear
# guard.  Integer order is the order of (degree, e_n, ..., e_1), the local
# order reversed; a product is one +, and x^a divides x^b exactly when
# (b + G) - a keeps every guard bit of G (Bachmann & Schoenemann, ISSAC
# 1998).  That holds while degrees stay below DEGREE_LIMIT: the engines
# check before they form a term and raise degree_limit_error() past it.
FIELD_BITS = 20
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)


def pack(m: Monomial) -> int:
    k = sum(m)
    for e in reversed(m):
        k = (k << FIELD_BITS) + e
    return k


def unpack(k: int, nvars: int) -> Monomial:
    mask = (1 << FIELD_BITS) - 1
    return tuple(k >> (FIELD_BITS * i) & mask for i in range(nvars))


def packing(nvars: int) -> tuple[int, int, int]:
    """(degree shift, guard bits G, least key of degree DEGREE_LIMIT) for nvars variables."""
    shift = FIELD_BITS * nvars
    ones = ((1 << (shift + FIELD_BITS)) - 1) // ((1 << FIELD_BITS) - 1)  # 1 in every field
    return shift, ones << (FIELD_BITS - 1), DEGREE_LIMIT << shift


def degree_limit_error() -> IterationLimitError:
    return IterationLimitError(f"a term would reach degree {DEGREE_LIMIT} or more, past the "
                               "engines' limit on the degree of a packed monomial")


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
    __slots__ = ("nvars", "_terms")

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

    @staticmethod
    def _clean(nvars: int, terms: dict[Monomial, tuple]) -> "Poly":
        """A Poly that adopts terms without checking them: every key must be
        an exponent vector of length nvars, every value a nonzero canonical
        triple.  For results built from another Poly's terms."""
        poly = object.__new__(Poly)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # rebuilt through the checked constructor
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

    def terms(self) -> dict[Monomial, GaussianRational]:
        return {m: _make(*c) for m, c in self._terms.items()}

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
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- degree structure --------------------------------------------------

    def degree(self) -> int:
        """Largest total degree of a term; undefined for 0."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(sum(m) for m in self._terms)

    def order(self) -> int:
        """Smallest total degree of a term (the multiplicity at 0)."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no order")
        return min(sum(m) for m in self._terms)

    def homogeneous_component(self, degree: int) -> "Poly":
        return Poly._clean(
            self.nvars,
            {m: c for m, c in self._terms.items() if sum(m) == degree},
        )

    def initial_form(self) -> "Poly":
        """The lowest-degree homogeneous part; errors on 0."""
        return self.homogeneous_component(self.order())

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
        return Poly._clean(self.nvars, _product(self._terms, other._terms))

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
        if len(self._terms) == 1:
            ((mono, c),) = self._terms.items()
            return Poly._clean(self.nvars, dict([_term_power(mono, c, exponent)]))
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
        tables = [[(1, 0, 1), triple(p)] for p in point]  # powers, grown as exponents need
        total: dict = {}
        for m, c in self._terms.items():
            value = None
            for table, e in zip(tables, m):
                if e:
                    if not (table[1][0] or table[1][1]):
                        break  # a zero coordinate: the term vanishes
                    while len(table) <= e:
                        table.append(add_multiple({}, table[-1], ((0, table[1]),))[0])
                    power = table[e]
                    value = power if value is None else add_multiple({}, value, ((0, power),))[0]
            else:
                add_multiple(total, value or (1, 0, 1), ((0, c),))
        return _make(*total.get(0, (0, 0, 1)))

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
# not coefficient size: on a 2-vCPU Intel Xeon VM with Python 3.11.7,
# (x+y)^1000 (1001 terms) parses in about 0.45 s, (x+1)^1999 in about
# 2.5 s and (x+2*y)^1999 in about 4 s.
MAX_TERMS = 2_000

# The most decimal digits of a parsed coefficient's numerator or denominator,
# the most str() converts by default.  int() holds a literal to it; a sum,
# product or power is refused before it is formed if a bound on its result
# exceeds it (_bounded), so ((2^10000)^10000)^10000 (out of memory) and
# (1/3)^10000 (4772 digits, unprintable) are refused at once.
MAX_DIGITS = 4_300
_DIGIT_LIMIT = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits

# The most nesting levels the parser reads, whatever the caller's stack: a
# level is a '(' (four frames: expr, term, factor, atom) or a sign in front
# of an atom (one frame), so about 400 frames, within the default recursion
# limit of 1000 from a caller 300 frames deep.
MAX_NESTING = 100


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars == 1:
        return ("t",)
    if nvars <= 3:
        return _DEFAULTS[:nvars]
    return tuple(f"z{i + 1}" for i in range(nvars))


# One token after whitespace (group 1): an operator, a number (digits, and
# /digits for a rational literal), or a name (a word character that is not a
# digit, then word characters).  No token: the end, or a refused character.
_TOKEN = re.compile(r"(\s*)(?:([-+*^()])|(\d+(?:/\d+)?)|([^\W\d]\w*))?")


def _starts_name(text: str) -> bool:
    """A letter or '_'; \\w also holds '²' or '½', which start no name."""
    return text[0].isalpha() or text[0] == "_"


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, position) tokens of text; an operator's kind is the
    operator, any other's "number" or "name".  The last is ("end", "",
    len(text)), or an ("error", message, position) token at the first
    character the grammar refuses, raised only when a parser reaches it."""
    tokens, pos = [], 0
    for space, op, number, name in _TOKEN.findall(text):  # the last match is empty
        pos += len(space)
        value = op or number or name
        if not value or name and not _starts_name(name):
            break
        tokens.append((op or ("number" if number else "name"), value, pos))
        pos += len(value)
    tokens.append(("error", f"unexpected character {text[pos]!r}", pos)
                  if pos < len(text) else ("end", "", pos))
    return tokens


def _is_name(text: str) -> bool:
    """True iff text is exactly one name token."""
    return _TOKEN.match(text)[4] == text and _starts_name(text)


def exceeds_digits(top: int, e: int = 1) -> bool:
    """True iff top**e (top >= 0) has more than MAX_DIGITS digits; the power
    is formed only when it has fewer bits than _DIGIT_LIMIT * 2**e."""
    return e * (top.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or top ** e >= _DIGIT_LIMIT


def _bounded(size: int, den: int, pos: int, e: int = 1) -> tuple[int, int]:
    """(size**e, den**e), refused if either has more than MAX_DIGITS digits."""
    if exceeds_digits(max(size, den), e):
        raise ParseError(f"coefficient above the maximum of {MAX_DIGITS} digits", pos)
    return size ** e, den ** e


_PLUS, _MINUS = (1, 0, 1), (-1, 0, 1)


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ['^' int],
    atom := number | 'i' | variable | '(' expr ')' | ('+'|'-') atom.

    Each rule returns (terms, order, degree, S, D): a term dict no one else
    holds, its order and degree (exact if terms is not empty: a product's
    add, a power's multiply, a sum's are read off the terms left), a bound:
    terms = P/D, P over the Gaussian integers, S >= the sum of |re| + |im|
    over P's coefficients.  S(PQ) <= S(P)S(Q), so a product is bounded by
    (S1*S2, D1*D2), a power by (S^e, D^e), and a sum over L = lcm(D1, D2)
    by (S1*L/D1 + S2*L/D2, L).  An error token raises where the grammar
    first reads it: in atom, as an exponent, after an atom or after a term."""

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
        self.tokens = _tokens(text)
        self.at = 0  # the index of the next token
        self.depth = 0  # the '(' and unary signs open around the next token
        self.nvars = len(names) or 1  # parse_scalar: a constant no name reaches
        self.zero = (0,) * self.nvars
        self.units = {v: self.zero[:k] + (1,) + self.zero[k + 1:] for k, v in enumerate(names)}

    def parse(self) -> Poly:
        try:
            terms = self.expr()[0]
        except RecursionError:  # past MAX_NESTING, or a backstop for a deep caller
            position = self.tokens[min(self.at, len(self.tokens) - 1)][2]
            raise ParseError("expression nested too deeply", position) from None
        kind, value, pos = self.tokens[self.at]
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return Poly._clean(self.nvars, terms)

    def expr(self) -> tuple[dict, int, int, int, int]:
        """All summands go into the first one's dict, each with factor +1 or -1."""
        tokens = self.tokens
        sign = tokens[self.at][0]
        if sign == "+" or sign == "-":
            self.at += 1
        terms, low, high, size, den = self.term()
        if sign == "-":
            terms = {m: (-a, -b, d) for m, (a, b, d) in terms.items()}
        kind, _, pos = tokens[self.at]
        if kind != "+" and kind != "-":
            return terms, low, high, size, den
        while kind == "+" or kind == "-":
            self.at += 1
            rhs, _, _, size2, den2 = self.term()
            common = lcm(den, den2)
            size, den = _bounded(size * (common // den) + size2 * (common // den2), common, pos)
            add_multiple(terms, _MINUS if kind == "-" else _PLUS, rhs.items())
            kind, _, pos = tokens[self.at]
        degrees = [sum(m) for m in terms] or [0]
        return terms, min(degrees), max(degrees), size, den

    def term(self) -> tuple[dict, int, int, int, int]:
        terms, low, high, size, den = self.factor()
        kind, value, pos = self.tokens[self.at]
        while kind == "*":
            self.at += 1
            rhs, low2, high2, size2, den2 = self.factor()
            if terms and rhs:
                self._check_expansion(len(terms) * len(rhs), low + low2, high + high2, pos)
            size, den = _bounded(size * size2, den * den2, pos)
            terms, low, high = _product(terms, rhs), low + low2, high + high2
            kind, value, pos = self.tokens[self.at]
        if kind == "error":
            raise ParseError(value, pos)
        return terms, low, high, size, den

    def factor(self) -> tuple[dict, int, int, int, int]:
        terms, low, high, size, den = self.atom()
        kind, value, pos = self.tokens[self.at]
        if kind == "error":
            raise ParseError(value, pos)
        if kind == "^":
            self.at += 1
            kind, value, pos = self.tokens[self.at]
            if kind != "number" or "/" in value:
                raise ParseError(value if kind == "error" else "negative exponent" if kind == "-"
                                 else "exponent must be a non-negative integer", pos)
            digits = value.lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"exponent above the maximum of {MAX_EXPONENT}", pos)
            self.at += 1
            e = int(value)
            if terms and e > 1:
                self._check_expansion(comb(len(terms) + e - 1, e), low * e, high * e, pos)
            size, den = _bounded(size, den, pos, e)
            if len(terms) == 1:
                ((mono, c),) = terms.items()
                terms = dict([_term_power(mono, c, e)])
            elif e != 1:  # a multi-term base, or 0
                terms = (Poly._clean(self.nvars, terms) ** e)._terms
            low, high = low * e, high * e
        return terms, low, high, size, den

    def _check_expansion(self, products: int, low: int, high: int, pos: int):
        """Refuse a power or product with a term of degree above MAX_EXPONENT
        or that could exceed MAX_TERMS terms: it has at most ``products`` (its
        factors' term products) and at most the monomials of degree low..high."""
        if high > MAX_EXPONENT:
            raise ParseError(f"degree {high} above the maximum of {MAX_EXPONENT}", pos)
        n = self.nvars
        window = comb(high + n, n) - comb(low - 1 + n, n)
        bound = min(products, window)
        if bound > MAX_TERMS:
            raise ParseError(f"expansion of up to {bound} terms above the maximum of "
                             f"{MAX_TERMS}", pos)

    def atom(self) -> tuple[dict, int, int, int, int]:
        kind, value, pos = self.tokens[self.at]
        self.at += 1
        if kind == "number":
            # the literal p or p/q as the canonical triple (p, 0, q)
            num, _, den = value.partition("/")
            try:
                p, q = int(num), int(den or 1)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number literal of {len(value)} characters is too long",
                                 pos) from None
            if not q:
                raise ParseError(f"zero denominator in {value!r}", pos)
            g = gcd(p, q)
            p, q = p // g, q // g
            return ({self.zero: (p, 0, q)} if p else {}), 0, 0, p, q
        if kind == "name":
            if value == "i":
                return {self.zero: (0, 1, 1)}, 0, 0, 1, 1
            if value in self.units:
                return {self.units[value]: _PLUS}, 1, 1, 1, 1
            raise ParseError(f"unknown variable {value!r}", pos)
        if kind == "(" or kind == "+" or kind == "-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise RecursionError
        if kind == "(":
            bounded = self.expr()
            kind, value, pos = self.tokens[self.at]
            self.at += 1
            if kind != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return bounded
        if kind == "+" or kind == "-":
            terms, low, high, size, den = self.atom()
            if kind == "-":
                terms = {m: (-a, -b, d) for m, (a, b, d) in terms.items()}
            self.depth -= 1
            return terms, low, high, size, den
        raise ParseError(value if kind == "error" else "expected a number, variable or '('"
                         if kind == "end" else f"unexpected {value!r}", pos)


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse an expression over the named variables into a Poly.

    Grammar: + - * ^ and parentheses over integer/rational/Gaussian-rational
    literals (``i`` is the imaginary unit) and the given variable names.
    Raises :class:`ParseError` with a character position on bad syntax,
    unknown variables, nesting deeper than :data:`MAX_NESTING` levels,
    exponents that are negative, a term of degree above
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
    names = set()
    for kind, value, pos in _tokens(text):
        if kind == "error":
            raise ParseError(value, pos)
        if kind == "name":
            names.add(value)
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
    """f as text in the given names, terms by degree up, then lex down."""
    if len(names) != f.nvars:
        raise InputError(f"{len(names)} names for {f.nvars} variables")
    if not f:
        return "0"
    pieces = []
    for mono, coeff in sorted(f._terms.items(), key=lambda kv: (sum(kv[0]), [-e for e in kv[0]])):
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
