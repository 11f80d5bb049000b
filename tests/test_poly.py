"""Sparse multivariate polynomials: parsing, printing, arithmetic, calculus."""

import copy
import pickle
import sys
from fractions import Fraction
from math import gcd
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from germinv import poly
from germinv.errors import InputError, ParseError, ZeroPolynomialError
from germinv.gaussian import GaussianRational
from germinv.poly import (
    MAX_DIGITS,
    MAX_EXPONENT,
    DEGREE_LIMIT,
    MAX_TERMS,
    Poly,
    default_names,
    fermat,
    format_poly,
    mono_mul,
    monomials_of_degree,
    pack,
    packing,
    parse_poly,
    parse_scalar,
    unpack,
    variable_names,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, names=XY):
    return parse_poly(text, names)


# -- monomial helpers --------------------------------------------------------

def test_monomial_helpers():
    assert mono_mul((1, 0), (0, 2)) == (1, 2)


@st.composite
def monomial_pairs(draw):
    """Two monomials in 1-4 variables, each of degree below DEGREE_LIMIT,
    small or near the limit."""
    nvars = draw(st.integers(1, 4))
    pair = []
    for _ in range(2):
        top = draw(st.sampled_from([4, DEGREE_LIMIT - 1]))
        mono = []
        for _ in range(nvars):
            mono.append(draw(st.integers(0, top - sum(mono))))
        pair.append(tuple(draw(st.permutations(mono))))
    return pair


@settings(max_examples=200)
@given(monomial_pairs())
def test_packed_monomials_keep_order_products_and_divisibility(pair):
    a, b = pair
    nvars = len(a)
    shift, guards, limit = packing(nvars)
    assert unpack(pack(a), nvars) == a
    assert pack(a) >> shift == sum(a) and pack(a) < limit
    # integer order is the order of (degree, e_n, ..., e_1)
    key = lambda m: (sum(m), m[::-1])
    assert (pack(a) < pack(b)) == (key(a) < key(b))
    assert pack(a) & guards == 0
    # x^a divides x^b exactly when (b + G) - a keeps every guard bit
    assert ((pack(b) + guards - pack(a)) & guards == guards) == all(map(le, a, b))
    if sum(a) + sum(b) < DEGREE_LIMIT:
        assert pack(a) + pack(b) == pack(mono_mul(a, b))


def test_monomials_of_degree_count():
    # C(d + n - 1, n - 1) monomials of degree d in n variables
    assert len(list(monomials_of_degree(2, 3))) == 4
    assert len(list(monomials_of_degree(3, 2))) == 6


# -- construction and basic queries ------------------------------------------

def test_constructors():
    assert not Poly.zero(2)
    assert str_poly(Poly.constant(2, 5)) == "5"
    assert str_poly(Poly.variable(2, 0)) == "x"
    assert str_poly(Poly.monomial(2, (1, 2), 3)) == "3*x*y^2"


def str_poly(f):
    return format_poly(f, XY)


def test_zero_coefficients_are_not_stored():
    f = P("x + y") - P("y")
    assert list(f.terms()) == [(1, 0)]
    assert (P("x") - P("x")).terms() == {}


def test_order_degree_initial_form():
    f = P("x^3 + y^3 + x^4")
    assert f.order() == 3
    assert f.degree() == 4
    assert f.initial_form() == P("x^3 + y^3")
    assert f.homogeneous_component(4) == P("x^4")
    assert f.homogeneous_component(2) == Poly.zero(2)
    assert f.order() != f.degree()
    assert P("x^3 + y^3").order() == P("x^3 + y^3").degree()


def test_order_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        Poly.zero(2).order()
    with pytest.raises(ZeroPolynomialError):
        Poly.zero(2).degree()


def test_truncate_jet():
    f = P("1 + x + x^2 + x^3")
    jet = Poly.zero(2)
    for degree in range(3):
        jet = jet + f.homogeneous_component(degree)
    assert jet == P("1 + x + x^2")


def test_nvars_mismatch_is_a_hard_error():
    with pytest.raises(InputError):
        P("x") + parse_poly("z1", ("z1",))
    with pytest.raises(InputError):
        P("x") * parse_poly("z1 + z2 + z3", ("z1", "z2", "z3"))


def test_immutability():
    f = P("x + y")
    with pytest.raises(Exception):
        f.nvars = 3  # type: ignore[misc]


# -- printing ----------------------------------------------------------------

def test_print_order_is_graded():
    # ascending total degree, and within a degree x-heavy terms first
    assert str_poly(P("y^3 + x^4 + x^3 + 1")) == "1 + x^3 + y^3 + x^4"
    assert str_poly(P("y^2 + x*y + x^2")) == "x^2 + x*y + y^2"


def test_print_coefficients():
    assert str_poly(P("2*x - y")) == "2*x - y"
    assert str_poly(P("1/2*x")) == "1/2*x"
    assert str_poly(P("i*y^2")) == "i*y^2"
    assert str_poly(P("-i*x")) == "-i*x"
    assert str_poly(P("(1+2*i)*x")) == "(1+2*i)*x"
    assert str_poly(P("(1-i)*x + 3")) == "3 + (1-i)*x"
    assert str_poly(Poly.zero(2)) == "0"


def test_str_uses_default_names():
    f = P("x^2 + y")
    assert str(f) == "y + x^2"
    assert default_names(1) == ("t",)
    assert default_names(3) == ("x", "y", "z")
    assert default_names(4) == ("z1", "z2", "z3", "z4")


# -- parsing -----------------------------------------------------------------

def test_parse_literals_and_precedence():
    assert P("2 + 3*x^2") == Poly.constant(2, 2) + Poly.monomial(2, (2, 0), 3)
    assert P("-x^2") == Poly.monomial(2, (2, 0), -1)
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("x - y - y") == P("x - 2*y")
    assert P("3/2*x") == Poly.monomial(2, (1, 0), Fraction(3, 2))
    assert P("6/4*x - 0/3 + 0") == P("3/2*x")  # literals in lowest terms
    assert P("i^2") == Poly.constant(2, -1)


def repeated_product(f, e):
    result = Poly.constant(f.nvars, 1)
    for _ in range(e):
        result = result * f
    return result


@pytest.mark.parametrize("coeff", [1, -3, Fraction(-2, 3), GaussianRational(Fraction(1, 2), -2),
                                   GaussianRational(0, -1)])
def test_a_one_term_power_equals_repeated_multiplication(coeff):
    f = Poly.monomial(2, (1, 2), coeff)
    for e in (0, 1, 2, 7):
        assert f ** e == repeated_product(f, e)
        assert_triples(f ** e)
    x = Poly.variable(2, 0)
    assert x ** MAX_EXPONENT == repeated_product(x, MAX_EXPONENT) == P(f"x^{MAX_EXPONENT}")


def test_sums_cancel_and_keep_the_order_of_repeated_additions():
    for text in ("x - x", "-x + x", "-(x - y) + x - y"):
        assert P(text) == Poly.zero(2) and not P(text)._terms
    assert P(" + ".join(["x"] * 2000)) == P("2000*x")
    # a cancelled term comes back last, as it does through Poly.__add__
    assert list(P("x + y - x + x").terms()) == [(0, 1), (1, 0)]
    assert list((P("x") + P("y") - P("x") + P("x")).terms()) == [(0, 1), (1, 0)]


def test_parse_round_trip_examples():
    for text in (
        "x^3 + y^3",
        "1 + x^3 + y^3 + x^4",
        "x^2*y - 2*y^4 + 1/2",
        "i*x + (1-2*i)*y^2",
        "x^5 - 1/3*x^2*y^3",
    ):
        f = P(text)
        assert parse_poly(format_poly(f, XY), XY) == f


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        P("x^3 +")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        P("x +* y")
    with pytest.raises(ParseError):
        P("(x + y")
    with pytest.raises(ParseError):
        P("")


def test_a_sign_chain_of_any_length_is_a_parse_error():
    # one of these lengths reads the end token just as the recursion runs out
    for length in range(1, 1200):
        with pytest.raises(ParseError):
            P("-" * length)


def test_the_nesting_refusal_depends_on_the_text_alone():
    # MAX_NESTING levels parse and one more is refused at the next token,
    # whatever the caller's stack depth or the recursion limit
    k = poly.MAX_NESTING
    cases = ["(" * k + "x" + ")" * k, "(" * (k + 1) + "x" + ")" * (k + 1),
             "(" * k + "x^3 + y^3" + ")" * k, "(" * (k + 1) + "x^3 + y^3" + ")" * (k + 1),
             "-" * (k + 1) + "x", "-" * (k + 2) + "x"]  # the first sign nests nothing

    def outcomes():
        found = []
        for text in cases:
            try:
                P(text)
                found.append("parsed")
            except ParseError as err:
                found.append((err.message, err.position))
        return found

    def from_depth(frames):
        return outcomes() if frames == 0 else from_depth(frames - 1)

    refused = ("expression nested too deeply", k + 1)
    top = outcomes()
    assert top == ["parsed", refused, "parsed", refused, "parsed", (refused[0], k + 2)]
    assert from_depth(300) == top
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit + 400)
        assert outcomes() == top
    finally:
        sys.setrecursionlimit(limit)


def test_slash_only_forms_rational_literals():
    assert P("3/2") == Poly.constant(2, Fraction(3, 2))
    with pytest.raises(ParseError):
        P("x/2")  # no general division in the grammar


def test_parse_rejects_zero_denominators():
    with pytest.raises(ParseError) as err:
        P("x^2 + 1/0*y^2")
    assert err.value.position == 6
    assert "zero denominator in '1/0'" in str(err.value)


def test_parse_caps_exponents_before_forming_powers():
    assert P(f"x^{MAX_EXPONENT}") == Poly.monomial(2, (MAX_EXPONENT, 0))
    assert P("y^007") == P("y^7")
    for exponent in (str(MAX_EXPONENT + 1), "99999999999", "0" * 9 + "10001"):
        with pytest.raises(ParseError) as err:
            P(f"x + y^{exponent}")
        assert err.value.position == 6
        assert f"exponent above the maximum of {MAX_EXPONENT}" in str(err.value)


def test_parse_caps_expansions_before_forming_them():
    names = tuple(f"a{k}" for k in range(41)) + tuple(f"b{k}" for k in range(50))
    a40 = " + ".join(names[:40])
    b50 = " + ".join(names[41:])
    assert len(parse_poly(f"({a40})*({b50})", names)) == MAX_TERMS == 2000
    a41 = f"({a40} + a40)*({b50})"
    for text, position in ((a41, a41.index(")*(") + 1), ("(x+y+z+w)^11 * (x+y+z+w)^11", 13),
                           ("(x+y+z)^62", 8), ("x*(x+y+z)^10000", 10)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, names + ("x", "y", "z", "w"))
        assert err.value.position == position
        assert f"terms above the maximum of {MAX_TERMS}" in str(err.value)


def test_an_expansion_window_starts_at_the_exact_order():
    # each bound is the count of monomials of degree order..degree, which is
    # below the count of term products; a product's order is the sum of its
    # factors' orders and a power's is e times its base's
    assert len(parse_poly("((x+y+z)*(x+y))^30", XYZ)) == 1426  # degree 60 only: 1891
    for text, bound, position in (("((1+x+y)*(x+y))^40", 2501, 16),  # degrees 40..80
                                  ("(x*(1+x+y))^30*(1+x+y)^30", 3721, 14)):  # 30..90
        with pytest.raises(ParseError) as err:
            P(text)
        assert (err.value.message, err.value.position) == (
            f"expansion of up to {bound} terms above the maximum of {MAX_TERMS}", position)


def test_mul_term_rejects_bad_exponent_vectors():
    f = P("x + y")
    assert f.mul_term((1, 2), 3) == P("3*x^2*y^2 + 3*x*y^3")
    for mono in ((1,), (1, 0, 0), (0, -1)):
        with pytest.raises(InputError):
            f.mul_term(mono, 1)


def test_parse_rejects_negative_exponents():
    with pytest.raises(ParseError) as err:
        P("x^-2")
    assert "negative exponent" in str(err.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        P("x + w")


def test_variable_named_i_is_reserved():
    with pytest.raises(InputError):
        parse_poly("i + j", ("i", "j"))


@pytest.mark.parametrize("name", ["x y", " x", "x ", "2x", "x^2", "", "x-y", "$"])
def test_names_must_be_one_name_token(name):
    with pytest.raises(InputError, match="is not a variable name"):
        parse_poly("1", ("y", name))


def test_variable_names_reads_name_tokens():
    assert variable_names("x^2 + 2y*z1 - i*_w + 3/4") == {"x", "y", "z1", "_w"}
    assert variable_names("x\u00e9 + \u03bb\u0663 + y\u00b2^2") == {"x\u00e9", "\u03bb\u0663", "y\u00b2"}
    # a character the parser refuses is reported where the parser would
    with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 6\)"):
        variable_names("a + b $ c")
    assert variable_names("1 + i") == set()


class ReferenceTokenizer:
    """The specification of the lexer, one character at a time: skip
    whitespace; an operator; decimal digits, with /digits when a decimal
    digit follows the '/'; a letter or '_' and then letters, digits or '_';
    anything else raises where it stands."""

    def __init__(self, text):
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


def reference_tokens(text):
    """The specification's whole token list in the lexer's format (an
    operator's kind is the operator), ending in an end token or in an error
    token at the first character the specification refuses."""
    toks, tokens = ReferenceTokenizer(text), []
    while not tokens or tokens[-1][0] != "end":
        try:
            kind, value, pos = toks.take()
        except ParseError as exc:
            return tokens + [("error", exc.message, exc.position)]
        tokens.append((value if kind == "op" else kind, value, pos))
    return tokens


class ReferenceParser(poly._Parser):
    """The grammar, reading the specification's token list."""

    def __init__(self, text, names):
        super().__init__("", names)  # the names' checks, with no token read
        self.tokens = reference_tokens(text)


def reference_variable_names(text):
    toks, names = ReferenceTokenizer(text), set()
    while (token := toks.take())[0] != "end":
        if token[0] == "name":
            names.add(token[1])
    return names - {"i"}


def reference_is_name(text):
    try:
        return ReferenceTokenizer(text).peek()[:2] == ("name", text)
    except ParseError:
        return False


def outcome(call, *args):
    try:
        return "value", call(*args)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# ASCII operators, digits, letters, '/', whitespace, and Unicode digits of
# other scripts, superscripts, fractions, Roman numerals, a no-break space,
# a separator control and characters the grammar refuses
lexer_text = st.text(st.sampled_from(
    list("+-*^()0123456789xyzai_/ \t") + ["\u0663", "\u0661", "\U0001d7d8", "\u00b2", "\u00bd",
                                          "\u2177", "\u2163", "\u00a0", "\x1c", "$", "."]),
    max_size=14)


@settings(max_examples=400)
@given(lexer_text)
@example("y\u00b2^2")
@example("x + \u00b2")
@example("1 / 2")
@example(" x")
@example("a + b $ c")
@example("3^2 ")
def test_the_one_pass_lexer_matches_the_char_by_char_specification(text):
    names = ("x", "y", "a")
    assert poly._tokens(text) == reference_tokens(text)
    assert outcome(parse_poly, text, names) == outcome(
        lambda t, n: ReferenceParser(t, n).parse(), text, names)
    assert outcome(variable_names, text) == outcome(reference_variable_names, text)
    assert poly._is_name(text) == reference_is_name(text)


def test_order_and_degree_are_read_off_the_terms_left_after_cancellation():
    # a degree bound of 6000 would refuse the square: 12000 > MAX_EXPONENT
    assert P("(x^6000 - x^6000 + y)^2") == P("y^2")
    assert P("(x^5000+y-x^5000)*(x^6000-x^6000+y)") == P("y^2")
    assert P("(x - x)^10000") == Poly.zero(2)
    # the coefficient bound is kept through cancellation: (1 + 1)^10000
    with pytest.raises(ParseError, match=r"^coefficient above the maximum of 4300 digits "
                                         r"\(at position 8\)$"):
        P("(1+x-x)^10000")


def test_a_parse_forms_one_poly(monkeypatch):
    formed = []
    clean, init = Poly._clean, Poly.__init__
    monkeypatch.setattr(Poly, "_clean", staticmethod(lambda *a: formed.append(a) or clean(*a)))
    monkeypatch.setattr(Poly, "__init__", lambda self, *a: formed.append(a) or init(self, *a))
    for text in ("(-7/3)*(x^5 + y^7)", "x^2*y + y^4", "x^3 + y^3 + z^3 + x^4"):
        formed.clear()
        parse_poly(text, XYZ)
        assert len(formed) == 1, text


# -- the grammar against Poly's operators --------------------------------------
#
# A tree is ("number", text), ("i",), ("name", v), ("sign", "+" or "-", t),
# (op, t1, t2) for op in "+-*", or ("^", t, e).

LEVEL = {"+": 0, "-": 0, "*": 1, "^": 2}  # expr, term, factor; 3 is an atom
leaves = st.one_of(
    st.integers(0, 12).map(lambda k: ("number", str(k))),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda pq: ("number", "%d/%d" % pq)),
    st.just(("i",)),
    st.sampled_from(XYZ).map(lambda v: ("name", v)),
)


@st.composite
def trees(draw, depth=4):
    """Trees of at most depth operators on any path: degrees stay below 4^4
    and coefficients short, so no bound of the parser refuses them."""
    kind = draw(st.sampled_from(["leaf", "sign", "+", "-", "*", "^"])) if depth else "leaf"
    if kind == "leaf":
        return draw(leaves)
    if kind == "sign":
        return "sign", draw(st.sampled_from("+-")), draw(trees(depth - 1))
    if kind == "^":
        return "^", draw(trees(depth - 1)), draw(st.integers(0, 4))
    return kind, draw(trees(depth - 1)), draw(trees(depth - 1))


def render(tree, level=0, leftmost=True):
    """Text the grammar reads as tree where a rule of the given level
    expects it.  leftmost: the text starts an expression, whose leading sign
    applies to its whole first term: there a sign takes a term, as in
    -x^2 = -(x^2), and (-x)^2 keeps its parentheses."""
    kind = tree[0]
    own = LEVEL.get(kind, 3)
    if own < level:
        return f"({render(tree)})"
    if kind == "^":
        base = render(tree[1]) if leftmost and tree[1][0] == "sign" else None
        return (f"({base})" if base else render(tree[1], 3, leftmost)) + f"^{tree[2]}"
    if kind == "sign":
        return tree[1] + render(tree[2], 1 if leftmost else 3, False)
    if own < 3:
        return f"{render(tree[1], own, leftmost)} {kind} {render(tree[2], own + 1, False)}"
    return "i" if kind == "i" else tree[1]


def evaluate(tree, names):
    """The tree's value by Poly's own operators."""
    n, kind = len(names), tree[0]
    if kind == "number":
        num, _, den = tree[1].partition("/")
        return Poly.constant(n, Fraction(int(num), int(den or 1)))
    if kind == "i":
        return Poly.constant(n, GaussianRational(0, 1))
    if kind == "name":
        return Poly.variable(n, names.index(tree[1]))
    if kind == "sign":
        inner = evaluate(tree[2], names)
        return -inner if tree[1] == "-" else inner
    if kind == "^":
        return evaluate(tree[1], names) ** tree[2]
    left, right = evaluate(tree[1], names), evaluate(tree[2], names)
    return left + right if kind == "+" else left - right if kind == "-" else left * right


@settings(max_examples=300)
@given(trees())
@example(("^", ("sign", "-", ("name", "x")), 2))  # (-x)^2
@example(("*", ("number", "2"), ("^", ("sign", "-", ("name", "y")), 3)))  # 2 * -y^3
@example(("sign", "-", ("^", ("name", "x"), 2)))  # -(x^2)
@example(("-", ("^", ("+", ("name", "x"), ("i",)), 4), ("^", ("name", "z"), 0)))
def test_the_grammar_evaluates_as_polys_operators(tree):
    text = render(tree)
    assert parse_poly(text, XYZ) == evaluate(tree, XYZ), text


def test_parse_scalar():
    assert parse_scalar(" -3/4 ") == GaussianRational(Fraction(-3, 4))
    assert parse_scalar("(1 + i)^2 - 1/2") == GaussianRational(Fraction(-1, 2), 2)
    assert parse_scalar("2^10") == GaussianRational(1024)
    for text, message in (("x", "unknown variable 'x'"), ("", "expected a number"),
                          ("0.5", "unexpected character '.'"), ("1/0", "zero denominator")):
        with pytest.raises(ParseError, match=message):
            parse_scalar(text)


def test_parse_caps_coefficient_digits_before_forming_them():
    limit = 10 ** MAX_DIGITS
    # at the cap: 4300 digits each, and printable
    assert format_poly(P("10^4299*x"), XY) == f"{limit // 10}*x"
    assert format_poly(P("(1/4)^7142*x"), XY) == f"1/{4 ** 7142}*x"
    # a literal is bounded in lowest terms: 2^10000 has 3011 digits, 4^10000 6021
    assert P("(4/2)^10000") == P("2^10000")
    assert P("(10^2150 + x)*(10^2149 + y)").constant_term() == GaussianRational(limit // 10)
    big = "7" * MAX_DIGITS
    for text, position in (("x + 10^4300", 7), ("x + (1/4)^7143", 10),
                           ("(10^2150 + x)*(10^2150 + y)", 13),
                           (f"1/{big}*x + 1/{big[:-1]}9*y", MAX_DIGITS + 5),
                           ("((2^10000)^10000)^10000*x", 11), ("(1/3)^10000*x + x^2", 6)):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.position == position
        assert f"coefficient above the maximum of {MAX_DIGITS} digits" in str(err.value)


def test_a_refused_character_raises_when_the_parser_reaches_it():
    # right after an atom; after a power only once the product that holds
    # the power is bounded, and a sum is bounded only after its summand
    for text, message, position in (
            ("10^4299*86$", "unexpected character '$'", 10),
            ("86*10^4299$", f"coefficient above the maximum of {MAX_DIGITS} digits", 2),
            ("5*10^4299 + 5*10^4299$", "unexpected character '$'", 21),
            ("5*10^4299 + 5*10^4299", f"coefficient above the maximum of {MAX_DIGITS} digits", 10),
            ("(x+y+z)^62$", f"expansion of up to 2016 terms above the maximum of {MAX_TERMS}", 8)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, XYZ)
        assert (err.value.message, err.value.position) == (message, position), text


# -- arithmetic and calculus -------------------------------------------------

def test_partials_and_jacobian():
    f = P("x^3 + x*y^2")
    assert f.partial(0) == P("3*x^2 + y^2")
    assert f.partial(1) == P("2*x*y")
    assert f.jacobian() == (f.partial(0), f.partial(1))


def test_evaluate():
    f = P("x^2 + 2*y")
    assert f.evaluate((3, 4)) == GaussianRational.of(17)
    assert f.evaluate((Fraction(1, 2), 0)) == GaussianRational.of(Fraction(1, 4))


def reference_evaluate(f, point):
    """Evaluation's specification: a scalar power and product per variable
    of every term, summed."""
    values = [GaussianRational.of(p) for p in point]
    total = GaussianRational(0)
    for m, term in f.terms().items():
        for v, e in zip(values, m):
            if e:
                term = term * v ** e
        total = total + term
    return total


small = st.integers(-4, 4)
coordinates = (small | st.fractions(min_value=-3, max_value=3, max_denominator=5)
               | st.builds(GaussianRational, small, st.fractions(-2, 2, max_denominator=3)))


@st.composite
def points_and_polys(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 5)] * nvars)
    f = Poly(nvars, draw(st.dictionaries(exps, gaussian_coeffs, max_size=6)))
    return f, tuple(draw(st.lists(coordinates, min_size=nvars, max_size=nvars)))


@settings(max_examples=200)
@given(points_and_polys())
@example((P("x^2 + 2*y"), (0, 0)))
@example((P("3 + x^3*y + (1+i)*y^2"), (GaussianRational(0, 1), Fraction(-2, 3))))
@example((P("x*y^4 - x^5"), (0, GaussianRational(1, 1))))
@example((P("0"), (1, 2)))
def test_evaluate_matches_the_specification(problem):
    f, point = problem
    assert f.evaluate(point) == reference_evaluate(f, point)


def test_substitute_composition():
    f = P("x^2 + y")
    g = f.substitute((P("x + y"), P("x*y")))
    assert g == P("(x + y)^2 + x*y")


def test_translate_matches_evaluation():
    f = P("x^3 + y^3 + x*y")
    shifted = f.translate((1, 2))
    for point in ((0, 0), (1, 1), (-2, 3)):
        moved = tuple(
            GaussianRational.of(p) + GaussianRational.of(c)
            for p, c in zip(point, (1, 2))
        )
        assert shifted.evaluate(point) == f.evaluate(moved)


def test_fermat_reference_germ():
    assert fermat(3, 2) == P("x^3 + y^3")
    assert fermat(2, 3) == parse_poly("x^2 + y^2 + z^2", ("x", "y", "z"))


# -- property-based checks ---------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponents = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, coeffs, max_size=6))
    f = Poly.zero(2)
    for mono, c in terms.items():
        f = f + Poly.monomial(2, mono, c)
    return f


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero(2) == f
    assert f * Poly.constant(2, 1) == f


@settings(max_examples=60)
@given(polys())
def test_print_parse_round_trip(f):
    assert parse_poly(format_poly(f, XY), XY) == f


# letters of several scripts, '_', decimal digits of other scripts, superscripts
name_starts = st.sampled_from("xyz\u00e9\u00df\u03bb\u0416\u6771_")
name_rest = st.text(st.sampled_from("ab\u00e9\u03bc_0\u0663\u0967\u00b2\u00b9"), max_size=3)
names_st = st.lists(st.builds(str.__add__, name_starts, name_rest), min_size=1, max_size=3,
                    unique=True).filter(lambda names: "i" not in names)


@st.composite
def named_polys(draw):
    names = tuple(draw(names_st))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(names))
    return names, Poly(len(names), draw(st.dictionaries(exps, gaussian_coeffs, max_size=5)))


@settings(max_examples=80)
@given(named_polys())
def test_inferred_names_parse_what_they_print(named):
    names, f = named
    text = format_poly(f, names)
    inferred = variable_names(text)
    assert inferred == {n for k, n in enumerate(names) if any(m[k] for m in f.terms())}
    if inferred:
        parse_poly(text, tuple(sorted(inferred)))  # no unknown variable
    assert parse_poly(text, names) == f


@settings(max_examples=60)
@given(polys(), polys())
def test_degree_of_products(f, g):
    if f and g:
        assert (f * g).degree() == f.degree() + g.degree()
        assert (f * g).order() == f.order() + g.order()


@settings(max_examples=40)
@given(polys())
def test_derivative_of_product_rule(f):
    g = P("x*y + x^2")
    lhs = (f * g).partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert lhs == rhs


gaussian_coeffs = st.builds(GaussianRational, coeffs, coeffs)


@st.composite
def gaussian_polys(draw):
    return Poly(2, draw(st.dictionaries(exponents, gaussian_coeffs, max_size=6)))


@settings(max_examples=60)
@given(gaussian_polys(), gaussian_polys(), gaussian_coeffs, exponents)
def test_results_are_canonical(f, g, c, mono):
    # results built without re-validation must still store no zero
    # coefficient and equal what the checking constructor makes of them
    results = [f + g, f - g, -f, f * g, f.scale(c), f.mul_term(mono, c), f + (-f),
               f.homogeneous_component(3), f.homogeneous_component(2)]
    for r in results:
        assert all(r.terms().values())
        assert r == Poly(2, r.terms())
    assert f + (-f) == Poly.zero(2)


@settings(max_examples=60)
@given(gaussian_polys())
def test_partials_are_canonical(f):
    for i in range(f.nvars):
        d = f.partial(i)
        assert all(d.terms().values())
        assert d == Poly(2, d.terms())


@pytest.mark.parametrize("text", ["0", "x", "3/4*x^2*y - (1+2*i)*y^5 + 7"])
def test_pickle_and_copy_round_trip(text):
    f = P(text)
    hash(f)
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert type(copied) is Poly
        assert copied == f and repr(copied) == repr(f) and hash(copied) == hash(f)


# -- triple storage against the textbook formulas ------------------------------

def scalar_kinds(small=False):
    top = 3 if small else 9
    rational = st.fractions(min_value=-top, max_value=top, max_denominator=12)
    return st.one_of(st.integers(-top, top), rational,
                     st.builds(GaussianRational, rational, rational))


@st.composite
def polys_in(draw, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return Poly(nvars, draw(st.dictionaries(exps, scalar_kinds(), max_size=5)))


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(polys_in(nvars)), draw(polys_in(nvars))


def parts(f):
    """A Poly's terms as (re, im) pairs of Fractions."""
    return {m: (c.re, c.im) for m, c in f.terms().items()}


def times(x, y):
    """The product of two (re, im) pairs, by the textbook formula."""
    (p, q), (r, s) = x, y
    return p * r - q * s, p * s + q * r


def ref_combine(f, g, factor=1):
    """f + factor * g on (re, im) pairs of Fractions, zeros dropped."""
    acc = parts(f)
    for m, c in parts(g).items():
        p, q = times(c, (factor, 0))
        r, s = acc.get(m, (0, 0))
        acc[m] = r + p, s + q
    return {m: c for m, c in acc.items() if any(c)}


def ref_mul(f, g):
    """The product of two term maps of (re, im) pairs, zeros dropped."""
    acc = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            p, q = times(c1, c2)
            r, s = acc.get(m, (0, 0))
            acc[m] = r + p, s + q
    return {m: c for m, c in acc.items() if any(c)}


def assert_triples(f):
    for value in f._terms.values():
        assert type(value) is tuple and len(value) == 3
        a, b, d = value
        assert (a or b) and d > 0 and gcd(a, b, d) == 1
    assert all(type(c) is GaussianRational for c in f.terms().values())


@settings(max_examples=150)
@given(poly_pairs(), scalar_kinds(), st.integers(0, 3), st.integers(0, 5))
# negative pure imaginary coefficients, first and later, for the printer's signs
@example((P("-i*x - 1/2*i*y^2"), P("(1-i)*x*y")), Fraction(-1, 2), 2, 1)
def test_triples_match_the_textbook_formulas(pair, s, e, degree):
    f, g = pair
    n = f.nvars
    terms = parts(f)
    power = {(0,) * n: (1, 0)}
    for _ in range(e):
        power = ref_mul(power, terms)
    sg = GaussianRational.of(s)
    results = {
        "add": (f + g, ref_combine(f, g)),
        "sub": (f - g, ref_combine(f, g, -1)),
        "mul": (f * g, ref_mul(terms, parts(g))),
        "pow": (f ** e, power),
        "scale": (f.scale(s), {m: times(c, (sg.re, sg.im)) for m, c in terms.items() if sg}),
        "part": (f.homogeneous_component(degree),
                 {m: c for m, c in terms.items() if sum(m) == degree}),
        "rebuilt": (Poly(n, f.terms()), terms),
    }
    for i in range(n):
        results[f"partial{i}"] = (f.partial(i), {
            m[:i] + (m[i] - 1,) + m[i + 1:]: times(c, (m[i], 0)) for m, c in terms.items() if m[i]})
    for name, (got, expected) in results.items():
        assert parts(got) == expected, name
        assert_triples(got)
    names = default_names(n)
    assert parse_poly(format_poly(f, names), names) == f
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copied == f and copied.terms() == f.terms()
        assert_triples(copied)
