"""Sparse multivariate polynomials: parsing, printing, arithmetic, calculus."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from germinv.errors import InputError, ParseError, ZeroPolynomialError
from germinv.gaussian import GaussianRational
from germinv.localring import ecart
from germinv.poly import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    Poly,
    default_names,
    fermat,
    format_poly,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    monomials_of_degree,
    parse_poly,
    parse_scalar,
    variable_names,
)

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


# -- monomial helpers --------------------------------------------------------

def test_monomial_helpers():
    assert mono_degree((2, 3)) == 5
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_divides((1, 1), (2, 3))
    assert not mono_divides((2, 0), (1, 5))
    assert mono_quotient((2, 3), (1, 1)) == (1, 2)
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)


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
    assert f.support() == frozenset({(1, 0)})
    assert (P("x") - P("x")).terms() == {}


def test_order_degree_initial_form():
    f = P("x^3 + y^3 + x^4")
    assert f.order() == 3
    assert f.degree() == 4
    assert f.initial_form() == P("x^3 + y^3")
    assert f.homogeneous_component(4) == P("x^4")
    assert f.homogeneous_component(2) == Poly.zero(2)
    assert not f.is_homogeneous()
    assert P("x^3 + y^3").is_homogeneous()


def test_order_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        Poly.zero(2).order()
    with pytest.raises(ZeroPolynomialError):
        Poly.zero(2).degree()


def test_truncate_jet():
    f = P("1 + x + x^2 + x^3")
    assert f.truncate_jet(2) == P("1 + x + x^2")


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
    assert P("i^2") == Poly.constant(2, -1)


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


def test_restrict_to_line():
    f = P("x^3 + y^3")
    r = f.restrict_to_line((1, 1))
    assert r.nvars == 1
    assert r == parse_poly("2*t^3", ("t",))
    # restriction to a line inside the zero set is identically zero
    assert not P("x*y").restrict_to_line((1, 0))


def test_linear_change_preserves_milnor_relevant_structure():
    f = P("x^2 + y^3")
    g = f.linear_change(((1, 1), (0, 1)))  # x -> x + y
    assert g == P("(x + y)^2 + y^3")
    assert g.order() == f.order()


def test_line_direction_rejects_zero():
    with pytest.raises(InputError, match="nonzero entry"):
        P("x*y").restrict_to_line((0, 0))
    with pytest.raises(InputError, match="direction has 1 entries, expected 2"):
        P("x*y").restrict_to_line((1,))


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
    assert inferred == {n for k, n in enumerate(names) if any(m[k] for m in f.monomials())}
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
               f.truncate_jet(3), f.homogeneous_component(2)]
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
    if f:
        ecart(f)  # fills the local-order view cache
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert type(copied) is Poly
        assert copied == f and repr(copied) == repr(f) and hash(copied) == hash(f)
        assert copied._view is None  # caches are rebuilt, never carried over


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
    assert all(type(c) is GaussianRational for _, c in f.items())


@settings(max_examples=150)
@given(poly_pairs(), scalar_kinds(), st.integers(0, 3), st.integers(0, 5))
# negative pure imaginary coefficients, first and later, for the printer's signs
@example((P("-i*x - 1/2*i*y^2"), P("(1-i)*x*y")), Fraction(-1, 2), 2, 1)
def test_triples_match_the_textbook_formulas(pair, s, e, jet):
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
        "jet": (f.truncate_jet(jet), {m: c for m, c in terms.items() if sum(m) <= jet}),
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
