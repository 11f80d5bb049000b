"""Sparse multivariate polynomials: parsing, printing, arithmetic, calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germinv.errors import InputError, ParseError, ZeroPolynomialError
from germinv.gaussian import GaussianRational
from germinv.poly import (
    MAX_EXPONENT,
    LineDirection,
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
    r = f.restrict_to_line(LineDirection.of((1, 1)))
    assert r.nvars == 1
    assert r == parse_poly("2*t^3", ("t",))
    # restriction to a line inside the zero set is identically zero
    assert not P("x*y").restrict_to_line(LineDirection.of((1, 0)))


def test_linear_change_preserves_milnor_relevant_structure():
    f = P("x^2 + y^3")
    g = f.linear_change(((1, 1), (0, 1)))  # x -> x + y
    assert g == P("(x + y)^2 + y^3")
    assert g.order() == f.order()


def test_line_direction_rejects_zero():
    with pytest.raises(InputError):
        LineDirection.of((0, 0))


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
