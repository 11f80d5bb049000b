"""Exact complex-rational scalar arithmetic."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from germinv.gaussian import I, ONE, ZERO, GaussianRational, add_multiple, quotient, triple


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_construction_coerces_to_fraction():
    a = GaussianRational(2, 3)
    assert a.re == Fraction(2) and a.im == Fraction(3)
    assert isinstance(a.re, Fraction) and isinstance(a.im, Fraction)


def test_of_accepts_common_inputs():
    assert GaussianRational.of(5) == gq(5)
    assert GaussianRational.of(Fraction(1, 2)) == gq(Fraction(1, 2))
    assert GaussianRational.of(gq(1, 1)) == gq(1, 1)


def test_printing_canonical_forms():
    cases = {
        gq(0): "0",
        gq(1): "1",
        gq(-1): "-1",
        gq(Fraction(3, 2)): "3/2",
        gq(0, 1): "i",
        gq(0, -1): "-i",
        gq(0, Fraction(3, 2)): "3/2*i",
        gq(1, 2): "1+2*i",
        gq(1, -2): "1-2*i",
        gq(Fraction(-1, 2), 1): "-1/2+i",
    }
    for value, text in cases.items():
        assert str(value) == text


def test_arithmetic_basics():
    a, b = gq(1, 2), gq(3, -1)
    assert a + b == gq(4, 1)
    assert a - b == gq(-2, 3)
    assert a * b == gq(5, 5)
    assert a / b == gq(Fraction(1, 10), Fraction(7, 10))
    assert -a == gq(-1, -2)
    assert I * I == gq(-1)


def test_powers():
    assert I ** 2 == gq(-1)
    assert I ** 3 == gq(0, -1)
    assert gq(1, 1) ** 4 == gq(-4)
    assert gq(2) ** -1 == gq(Fraction(1, 2))
    assert gq(1, 1) ** 0 == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate_and_norm():
    a = gq(3, -4)
    assert a.norm_sq() == Fraction(25)
    assert (a * gq(a.re, -a.im)) == gq(25)


def test_is_rational_and_truthiness():
    assert gq(2).is_rational
    assert not gq(0, 1).is_rational
    assert not ZERO
    assert ONE and I


def test_hashable_and_frozen():
    seen = {gq(1, 2): "a"}
    assert seen[gq(1, 2)] == "a"
    with pytest.raises(Exception):
        gq(1, 2).re = Fraction(0)  # type: ignore[misc]


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_field_inverses(a):
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE


@given(scalars)
def test_norm_is_multiplicative_with_conjugate(a):
    assert a * GaussianRational(a.re, -a.im) == GaussianRational(a.norm_sq(), 0)


# -- the scalar contract -------------------------------------------------------

real_scalars = st.builds(GaussianRational, rationals)
nonreal_scalars = st.builds(GaussianRational, rationals, rationals.filter(bool))


def reference(op, a, b):
    """op on (re, im) pairs of Fractions, by the textbook formulas."""
    p, q, r, s = a.re, a.im, b.re, b.im
    if op == "+":
        return p + r, q + s
    if op == "-":
        return p - r, q - s
    if op == "*":
        return p * r - q * s, p * s + q * r
    n = r * r + s * s
    return (p * r + q * s) / n, (q * r - p * s) / n


@given(real_scalars, real_scalars, nonreal_scalars, nonreal_scalars)
def test_operations_match_the_textbook_formulas(r1, r2, n1, n2):
    # every pairing of real and non-real operands, so each real and
    # Gaussian path of add_multiple and quotient is exercised
    ops = {"+": GaussianRational.__add__, "-": GaussianRational.__sub__,
           "*": GaussianRational.__mul__, "/": GaussianRational.__truediv__}
    for a, b in ((r1, r2), (r1, n2), (n1, r2), (n1, n2)):
        for op, method in ops.items():
            if op == "/" and not b:
                with pytest.raises(ZeroDivisionError):
                    a / b
                continue
            result = method(a, b)
            assert (result.re, result.im) == reference(op, a, b)
            assert type(result.re) is Fraction and type(result.im) is Fraction


def test_mixed_operands_are_coerced():
    a = gq(1, 2)
    assert a + 1 == 1 + a == gq(2, 2)
    assert a - 1 == gq(0, 2) and 1 - a == gq(0, -2)
    assert 2 * a == a * Fraction(2) == gq(2, 4)
    assert a / 2 == gq(Fraction(1, 2), 1)
    assert 1 / I == gq(0, -1)
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)


def test_equality_is_only_between_scalars():
    assert not GaussianRational(0) == 0
    assert ZERO != 0
    assert gq(1) != Fraction(1)
    assert GaussianRational() == ZERO
    assert GaussianRational(re=1, im=2) == gq(1, 2)


def test_hash_is_the_hash_of_the_parts():
    for g in (ZERO, ONE, I, gq(Fraction(-3, 4), 5), -I):
        assert hash(g) == hash((g.re, g.im))


def test_fields_are_frozen():
    g = gq(1, 2)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 're'$"):
        g.re = Fraction(0)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'other'$"):
        g.other = 1
    with pytest.raises(FrozenInstanceError, match="^cannot delete field 'im'$"):
        del g.im
    assert g == gq(1, 2)


@pytest.mark.parametrize("value", [ZERO, ONE, I, gq(Fraction(-3, 4), 5), gq(7)])
def test_pickle_and_deepcopy_round_trip(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert copied == value and repr(copied) == repr(value)
        assert type(copied.re) is Fraction and type(copied.im) is Fraction


@pytest.mark.parametrize("dividend", [ONE, gq(0, 1), gq(2, -3)])
def test_division_by_zero_message(dividend):
    for zero in (ZERO, GaussianRational(0, 0), 0):
        with pytest.raises(ZeroDivisionError, match="^division by zero Gaussian rational$"):
            dividend / zero


# -- canonical form ------------------------------------------------------------

# integer, rational and Gaussian operands; the denominators are drawn with
# either sign and up to 2^80, so the parts of one operand differ in sign and
# size of denominator (1/2 + 1/3*i, -5/(2^80) + 7*i, ...)
denominators = st.one_of(st.integers(1, 12), st.integers(2, 2**80)).flatmap(
    lambda q: st.sampled_from((q, -q)))
parts = st.builds(Fraction, st.integers(-10**6, 10**6), denominators)
operands = st.one_of(
    st.integers(-10**6, 10**6).map(GaussianRational),
    parts.map(GaussianRational),
    st.builds(GaussianRational, parts, parts),
    st.sampled_from([gq(Fraction(1, 2), Fraction(1, 3)), gq(Fraction(-1, 6), Fraction(1, 6)),
                     gq(Fraction(5, 4), Fraction(-3, 4)), gq(0, Fraction(1, -2))]),
)


def assert_canonical(g):
    """A value has one representation: rebuilding it from its parts gives an
    equal scalar with an equal hash."""
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert g == GaussianRational(g.re, g.im)
    assert hash(g) == hash(GaussianRational(g.re, g.im))


@given(operands, operands, st.integers(-4, 6))
def test_every_result_is_in_canonical_form(a, b, exponent):
    assert_canonical(a)
    results = [a + b, a - b, a * b, -a, GaussianRational(a.re, -a.im), a + 1, 1 - a, a * 3, 2 / (a or ONE)]
    if b:
        results.append(a / b)
    if a or exponent >= 0:
        results.append(a ** exponent)
    for g in results:
        assert_canonical(g)
    # a zero operand gives the other operand or ZERO, stored as (0, 0, 1)
    for x in (a, ZERO):
        assert triple(x + 0) == triple(0 + x) == triple(x)
        for z in (x * 0, 0 * x, ZERO * ZERO, x - x, x + (-x), x * ZERO):
            assert z == ZERO and triple(z) == (0, 0, 1)


def test_equal_values_from_different_inputs_are_equal():
    assert GaussianRational(Fraction(2, 4), 0.5) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert gq(Fraction(1, 2)) + gq(Fraction(1, 2)) == ONE
    assert gq(Fraction(1, 6), Fraction(1, 3)) * 6 == gq(1, 2)
    assert gq(3) / gq(-6) == gq(Fraction(-1, 2))
    assert hash(gq(Fraction(6, 4))) == hash((Fraction(3, 2), Fraction(0)))


# -- the multiply-add kernel ---------------------------------------------------

# small Gaussian values share denominators often, as the engines' do, so
# that the sums over one denominator are exercised as well
small_parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
kernel_scalars = st.one_of(operands, st.builds(GaussianRational, small_parts, small_parts))
term_dicts = st.dictionaries(st.integers(0, 7), kernel_scalars.filter(bool), max_size=6)


def reference_loop(h, factor, terms):
    """h[k] += factor * c on (re, im) pairs of Fractions by the textbook
    formulas, zeros dropped; independent of add_multiple and the operators."""
    out = {k: (c.re, c.im) for k, c in h.items()}
    for k, c in terms:
        p, q = reference("*", factor, c)
        r, s = out.get(k, (0, 0))
        if p + r or q + s:
            out[k] = p + r, q + s
        else:
            out.pop(k, None)
    return out


def triples(terms):
    return {k: triple(c) for k, c in terms.items()}


def parts(t):
    """The (re, im) pair of Fractions of a canonical triple."""
    a, b, d = t
    return Fraction(a, d), Fraction(b, d)


@settings(max_examples=300)
@given(term_dicts, st.one_of(st.just(ZERO), kernel_scalars), term_dicts,
       st.sets(st.integers(0, 7)))
def test_add_multiple_matches_the_textbook_formulas(h, factor, terms, cancel):
    # terms at the keys in cancel are chosen so that their sum with h is zero
    if factor:
        for k in cancel & h.keys() & terms.keys():
            re, im = reference("/", h[k], factor)
            terms[k] = GaussianRational(-re, -im)
    expected = reference_loop(h, factor, terms.items())
    got = triples(h)
    assert add_multiple(got, triple(factor), triples(terms).items()) is got
    assert list(got) == list(expected)  # keys and their order
    assert [parts(t) for t in got.values()] == list(expected.values())
    scaled = add_multiple({}, triple(factor), triples(terms).items())
    assert {k: parts(t) for k, t in scaled.items()} == {
        k: reference("*", factor, c) for k, c in terms.items() if factor}
    for a, b, d in [*got.values(), *scaled.values()]:
        assert (a or b) and d > 0 and gcd(a, b, d) == 1


def test_add_multiple_cancels_and_appends_in_order():
    h = triples({1: gq(1, 2), 2: gq(Fraction(1, 3))})
    add_multiple(h, (0, 1, 1), triples({2: gq(5), 1: gq(-2, 1), 3: gq(Fraction(1, 2))}).items())
    assert h == {2: (1, 15, 3), 3: (0, 1, 2)}
    assert list(h) == [2, 3]
    assert add_multiple(h, (0, 0, 1), {4: (1, 0, 1)}.items()) == {2: (1, 15, 3), 3: (0, 1, 2)}


def test_triple_and_quotient_are_canonical():
    assert triple(-4) == (-4, 0, 1)
    assert triple(Fraction(6, -4)) == (-3, 0, 2)
    assert triple(gq(Fraction(1, 6), Fraction(1, 3))) == (1, 2, 6)
    assert quotient((1, 0, 1), (-2, 0, 3)) == (-3, 0, 2)
    assert quotient((1, 2, 6), (0, 1, 1)) == (2, -1, 6)
    with pytest.raises(ZeroDivisionError):
        quotient((1, 0, 1), (0, 0, 1))
