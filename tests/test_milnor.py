"""Milnor numbers: the standard-basis engine, the truncation oracle, and
the closed form for germs with a nondegenerate leading form."""

import tracemalloc
from fractions import Fraction

import pytest
from conftest import NO_CORNER_GERM, UNIMODULAR_CHANGES, linear_change
from hypothesis import example, given, settings, strategies as st

from germinv import localring, milnor
from germinv.corpus import ISOLATED_GERMS, NON_ISOLATED_GERMS, run_corpus
from germinv.errors import InputError, IterationLimitError, ZeroPolynomialError
from germinv.families import mu_profile, rescaling_family
from germinv.gaussian import GaussianRational
from germinv.localring import bezout_bound
from germinv.milnor import (
    METHOD_FAST,
    METHOD_ORACLE,
    METHOD_STANDARD_BASIS,
    GermInvariants,
    germ_invariants,
    is_semihomogeneous,
    local_milnor_at,
    milnor_number,
    milnor_oracle,
    milnor_with_method,
    oracle_dmax_for,
    truncated_dim_oracle,
)
from germinv.poly import Poly, fermat, monomials_of_degree, parse_poly
from germinv.vectorfields import VectorField, vf_milnor

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


def P(text, names=XY):
    return parse_poly(text, names)


KNOWN = [
    ("x^2 + y^2", XY, 1),
    ("x^2 + y^3", XY, 2),
    ("x^2 + y^5", XY, 4),
    ("x^3 + y^3", XY, 4),
    ("x^2*y + y^4", XY, 5),
    ("x^2*y + y^5", XY, 6),
    ("x^3 + y^4", XY, 6),
    ("x^3 + x*y^3", XY, 7),
    ("x^3 + y^5", XY, 8),
    ("x^4 + y^5", XY, 12),
    ("x^5 + y^5 + x^2*y^2", XY, 11),
    ("x^5 + y^6 + x^2*y^2", XY, 12),
    ("x^2 + y^2 + z^3", XYZ, 2),
    ("x^3 + y^3 + z^4", XYZ, 12),
]


@pytest.mark.parametrize("text,names,mu", KNOWN)
def test_known_milnor_numbers(text, names, mu):
    f = parse_poly(text, names)
    result = milnor_number(f)
    assert result.mu == mu
    assert result.method == METHOD_STANDARD_BASIS
    assert result.isolated


@pytest.mark.parametrize("text,names,mu", KNOWN)
def test_oracle_agrees(text, names, mu):
    f = parse_poly(text, names)
    assert milnor_oracle(f, dmax=oracle_dmax_for(mu)) == mu


# Dense germs the engine could not finish within 150 reduction steps before
# it bounded its work at the highest corner of its own leading ideal.
DENSE_GERMS = [
    pytest.param(
        "x^2*y - 2*x^4 + x^3*y + 3*x^2*y^2 + 3*x*y^3 + 3*y^4"
        " - 3*x^5 - x^4*y - 3*x^3*y^2 + 3*x*y^4 + y^9",
        XY, 5, id="two-variable-integer",
    ),
    pytest.param(
        "(-1-1/3*i)*x^2*y^2 + 2/3*x*y^3 + (-2/3-1/3*i)*x^4*y - 2/3*i*x^2*y^3"
        " + (-2/3+1/3*i)*x*y^4 + x^6 + y^7",
        XY, 11, id="two-variable-gaussian",
    ),
    pytest.param(
        "(1+2/3*i)*x^2*y + (1/3-i)*x*z^2 + (-1/3-2/3*i)*y*z^2 + x^4 + x^3*y"
        " - i*x^2*y^2 + (-1/3-i)*x^2*y*z + 1/3*x*y^2*z + (-1/3-i)*x*y*z^2 + x*z^3"
        " + y^4 + 2/3*i*y^3*z + (1/3-i)*y^2*z^2 + (2/3+2/3*i)*y*z^3 + z^4",
        XYZ, 9, id="three-variable-gaussian",
    ),
]


@pytest.mark.parametrize("text,names,mu", DENSE_GERMS)
def test_dense_germs_finish_within_150_steps(text, names, mu):
    f = parse_poly(text, names)
    assert milnor_number(f, max_steps=150).mu == mu
    assert milnor_oracle(f, dmax=oracle_dmax_for(mu)) == mu


GAUSSIAN_DENSE_GERM = parse_poly(DENSE_GERMS[2].values[0], XYZ)


def test_engines_do_no_fraction_arithmetic(fraction_arithmetic_calls):
    # scalars compute on machine integers; Fraction is for their boundary
    assert milnor_number(GAUSSIAN_DENSE_GERM, max_steps=150).mu == 9
    assert milnor_oracle(GAUSSIAN_DENSE_GERM, dmax=oracle_dmax_for(9)) == 9
    assert fraction_arithmetic_calls == {}


def test_fraction_arithmetic_is_counted(fraction_arithmetic_calls):
    half = Fraction(1, 2)
    assert (half + half, 1 - half, half * 2, 1 / half) == (1, half, 1, 2)
    assert fraction_arithmetic_calls == {"__add__": 1, "__rsub__": 1, "__mul__": 1,
                                         "__rtruediv__": 1}


def test_dense_germ_staircase():
    f = parse_poly(DENSE_GERMS[0].values[0], XY)
    # 1, x, y, y^2, y^3
    assert milnor_number(f, max_steps=150).staircase == {(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)}


_SMALL = st.integers(-3, 3)
COEFFICIENTS = {
    "integer": _SMALL.map(GaussianRational),
    "rational": st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)).map(GaussianRational),
    "gaussian": st.builds(
        lambda re, im: GaussianRational(Fraction(re, 3), Fraction(im, 3)), _SMALL, _SMALL
    ),
}


@st.composite
def dense_germs(draw):
    """Each monomial of degree low..top (2 <= low <= 4, top <= 6) with
    probability 1/2, in 2 or 3 variables, plus x_i^(a_i) for every variable,
    so mu is finite for generic coefficients."""
    nvars = draw(st.integers(2, 3))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    low = draw(st.integers(2, 4))
    terms = {}
    for degree in range(low, draw(st.integers(low, 6)) + 1):
        for mono in monomials_of_degree(nvars, degree):
            if draw(st.booleans()):
                terms[mono] = draw(coefficient)
    for i in range(nvars):
        terms[tuple(draw(st.integers(2, 6)) if j == i else 0 for j in range(nvars))] = 1
    return Poly(nvars, terms)


@settings(max_examples=50)
@given(dense_germs())
@example(P(NO_CORNER_GERM, XYZ))
def test_engines_agree_on_dense_germs(f):
    mu = milnor_number(f, max_steps=1000).mu
    assert milnor_oracle(f, dmax=oracle_dmax_for(mu) if mu is not None else 12) == mu
    # mu >= (order-1)^n, with equality exactly for an isolated initial form
    semihomogeneous = is_semihomogeneous(f)
    assert semihomogeneous == (mu == (f.order() - 1) ** f.nvars)
    assert germ_invariants(f).semihomogeneous == semihomogeneous


def test_regular_germ_has_mu_zero():
    result = milnor_number(P("x + y^5"))
    assert result.mu == 0
    assert result.isolated


def test_non_isolated_germ():
    for text in ("x^2*y^2", "x^2"):
        result = milnor_number(P(text))
        assert result.mu is None
        assert not result.isolated
    cylinder = parse_poly("x^2 + y^2", XYZ)
    assert milnor_number(cylinder).mu is None


def test_rejects_nonvanishing_or_zero_germs():
    with pytest.raises(InputError):
        milnor_number(P("1 + x"))
    with pytest.raises(InputError):
        milnor_number(P("0"))


def test_staircase_comes_back_with_the_engine():
    result = milnor_number(P("x^2 + y^3"))
    assert result.staircase == frozenset({(0, 0), (0, 1)})


def test_coordinate_invariance_under_linear_changes():
    for text, names, mu in KNOWN[:6]:
        f = parse_poly(text, names)
        for matrix in UNIMODULAR_CHANGES:
            assert milnor_number(linear_change(f, matrix)).mu == mu


def test_semihomogeneous_predicate():
    assert is_semihomogeneous(P("x^3 + y^3"))
    assert is_semihomogeneous(P("x^3 + y^3 + x^4"))
    assert is_semihomogeneous(P("x^2*y + y^3"))  # three distinct lines
    assert not is_semihomogeneous(P("x^2*y + y^4"))
    assert not is_semihomogeneous(P("x^2 + y^3"))  # parabola: square line
    with pytest.raises(InputError):
        is_semihomogeneous(P("x + y^2"))  # order 1 is outside the domain


def test_germ_invariants_agree_with_the_separate_queries():
    for germ in ISOLATED_GERMS + NON_ISOLATED_GERMS:
        f = germ.poly()
        inv = germ_invariants(f)
        assert inv == GermInvariants(
            f.nvars,
            f.order(),
            f.degree(),
            milnor_number(f).mu,
            f.order() >= 2 and is_semihomogeneous(f),
        ), germ.name
        assert inv.semihomogeneous == germ.semihomogeneous, germ.name


def test_mu_only_paths_list_no_staircase_and_build_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a mu-only path formed the staircase or the basis")

    monkeypatch.setattr(localring, "staircase_of", refuse)
    monkeypatch.setattr(milnor, "staircase_of", refuse)
    monkeypatch.setattr(localring, "_poly", refuse)
    assert all(row["agreement"] for row in run_corpus())
    for germ in ISOLATED_GERMS:
        f = germ.poly()
        assert germ_invariants(f).mu == germ.known_mu
        if f.nvars == 2:
            assert vf_milnor(VectorField(f.jacobian())) == germ.known_mu
        assert mu_profile(rescaling_family(f), [1]).samples[0].mu == germ.known_mu


def test_germ_invariants_of_a_regular_germ():
    assert germ_invariants(P("x + y^2")) == GermInvariants(2, 1, 2, 0, False)


def test_closed_form_matches_engine():
    for text, names in (
        ("x^3 + y^3 + x^4", XY),
        ("x^3 + 2*y^3 + x^2*y^2", XY),
        ("x^4 + x^2*y^2 + y^4 + y^5", XY),
        ("x^3 + y^3 + z^3 + z^4", XYZ),
    ):
        f = parse_poly(text, names)
        n = len(names)
        l = f.order()
        assert milnor_with_method(f, METHOD_FAST).mu == (l - 1) ** n
        assert milnor_number(f).mu == (l - 1) ** n


def test_closed_form_refuses_degenerate_leading_forms():
    with pytest.raises(InputError, match="closed-form Milnor number does not apply"):
        milnor_with_method(P("x^2*y + y^4"), METHOD_FAST)


def test_degenerate_germs_exceed_the_closed_form():
    # strict inequality against (order - 1)^n characterises degeneracy
    for text, mu in (("x^2*y + y^4", 5), ("x^2 + y^3", 2), ("x^5 + y^5 + x^2*y^2", 11)):
        f = P(text)
        assert not is_semihomogeneous(f)
        assert milnor_number(f).mu == mu
        assert mu > (f.order() - 1) ** 2


def test_method_dispatch():
    f = P("x^3 + y^3 + x^4")
    assert milnor_with_method(f, METHOD_STANDARD_BASIS).mu == 4
    assert milnor_with_method(f, METHOD_ORACLE).mu == 4
    fast = milnor_with_method(f, METHOD_FAST)
    assert fast.mu == 4 and fast.method == METHOD_FAST
    with pytest.raises(InputError):
        milnor_with_method(f, "bogus")
    with pytest.raises(InputError):
        milnor_with_method(P("x^2*y + y^4"), METHOD_FAST)


def test_oracle_returns_none_when_unstable():
    f = P("x^2*y^2")
    assert milnor_oracle(f, dmax=12) is None
    assert truncated_dim_oracle(f.jacobian(), dmax=12) is None
    # too-small horizon on an isolated germ is also reported as unknown
    assert milnor_oracle(P("x^4 + y^5"), dmax=3) is None


def test_the_oracle_decides_isolation_with_no_horizon():
    assert milnor_with_method(P("x^4 + y^5"), METHOD_ORACLE).isolated is True
    for method in (METHOD_ORACLE, METHOD_STANDARD_BASIS):
        result = milnor_with_method(P("x^2*y^2"), method)
        assert result.mu is None and result.isolated is False


def test_the_bezout_bound():
    # fewer nonzero generators than variables: no finite quotient but the
    # unit ideal's; else the product of the n largest degrees
    assert bezout_bound([2, 3], 3) == 0
    assert bezout_bound([3, 2], 2) == 2 * 3
    assert bezout_bound([2, 5, 4, 1], 2) == 5 * 4
    # for a Jacobian, the partials' degrees: F_1's are 14, 7 and 6
    f1 = P("z^5 + y^6*z + y^7*x + x^15", XYZ)
    assert bezout_bound([g.degree() for g in f1.jacobian()], 3) == 588 < (15 - 1) ** 3


def test_the_oracle_stops_at_its_term_budget(monkeypatch):
    # F_1's oracle forms or looks at 55,029 terms (shifts listed and
    # filtered included): a budget one short ends it
    f1 = P("z^5 + y^6*z + y^7*x + x^15", XYZ)
    monkeypatch.setattr(milnor, "ORACLE_MAX_TERMS", 55_029)
    assert milnor_oracle(f1) == 364
    monkeypatch.setattr(milnor, "ORACLE_MAX_TERMS", 55_028)
    with pytest.raises(IterationLimitError, match="55028 terms"):
        milnor_oracle(f1)


# The first horizon at which the oracle certifies each corpus germ, as
# recorded before the oracle read its certificate off the pivot degrees.
ORACLE_STOP_DEGREE = {
    "fermat-2-2": 2, "fermat-3-2": 4, "fermat-4-2": 6, "fermat-5-2": 8,
    "fermat-2-3": 2, "fermat-3-3": 5, "cubic-tail-quartic": 4,
    "cubic-tail-quintic": 4, "quartic-tail": 6, "scaled-cubic": 4,
    "gaussian-quadric": 2, "binary-quartic": 6, "cubic-3d-tail": 5,
    "a2-cusp": 3, "a4": 5, "d5": 5, "d6": 6, "e6": 5, "e7": 6, "e8": 6,
    "brieskorn-4-5": 7, "t-5-5": 7, "t-5-6": 8, "a2-suspension": 3,
    "join-3-3-4": 6,
}


@pytest.mark.parametrize("germ", ISOLATED_GERMS, ids=lambda g: g.name)
def test_oracle_stops_at_the_recorded_horizon(germ):
    d = ORACLE_STOP_DEGREE[germ.name]
    assert milnor_oracle(germ.poly(), d) == germ.known_mu
    assert milnor_oracle(germ.poly(), d - 1) is None


def test_oracle_on_the_unit_ideal():
    assert truncated_dim_oracle([P("1 + x"), P("y")], 1) == 0
    assert truncated_dim_oracle([P("1 + x"), P("y")], 0) is None


def test_oracle_on_an_ideal_that_is_not_a_jacobian():
    # the quotient by (x^2, y^3) has basis x^a*y^b with a < 2, b < 3
    assert truncated_dim_oracle([P("x^2"), P("y^3")], 5) == 6
    assert truncated_dim_oracle([P("x^2"), P("y^3")], 4) is None


def reference_oracle(gens, dmax):
    """The oracle's specification: a fresh echelon of every truncated row
    mono*g at each horizon D = 1..dmax, its pivots on lowest terms."""
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    for d_stop in range(1, dmax + 1):
        pivots = {}
        for g in gens:
            for shift in range(d_stop - g.order()):
                for mono in monomials_of_degree(nvars, shift):
                    row = {tuple(a + b for a, b in zip(m, mono)): c
                           for m, c in g.terms().items() if sum(m) + shift < d_stop}
                    while row:
                        lead = min(row, key=lambda m: (sum(m), m))
                        if lead not in pivots:
                            pivots[lead] = {m: c / row[lead] for m, c in row.items()}
                            break
                        factor = row[lead]
                        for m, c in pivots[lead].items():
                            row[m] = row.get(m, GaussianRational(0)) - factor * c
                            if not row[m]:
                                del row[m]
        top = sum(1 for lead in pivots if sum(lead) == d_stop - 1)
        if top == len(list(monomials_of_degree(nvars, d_stop - 1))):
            return sum(len(list(monomials_of_degree(nvars, k))) for k in range(d_stop - 1)) \
                - (len(pivots) - top)
    return None


@st.composite
def small_ideals(draw):
    """n-1..max(n, 3) generators in n = 1..4 variables, each 1-4 terms of
    degree 1..4 and now and then a constant: unit ideals, finite and
    infinite quotients."""
    nvars = draw(st.integers(1, 4))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    gens = []
    for _ in range(draw(st.integers(max(1, nvars - 1), max(3, nvars)))):
        terms = {}
        if draw(st.integers(0, 7)) == 0:
            terms[(0,) * nvars] = draw(coefficient)
        for _ in range(draw(st.integers(1, 4))):
            monos = list(monomials_of_degree(nvars, draw(st.integers(1, 4))))
            terms[draw(st.sampled_from(monos))] = draw(coefficient)
        gens.append(Poly(nvars, terms))
    return gens


@settings(max_examples=300)
@given(small_ideals(), st.integers(0, 9))
@example([P("1 + x"), P("y")], 3)
@example([P("x^2*y + y^3")], 9)
@example([P("x^2"), P("y^3"), P("x*y")], 9)
# a stepped row left with one term below its top: it stays a kept pivot, not
# a mark, and later steps divide by its lead; the quotient is C{z}/(z^5)
@example([P("2*y + x", XYZ), P("x + z^2", XYZ) + P("y", XYZ).scale(Fraction(1, 2)),
          P("x + y", XYZ) + P("z^2", XYZ).scale(Fraction(2, 3)), P("z^5", XYZ)], 9)
# the same case in a Jacobian ideal: a wrong shortcut reads 21, not None
@example(list(Poly(3, {(4, 0, 1): Fraction(1, 5), (1, 0, 3): Fraction(1, 2),
                       (0, 1, 2): Fraction(5, 6), (2, 2, 0): Fraction(5, 4),
                       (0, 3, 1): Fraction(-1, 5)}).jacobian()), 9)
# one-term generators: their rows are bare pivot marks.  A mark that meets
# a kept row's lead (y^2 against y^2 + x*y); two generators marking the same
# monomial (x^2*y from x^2 and x*y); a Gaussian coefficient; a constant
@example([P("y^2 + x*y"), P("y^2")], 9)
@example([P("y^2 + x*y"), P("y^2"), P("x^3")], 9)
@example([P("x^2"), P("x*y"), P("y^3")], 9)
@example([P("(1+i)*x^3"), P("y^2")], 9)
@example([P("3"), P("x")], 9)
# four variables, a finite and an infinite quotient
@example(list(P("x^2*y + y^3 + z^3 + w^3 + x*z*w", XYZW).jacobian()), 9)
@example(list(P("x^2*y^2 + z^3 + (1+i)*w^2", XYZW).jacobian()), 9)
# rows m*g_j that an earlier generator's lead divides are never built: a
# unit lead after and before another generator, a repeated generator, an
# earlier lead dividing a later one, and a dense Jacobian in four variables
@example([P("x*y + y^3"), P("1 + x")], 9)
@example([P("1 + x"), P("x*y + y^3")], 9)
@example([P("x + y^2"), P("x + y^2"), P("y^3")], 9)
@example([P("x + y^3"), P("x^2 + x*y + y^4")], 9)
@example(list(P("x^3 + y^3 + z^3 + w^3 + x*y*z + x*y*w + x*z*w + y*z*w + x^2*y + z^2*w",
                XYZW).jacobian()), 9)
# a pending row waits several degrees behind a wide two-term generator: its
# next term lies degrees above the degree where it cancelled, and it resumes
# (or not, by dmax) only there
@example(list(P("z^5 + y^7*x + x^15", XYZ).jacobian()), 9)
@example([P("x^2 + y^5"), P("x*y")], 9)
# the numerator of the one-term generators' count: a monomial another
# divides, a repeated monomial, a group of monomials sharing variables
# (x^2, y^2, x*y, whose colon by x*y is (x, y)) beside one of its own (z),
# and a finite quotient of one-term generators only in four variables
@example([P("x"), P("x^2*y"), P("y^3")], 9)
@example([P("y^2"), P("y^2"), P("x^3")], 9)
@example([P("x^2", XYZ), P("y^2", XYZ), P("x*y", XYZ), P("z", XYZ)], 9)
@example([P("x^2", XYZW), P("y^3", XYZW), P("z^2", XYZW), P("w^4", XYZW),
          P("x*y*z*w", XYZW)], 9)
# a cancelled row needs the terms above d of a pivot it reaches only through
# another pivot: forming only those it steps on directly reads 6, not 4
@example(list(P("y^2 + z^2 + 1/3*i*x^2*y^2 + 1/3*i*x^2*y*z + x^5", XYZ).jacobian()), 9)
def test_oracle_matches_the_per_horizon_specification(gens, dmax):
    assert truncated_dim_oracle(gens, dmax) == reference_oracle(gens, dmax)


@settings(max_examples=300)
@given(small_ideals())
# k nonzero generators in n variables: finite; infinite with k = n and
# with k > n, by one-term and by two-term generators; infinite with k < n,
# which exits at degree 0; the unit ideal
@example([P("x^2"), P("y^3"), P("x*y")])
@example([P("x*y"), P("x^2 + x*y")])
@example([P("x^2"), P("x*y"), P("x*y^2")])
@example([P("x + y^2", XYZ), P("y*z + z^2", XYZ), P("z^2", XYZ)])
@example([P("x + y^2", XYZ), P("x*y", XYZ)])
@example([P("1 + x"), P("y")])
def test_the_oracle_decides_finiteness_with_no_horizon(gens):
    # a finite quotient has dim <= B and so stabilises by horizon B + 1:
    # with B <= 8, None from the reference at 9 means an infinite quotient,
    # which the oracle must prove, not merely fail to stabilise on
    expected = reference_oracle(gens, 9)
    bound = bezout_bound([g.degree() for g in gens if g], gens[0].nvars)
    if expected is not None or bound <= 8:
        assert truncated_dim_oracle(gens) == expected


def test_the_oracle_keeps_no_pivot_of_a_degree_it_has_left():
    # four one-term generators in four variables with an infinite quotient
    # and B = 2*2*62*120: their multiples are counted, never listed or
    # kept, up to the exit at degree 126, where one listed level alone
    # would be the 349,504 monomials of that degree
    gens = [P("x^2", XYZW), P("y^2", XYZW), P("x*y*z^60", XYZW), P("z^60*w^60", XYZW)]
    tracemalloc.start()
    try:
        assert truncated_dim_oracle(gens) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # two linear forms build rows, and z^40, z^39*w leave the infinite
    # quotient C{z, w}/(z^40, z^39*w) with B = 1600, so dmax 24 ends it: the
    # peak is 1.5 MB, keeping every degree's rows and steps takes it to
    # 7.4 MB, and never pruning the listed shifts to 2.1 MB
    gens = [P("2*x + y", XYZW), P("x + 2*y", XYZW), P("z^40", XYZW), P("z^39*w", XYZW)]
    tracemalloc.start()
    try:
        assert truncated_dim_oracle(gens, 24) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_800_000


def test_the_oracle_counts_the_morse_germ_in_24_variables_at_once():
    # 2*x_1, ..., 2*x_24 are pairwise coprime, so their count is the
    # product of the 24 factors 1 - t: a table over their subsets would
    # hold 2^24 - 1 lcms
    names = [f"x{i}" for i in range(1, 25)]
    f = parse_poly(" + ".join(f"{v}^2" for v in names), names)
    tracemalloc.start()
    try:
        assert milnor_oracle(f) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def counted_rows(monkeypatch) -> list:
    """The arguments of every oracle row built from now on."""
    built = []
    new_row = milnor._new_row

    def counted(*args):
        built.append(args)
        return new_row(*args)

    monkeypatch.setattr(milnor, "_new_row", counted)
    return built


def test_one_term_generators_build_no_rows(monkeypatch):
    built = counted_rows(monkeypatch)
    # a Brieskorn Jacobian has only one-term generators: every row is a mark
    assert milnor_oracle(P("x^5 + y^7 + z^4", XYZ), oracle_dmax_for(72)) == 72
    assert not built
    assert milnor_oracle(P("x^2*y^2 + x^5 + y^5"), oracle_dmax_for(11)) == 11
    assert built


def test_rows_an_earlier_lead_divides_are_never_built(monkeypatch):
    # Briancon-Speder F_1: every row of the three partials would be 14,011
    built = counted_rows(monkeypatch)
    f1 = P("z^5 + y^6*z + y^7*x + x^15", XYZ)
    assert milnor_oracle(f1, oracle_dmax_for(364)) == 364
    assert len(built) == 8762


def test_fermat_grid_small():
    for l in (2, 3, 4):
        for n in (2, 3):
            f = fermat(l, n)
            assert milnor_number(f).mu == (l - 1) ** n


def test_is_critical_point():
    f = P("x^3 + y^3 - 3*x - 3*y")
    assert local_milnor_at(f, (1, 1)).mu == 1
    assert local_milnor_at(f, (-1, 1)).mu == 1
    with pytest.raises(InputError, match="is not a critical point"):
        local_milnor_at(f, (0, 0))


def test_local_milnor_at_refuses_a_zero_translate():
    for g in (P("0"), P("5")):  # every point is critical, and the translate is 0
        with pytest.raises(ZeroPolynomialError, match="expected a nonzero germ"):
            local_milnor_at(g, (1, 1))


def test_local_milnor_at_nondegenerate_points():
    f = P("x^3 + y^3 - 3*x - 3*y")
    for point in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert local_milnor_at(f, point).mu == 1
    assert sum(local_milnor_at(f, p).mu for p in
               ((1, 1), (1, -1), (-1, 1), (-1, -1))) == 4


def test_local_milnor_in_one_variable():
    f = parse_poly("x^3 - 3*x", ("x",))
    assert local_milnor_at(f, (-1,)).mu == 1
    assert local_milnor_at(f, (1,)).mu == 1


def test_local_milnor_rejects_noncritical_points():
    f = P("x^3 + y^3 - 3*x - 3*y")
    with pytest.raises(InputError):
        local_milnor_at(f, (0, 1))


def test_gaussian_coefficients():
    f = P("x^2 + i*y^2")
    result = milnor_number(f)
    assert result.mu == 1
    assert is_semihomogeneous(f)
