"""Milnor numbers: the standard-basis engine, the truncation oracle, and
the closed form for germs with a nondegenerate leading form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from germinv.corpus import ISOLATED_GERMS, NON_ISOLATED_GERMS
from germinv.errors import InputError
from germinv.gaussian import GaussianRational
from germinv.milnor import (
    METHOD_FAST,
    METHOD_ORACLE,
    METHOD_STANDARD_BASIS,
    GermInvariants,
    germ_invariants,
    is_critical_point,
    is_isolated,
    is_semihomogeneous,
    local_milnor_at,
    milnor_number,
    milnor_oracle,
    milnor_semihomogeneous,
    milnor_with_method,
    oracle_dmax_for,
    truncated_dim_oracle,
)
from germinv.poly import Poly, fermat, monomials_of_degree, parse_poly

XY = ("x", "y")
XYZ = ("x", "y", "z")


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
    assert is_isolated(P("x + y^5"))


def test_non_isolated_germ():
    for text in ("x^2*y^2", "x^2"):
        result = milnor_number(P(text))
        assert result.mu is None
        assert not result.isolated
        assert not is_isolated(P(text))
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
    # unimodular integer matrices, exact arithmetic keeps this strict
    changes = [
        ((1, 1), (0, 1)),
        ((1, 0), (2, 1)),
        ((2, 1), (1, 1)),
        ((1, -1), (1, 1)),
    ]
    for text, names, mu in KNOWN[:6]:
        f = parse_poly(text, names)
        for matrix in changes:
            assert milnor_number(f.linear_change(matrix)).mu == mu


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
        assert milnor_semihomogeneous(f) == (l - 1) ** n
        assert milnor_number(f).mu == (l - 1) ** n


def test_closed_form_refuses_degenerate_leading_forms():
    with pytest.raises(InputError):
        milnor_semihomogeneous(P("x^2*y + y^4"))


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


def test_an_undecided_oracle_leaves_isolation_open():
    f = P("x^4 + y^5")
    undecided = milnor_with_method(f, METHOD_ORACLE, dmax=3)
    assert undecided.mu is None and undecided.isolated is None and undecided.note
    assert milnor_with_method(f, METHOD_ORACLE, dmax=9).isolated is True
    assert milnor_with_method(P("x^2*y^2"), METHOD_STANDARD_BASIS).isolated is False
    with pytest.raises(InputError):
        milnor_with_method(f, METHOD_ORACLE, dmax=-1)


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
    """n-1..3 generators in n = 1..3 variables, each 1-4 terms of degree
    1..4 and now and then a constant: unit ideals, finite and infinite
    quotients."""
    nvars = draw(st.integers(1, 3))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    gens = []
    for _ in range(draw(st.integers(max(1, nvars - 1), 3))):
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
# a stepped row left with one term below its top, whose lead denominator
# equals that top degree: it still needs its inverse; the quotient is C{z}/(z^5)
@example([P("2*y + x", XYZ), P("x + z^2", XYZ) + P("y", XYZ).scale(Fraction(1, 2)),
          P("x + y", XYZ) + P("z^2", XYZ).scale(Fraction(2, 3)), P("z^5", XYZ)], 9)
# the same case in a Jacobian ideal: a wrong shortcut reads 21, not None
@example(list(Poly(3, {(4, 0, 1): Fraction(1, 5), (1, 0, 3): Fraction(1, 2),
                       (0, 1, 2): Fraction(5, 6), (2, 2, 0): Fraction(5, 4),
                       (0, 3, 1): Fraction(-1, 5)}).jacobian()), 9)
def test_oracle_matches_the_per_horizon_specification(gens, dmax):
    assert truncated_dim_oracle(gens, dmax) == reference_oracle(gens, dmax)


def test_fermat_grid_small():
    for l in (2, 3, 4):
        for n in (2, 3):
            f = fermat(l, n)
            assert milnor_number(f).mu == (l - 1) ** n


def test_is_critical_point():
    f = P("x^3 + y^3 - 3*x - 3*y")
    assert is_critical_point(f, (1, 1))
    assert is_critical_point(f, (-1, 1))
    assert not is_critical_point(f, (0, 0))


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
