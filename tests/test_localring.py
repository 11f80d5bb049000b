"""Local order, Mora reduction, standard bases and quotient dimensions."""

import pytest

from germinv.errors import IterationLimitError
from germinv.gaussian import GaussianRational
from germinv.localring import (
    _Budget,
    ecart,
    ideal_quotient_dim,
    leading_monomial,
    leading_term,
    local_key,
    mora_normal_form,
    spoly,
    staircase_of,
    standard_basis,
)
from germinv.poly import Poly, parse_poly

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


def basis_for(texts, names=XY):
    return standard_basis([parse_poly(t, names) for t in texts])


# -- the anti-graded order ---------------------------------------------------

def test_local_order_prefers_low_degree():
    # key sorts 1 above x above y, and low degree above high
    one, x, y = (0, 0), (1, 0), (0, 1)
    assert local_key(one) > local_key(x) > local_key(y)
    assert local_key(x) > local_key((2, 0))


def test_leading_data():
    f = P("y^3 + x^2 + x^5")
    assert leading_monomial(f) == (2, 0)
    mono, coeff = leading_term(P("3*x^2 + y^3"))
    assert mono == (2, 0) and coeff == GaussianRational.of(3)


@pytest.mark.parametrize("text", [
    "x^2 + x*y + y^2 + x^3", "y^3 + x*y^2 + x^2*y + 1 + x", "x*y^4 + y^5 + x^2*y^3", "y^7",
])
def test_leading_monomial_is_the_largest_in_the_local_order(text):
    f = P(text)
    assert leading_monomial(f) == max(f.terms(), key=local_key)


def test_ecart():
    assert ecart(P("x + x^2")) == 1
    assert ecart(P("x^2")) == 0
    assert ecart(P("x + y^4")) == 3


def test_spoly_cancels_leading_terms():
    f, g = P("x^2 + y^3"), P("x*y + x^3")
    s = spoly(f, g)
    lead = leading_monomial(s)
    assert local_key(lead) < local_key((2, 1))


def test_spoly_below_a_corner_is_the_truncated_spoly():
    f = P("x^2 + 2*x*y^3 + (1+i)*y^5 + x^6")
    g = P("x*y + 3*x^3 - y^4 + 1/2*x^2*y^3")
    for corner in range(3, 9):
        expected = spoly(f, g).truncate_jet(corner - 1)
        assert spoly(f, g, _corner=corner) == expected


# -- Mora weak normal form ---------------------------------------------------

def test_mora_classic_unit_multiple():
    # (1 - x) * x^2 = x^2 - x^3, so x^2 reduces to zero even though naive
    # division by x^2 - x^3 would climb in degree forever
    r = mora_normal_form(P("x^2"), [P("x^2 - x^3")])
    assert not r


def test_mora_no_reduction_possible():
    assert mora_normal_form(P("y"), [P("x")]) == P("y")
    assert mora_normal_form(P("x + y"), [P("x")]) == P("y")
    assert not mora_normal_form(Poly.zero(2), [P("x")])


def test_mora_respects_budget():
    with pytest.raises(IterationLimitError):
        mora_normal_form(P("x^2"), [P("x^2 - x^3")], budget=_Budget(1))


# -- standard bases and staircases -------------------------------------------

def test_maximal_ideal():
    res = basis_for(["x", "y"])
    assert res.finite
    assert res.quotient_dim == 1
    assert res.staircase == frozenset({(0, 0)})


def test_a1_jacobian():
    res = basis_for(["2*x", "2*y"])
    assert res.quotient_dim == 1


def test_a2_jacobian():
    res = basis_for(["2*x", "3*y^2"])
    assert res.quotient_dim == 2
    assert res.staircase == frozenset({(0, 0), (0, 1)})


def test_fermat_cubic_jacobian():
    res = basis_for(["3*x^2", "3*y^2"])
    assert res.quotient_dim == 4
    assert res.staircase == frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})


def test_monomial_complete_intersection():
    res = basis_for(["x^2", "y^3"])
    assert res.quotient_dim == 6


def test_unit_ideal_has_zero_dimensional_quotient():
    # 1 + x is a unit in the local ring
    res = basis_for(["1 + x", "y"])
    assert res.quotient_dim == 0
    assert res.staircase == frozenset()


def test_missing_pure_power_means_infinite_quotient():
    res = basis_for(["x"])
    assert not res.finite
    assert res.quotient_dim is None
    assert res.staircase is None


def test_d5_jacobian_staircase():
    # x^2*y + y^4: partials 2xy and x^2 + 4y^3
    res = basis_for(["2*x*y", "x^2 + 4*y^3"])
    assert res.quotient_dim == 5
    assert res.staircase == frozenset({(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)})


def test_completion_discovers_hidden_pure_power():
    # neither generator's lead is a pure y power; completion finds y^4
    # (from y*(x^2 + y^3) - x*(x*y)), so the staircase is 1, x, y, y^2, y^3
    res = basis_for(["x^2 + y^3", "x*y"])
    assert res.finite
    assert (0, 4) in res.leading_ideal_gens
    assert res.quotient_dim == 5


def test_three_variables():
    res = basis_for(["2*x", "2*y", "2*z"], names=("x", "y", "z"))
    assert res.quotient_dim == 1
    res = basis_for(["3*x^2", "3*y^2", "3*z^2"], names=("x", "y", "z"))
    assert res.quotient_dim == 8


DENSE_GERM = (
    "x^2*y - 2*x^4 + x^3*y + 3*x^2*y^2 + 3*x*y^3 + 3*y^4"
    " - 3*x^5 - x^4*y - 3*x^3*y^2 + 3*x*y^4 + y^9"
)


def test_standard_basis_budget():
    # this dense germ needs more than two reduction steps
    gens = parse_poly(DENSE_GERM, XY).jacobian()
    with pytest.raises(IterationLimitError):
        standard_basis(gens, max_steps=2)
    # the highest corner is reached before any reduction step is needed
    gens = parse_poly("x^5 + y^6 + x^2*y^2", XY).jacobian()
    assert standard_basis(gens, max_steps=2).quotient_dim == 12


def test_basis_is_truncated_below_the_corner():
    res = standard_basis(parse_poly(DENSE_GERM, XY).jacobian(), max_steps=150)
    corner = 1 + max(sum(m) for m in res.staircase)
    assert corner == 4
    assert sorted(leading_monomial(g) for g in res.basis) == sorted(res.leading_ideal_gens)
    for g in res.basis:
        assert g.degree() < corner or len(g) == 1


def test_standard_basis_accepts_any_iterable():
    res = standard_basis(iter([P("x"), P("y")]))
    assert res.quotient_dim == 1
    with pytest.raises(ValueError):
        standard_basis([])


def test_leading_ideal_is_minimal():
    res = basis_for(["2*x*y", "x^2 + 4*y^3"])
    gens = set(res.leading_ideal_gens)
    # no generator divides another
    for a in gens:
        for b in gens:
            if a != b:
                assert not all(ai <= bi for ai, bi in zip(a, b))


def test_staircase_of_direct():
    assert staircase_of(((1, 0), (0, 1)), 2) == frozenset({(0, 0)})
    assert staircase_of(((2, 0),), 2) is None
    assert staircase_of(((0, 0),), 2) == frozenset()


def test_ideal_quotient_dim_convenience():
    assert ideal_quotient_dim([P("x^2"), P("y^3")]) == 6
    assert ideal_quotient_dim([P("x")]) is None
