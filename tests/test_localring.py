"""Local order, Mora reduction, standard bases and quotient dimensions."""

import heapq
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from types import SimpleNamespace

import pytest
from conftest import NO_CORNER_GERM
from hypothesis import example, given, settings, strategies as st

from germinv.errors import InputError, IterationLimitError
from germinv.gaussian import ONE, GaussianRational
from germinv.localring import (
    DEFAULT_MAX_STEPS,
    StandardBasisResult,
    _Budget,
    _columns,
    _corner_degree,
    _poly,
    _reducer,
    _spoly,
    _view,
    mora_normal_form,
    staircase_of,
    standard_basis,
)
from germinv.poly import (
    Poly,
    monomials_of_degree,
    pack,
    packing,
    parse_poly,
    unpack,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


def P(text, names=XY):
    return parse_poly(text, names)


def basis_for(texts, names=XY):
    return standard_basis([parse_poly(t, names) for t in texts])


def jet(f, top):
    """The terms of f of degree at most top."""
    return Poly(f.nvars, {m: c for m, c in f.terms().items() if sum(m) <= top})


# -- the anti-graded order ---------------------------------------------------

def local_key(mono):
    """The local order's specification: a larger key is a larger monomial.

    It is the componentwise negation of the index key (degree, e_n, ..., e_1)
    that the engine sorts terms by."""
    return (-sum(mono), tuple(-e for e in reversed(mono)))


def test_local_order_prefers_low_degree():
    # key sorts 1 above x above y, and low degree above high
    one, x, y = (0, 0), (1, 0), (0, 1)
    assert local_key(one) > local_key(x) > local_key(y)
    assert local_key(x) > local_key((2, 0))


def test_leading_data():
    f = P("y^3 + x^2 + x^5")
    assert leading_monomial(f) == (2, 0)
    g = P("3*x^2 + y^3")
    assert leading_monomial(g) == (2, 0)
    assert g.coeff(leading_monomial(g)) == GaussianRational.of(3)


@pytest.mark.parametrize("text", [
    "x^2 + x*y + y^2 + x^3", "y^3 + x*y^2 + x^2*y + 1 + x", "x*y^4 + y^5 + x^2*y^3", "y^7",
])
def test_leading_monomial_is_the_largest_in_the_local_order(text):
    f = P(text)
    assert leading_monomial(f) == max(f.terms(), key=local_key)


def test_spoly_cancels_leading_terms():
    f, g = P("x^2 + y^3"), P("x*y + x^3")
    s = spoly(f, g)
    lead = leading_monomial(s)
    assert local_key(lead) < local_key((2, 1))


def test_spoly_below_a_corner_is_the_truncated_spoly():
    f = P("x^2 + 2*x*y^3 + (1+i)*y^5 + x^6")
    g = P("x*y + 3*x^3 - y^4 + 1/2*x^2*y^3")
    for corner in range(3, 9):
        expected = jet(spoly(f, g), corner - 1)
        assert spoly(f, g, corner) == expected


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
    assert res.quotient_dim == 1
    assert staircase_of(res.leading_ideal_gens) == frozenset({(0, 0)})


def test_a1_jacobian():
    res = basis_for(["2*x", "2*y"])
    assert res.quotient_dim == 1


def test_a2_jacobian():
    res = basis_for(["2*x", "3*y^2"])
    assert res.quotient_dim == 2
    assert staircase_of(res.leading_ideal_gens) == frozenset({(0, 0), (0, 1)})


def test_fermat_cubic_jacobian():
    res = basis_for(["3*x^2", "3*y^2"])
    assert res.quotient_dim == 4
    assert staircase_of(res.leading_ideal_gens) == frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})


def test_monomial_complete_intersection():
    res = basis_for(["x^2", "y^3"])
    assert res.quotient_dim == 6


def test_unit_ideal_has_zero_dimensional_quotient():
    # 1 + x is a unit in the local ring
    res = basis_for(["1 + x", "y"])
    assert res.quotient_dim == 0
    assert staircase_of(res.leading_ideal_gens) == frozenset()


def test_missing_pure_power_means_infinite_quotient():
    res = basis_for(["x"])
    assert res.quotient_dim is None
    assert staircase_of(res.leading_ideal_gens) is None


def test_an_infinite_quotient_keeps_nothing():
    # no corner among the partials' leads; B = 36, so the attempt at N = 64
    # proves the quotient infinite, and the leading monomials of J + m^64
    # are not J's
    gens = P("(x + y + z)^2*z^2 + x^5", XYZ).jacobian()
    assert standard_basis(gens) == StandardBasisResult((), None, ())


def test_d5_jacobian_staircase():
    # x^2*y + y^4: partials 2xy and x^2 + 4y^3
    res = basis_for(["2*x*y", "x^2 + 4*y^3"])
    assert res.quotient_dim == 5
    assert (staircase_of(res.leading_ideal_gens)
            == frozenset({(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)}))


def test_completion_discovers_hidden_pure_power():
    # neither generator's lead is a pure y power; completion finds y^4
    # (from y*(x^2 + y^3) - x*(x*y)), so the staircase is 1, x, y, y^2, y^3
    res = basis_for(["x^2 + y^3", "x*y"])
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
    corner = 1 + max(sum(m) for m in staircase_of(res.leading_ideal_gens))
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
    assert staircase_of(((1, 0), (0, 1))) == frozenset({(0, 0)})
    assert staircase_of(((2, 0),)) is None
    assert staircase_of(((0, 0),)) == frozenset()
    assert staircase_of(()) is None


def test_ideal_quotient_dim_convenience():
    assert standard_basis([P("x^2"), P("y^3")]).quotient_dim == 6
    assert standard_basis([P("x")]).quotient_dim is None


def test_generators_must_share_a_variable_count():
    mixed = [P("x"), P("y"), parse_poly("z", ("x", "y", "z"))]
    with pytest.raises(InputError, match="disagree on variable count"):
        standard_basis(mixed)
    with pytest.raises(InputError, match="at least one generator"):
        standard_basis([])


# -- the Poly-level specification --------------------------------------------
#
# The engine works on terms keyed by packed monomials (degree, e_n, ..., e_1
# in the fields of one int).  What follows is the same algorithm written on
# Polys, rescanning as it goes: leading terms by local_key, truncation by
# jet, the staircase by testing every monomial of the box.  The
# engine must agree with it exactly, step for step (the budget runs out at
# the same reduction).

def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def minimal_monomials(monos):
    """The divisibility-minimal monomials, sorted by degree, then exponents."""
    minimal = {m for m in monos if not any(mono_divides(k, m) and k != m for k in monos)}
    return tuple(sorted(minimal, key=lambda m: (sum(m), m)))


def mono_quotient(b, a):
    """Exponent vector of x^b / x^a, for x^a dividing x^b."""
    return tuple(y - x for x, y in zip(a, b))


def ref_leading_term(f):
    m = max(f.terms(), key=local_key)
    return m, f.coeff(m)


def leading_monomial(f):
    """The engine's leading monomial: the least key of f's view."""
    return unpack(_view(f)[0][0], f.nvars)


def spoly(f, g, corner=None):
    """The engine's s-polynomial of f and g, with a corner k only its terms
    of degree < k, none of the others formed."""
    shift, _, limit = packing(f.nvars)
    lcm = pack(tuple(map(max, leading_monomial(f), leading_monomial(g))))
    s = _spoly(_reducer(*_view(f), shift), _reducer(*_view(g), shift), lcm,
               None if corner is None else corner << shift, limit)
    return _poly(f.nvars, s.items())


def ref_ecart(f):
    return f.degree() - sum(ref_leading_term(f)[0])


def ref_below(f, corner):
    if corner is None or not f or f.degree() < corner:
        return f
    return jet(f, corner - 1)


def ref_spoly(f, g, corner=None):
    mf, cf = ref_leading_term(f)
    mg, cg = ref_leading_term(g)
    lcm = mono_lcm(mf, mg)
    qf, qg = mono_quotient(lcm, mf), mono_quotient(lcm, mg)
    s = f.mul_term(qf, ONE / cf) + g.mul_term(qg, -(ONE / cg))
    return ref_below(s, corner)


def ref_normal_form(f, reducers, budget, corner=None):
    h = ref_below(f, corner)
    pool = [(*ref_leading_term(g), ref_ecart(g), g) for g in reducers]
    while h:
        mh, ch = ref_leading_term(h)
        usable = [entry for entry in pool if mono_divides(entry[0], mh)]
        if not usable:
            return h
        mg, cg, eg, g = min(usable, key=lambda entry: entry[2])
        eh = ref_ecart(h)
        if eg > eh:
            pool.append((mh, ch, eh, h))
        budget.spend()
        h = ref_below(h + g.mul_term(mono_quotient(mh, mg), -(ch / cg)), corner)
    return h


def ref_staircase(leading_gens, nvars):
    if not leading_gens:
        return None
    if any(sum(m) == 0 for m in leading_gens):
        return frozenset()
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in leading_gens
                if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return frozenset(mono for mono in iter_product(*(range(b) for b in bounds))
                     if not any(mono_divides(g, mono) for g in leading_gens))


def ref_corner(stairs):
    """1 + the top degree of a finite staircase; 0 when it is empty."""
    return None if stairs is None else 1 + max(map(sum, stairs), default=-1)


def ref_attempt(basis, nvars, noether, budget):
    """Completion below a corner: the generators' own, exact, or else
    noether, as for J + m^noether; None if no corner below noether ends it."""
    lm = [ref_leading_term(g)[0] for g in basis]
    leading = minimal_monomials(lm)
    stairs = ref_staircase(leading, nvars)
    exact = stairs is not None
    corner = ref_corner(stairs) if exact else noether

    def lcm_degree(i, j):
        return sum(mono_lcm(lm[i], lm[j]))

    def truncated():
        return [g if sum(m) >= corner else ref_below(g, corner)
                for g, m in zip(basis, lm)]

    basis = truncated()
    pairs = [(lcm_degree(i, j), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        degree, i, j = heapq.heappop(pairs)
        if degree >= corner:
            break
        if degree == sum(lm[i]) + sum(lm[j]):
            continue
        h = ref_normal_form(ref_spoly(basis[i], basis[j], corner), basis, budget, corner)
        if h:
            h = h.scale(ONE / ref_leading_term(h)[1])
            basis.append(h)
            lm.append(ref_leading_term(h)[0])
            for other in range(len(basis) - 1):
                heapq.heappush(pairs, (lcm_degree(other, len(basis) - 1), other, len(basis) - 1))
            leading = minimal_monomials(lm)
            stairs = ref_staircase(leading, nvars)
            if stairs is not None and ref_corner(stairs) < corner:
                corner = ref_corner(stairs)
                basis = truncated()
    if not exact and corner == noether:
        return None
    kept, seen = [], set()
    for g, m in zip(basis, lm):
        if m in leading and m not in seen:
            kept.append(Poly.monomial(nvars, m) if sum(m) >= corner else g)
            seen.add(m)
    return SimpleNamespace(basis=tuple(kept), leading_ideal_gens=leading, staircase=stairs)


def ref_standard_basis(gens, max_steps=DEFAULT_MAX_STEPS):
    """Attempts at N = 8, 16, ... until one is exact or N passes the
    product of the nvars largest generator degrees; then infinite."""
    gens = list(gens)
    nvars = gens[0].nvars
    budget = _Budget(max_steps)
    basis = [g.scale(ONE / ref_leading_term(g)[1]) for g in gens if g]
    degrees = sorted((g.degree() for g in basis), reverse=True)
    bound = prod(degrees[:nvars]) if len(degrees) >= nvars else 0
    noether = 8
    while (result := ref_attempt(basis, nvars, noether, budget)) is None:
        if noether > bound:
            return SimpleNamespace(basis=(), leading_ideal_gens=(), staircase=None)
        noether *= 2
    return result


def outcome(compute):
    """compute()'s result, or the budget running out as a value."""
    try:
        return compute()
    except IterationLimitError:
        return "budget exceeded"


_SMALL = st.integers(-3, 3)
COEFFICIENTS = {
    "integer": _SMALL.map(GaussianRational),
    "rational": st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)).map(GaussianRational),
    "gaussian": st.builds(
        lambda re, im: GaussianRational(Fraction(re, 3), Fraction(im, 3)), _SMALL, _SMALL
    ),
}


@st.composite
def local_polys(draw, nvars, coefficient, size=st.integers(1, 5)):
    """Terms of degree 0..5 (a constant now and then), nonzero or not."""
    terms = {}
    for _ in range(draw(size)):
        degree = draw(st.integers(0, 5) if draw(st.integers(0, 7)) == 0 else st.integers(1, 5))
        terms[draw(st.sampled_from(list(monomials_of_degree(nvars, degree))))] = draw(coefficient)
    return Poly(nvars, terms)


@st.composite
def local_problems(draw):
    """In 1-4 variables over one kind of coefficient: a polynomial, 1-3
    generators, and a corner degree or none."""
    nvars = draw(st.integers(1, 4))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    f = draw(local_polys(nvars, coefficient, st.integers(0, 6)))
    gens = draw(st.lists(local_polys(nvars, coefficient), min_size=1, max_size=3))
    corner = draw(st.none() | st.integers(1, 7))
    return f, gens, corner


@settings(max_examples=200)
@given(local_problems())
@example((P("x^2"), [P("x^2 - x^3")], None))
@example((P("x + y + x*y^3"), [P("x - y^2 + x^4"), P("y")], 3))
def test_normal_form_matches_the_specification(problem):
    f, gens, corner = problem
    reducers = [g for g in gens if g]
    got = outcome(lambda: mora_normal_form(f, reducers, _Budget(60), _corner=corner))
    assert got == outcome(lambda: ref_normal_form(f, reducers, _Budget(60), corner))
    if len(reducers) >= 2:
        a, b = reducers[:2]
        assert spoly(a, b, corner) == ref_spoly(a, b, corner)


@settings(max_examples=150)
@given(local_problems(), st.just(60))
@example((P("0"), [P("2*x*y"), P("x^2 + 4*y^3")], None), 60)
@example((P("0"), [P(DENSE_GERM).partial(0), P(DENSE_GERM).partial(1)], None), 60)
# four variables: the packed keys hold five fields
@example((P("0"), list(P("x^2*y + y^3 + z^3 + w^3 + x*z*w", XYZW).jacobian()), None), 60)
@example((P("0"), [P("(1+i)*x*y + z^2 - 2/3*w^3", XYZW), P("x^2 + y*w", XYZW),
                   P("y^2 + x*z*w", XYZW)], None), 60)
# leads of coefficient 2+i, 1/2-3/2*i, 2/3 and 5: completion keeps them and
# normalises only what it returns
@example((P("0"), [P("(2+i)*x*y + y^3"), P("(1/2 - 3/2*i)*x^2 + i*y^4")], None), 60)
@example((P("0"), [P("2/3*x^2 - y^3"), P("5*x*y + 3/2*y^4")], None), 60)
# a new lead x*y^2 makes the earlier minimal lead x*y^3 redundant
@example((P("0"), [P("x^2*y + y^4"), P("x^3 + x*y^2"), P("x^2 + x*y^2")], None), 60)
# the generators' own corner is 11, above the first N: one exact run, whose
# pair of lcm degree 8 finds the lead y^9
@example((P("0"), [P("x^10"), P("y^10"), P("x^4*y^2 + y^7"), P("x^2*y^4")], None), 60)
# no corner among the generators' leads: exact in the first attempt (N = 8),
# in the second (N = 16), and infinite once N = 64 passes B = 36
@example((P("0"), list(P(NO_CORNER_GERM, XYZ).jacobian()), None), DEFAULT_MAX_STEPS)
@example((P("0"), list(P("x^3 + y^7 + z^7 + x*y^3*z^2", XYZ).jacobian()), None), 60)
@example((P("0"), list(P("(x + y + z)^2*z^2 + x^5", XYZ).jacobian()), None), DEFAULT_MAX_STEPS)
def test_standard_basis_matches_the_specification(problem, max_steps):
    _, gens, _ = problem
    got = outcome(lambda: standard_basis(gens, max_steps=max_steps))
    expected = outcome(lambda: ref_standard_basis(gens, max_steps=max_steps))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.basis == expected.basis
        assert got.leading_ideal_gens == expected.leading_ideal_gens
        stairs = staircase_of(got.leading_ideal_gens)
        assert stairs == expected.staircase
        assert got.quotient_dim == (None if stairs is None else len(stairs))


@settings(max_examples=100)
@given(local_problems())
@example((P("0"), [P("(2+i)*x*y + y^3"), P("2/3*x^2 - y^3")], None))
def test_every_basis_element_has_lead_coefficient_one(problem):
    _, gens, _ = problem
    result = outcome(lambda: standard_basis(gens, max_steps=60))
    if not isinstance(result, str):
        assert all(ref_leading_term(g)[1] == ONE for g in result.basis)


@settings(max_examples=100)
@given(local_problems(), st.integers(0, 5), st.integers(-3, 3).filter(bool))
def test_views_of_derived_polys_are_their_own(problem, degree, c):
    f, gens, _ = problem
    g = gens[0]
    reducers = [g] if g else []
    for derived in (f + g, f.scale(c), g.scale(c), f.homogeneous_component(degree),
                    g.homogeneous_component(degree)):
        fresh = Poly(derived.nvars, derived.terms())
        if not fresh:
            continue
        assert _view(derived) == _view(fresh)
        assert leading_monomial(derived) == ref_leading_term(fresh)[0]
        assert (mora_normal_form(derived, reducers)
                == ref_normal_form(fresh, reducers, _Budget(DEFAULT_MAX_STEPS)))


@st.composite
def monomial_ideals(draw):
    """1-5 monomials in 1-3 variables, exponents 0..5, pure powers or not."""
    nvars = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 5)] * nvars)
    return draw(st.lists(mono, min_size=0, max_size=5)), nvars


@settings(max_examples=300)
@given(monomial_ideals())
@example(([(3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)], 3))
@example(([(2,)], 1))
def test_staircase_by_columns_matches_the_box(ideal):
    gens, nvars = ideal
    stairs = staircase_of(tuple(gens))
    assert stairs == ref_staircase(tuple(gens), nvars)
    # completion reads the corner and the count off its last column walk
    if stairs is not None:
        assert _corner_degree(_columns(tuple(gens))) == ref_corner(stairs)
    if gens:
        result = standard_basis([Poly.monomial(nvars, m) for m in gens])
        assert result.quotient_dim == (None if stairs is None else len(stairs))
