"""One-parameter families: sampled Milnor profiles, probe lines, and the
search for a joining coefficient."""

from fractions import Fraction
from itertools import product as iter_product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from germinv.corpus import ISOLATED_GERMS
from germinv.errors import InputError
from germinv.families import (
    DEFAULT_SAMPLES,
    STATUS_NOT_ISOLATED,
    STATUS_OK,
    STATUS_ZERO,
    FamilyPiece,
    GermFamily,
    family_from_json,
    find_alpha,
    find_transverse_line,
    line_order_profile,
    mu_profile,
    rescaling_family,
)
from germinv.gaussian import GaussianRational
from germinv.milnor import milnor_number
from germinv.poly import MAX_DIGITS, MAX_EXPONENT, Poly, parse_poly

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


# -- family construction -------------------------------------------------------

def test_rescaling_family_layers_by_degree():
    fam = rescaling_family(P("x^3 + y^3 + x^4 + y^5"))
    powers = sorted(piece.tpower for piece in fam.pieces)
    assert powers == [0, 1, 2]
    assert fam.at(1) == P("x^3 + y^3 + x^4 + y^5")
    assert fam.at(0) == P("x^3 + y^3")


def test_family_at_accepts_exact_scalars():
    fam = rescaling_family(P("x^3 + y^3 + x^4"))
    assert fam.at(Fraction(1, 2)) == P("x^3 + y^3 + 1/2*x^4")
    assert fam.at(GaussianRational.of(2)) == P("x^3 + y^3 + 2*x^4")


def test_family_at_refuses_a_sample_power_past_the_digit_bound():
    fam = GermFamily((FamilyPiece(P("x^3 + y^3"), 0), FamilyPiece(P("x*y"), MAX_EXPONENT)))
    assert fam.at(2) == P("x^3 + y^3") + P("x*y").scale(GaussianRational.of(2 ** MAX_EXPONENT))
    for t in (3, Fraction(1, 3), GaussianRational(2, 1), 10 ** 4299):  # height 3 and up
        with pytest.raises(InputError, match=f"maximum of {MAX_DIGITS} digits"):
            fam.at(t)


def test_piece_validation():
    with pytest.raises(InputError):
        FamilyPiece(P("1 + x"), 0)  # does not vanish at the origin
    with pytest.raises(InputError):
        FamilyPiece(Poly.zero(2), 0)
    with pytest.raises(InputError):
        FamilyPiece(P("x"), -1)


def test_piece_powers_are_capped():
    assert FamilyPiece(P("x"), MAX_EXPONENT).tpower == MAX_EXPONENT
    for tpower in (MAX_EXPONENT + 1, 10 ** 8):
        with pytest.raises(InputError, match=f"must lie in 0..{MAX_EXPONENT}"):
            FamilyPiece(P("x"), tpower)


def test_family_from_json():
    data = {
        "vars": ["x", "y"],
        "pieces": [
            {"poly": "x^3 + y^3", "tpower": 0},
            {"poly": "x*y", "tpower": 1},
        ],
    }
    fam, names = family_from_json(data)
    assert names == ("x", "y")
    assert fam.at(0) == P("x^3 + y^3")
    assert fam.at(1) == P("x^3 + y^3 + x*y")
    for bad in (
        {"pieces": []},
        {"vars": ["x", "y"], "pieces": [{"poly": "x"}]},
        {"vars": ["x", "y"], "pieces": "x"},
        [],
    ):
        with pytest.raises(InputError):
            family_from_json(bad)


# -- sampled Milnor profiles ---------------------------------------------------

def test_default_samples():
    assert DEFAULT_SAMPLES == (
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)
    )


def test_constant_profile_for_nondegenerate_tail():
    prof = mu_profile(rescaling_family(P("x^3 + y^3 + x^4")))
    assert [s.mu for s in prof.samples] == [4, 4, 4, 4, 4]
    assert all(s.status == STATUS_OK for s in prof.samples)
    assert prof.mu_at_zero == 4
    assert prof.jump == 0
    assert len({s.mu for s in prof.samples}) == 1


def test_profile_reuses_the_zero_sample(standard_basis_calls):
    prof = mu_profile(rescaling_family(P("x^3 + y^3 + x^4")))
    assert prof.mu_at_zero == 4
    assert len(standard_basis_calls) == len(DEFAULT_SAMPLES)


def test_find_alpha_sends_only_interior_samples_to_the_engine(standard_basis_calls):
    # the target on entry, then t = 1/4, 1/2, 3/4 for alpha = 1, the walk's
    # first step; t = 0 and t = 1 are isolated by construction
    assert find_alpha(P("x^3 + 2*y^3")) == GaussianRational.of(1)
    assert len(standard_basis_calls) == 4


def test_jump_family():
    fam = GermFamily((FamilyPiece(P("x^3 + y^3"), 0), FamilyPiece(P("x*y"), 1)))
    prof = mu_profile(fam)
    assert [s.mu for s in prof.samples] == [4, 1, 1, 1, 1]
    assert prof.jump == 3
    assert len({s.mu for s in prof.samples}) > 1


def test_upper_semicontinuity_across_rescalings():
    # the central fibre can only gain Milnor number, never lose it; for a
    # degenerate germ the central fibre is its (non-isolated) leading form,
    # whose infinite Milnor number dominates trivially
    for germ in ISOLATED_GERMS:
        if len(germ.vars) != 2:
            continue
        prof = mu_profile(rescaling_family(germ.poly()))
        if prof.mu_at_zero is None:
            continue
        interior = [s.mu for s in prof.samples if s.t and s.status == STATUS_OK]
        for mu in interior:
            assert prof.mu_at_zero >= mu, germ.name


def test_profile_flags_non_isolated_samples():
    # at t = 1 the quadratic part cancels and the germ degenerates
    fam = GermFamily((FamilyPiece(P("x^2 + y^2"), 0), FamilyPiece(P("-y^2"), 1)))
    prof = mu_profile(fam)
    by_t = {s.t: s for s in prof.samples}
    one = GaussianRational.of(1)
    assert by_t[one].status == STATUS_NOT_ISOLATED
    assert by_t[one].mu is None
    assert by_t[GaussianRational.of(0)].status == STATUS_OK


def test_profile_flags_vanishing_samples():
    fam = GermFamily((FamilyPiece(P("x"), 0), FamilyPiece(P("-x"), 1)))
    prof = mu_profile(fam)
    by_t = {s.t: s for s in prof.samples}
    assert by_t[GaussianRational.of(1)].status == STATUS_ZERO


def test_custom_sample_points():
    fam = rescaling_family(P("x^3 + y^3 + x^4"))
    prof = mu_profile(fam, ts=(Fraction(0), Fraction(2), Fraction(-1)))
    assert [s.mu for s in prof.samples] == [4, 4, 4]


# -- probe lines ---------------------------------------------------------------

def test_find_transverse_line_certificate():
    fam = rescaling_family(P("x^3 + y^3 + x^4"))
    cones = [fam.at(t).initial_form() for t in DEFAULT_SAMPLES]
    line = find_transverse_line(cones)
    assert line is not None
    for cone in cones:
        assert cone.evaluate(line)


def test_find_transverse_line_is_deterministic():
    forms = [P("x*y")]
    assert find_transverse_line(forms) == find_transverse_line(forms)
    assert find_transverse_line(forms) == (GaussianRational.of(-1),) * 2


def test_find_transverse_line_pins_the_eight_line_form():
    # every direction of max-norm 1 or 2 lies on one of the eight lines
    form = P("x*y*(x - y)*(x + y)*(x - 2*y)*(2*x - y)*(x + 2*y)*(2*x + y)")
    assert find_transverse_line([form]) == (GaussianRational.of(-3), GaussianRational.of(-2))


def arrangement(radius):
    """One line through each primitive lattice direction of max-norm at
    most radius: together they hold every integer point of max-norm at most
    radius, and none holds (radius + 1, radius)."""
    return [P(f"({b})*x - ({a})*y")
            for a in range(radius + 1) for b in range(-radius, radius + 1)
            if gcd(a, b) == 1 and (a or b == 1)]


@st.composite
def probe_forms(draw):
    """Products of small linear forms, which vanish on small integer points,
    and homogeneous forms with Gaussian coefficients; in the plane, on top
    of the lines of an arrangement of radius 0, 1 or 2."""
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    forms = arrangement(draw(st.integers(0, 2))) if len(names) == 2 else []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            coeffs = st.lists(st.sampled_from([-2, -1, 0, 1]), min_size=len(names),
                              max_size=len(names)).filter(any)
            text = "*".join("(" + " + ".join(f"({c})*{v}" for c, v in zip(row, names)) + ")"
                            for row in draw(st.lists(coeffs, min_size=1, max_size=4)))
        else:
            degree = draw(st.integers(1, 3))
            monomials = [m for m in iter_product(range(degree + 1), repeat=len(names))
                         if sum(m) == degree]
            text = " + ".join(
                f"({draw(st.sampled_from(['1', '-2', 'i', '1-i']))})*"
                + "*".join(f"{v}^{e}" for v, e in zip(names, m))
                for m in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3)))
        forms.append(parse_poly(text, names))
    return [form for form in forms if form] or [parse_poly(names[0], names)]


@settings(max_examples=150)
@given(probe_forms())
def test_find_transverse_line_answers_within_the_nullstellensatz_bound(forms):
    line = find_transverse_line(forms)
    assert all(form.evaluate(line) for form in forms)
    assert all(c.is_rational and c.re.denominator == 1 for c in line)
    total = sum(form.degree() for form in forms)
    assert 1 <= max(abs(c.re) for c in line) <= max(1, -(-total // 2))


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_find_transverse_line_leaves_the_radius_r_arrangement_at_r_plus_1(radius):
    lines = arrangement(radius)
    line = find_transverse_line(lines)
    assert max(abs(c.re) for c in line) == radius + 1
    assert all(form.evaluate(line) for form in lines)


def test_line_order_profile_constant_for_transverse_line():
    fam = rescaling_family(P("x^3 + y^3 + x^4"))
    profile = line_order_profile(fam, (1, 1))
    assert [(t, order) for t, order in profile] == [
        (GaussianRational.of(t), 3) for t in DEFAULT_SAMPLES
    ]


def test_line_order_profile_rejects_lines_in_the_zero_set():
    fam = GermFamily((FamilyPiece(P("x*y"), 0),))
    with pytest.raises(InputError):
        line_order_profile(fam, (1, 0))


def substituted_order(germ, direction):
    """The reference: the order of f(s*v), formed by substituting s*v for
    the variables; None when it vanishes."""
    s = Poly.variable(1, 0)
    restricted = germ.substitute([s.scale(v) for v in direction])
    return restricted.order() if restricted else None


def one_sample_order(germ, direction):
    [(_, order)] = line_order_profile(GermFamily((FamilyPiece(germ, 0),)), direction, (0,))
    return order


def test_restrict_to_line():
    # x^3 + y^3 is 2*s^3 on the diagonal
    f = P("x^3 + y^3")
    assert substituted_order(f, (1, 1)) == one_sample_order(f, (1, 1)) == 3
    # the line lies inside the zero set: the restriction vanishes
    assert substituted_order(P("x*y"), (1, 0)) is None
    with pytest.raises(InputError, match="lies inside the germ's zero set at t = 0"):
        one_sample_order(P("x*y"), (1, 0))


def test_line_direction_rejects_zero():
    fam = GermFamily((FamilyPiece(P("x*y"), 0),))
    with pytest.raises(InputError, match="direction vector must have a nonzero entry"):
        line_order_profile(fam, (0, 0))
    with pytest.raises(InputError, match="direction has 1 entries, expected 2"):
        line_order_profile(fam, (1,))


LINE_SCALARS = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), GaussianRational(0, 1),
                                GaussianRational(1, -1), GaussianRational(Fraction(1, 2), 2)])


@settings(max_examples=150)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
                       LINE_SCALARS.filter(bool), min_size=1, max_size=5),
       st.tuples(LINE_SCALARS, LINE_SCALARS).filter(any))
# the parts of degree 2 vanish on the line and degree 3 answers, over Q and Q(i)
@example({(2, 0): 1, (0, 2): -1, (3, 0): 1}, (1, 1))
@example({(2, 0): 1, (1, 1): GaussianRational(0, 2), (0, 2): -1, (0, 3): 1},
         (1, GaussianRational(0, 1)))
# every part vanishes on the line
@example({(1, 1): 1, (2, 1): GaussianRational(0, 1)}, (0, 3))
def test_line_order_matches_the_substituted_restriction(terms, direction):
    germ = Poly(2, terms)
    expected = substituted_order(germ, direction)
    if expected is None:
        with pytest.raises(InputError, match="lies inside the germ's zero set"):
            one_sample_order(germ, direction)
    else:
        assert one_sample_order(germ, direction) == expected


# -- joining coefficient search ------------------------------------------------

def _joins(target, alpha, ts):
    """(1-t)(x^3 + y^3) + t*alpha*target keeps mu = 4 at every sample t."""
    reference = P("x^3 + y^3")
    one = GaussianRational.of(1)
    for t in map(GaussianRational.of, ts):
        mix = reference.scale(one - t) + target.scale(t * alpha)
        if not mix or milnor_number(mix).mu != 4:
            return False
    return True


def test_find_alpha_walk_starts_at_one():
    alpha = find_alpha(P("x^3 + 2*y^3"))
    assert alpha == GaussianRational.of(1)


def test_find_alpha_walks_past_the_integers_that_degenerate():
    # (1-t)(x^3 + y^3) - t*alpha*(x^3 + y^3) vanishes at alpha = (1-t)/t:
    # 3, 1 and 1/3 at the default samples, 1, 2 and 3 at t = 1/2, 1/3, 1/4
    target = P("-x^3 - y^3")
    thirds = (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 1)
    assert find_alpha(target) == GaussianRational.of(2)
    assert find_alpha(target, ts=thirds) == GaussianRational.of(4)
    assert _joins(target, GaussianRational.of(2), DEFAULT_SAMPLES)
    assert _joins(target, GaussianRational.of(4), thirds)
    for bad in (1, 3):
        assert not _joins(target, GaussianRational.of(bad), DEFAULT_SAMPLES)
    assert find_alpha(target, candidates=[0]) is None


def test_find_alpha_respects_explicit_candidates():
    assert find_alpha(P("x^3 + 2*y^3"), candidates=[0]) is None
    assert find_alpha(P("x^3 + 2*y^3"), candidates=[2]) == GaussianRational.of(2)


def test_find_alpha_requires_a_homogeneous_isolated_target():
    with pytest.raises(InputError):
        find_alpha(P("x^3 + y^3 + x^4"))  # not homogeneous
    with pytest.raises(InputError):
        find_alpha(P("x^2*y"))  # cone with a multiple line
    with pytest.raises(InputError):
        find_alpha(P("x + y"))  # degree too small


def test_find_alpha_result_joins_without_degeneration():
    target = P("x^3 + 2*y^3")
    assert _joins(target, find_alpha(target), DEFAULT_SAMPLES)
