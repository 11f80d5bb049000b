"""One-parameter families: sampled Milnor profiles, probe lines, and the
search for a joining coefficient."""

from fractions import Fraction

import pytest

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
    assert prof.is_constant()


def test_profile_reuses_the_zero_sample(standard_basis_calls):
    prof = mu_profile(rescaling_family(P("x^3 + y^3 + x^4")))
    assert prof.mu_at_zero == 4
    assert len(standard_basis_calls) == len(DEFAULT_SAMPLES)


def test_find_alpha_sends_only_interior_samples_to_the_engine(standard_basis_calls):
    # the target on entry, then t = 1/4, 1/2, 3/4 for the first ladder alpha;
    # t = 0 and t = 1 are isolated by construction
    assert find_alpha(P("x^3 + 2*y^3")) == GaussianRational.of(1)
    assert len(standard_basis_calls) == 4


def test_jump_family():
    fam = GermFamily((FamilyPiece(P("x^3 + y^3"), 0), FamilyPiece(P("x*y"), 1)))
    prof = mu_profile(fam)
    assert [s.mu for s in prof.samples] == [4, 1, 1, 1, 1]
    assert prof.jump == 3
    assert not prof.is_constant()


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


def test_find_transverse_line_budget_exhaustion():
    # every radius-one lattice direction lies on one of these four lines
    form = P("x*y*(x - y)*(x + y)")
    assert find_transverse_line([form], trials=1) is None
    found = find_transverse_line([form])
    assert found is not None and form.evaluate(found)


def test_find_transverse_line_needs_a_trial():
    for trials in (0, -5):
        with pytest.raises(InputError):
            find_transverse_line([P("x*y")], trials=trials)


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


# -- joining coefficient search ------------------------------------------------

def test_find_alpha_first_ladder_hit():
    alpha = find_alpha(P("x^3 + 2*y^3"))
    assert alpha == GaussianRational.of(1)


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
    alpha = find_alpha(target)
    scaled = target.scale(alpha)
    reference = P("x^3 + y^3")
    for t in DEFAULT_SAMPLES:
        tt = GaussianRational.of(t)
        one = GaussianRational.of(1)
        mix = reference.scale(one - tt) + scaled.scale(tt)
        assert milnor_number(mix).mu == 4
