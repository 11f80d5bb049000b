"""Monodromy bookkeeping: Lefschetz numbers of iterates, the associated
sparse sequence, zeta factorisation and the characteristic polynomial."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from germinv.errors import ConventionViolationError, InputError
from germinv.monodromy import (
    CharPoly,
    ResolutionData,
    SSequence,
    ZetaFunction,
    chi_projective_cone,
    chi_tangent_cone_complement,
    char_poly,
    divisors,
    euler_fiber,
    homogeneous_resolution,
    invert_lefschetz,
    lefschetz,
    lefschetz_from_s,
    lefschetz_sequence,
    milnor_from_resolution,
    milnor_from_s,
    mobius,
    multiplicity_bound,
    s_sequence,
    zeta,
)

CUSP = ResolutionData(((2, 1), (3, 1), (6, -1)))


# -- elementary number theory -------------------------------------------------

def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(17) == [1, 17]


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1}
    for n, value in expected.items():
        assert mobius(n) == value


@given(st.integers(min_value=2, max_value=400))
def test_mobius_divisor_sum_vanishes(n):
    assert sum(mobius(d) for d in divisors(n)) == 0


# -- resolution data -----------------------------------------------------------

def test_resolution_validation():
    with pytest.raises(InputError):
        ResolutionData(((0, 1),))
    with pytest.raises(InputError):
        ResolutionData(((2, 1), (2, 2)))
    assert ResolutionData(((6, -1), (2, 1))).strata == ((2, 1), (6, -1))


def test_integer_checks_reject_booleans():
    with pytest.raises(InputError):
        ResolutionData.from_json([{"m": True, "chi": 1}])
    with pytest.raises(InputError):
        ResolutionData(((2, False),))
    with pytest.raises(InputError):
        SSequence(((True, 3),))
    with pytest.raises(InputError):
        ZetaFunction(((3, True),))


def test_resolution_json_round_trip():
    data = [{"chi": 1, "m": 2}, {"chi": 1, "m": 3}, {"chi": -1, "m": 6}]
    res = ResolutionData.from_json(data)
    assert res == CUSP
    assert res.to_json() == data
    with pytest.raises(InputError):
        ResolutionData.from_json({"m": 2, "chi": 1})
    with pytest.raises(InputError):
        ResolutionData.from_json([{"m": 2}])


def test_max_multiplicity():
    assert CUSP.max_multiplicity() == 6
    assert ResolutionData(()).max_multiplicity() == 1


# -- Lefschetz numbers ---------------------------------------------------------

def test_fermat_cubic_lefschetz_list():
    res = homogeneous_resolution(3, 2)
    seq = lefschetz_sequence(res, 9)
    assert list(seq.values) == [0, 0, -3, 0, 0, -3, 0, 0, -3]
    assert seq.horizon == 9
    assert seq.at(3) == -3
    assert seq.at(1) == 0


def test_cusp_lefschetz_numbers():
    # only iterates divisible by a stratum multiplicity see that stratum
    assert lefschetz(CUSP, 1) == 0
    assert lefschetz(CUSP, 2) == 2
    assert lefschetz(CUSP, 3) == 3
    assert lefschetz(CUSP, 6) == -1
    assert lefschetz(CUSP, 12) == -1
    with pytest.raises(InputError):
        lefschetz(CUSP, 0)


def test_euler_fiber_and_milnor():
    assert euler_fiber(CUSP) == -1
    assert milnor_from_resolution(CUSP, 2) == 2
    quadric3 = homogeneous_resolution(2, 3)
    assert milnor_from_resolution(quadric3, 3) == 1


def test_negative_milnor_is_rejected():
    bad = ResolutionData(((3, 1),))  # would give mu = -2 in two variables
    with pytest.raises(InputError):
        milnor_from_resolution(bad, 2)


# -- the sparse sequence and its inversion -------------------------------------

def test_cusp_s_sequence():
    s = s_sequence(CUSP)
    assert s.to_map() == {2: 2, 3: 3, 6: -6}
    assert s.support() == (2, 3, 6)
    assert s.get(2) == 2 and s.get(5) == 0
    assert s.total() == -1


def test_lefschetz_from_s_matches_direct_computation():
    s = s_sequence(CUSP)
    seq = lefschetz_from_s(s, 12)
    for k in range(1, 13):
        assert seq.at(k) == lefschetz(CUSP, k)


def test_inversion_round_trip_on_the_cusp():
    s = s_sequence(CUSP)
    lam = lefschetz_from_s(s, 6)
    assert invert_lefschetz(lam).to_map() == s.to_map()


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=-100, max_value=100),
        max_size=6,
    )
)
def test_inversion_round_trip_random(values):
    s = SSequence.from_map(values)
    horizon = max(s.support(), default=1)
    lam = lefschetz_from_s(s, horizon)
    assert invert_lefschetz(lam).to_map() == s.to_map()


def test_milnor_from_s_agrees():
    s = s_sequence(CUSP)
    assert milnor_from_s(s, 2) == milnor_from_resolution(CUSP, 2)


# -- zeta factors --------------------------------------------------------------

def test_cusp_zeta_string():
    z = zeta(s_sequence(CUSP))
    assert str(z) == "(1-t^2)^-1*(1-t^3)^-1*(1-t^6)^1"
    assert z.exponent(6) == 1
    assert z.exponent(5) == 0


def test_trivial_zeta_prints_as_one():
    assert str(zeta(SSequence.from_map({}))) == "1"


def test_zeta_divisibility_guard():
    with pytest.raises(InputError):
        zeta(SSequence.from_map({2: 3}))


def test_fermat_cubic_zeta():
    z = zeta(s_sequence(homogeneous_resolution(3, 2)))
    assert str(z) == "(1-t^3)^1"


# -- homogeneous reference germs -----------------------------------------------

def test_cone_euler_characteristics():
    # complement of a degree-l divisor in projective (n-1)-space
    assert chi_tangent_cone_complement(2, 2) == 0
    assert chi_tangent_cone_complement(3, 2) == -1
    assert chi_tangent_cone_complement(2, 3) == 1
    assert chi_tangent_cone_complement(3, 3) == 3
    # divisor and complement partition projective space, chi(P^{n-1}) = n
    for l in range(2, 6):
        for n in range(2, 5):
            assert chi_projective_cone(l, n) + chi_tangent_cone_complement(l, n) == n


def test_projective_cone_chi_known_cases():
    assert chi_projective_cone(3, 2) == 3   # three points on a line
    assert chi_projective_cone(2, 3) == 2   # smooth conic, a sphere
    assert chi_projective_cone(3, 3) == 0   # elliptic curve


def test_homogeneous_resolution_single_stratum():
    res = homogeneous_resolution(3, 2)
    assert res.strata == ((3, -1),)
    assert milnor_from_resolution(res, 2) == 4
    for l in range(2, 6):
        for n in range(2, 5):
            res = homogeneous_resolution(l, n)
            assert len(res.strata) == 1 and res.strata[0][0] == l
            assert milnor_from_resolution(res, n) == (l - 1) ** n


def test_homogeneous_lefschetz_vanishes_off_multiples():
    for l in range(2, 6):
        res = homogeneous_resolution(l, 2)
        for k in range(1, 3 * l + 1):
            expected = l * chi_tangent_cone_complement(l, 2) if k % l == 0 else 0
            assert lefschetz(res, k) == expected


# -- characteristic polynomial -------------------------------------------------

def test_node_charpoly():
    # x^2 + y^2: one vanishing cycle, trivial monodromy
    res = homogeneous_resolution(2, 2)
    z = zeta(s_sequence(res))
    cp = char_poly(z, 1, 2)
    assert str(cp) == "t - 1"
    assert cp.degree == 1
    assert cp.constant_term == -1


def test_three_variable_quadric_charpoly():
    res = homogeneous_resolution(2, 3)
    cp = char_poly(zeta(s_sequence(res)), 1, 3)
    assert str(cp) == "t + 1"


def test_cusp_charpoly():
    cp = char_poly(zeta(s_sequence(CUSP)), 2, 2)
    assert str(cp) == "t^2 - t + 1"
    assert cp.coeffs == (1, -1, 1)


def test_fermat_cubic_charpoly():
    res = homogeneous_resolution(3, 2)
    cp = char_poly(zeta(s_sequence(res)), 4, 2)
    assert str(cp) == "t^4 - t^3 - t + 1"


def test_charpoly_consistency_guard():
    res = homogeneous_resolution(3, 2)
    z = zeta(s_sequence(res))
    with pytest.raises(ConventionViolationError):
        char_poly(z, 3, 2)  # wrong Milnor number for this zeta


def test_charpoly_diagnostics():
    fermat_cubic = zeta(s_sequence(homogeneous_resolution(3, 2)))
    with pytest.raises(ConventionViolationError):
        char_poly(fermat_cubic, 5, 2)  # mu too large: Delta(0) = 0
    with pytest.raises(ConventionViolationError):
        char_poly(fermat_cubic, 3, 2)  # mu too small
    with pytest.raises(ConventionViolationError):
        char_poly(ZetaFunction(((2, -1),)), 3, 2)  # division is not exact


def test_charpoly_ends_are_units():
    for l in range(2, 6):
        for n in (2, 3):
            res = homogeneous_resolution(l, n)
            mu = (l - 1) ** n
            cp = char_poly(zeta(s_sequence(res)), mu, n)
            assert cp.degree == mu
            assert abs(cp.constant_term) == 1
            assert abs(cp.coeffs[-1]) == 1


# -- multiplicity bound --------------------------------------------------------

def test_multiplicity_bound_from_first_nonzero():
    seq = lefschetz_sequence(homogeneous_resolution(3, 2), 9)
    bound = multiplicity_bound(seq)
    assert bound.known and bound.first_nonzero == 3
    assert bound.lower_bound == 3


def test_multiplicity_bound_unknown_when_all_zero():
    seq = lefschetz_sequence(homogeneous_resolution(2, 2), 5)
    bound = multiplicity_bound(seq)
    assert not bound.known
    assert bound.first_nonzero is None
    assert bound.horizon == 5


# -- a seeded eigenvalue cross-check ------------------------------------------

def test_charpoly_matches_plane_curve_eigenvalues():
    """For x^a + y^b the monodromy eigenvalues are products of roots of
    unity; compare the pipeline's polynomial against the expansion of
    (t^lcm - 1)-style products evaluated as exact integer sequences."""
    rng = random.Random(7)
    for a, b in ((2, 3), (3, 3), (2, 5), (17, 2)):
        mu = (a - 1) * (b - 1)
        # Lefschetz numbers straight from the fixed-point structure
        lam_values = tuple(
            1 - (a * (k % a == 0) - 1) * (b * (k % b == 0) - 1)
            for k in range(1, a * b + 1)
        )
        from germinv.monodromy import LefschetzSequence

        s = invert_lefschetz(LefschetzSequence(lam_values))
        cp = char_poly(zeta(s), mu, 2)
        assert cp.degree == mu
        # spot-check Delta at small integers against the eigenvalue product
        # computed with complex arithmetic (tolerance only in the check,
        # the pipeline itself is exact)
        import cmath

        for _ in range(3):
            x = rng.randint(2, 5)
            exact = sum(c * x**k for k, c in enumerate(cp.coeffs))
            prod = 1.0 + 0.0j
            for i in range(1, a):
                for j in range(1, b):
                    root = cmath.exp(2j * cmath.pi * (i / a + j / b))
                    prod *= x - root
            assert abs(prod - exact) < 1e-6 * max(1.0, abs(exact))


def test_charpoly_matches_three_variable_fermat_eigenvalues():
    """x^l + y^l + z^l: the eigenvalues are w1*w2*w3 over nontrivial l-th
    roots of unity wk, so Delta(2) is the product of 2 - w1*w2*w3."""
    import cmath

    for l in range(3, 8):
        mu = (l - 1) ** 3
        cp = char_poly(zeta(s_sequence(homogeneous_resolution(l, 3))), mu, 3)
        assert cp.degree == mu
        exact = sum(c * 2**k for k, c in enumerate(cp.coeffs))
        prod = 1.0 + 0.0j
        for i in range(1, l):
            for j in range(1, l):
                for k in range(1, l):
                    prod *= 2 - cmath.exp(2j * cmath.pi * (i + j + k) / l)
        assert abs(prod - exact) < 1e-6 * max(1.0, abs(exact)), l
