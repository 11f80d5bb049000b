"""Monodromy bookkeeping: Lefschetz numbers of iterates, the associated
sparse sequence, zeta factorisation and the characteristic polynomial."""

import random
import re
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from germinv.errors import ConventionViolationError, InputError
from germinv.monodromy import (
    MAX_SIZE,
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


def test_resolution_keeps_strata_with_zero_chi():
    res = ResolutionData(((3, 0), (1, 2)))
    assert res.strata == ((1, 2), (3, 0))
    assert res.to_json() == [{"chi": 2, "m": 1}, {"chi": 0, "m": 3}]
    assert s_sequence(res).entries == ((1, 2),)


def test_max_multiplicity():
    assert CUSP.max_multiplicity() == 6
    assert ResolutionData(()).max_multiplicity() == 1


# -- Lefschetz numbers ---------------------------------------------------------

def test_fermat_cubic_lefschetz_list():
    res = homogeneous_resolution(3, 2)
    seq = lefschetz_sequence(res, 9)
    assert seq == (0, 0, -3, 0, 0, -3, 0, 0, -3)
    assert len(seq) == 9
    assert seq[3 - 1] == -3
    assert seq[1 - 1] == 0


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


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_variable_count_is_rejected(n):
    # (-1)^(n-1) is a float for n <= 0: no Milnor number may come out of it
    res = ResolutionData(((1, 0),))
    with pytest.raises(InputError, match="n >= 1"):
        milnor_from_resolution(res, n)
    with pytest.raises(InputError, match="n >= 1"):
        milnor_from_s(s_sequence(res), n)
    with pytest.raises(InputError, match="n >= 1"):
        char_poly(ZetaFunction(()), 1, n)


# -- the sparse sequence and its inversion -------------------------------------

def test_cusp_s_sequence():
    s = s_sequence(CUSP)
    assert dict(s.entries) == {2: 2, 3: 3, 6: -6}
    assert tuple(i for i, _ in s.entries) == (2, 3, 6)
    assert dict(s.entries).get(2) == 2 and dict(s.entries).get(5, 0) == 0
    assert s.total() == -1


def test_lefschetz_from_s_matches_direct_computation():
    s = s_sequence(CUSP)
    seq = lefschetz_from_s(s, 12)
    for k in range(1, 13):
        assert seq[k - 1] == lefschetz(CUSP, k)


def test_inversion_round_trip_on_the_cusp():
    s = s_sequence(CUSP)
    lam = lefschetz_from_s(s, 6)
    assert invert_lefschetz(lam) == s


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
    horizon = max((i for i, _ in s.entries), default=1)
    lam = lefschetz_from_s(s, horizon)
    assert invert_lefschetz(lam) == s


def test_milnor_from_s_agrees():
    s = s_sequence(CUSP)
    assert milnor_from_s(s, 2) == milnor_from_resolution(CUSP, 2)


# -- zeta factors --------------------------------------------------------------

def test_cusp_zeta_string():
    z = zeta(s_sequence(CUSP))
    assert str(z) == "(1-t^2)^-1*(1-t^3)^-1*(1-t^6)^1"
    assert dict(z.factors).get(6) == 1
    assert dict(z.factors).get(5, 0) == 0


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
    assert cp.coeffs[0] == -1


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
    # Phi_3 divides the denominator only: refused before any product is formed
    start = perf_counter()
    with pytest.raises(ConventionViolationError):
        char_poly(ZetaFunction(((1, 2499), (2, 1250), (3, -833), (4, -625))), 1, 2)
    assert perf_counter() - start < 1


def test_charpoly_ends_are_units():
    for l in range(2, 6):
        for n in (2, 3):
            res = homogeneous_resolution(l, n)
            mu = (l - 1) ** n
            cp = char_poly(zeta(s_sequence(res)), mu, n)
            assert cp.degree == mu
            assert abs(cp.coeffs[0]) == 1
            assert abs(cp.coeffs[-1]) == 1


# -- multiplicity bound --------------------------------------------------------

def test_multiplicity_bound_from_first_nonzero():
    seq = lefschetz_sequence(homogeneous_resolution(3, 2), 9)
    bound = multiplicity_bound(seq)
    assert bound <= len(seq)  # found within the horizon
    assert bound == 3


def test_multiplicity_bound_unknown_when_all_zero():
    seq = lefschetz_sequence(homogeneous_resolution(2, 2), 5)
    bound = multiplicity_bound(seq)
    assert bound > len(seq)
    assert bound == len(seq) + 1 == 6
    assert len(seq) == 5


# -- size caps -----------------------------------------------------------------

def test_largest_sizes_are_accepted():
    res = ResolutionData(((MAX_SIZE // 2, -MAX_SIZE), (1, MAX_SIZE)))
    # the default horizon, twice the largest multiplicity, always fits
    assert len(lefschetz_sequence(res, 2 * res.max_multiplicity())) == MAX_SIZE
    assert len(lefschetz_from_s(s_sequence(res), MAX_SIZE)) == MAX_SIZE
    # the largest reference germs: (l-1)^n is at most MAX_SIZE
    n = MAX_SIZE.bit_length() - 1
    assert milnor_from_resolution(homogeneous_resolution(3, n), n) == 2**n
    l = isqrt(MAX_SIZE) + 1
    assert milnor_from_resolution(homogeneous_resolution(l, 2), 2) == (l - 1) ** 2
    assert homogeneous_resolution(MAX_SIZE // 2, 1).strata == ((MAX_SIZE // 2, 1),)
    # x^MAX_SIZE in one variable: numerator t^MAX_SIZE - 1, denominator t - 1
    cp = char_poly(ZetaFunction(((MAX_SIZE, -1),)), MAX_SIZE - 1, 1)
    assert cp.coeffs == (1,) * MAX_SIZE


@pytest.mark.parametrize("build, what", [
    (lambda: lefschetz_sequence(CUSP, MAX_SIZE + 1), "horizon"),
    (lambda: lefschetz_from_s(s_sequence(CUSP), 10**100), "horizon"),
    (lambda: ResolutionData(((MAX_SIZE // 2 + 1, 1),)), "twice a stratum multiplicity"),
    (lambda: ResolutionData(((1, 10**5000),)), "stratum Euler number"),
    (lambda: ResolutionData(((1, -MAX_SIZE - 1),)), "stratum Euler number"),
    (lambda: homogeneous_resolution(3, MAX_SIZE.bit_length()), "(l-1)^n"),
    (lambda: homogeneous_resolution(isqrt(MAX_SIZE) + 2, 2), "(l-1)^n"),
    (lambda: homogeneous_resolution(10**9, 10**9), "(l-1)^n"),
    (lambda: char_poly(ZetaFunction(((3, 1),)), MAX_SIZE + 1, 2), "Milnor number"),
    (lambda: char_poly(ZetaFunction(((1, MAX_SIZE), (2, -1))), MAX_SIZE - 1, 2),
     "numerator degree"),
    (lambda: char_poly(ZetaFunction(((2, -MAX_SIZE),)), 1, 2), "denominator degree"),
], ids=["horizon", "huge-horizon", "multiplicity", "huge-chi", "chi", "fermat-n",
        "fermat-l", "fermat-huge", "mu", "numerator", "denominator"])
def test_sizes_above_the_cap_are_refused(build, what):
    with pytest.raises(InputError, match=f"{re.escape(what)}.* above the maximum of"):
        build()


def test_small_reference_germs_ignore_the_variable_count():
    # (l-1)^n is 0 or 1 for l <= 2, however many variables
    assert milnor_from_resolution(homogeneous_resolution(2, 10**6), 10**6) == 1
    assert milnor_from_resolution(homogeneous_resolution(1, 10**6), 10**6) == 0


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
        s = invert_lefschetz(lam_values)
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
