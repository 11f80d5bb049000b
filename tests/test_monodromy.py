"""Monodromy bookkeeping: Lefschetz numbers of iterates, the associated
sparse sequence, zeta factorisation and the characteristic polynomial."""

import random
import re
from math import comb, isqrt
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from germinv.errors import ConventionViolationError, InputError
from germinv.monodromy import (
    MAX_SIZE,
    CharPoly,
    ResolutionData,
    SSequence,
    ZetaFunction,
    chi_tangent_cone_complement,
    char_poly,
    divisors,
    homogeneous_resolution,
    invert_lefschetz,
    lefschetz_from_s,
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
    seq = lefschetz_from_s(s_sequence(res), 9)
    assert seq == (0, 0, -3, 0, 0, -3, 0, 0, -3)
    assert len(seq) == 9
    assert seq[3 - 1] == -3
    assert seq[1 - 1] == 0


def test_cusp_lefschetz_numbers():
    # only iterates divisible by a stratum multiplicity see that stratum
    lam = lefschetz_from_s(s_sequence(CUSP), 12)
    assert lam[1 - 1] == 0
    assert lam[2 - 1] == 2
    assert lam[3 - 1] == 3
    assert lam[6 - 1] == -1
    assert lam[12 - 1] == -1
    with pytest.raises(InputError):
        lefschetz_from_s(s_sequence(CUSP), 0)


def test_euler_fiber_and_milnor():
    assert s_sequence(CUSP).total() == -1
    assert milnor_from_s(s_sequence(CUSP), 2) == 2
    quadric3 = homogeneous_resolution(2, 3)
    assert milnor_from_s(s_sequence(quadric3), 3) == 1


def test_negative_milnor_is_rejected():
    bad = ResolutionData(((3, 1),))  # would give mu = -2 in two variables
    with pytest.raises(InputError, match="inconsistent monodromy data: .* -2$"):
        milnor_from_s(s_sequence(bad), 2)


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_variable_count_is_rejected(n):
    # (-1)^(n-1) is a float for n <= 0: no Milnor number may come out of it
    res = ResolutionData(((1, 0),))
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
        assert seq[k - 1] == sum(m * chi for m, chi in CUSP.strata if k % m == 0)


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
    s = SSequence(tuple(values.items()))
    horizon = max((i for i, _ in s.entries), default=1)
    lam = lefschetz_from_s(s, horizon)
    assert invert_lefschetz(lam) == s


def test_milnor_from_s_agrees():
    # mu is the same off the strata's s and off its inverted Lefschetz numbers
    s = s_sequence(CUSP)
    assert milnor_from_s(s, 2) == milnor_from_s(invert_lefschetz(lefschetz_from_s(s, 6)), 2) == 2


# -- zeta factors --------------------------------------------------------------

def test_cusp_zeta_string():
    z = zeta(s_sequence(CUSP))
    assert str(z) == "(1-t^2)^-1*(1-t^3)^-1*(1-t^6)^1"
    assert dict(z.factors).get(6) == 1
    assert dict(z.factors).get(5, 0) == 0


def test_trivial_zeta_prints_as_one():
    assert str(zeta(SSequence(()))) == "1"


def test_zeta_divisibility_guard():
    with pytest.raises(InputError):
        zeta(SSequence(((2, 3),)))


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
    # divisor and complement partition projective space, chi(P^{n-1}) = n;
    # a smooth degree-l divisor is l points, a curve of genus (l-1)(l-2)/2
    # or a surface with chi = l^3 - 4l^2 + 6l
    for l in range(2, 6):
        for n in range(2, 5):
            divisor = {2: l, 3: l * (3 - l), 4: l * (l * l - 4 * l + 6)}[n]
            assert divisor + chi_tangent_cone_complement(l, n) == n


def test_projective_cone_chi_known_cases():
    # the cone's chi is n minus its complement's
    assert chi_tangent_cone_complement(3, 2) == -1  # three points on a line
    assert chi_tangent_cone_complement(2, 3) == 1   # smooth conic, a sphere
    assert chi_tangent_cone_complement(3, 3) == 3   # elliptic curve


def test_homogeneous_resolution_single_stratum():
    res = homogeneous_resolution(3, 2)
    assert res.strata == ((3, -1),)
    assert milnor_from_s(s_sequence(res), 2) == 4
    for l in range(2, 6):
        for n in range(2, 5):
            res = homogeneous_resolution(l, n)
            assert len(res.strata) == 1 and res.strata[0][0] == l
            assert milnor_from_s(s_sequence(res), n) == (l - 1) ** n


def test_homogeneous_lefschetz_vanishes_off_multiples():
    for l in range(2, 6):
        lam = lefschetz_from_s(s_sequence(homogeneous_resolution(l, 2)), 3 * l)
        for k in range(1, 3 * l + 1):
            expected = l * chi_tangent_cone_complement(l, 2) if k % l == 0 else 0
            assert lam[k - 1] == expected


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


def _upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomic_product(factors):
    """prod (t^i - 1)^k over the (i, k) pairs, each power by the binomial theorem."""
    out = [1]
    for i, k in factors:
        power = [0] * (i * k + 1)
        for j in range(k + 1):
            power[i * j] = (-1) ** (k - j) * comb(k, j)
        out = _upoly_mul(out, power)
    return out


def reference_char_poly(z, mu, n):
    """Delta as first specified: numerator and denominator multiplied out,
    then one exact division.  Consistency is read off that division alone,
    with no cyclotomic precheck; the errors and their messages are char_poly's."""
    if mu < 1:
        raise InputError("need mu >= 1 to assemble a characteristic polynomial")
    if mu > MAX_SIZE:
        raise InputError(f"Milnor number above the maximum of {MAX_SIZE}")
    if n < 1:
        raise InputError(f"need n >= 1 variables, got {n}")
    sign = (-1) ** n
    exponents = {1: sign}
    for i, e in z.factors:
        exponents[i] = exponents.get(i, 0) + sign * e
    num = [(i, k) for i, k in exponents.items() if k > 0]
    den = [(i, -k) for i, k in exponents.items() if k < 0]
    for what, factors in (("numerator degree", num), ("denominator degree", den)):
        if sum(i * k for i, k in factors) > MAX_SIZE:
            raise InputError(f"{what} above the maximum of {MAX_SIZE}")
    if mu < sum(i * k for i, k in exponents.items()):
        raise ConventionViolationError("the quotient is not a polynomial")
    rem, den = _cyclotomic_product(num), _cyclotomic_product(den)
    quot = [0] * max(len(rem) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + len(den) - 1]
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    if any(rem):
        raise ConventionViolationError("the quotient is not a polynomial")
    if mu > sum(i * k for i, k in exponents.items()):
        raise ConventionViolationError(
            "characteristic polynomial must be monic up to sign with |Delta(0)| = 1"
        )
    return CharPoly(tuple(quot))


@st.composite
def charpoly_inputs(draw):
    """(zeta, mu, n): from strata, from raw zeta factors, or from a product
    prod (t^i - 1)^a_i divided by some t^d - 1 with d | i per numerator
    factor, which is a polynomial; mu is sometimes off by a little."""
    n = draw(st.sampled_from([1, 2, 3, 4] * 3 + [0]))
    sign = (-1) ** n
    kind = draw(st.sampled_from(["strata", "raw", "polynomial"]))
    if kind == "strata":
        strata = draw(st.dictionaries(st.integers(1, 12), st.integers(-12, 12), max_size=4))
        res = ResolutionData(tuple(strata.items()))
        s = s_sequence(res)
        z = zeta(s)
        mu = -sign * (s.total() - 1)
    elif kind == "raw":
        z = ZetaFunction(tuple(draw(st.dictionaries(
            st.integers(1, 12), st.integers(-6, 6), max_size=4)).items()))
        mu = draw(st.integers(-1, 60))
    else:
        exponents = {}
        for i, a in draw(st.dictionaries(st.integers(1, 12), st.integers(1, 4),
                                         min_size=1, max_size=3)).items():
            exponents[i] = exponents.get(i, 0) + a
            for _ in range(draw(st.integers(0, a))):
                d = draw(st.sampled_from(divisors(i)))
                exponents[d] = exponents.get(d, 0) - 1
        # E_i = sign * (e_i + [i = 1]), solved for the zeta exponents e_i
        z = ZetaFunction(tuple((i, sign * k - (i == 1)) for i, k in exponents.items()))
        mu = sum(i * k for i, k in exponents.items())
    mu += draw(st.sampled_from([0, 0, 0, -1, 1, MAX_SIZE]))
    return z, mu, n


def _outcome(build, *args):
    try:
        return build(*args)
    except (InputError, ConventionViolationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(charpoly_inputs())
@example((zeta(s_sequence(CUSP)), 2, 2))
@example((ZetaFunction(((2, -1),)), 3, 2))
@example((ZetaFunction(((1, 2), (2, 1), (3, -1), (4, -1))), 1, 2))
def test_char_poly_matches_the_reference(case):
    expected = _outcome(reference_char_poly, *case)
    assert _outcome(char_poly, *case) == expected


# -- multiplicity bound --------------------------------------------------------

def test_multiplicity_bound_from_first_nonzero():
    seq = lefschetz_from_s(s_sequence(homogeneous_resolution(3, 2)), 9)
    bound = multiplicity_bound(seq)
    assert bound <= len(seq)  # found within the horizon
    assert bound == 3


def test_multiplicity_bound_unknown_when_all_zero():
    seq = lefschetz_from_s(s_sequence(homogeneous_resolution(2, 2)), 5)
    bound = multiplicity_bound(seq)
    assert bound > len(seq)
    assert bound == len(seq) + 1 == 6
    assert len(seq) == 5


# -- size caps -----------------------------------------------------------------

def test_largest_sizes_are_accepted():
    res = ResolutionData(((MAX_SIZE // 2, -MAX_SIZE), (1, MAX_SIZE)))
    # the default horizon, twice the largest multiplicity, always fits
    assert 2 * res.max_multiplicity() == MAX_SIZE
    assert len(lefschetz_from_s(s_sequence(res), MAX_SIZE)) == MAX_SIZE
    # the largest reference germs: (l-1)^n is at most MAX_SIZE
    n = MAX_SIZE.bit_length() - 1
    assert milnor_from_s(s_sequence(homogeneous_resolution(3, n)), n) == 2**n
    l = isqrt(MAX_SIZE) + 1
    assert milnor_from_s(s_sequence(homogeneous_resolution(l, 2)), 2) == (l - 1) ** 2
    assert homogeneous_resolution(MAX_SIZE // 2, 1).strata == ((MAX_SIZE // 2, 1),)
    # x^MAX_SIZE in one variable: numerator t^MAX_SIZE - 1, denominator t - 1
    cp = char_poly(ZetaFunction(((MAX_SIZE, -1),)), MAX_SIZE - 1, 1)
    assert cp.coeffs == (1,) * MAX_SIZE


@pytest.mark.parametrize("build, what", [
    (lambda: lefschetz_from_s(s_sequence(CUSP), MAX_SIZE + 1), "horizon"),
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
    assert milnor_from_s(s_sequence(homogeneous_resolution(2, 10**6)), 10**6) == 1
    assert milnor_from_s(s_sequence(homogeneous_resolution(1, 10**6)), 10**6) == 0


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
