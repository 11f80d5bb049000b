"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each criterion gets a single PASS/FAIL line in the terminal summary (see
conftest.py).  Expected values are exact; there are no tolerances anywhere
except in criterion 6, where a floating-point spot check cross-validates an
otherwise exact integer computation.
"""

import random
from math import gcd

from germinv.corpus import (
    ISOLATED_GERMS,
    NON_SEMIHOMOGENEOUS_FAMILY,
    run_corpus,
)
from germinv.equising import (
    EQUIMULTIPLE_IF_EQUISINGULAR,
    INCONCLUSIVE,
    NOT_EQUISINGULAR,
    discriminate,
)
from germinv.families import FamilyPiece, GermFamily, mu_profile, rescaling_family
from germinv.milnor import (
    is_semihomogeneous,
    local_milnor_at,
    milnor_number,
    milnor_semihomogeneous,
)
from germinv.monodromy import (
    SSequence,
    char_poly,
    chi_projective_cone,
    chi_tangent_cone_complement,
    homogeneous_resolution,
    invert_lefschetz,
    lefschetz,
    lefschetz_from_s,
    milnor_from_resolution,
    zeta,
)
from germinv.poly import fermat, parse_poly
from germinv.vectorfields import VectorField, hamiltonian_field, vf_milnor

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


# -- 1 -------------------------------------------------------------------------

def test_criterion_01_fermat_closed_form_grid():
    """mu(x1^l + ... + xn^l) = (l-1)^n, computed by the standard-basis
    engine, for l = 2..5 and n = 2..3."""
    for l in range(2, 6):
        for n in (2, 3):
            result = milnor_number(fermat(l, n))
            assert result.mu == (l - 1) ** n, (l, n, result.mu)


# -- 2 -------------------------------------------------------------------------

def test_criterion_02_two_engine_corpus_agreement():
    """The standard-basis engine and the independent truncation oracle agree
    on every corpus germ, and both match the catalogued value."""
    entries = run_corpus()
    assert len(entries) >= 20
    for entry in entries:
        assert entry["agreement"], entry
        assert entry["mu"] == entry["muOracle"] == entry["knownMu"], entry


# -- 3 -------------------------------------------------------------------------

def test_criterion_03_class_dichotomy():
    """Nondegenerate leading form: mu equals (order-1)^n exactly.  Degenerate
    leading form: mu exceeds it strictly.  No exceptions in the corpus."""
    for germ in list(ISOLATED_GERMS) + list(NON_SEMIHOMOGENEOUS_FAMILY):
        f = germ.poly()
        if f.order() < 2:
            continue
        n = f.nvars
        bound = (f.order() - 1) ** n
        mu = milnor_number(f).mu
        if is_semihomogeneous(f):
            assert germ.semihomogeneous, germ.name
            assert mu == bound == milnor_semihomogeneous(f), germ.name
        else:
            assert not germ.semihomogeneous, germ.name
            assert mu > bound, germ.name


# -- 4 -------------------------------------------------------------------------

def test_criterion_04_homogeneous_monodromy_grid():
    """For the degree-l reference germ in n variables: iterate Lefschetz
    numbers vanish below l, the resolution reproduces (l-1)^n, and divisor
    plus complement add up to chi of projective space."""
    for l in range(2, 6):
        for n in range(2, 5):
            res = homogeneous_resolution(l, n)
            for k in range(1, l):
                assert lefschetz(res, k) == 0, (l, n, k)
            assert lefschetz(res, l) == l * chi_tangent_cone_complement(l, n)
            assert milnor_from_resolution(res, n) == (l - 1) ** n, (l, n)
            assert (
                chi_projective_cone(l, n) + chi_tangent_cone_complement(l, n) == n
            ), (l, n)


# -- 5 -------------------------------------------------------------------------

def test_criterion_05_moebius_inversion_round_trip():
    """500 random sparse sequences survive the trip through their divisor
    sums and back, with support up to 24 and values up to 100 in size."""
    rng = random.Random(20260823)
    for _ in range(500):
        support = rng.sample(range(1, 25), rng.randint(0, 6))
        values = {i: rng.randint(-100, 100) for i in support}
        s = SSequence.from_map(values)
        horizon = max((i for i, _ in s.entries), default=1)
        lam = lefschetz_from_s(s, horizon)
        assert invert_lefschetz(lam) == s


# -- 6 -------------------------------------------------------------------------

def _cyclotomic(order, cache={1: [-1, 1]}):
    """Coefficients (ascending) of the cyclotomic polynomial, computed by
    exact division of x^order - 1 by the lower-order factors."""
    if order in cache:
        return cache[order]
    num = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            num = _upoly_divexact_int(num, _cyclotomic(d))
    cache[order] = num
    return num


def _upoly_divexact_int(num, den):
    """Exact division of integer polynomials (ascending coefficients); the
    divisor must be monic, the remainder must vanish."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert all(c == 0 for c in num), "division was not exact"
    return quot


def _upoly_mod_int(num, den):
    """Remainder of integer polynomial division by a monic divisor."""
    num = list(num)
    while len(num) >= len(den):
        c = num[-1]
        if c == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        for j, d in enumerate(den):
            num[shift + j] -= c * d
        while num and num[-1] == 0:
            num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _eigenvalue_charpoly(a, b):
    """prod over 0<i<a, 0<j<b of (t - zeta_a^i zeta_b^j), expanded exactly.

    Roots of unity live in Z[x]/(x^L - 1) with L = lcm(a, b); after the
    product every t-coefficient must reduce to a rational integer modulo
    the L-th cyclotomic polynomial.
    """
    L = a * b // gcd(a, b)

    def cyc_mul(u, v):
        out = [0] * L
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        out[(i + j) % L] += ui * vj
        return out

    one = [0] * L
    one[0] = 1
    # polynomial in t whose coefficients are vectors in Z[x]/(x^L - 1)
    poly = [one]
    for i in range(1, a):
        for j in range(1, b):
            e = (i * (L // a) + j * (L // b)) % L
            root = [0] * L
            root[e] = -1
            # multiply poly by (t + root)
            new = [[0] * L for _ in range(len(poly) + 1)]
            for k, coeff in enumerate(poly):
                new[k + 1] = [x + y for x, y in zip(new[k + 1], coeff)]
                new[k] = [x + y for x, y in zip(new[k], cyc_mul(coeff, root))]
            poly = new
    phi = _cyclotomic(L)
    out = []
    for coeff in poly:
        rem = _upoly_mod_int(coeff, phi)
        assert len(rem) <= 1, "coefficient is not Galois invariant"
        out.append(rem[0] if rem else 0)
    return tuple(out)


def test_criterion_06_charpoly_matches_eigenvalue_product():
    """The resolution-driven characteristic polynomial equals the exact
    expansion of prod (t - zeta_a^i zeta_b^j) for x^a + y^b, a, b <= 5."""
    for a in range(2, 6):
        for b in range(2, 6):
            mu = (a - 1) * (b - 1)
            K = a * b // gcd(a, b)
            lam = tuple(
                1 - (a * (k % a == 0) - 1) * (b * (k % b == 0) - 1)
                for k in range(1, K + 1)
            )
            cp = char_poly(zeta(invert_lefschetz(lam)), mu, 2)
            assert cp.degree == mu, (a, b)
            assert abs(cp.coeffs[0]) == 1, (a, b)
            assert cp.coeffs == _eigenvalue_charpoly(a, b), (a, b)
    # two fixed instances, stated explicitly
    node = char_poly(zeta(invert_lefschetz((0, 0))), 1, 2)
    assert str(node) == "t - 1"
    cubic = char_poly(zeta(invert_lefschetz((0, 0, -3))), 4, 2)
    assert str(cubic) == "t^4 - t^3 - t + 1"


# -- 7 -------------------------------------------------------------------------

def test_criterion_07_discriminator_labelled_pairs():
    """Known pairs land on their labelled verdicts, and comparing any corpus
    germ with itself never produces a refutation."""
    labelled = [
        ("x^2 + y^3", "x^5 + y^5", NOT_EQUISINGULAR),
        ("x^3 + y^3", "x^4 + y^4", NOT_EQUISINGULAR),
        ("x + y^2", "x^2 + y^3", NOT_EQUISINGULAR),
        ("x^2*y + y^4", "x^3 + y^3", NOT_EQUISINGULAR),
        ("x^3 + y^3", "x^3 + 2*y^3 + x^2*y^2", EQUIMULTIPLE_IF_EQUISINGULAR),
        ("x^2 + y^2", "x^2 + x*y + y^2", INCONCLUSIVE),
        ("x^2 + y^5", "x^3 + y^3", INCONCLUSIVE),
    ]
    for a, b, verdict in labelled:
        assert discriminate(P(a), P(b)).verdict == verdict, (a, b)
        assert discriminate(P(b), P(a)).verdict == verdict, (b, a)
    for germ in ISOLATED_GERMS:
        f = germ.poly()
        assert discriminate(f, f).verdict != NOT_EQUISINGULAR, germ.name


# -- 8 -------------------------------------------------------------------------

def test_criterion_08_rescaling_profiles():
    """Rescaling a germ with nondegenerate leading form never moves mu at
    the sampled parameters; the classic degenerating family drops by 3."""
    for germ in ISOLATED_GERMS:
        if not germ.semihomogeneous:
            continue
        profile = mu_profile(rescaling_family(germ.poly()))
        assert profile.is_constant(), germ.name
        assert profile.jump == 0, germ.name
    degenerating = GermFamily(
        (FamilyPiece(P("x^3 + y^3"), 0), FamilyPiece(P("x*y"), 1))
    )
    profile = mu_profile(degenerating)
    assert profile.mu_at_zero == 4
    assert [s.mu for s in profile.samples] == [4, 1, 1, 1, 1]
    assert profile.jump == 3


# -- 9 -------------------------------------------------------------------------

def test_criterion_09_conservation_under_morsification():
    """x^3 + y^3 - 3x - 3y splits the central singularity into four simple
    critical points whose local numbers sum to mu = 4."""
    f = P("x^3 + y^3 - 3*x - 3*y")
    points = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    locals_ = [local_milnor_at(f, p).mu for p in points]
    assert locals_ == [1, 1, 1, 1]
    assert sum(locals_) == milnor_number(P("x^3 + y^3")).mu
    g = parse_poly("x^3 - 3*x", ("x",))
    assert [local_milnor_at(g, (v,)).mu for v in (1, -1)] == [1, 1]
    assert sum(local_milnor_at(g, (v,)).mu for v in (1, -1)) == milnor_number(
        parse_poly("x^3", ("x",))
    ).mu


# -- 10 ------------------------------------------------------------------------

def test_criterion_10_foliation_indices():
    """The Hamiltonian field of every plane corpus germ has index mu, and
    the monomial field (x^2, y^3) has index 6."""
    for germ in ISOLATED_GERMS:
        if len(germ.vars) != 2:
            continue
        f = germ.poly()
        assert vf_milnor(hamiltonian_field(f)) == germ.known_mu, germ.name
    field = VectorField((P("x^2"), P("y^3")))
    assert vf_milnor(field) == 6
