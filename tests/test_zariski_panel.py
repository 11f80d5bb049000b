"""The Zariski panel: what `discriminate` decides about the paper's question.

Zariski asked whether the multiplicity (the order) of a germ is a
topological invariant.  The panel holds pairs whose answer is known and
counts what `discriminate` does with them.

* Must refute: Brieskorn-Pham germs x_1^a_1 + ... + x_n^a_n with equal n
  and equal mu = prod(a_i - 1) but different order min(a_i).  In two
  variables the order is a topological invariant of a plane curve
  (Zariski 1932); in any number, their monodromy (Milnor-Orlik 1970)
  tells them apart, and it is a topological invariant (Le 1973).  Today
  `discriminate` refutes only through mu, so the count is pinned at 0.  A
  rule that refutes more raises the pin.
* Must never refute, as a hard gate: pairs known to be topologically
  equivalent.  Before a pair counts, the engine confirms its equal mu.

Everything is deterministic; no Hypothesis.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from germinv.equising import NOT_EQUISINGULAR, discriminate
from germinv.gaussian import GaussianRational
from germinv.milnor import milnor_number, milnor_oracle, oracle_dmax_for
from germinv.poly import Poly, parse_poly

# refuted "must refute" pairs; raise it with each rule that refutes more
REFUTED_PINNED = 0


def exponent_vectors():
    """Exponents 2-30 in two variables and 2-12 in three, mu <= 400."""
    return [e for n, top in ((2, 30), (3, 12))
            for e in combinations_with_replacement(range(2, top + 1), n)
            if prod(a - 1 for a in e) <= 400]


def brieskorn_pham(exponents, coeffs=None):
    n = len(exponents)
    coeffs = coeffs or [1] * n
    return Poly(n, {tuple(a if j == i else 0 for j in range(n)): c
                    for i, (a, c) in enumerate(zip(exponents, coeffs))})


def must_refute_pairs():
    return [(a, b) for a, b in combinations(exponent_vectors(), 2)
            if len(a) == len(b) and min(a) != min(b)
            and prod(x - 1 for x in a) == prod(x - 1 for x in b)]


def never_refuted(f, g):
    """Both argument orders are left unrefuted."""
    return (discriminate(f, g).verdict != NOT_EQUISINGULAR
            and discriminate(g, f).verdict != NOT_EQUISINGULAR)


def test_the_panel_holds_585_germs_and_327_pairs():
    assert len(exponent_vectors()) == 585
    pairs = must_refute_pairs()
    assert (sum(len(a) == 2 for a, _ in pairs), sum(len(a) == 3 for a, _ in pairs)) == (186, 141)


def test_the_oracle_reads_every_panel_mu_off_its_count():
    # every partial a_i*x_i^(a_i-1) is one term, so the oracle builds no row
    # and its whole answer is the count of the monomials they divide, here
    # at horizons up to oracle_dmax_for(400) = 804
    for e in exponent_vectors():
        mu = prod(a - 1 for a in e)
        assert milnor_oracle(brieskorn_pham(e), oracle_dmax_for(mu)) == mu, e


def test_the_refuted_count_is_pinned():
    refuted = 0
    for a, b in must_refute_pairs():
        report = discriminate(brieskorn_pham(a), brieskorn_pham(b))
        mu = prod(x - 1 for x in a)
        assert [g.mu for g in report.germs] == [mu, mu], (a, b)
        refuted += report.verdict == NOT_EQUISINGULAR
    assert refuted == REFUTED_PINNED


def test_sign_and_scale_changes_are_never_refuted():
    # -f(2*x, -y, 3*z) is f after a linear change of coordinates and a
    # change of sign: the same zero set up to a diffeomorphism
    for e in exponent_vectors():
        f = brieskorn_pham(e)
        g = brieskorn_pham(e, [-(s ** a) for s, a in zip((2, -1, 3), e)])
        assert never_refuted(f, g), e


BRIANCON_SPEDER = "z^5 + ({t})*y^6*z + y^7*x + x^15"


@pytest.mark.parametrize("t", ["1", "-1", "2", "1/2", "i"])
def test_the_briancon_speder_family_is_never_refuted(t):
    # F_t is quasihomogeneous of weights (1/15, 2/15, 1/5) for every t and
    # the family is topologically trivial (Briancon & Speder 1975); both
    # engines first confirm mu = 14 * 13/2 * 4 = 364 at each end
    f0, ft = (parse_poly(BRIANCON_SPEDER.format(t=s), ("x", "y", "z")) for s in ("0", t))
    for f in (f0, ft):
        assert milnor_number(f).mu == 364
        assert milnor_oracle(f, dmax=oracle_dmax_for(364)) == 364
    assert never_refuted(f0, ft)


def plane_deformations():
    """(f_w, f_w + c*x^i*y^j) for f_w = x^a + y^b, 2 <= a <= b <= 10, and
    each x^i*y^j, 0 < i < a, just above the Newton line: i/a + j/b > 1."""
    coeffs = (1, -2, GaussianRational(0, 1), Fraction(1, 3))
    for a, b in combinations_with_replacement(range(2, 11), 2):
        f = brieskorn_pham((a, b))
        for i in range(1, a):
            j = b * (a - i) // a + 1
            assert Fraction(i, a) + Fraction(j, b) > 1
            yield f, f + Poly(2, {(i, j): coeffs[(a + b + i) % len(coeffs)]})


def test_plane_semiquasihomogeneous_deformations_are_never_refuted():
    # f_w + t*g with g of weighted degree > 1 keeps mu(f_w) for every t
    # (Arnold), so by Le-Ramanujam (n = 2) f_w + g is topologically f_w
    pairs = list(plane_deformations())
    assert len(pairs) == 165
    for f, g in pairs:
        assert milnor_number(g).mu == milnor_number(f).mu, str(g)
        assert never_refuted(f, g), str(g)
