"""Milnor numbers of isolated hypersurface germs, two independent ways.

The primary route is the local standard-basis engine: mu(f) is the staircase
size of the Jacobian ideal.  The second route, :func:`truncated_dim_oracle`,
never touches that engine; it does degree-by-degree exact linear algebra on
truncations and certifies its answer with the local Nakayama argument
(m^D inside I + m^(D+1) forces m^D inside I).  Both the certificate and the
quotient dimension are read off the pivot degrees of one row echelon per
horizon.  The two are kept apart on purpose so each can catch the other
lying.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError, ZeroPolynomialError
from .gaussian import ONE, GaussianRational
from .localring import DEFAULT_MAX_STEPS, standard_basis
from .poly import Monomial, Poly, mono_degree, mono_mul, monomials_of_degree

DEFAULT_ORACLE_DMAX = 32

METHOD_STANDARD_BASIS = "standard-basis"
METHOD_ORACLE = "truncated-oracle"
METHOD_FAST = "class-A-fast-path"


@dataclass(frozen=True)
class MilnorResult:
    """mu plus how it was obtained; mu None means not isolated.

    mu == 0 happens exactly when the germ is regular at 0 (some partial has
    a nonzero constant term).
    """

    mu: int | None
    method: str
    staircase: frozenset[Monomial] | None = None
    note: str | None = None

    @property
    def isolated(self) -> bool:
        return self.mu is not None


def _check_germ(f: Poly):
    if not f:
        raise ZeroPolynomialError("expected a nonzero germ")
    if f.constant_term():
        raise InputError("the germ must vanish at the origin")


def milnor_number(f: Poly, max_steps: int = DEFAULT_MAX_STEPS) -> MilnorResult:
    """mu(f) = dim of the local ring modulo the Jacobian ideal."""
    _check_germ(f)
    result = standard_basis(f.jacobian(), max_steps=max_steps)
    return MilnorResult(result.quotient_dim, METHOD_STANDARD_BASIS, result.staircase)


def is_isolated(f: Poly) -> bool:
    """True iff mu(f) is finite (mu = 0, a regular point, counts)."""
    return milnor_number(f).isolated


# -- the independent oracle --------------------------------------------------

def _col_key(mono: Monomial):
    return (mono_degree(mono), mono)


class _Echelon:
    """Row echelon over the Gaussian rationals, rows keyed by monomial.

    A row's pivot is its lowest term in (degree, monomial) order, so every
    pivot row has all its terms in degrees at or above its pivot's.
    """

    def __init__(self):
        self.pivots: dict[Monomial, dict[Monomial, GaussianRational]] = {}

    def add(self, row: dict[Monomial, GaussianRational]):
        """Reduce row (in place) against the pivots; keep it if nonzero."""
        while row:
            lead = min(row, key=_col_key)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = ONE / row[lead]
                self.pivots[lead] = {m: c * inv for m, c in row.items()}
                return
            factor = -row[lead]
            for mono, coeff in pivot.items():
                old = row.get(mono)
                if old is None:
                    row[mono] = factor * coeff
                    continue
                s = old + factor * coeff
                if s:
                    row[mono] = s
                else:
                    del row[mono]


def _ideal_rows(gens: list[Poly], below_degree: int) -> list[dict]:
    """Truncations of monomial * generator spanning the ideal mod m^below."""
    nvars = gens[0].nvars
    rows = []
    for g in gens:
        terms = g.terms()
        for shift in range(below_degree - g.order()):
            for mono in monomials_of_degree(nvars, shift):
                rows.append({
                    mono_mul(m, mono): c for m, c in terms.items()
                    if mono_degree(m) + shift < below_degree
                })
    return rows


def truncated_dim_oracle(gens, dmax: int = DEFAULT_ORACLE_DMAX) -> int | None:
    """Quotient dimension by truncated linear algebra; None if unstable.

    For D = 1..dmax, echelonize all truncations of monomial*generator inside
    polynomials of degree < D.  Pivots sit on each row's lowest term, so the
    top pivots (degree D-1) span exactly the degree-(D-1) part of the span.
    When they number all degree-(D-1) monomials, m^(D-1) lies in the ideal
    (Nakayama), and the quotient is the monomials of degree < D-1 modulo the
    span truncated one level down, whose rank is the count of the other
    pivots.  Exact rational arithmetic throughout; None means no
    stabilization by dmax: either the quotient is infinite dimensional or
    dmax is too small for it.
    """
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise InputError("generators disagree on variable count")
    for d_stop in range(1, dmax + 1):
        span = _Echelon()
        for row in _ideal_rows(gens, d_stop):
            span.add(row)
        top = sum(1 for lead in span.pivots if mono_degree(lead) == d_stop - 1)
        if top == comb(d_stop - 2 + nvars, nvars - 1):
            return comb(d_stop - 2 + nvars, nvars) - (len(span.pivots) - top)
    return None


def milnor_oracle(f: Poly, dmax: int = DEFAULT_ORACLE_DMAX) -> int | None:
    """mu(f) via the truncated oracle only; None if unstable by dmax."""
    _check_germ(f)
    return truncated_dim_oracle(f.jacobian(), dmax)


def oracle_dmax_for(candidate_mu: int) -> int:
    """Cross-check horizon for a candidate mu from the other engine."""
    return 2 * candidate_mu + 4


# -- semihomogeneous fast path -----------------------------------------------

def is_semihomogeneous(f: Poly) -> bool:
    """Whether the initial form of f already has an isolated critical point.

    Preconditions: f nonzero, f(0) = 0, order(f) >= 2.  For such germs the
    Milnor number is (order-1)^nvars exactly; everything else isolated is
    strictly bigger.
    """
    _check_germ(f)
    if f.order() < 2:
        raise InputError("semihomogeneity is only defined for germs of order >= 2")
    return is_isolated(f.initial_form())


def milnor_semihomogeneous(f: Poly) -> int:
    """(order-1)^nvars, valid only on semihomogeneous germs."""
    if not is_semihomogeneous(f):
        raise InputError(
            "the initial form has a non-isolated critical point; "
            "the closed-form Milnor number does not apply"
        )
    return (f.order() - 1) ** f.nvars


@dataclass(frozen=True)
class GermInvariants:
    """The facts every screening check reads about one germ.

    mu is None when the germ is not isolated.  semihomogeneous is read off
    mu: an isolated germ of order m >= 2 in n variables has
    mu >= (m-1)^n, with equality exactly when its initial form has an
    isolated critical point (Fulton, Intersection Theory, Cor. 12.4).  It
    is False for non-isolated germs and for regular germs (order 1), where
    the notion does not apply.
    """

    nvars: int
    order: int
    degree: int
    mu: int | None
    semihomogeneous: bool


def germ_invariants(f: Poly) -> GermInvariants:
    """mu, order, degree and class of f, from one standard basis.

    The class needs no second basis on the initial form: by the
    inequality on GermInvariants, f is semihomogeneous iff
    mu == (order-1)^nvars.
    """
    mu = milnor_number(f).mu
    order = f.order()
    semihomogeneous = order >= 2 and mu == (order - 1) ** f.nvars
    return GermInvariants(f.nvars, order, f.degree(), mu, semihomogeneous)


def milnor_with_method(f: Poly, method: str = METHOD_STANDARD_BASIS,
                       dmax: int | None = None) -> MilnorResult:
    """Dispatcher used by the CLI; method names are part of the wire format."""
    if method == METHOD_STANDARD_BASIS:
        return milnor_number(f)
    if method == METHOD_ORACLE:
        mu = milnor_oracle(f, DEFAULT_ORACLE_DMAX if dmax is None else dmax)
        note = None
        if mu is None:
            note = "no stabilization within dmax: not isolated, or dmax too small"
        return MilnorResult(mu, METHOD_ORACLE, None, note)
    if method == METHOD_FAST:
        return MilnorResult(milnor_semihomogeneous(f), METHOD_FAST, None)
    raise InputError(f"unknown milnor method {method!r}")


# -- local data at points away from the origin -------------------------------

def is_critical_point(f: Poly, point) -> bool:
    return all(not df.evaluate(point) for df in f.jacobian())


def local_milnor_at(f: Poly, point) -> MilnorResult:
    """Milnor number of f at a critical point p, via exact translation.

    Errors if p is not a critical point of f.  The constant term of the
    translate is discarded so the value at p does not matter.
    """
    if not f:
        raise ZeroPolynomialError("expected a nonzero germ")
    if not is_critical_point(f, point):
        raise InputError(f"{tuple(str(GaussianRational.of(c)) for c in point)} "
                         "is not a critical point")
    shifted = f.translate(point)
    shifted = shifted - Poly.constant(f.nvars, shifted.constant_term())
    return milnor_number(shifted)
