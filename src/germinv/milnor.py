"""Milnor numbers of isolated hypersurface germs, two independent ways.

The primary route is the local standard-basis engine: mu(f) is the staircase
size of the Jacobian ideal.  The second route, :func:`truncated_dim_oracle`,
never touches that engine; it does degree-by-degree exact linear algebra on
truncations and certifies its answer with the local Nakayama argument
(m^D inside I + m^(D+1) forces m^D inside I).  Both the certificate and the
quotient dimension are read off the pivot degrees of one row echelon that
grows a degree layer at a time, each row entering once.  The two are kept
apart on purpose so each can catch the other lying.
"""

from __future__ import annotations

from math import comb

from ._record import record
from .errors import InputError, ZeroPolynomialError
from .gaussian import ONE, GaussianRational
from .localring import DEFAULT_MAX_STEPS, standard_basis
from .poly import Monomial, Poly, mono_degree, mono_mul, monomials_of_degree

DEFAULT_ORACLE_DMAX = 32

METHOD_STANDARD_BASIS = "standard-basis"
METHOD_ORACLE = "truncated-oracle"
METHOD_FAST = "class-A-fast-path"


@record
class MilnorResult:
    """mu plus how it was obtained; mu None means not isolated, except
    from the oracle, where it means undecided.

    mu == 0 happens exactly when the germ is regular at 0 (some partial has
    a nonzero constant term).
    """

    mu: int | None
    method: str
    staircase: frozenset[Monomial] | None = None
    note: str | None = None

    @property
    def isolated(self) -> bool | None:
        """None when undecided: the oracle's missing mu proves nothing."""
        if self.mu is None and self.method == METHOD_ORACLE:
            return None
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

class _Row:
    """One row mono*g of the layered echelon, kept so it can be rebuilt.

    ``layer`` holds the row's reduced terms of the current degree only.  Any
    later layer is the source's (``parts`` is g split by degree, shifted by
    ``shift`` of degree ``offset``) plus the ``steps`` multiples of their
    pivots' layers, times ``inv`` once the row is a pivot (a one-term
    pivot that leaves the replay at once needs none).  No term of degree
    above ``top`` can appear.
    """

    __slots__ = ("shift", "offset", "parts", "steps", "inv", "top", "layer")

    def __init__(self, shift: Monomial, parts: dict, top: int, d: int):
        self.shift = shift
        self.offset = mono_degree(shift)
        self.parts = parts
        self.steps: list[tuple[GaussianRational, _Row]] = []
        self.inv: GaussianRational | None = None
        self.top = top
        self.layer = self.source(d)

    def source(self, d: int) -> dict[Monomial, GaussianRational]:
        shift = self.shift
        return {mono_mul(m, shift): c for m, c in self.parts.get(d - self.offset, ())}

    def rebuild(self, d: int):
        """Replace the layer by the degree-d one; every step pivot must
        already hold its own degree-d layer."""
        layer = self.source(d)
        for factor, pivot in self.steps:
            _add_multiple(layer, factor, pivot.layer)
        inv = self.inv
        self.layer = layer if inv is None else {m: c * inv for m, c in layer.items()}

    def reduce(self, pivots: dict, d: int) -> bool:
        """Reduce the layer against the pivots; True if it becomes one."""
        layer = self.layer
        while layer:
            lead = min(layer)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = self
                if len(layer) == 1 and self.top == d:
                    self.layer = {lead: ONE}  # leaves the replay: no inverse needed
                else:
                    self.inv = inv = ONE / layer[lead]
                    self.layer = {m: c * inv for m, c in layer.items()}
                return True
            factor = -layer[lead]
            self.steps.append((factor, pivot))
            if pivot.top > self.top:
                self.top = pivot.top
            _add_multiple(layer, factor, pivot.layer)
        return False


def _add_multiple(layer: dict, factor: GaussianRational, other: dict):
    """layer += factor * other, dropping terms that cancel."""
    for mono, coeff in other.items():
        old = layer.get(mono)
        if old is None:
            layer[mono] = factor * coeff
            continue
        s = old + factor * coeff
        if s:
            layer[mono] = s
        else:
            del layer[mono]


def truncated_dim_oracle(gens, dmax: int = DEFAULT_ORACLE_DMAX) -> int | None:
    """Quotient dimension by truncated linear algebra; None if unstable.

    One echelon of the rows mono*g, grown a degree layer at a time for
    d = 0..dmax-1 (Lazard's degree-by-degree Macaulay matrices).  A row's
    pivot is its lowest term, so the degree-d pivots span the degree-d
    initial forms of the ideal.  When they number all degree-d monomials,
    m^d lies in the ideal (Nakayama), and the quotient is the monomials of
    degree < d modulo the span truncated there, whose rank is the count of
    lower pivots.  Exact rational arithmetic throughout; None means no
    stabilization by dmax: either the quotient is infinite dimensional or
    dmax is too small for it.

    Each row enters once, at its lowest degree, and holds only its terms of
    the current degree.  Moving to degree d rebuilds every pivot's layer
    from its source and its reduction steps, in creation order; adds the
    rows of lowest degree d; and resumes the pending rows, those that
    cancelled in every degree so far.  A row with no term left at or above
    d leaves the replay.  Layer d of every row is what an untruncated
    echelon holds in degree d, and the lowest monomials of a span do not
    depend on the row order, so the pivot counts per degree are those of a
    fresh echelon of all rows truncated above d.
    """
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise InputError("generators disagree on variable count")
    split = []
    for g in gens:
        parts: dict[int, list] = {}
        for m, c in g.terms().items():
            parts.setdefault(mono_degree(m), []).append((m, c))
        split.append((g.order(), g.degree(), parts))
    pivots: dict[Monomial, _Row] = {}
    replay: list[_Row] = []  # pivots that can still gain terms, in creation order
    pending: list[_Row] = []
    for d in range(dmax):
        live = []
        for row in replay:
            if row.top < d:
                row.layer = {}
            else:
                row.rebuild(d)
                live.append(row)
        for row in pending:
            row.rebuild(d)
        # new rows reduce before the pending ones: the other way round is
        # slower on dense ideals
        rows = [_Row(shift, parts, d - low + high, d)
                for low, high, parts in split if d >= low
                for shift in monomials_of_degree(nvars, d - low)]
        rows += pending
        below = len(pivots)
        replay, pending = live, []
        for row in rows:
            if row.reduce(pivots, d):
                replay.append(row)
            elif row.top > d:
                pending.append(row)
        if len(pivots) - below == comb(d - 1 + nvars, nvars - 1):
            return comb(d - 1 + nvars, nvars) - below
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


@record
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
    if dmax is not None and dmax < 0:
        raise InputError(f"dmax must be non-negative, got {dmax}")
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
