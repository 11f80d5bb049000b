"""Milnor numbers of isolated hypersurface germs, two independent ways.

The primary route is the local standard-basis engine: mu(f) is the staircase
size of the Jacobian ideal.  The second route, :func:`truncated_dim_oracle`,
never touches that engine; it does degree-by-degree exact linear algebra on
truncations and certifies its answer with the local Nakayama argument
(m^D inside I + m^(D+1) forces m^D inside I).  Both the certificate and the
quotient dimension are read off the pivot degrees of one row echelon on
packed monomials that grows a degree layer at a time, each row entering
once, no pivot ever normalised and none kept past its own degree; the
rows of one-term generators are counted from the Hilbert numerator of
their monomials, not built, and a row that a Koszul syzygy
g_i*g_j = g_j*g_i makes redundant is never built.
The two are kept apart on purpose so each can catch the other lying.
"""

from __future__ import annotations

from math import comb
from operator import le

from ._record import record
from .errors import EngineError, InputError, ZeroPolynomialError
from .gaussian import GaussianRational, add_multiple, quotient
from .localring import DEFAULT_MAX_STEPS, standard_basis, staircase_of
from .poly import Monomial, Poly, degree_limit_error, pack, packing

DEFAULT_ORACLE_DMAX = 32
# The largest oracle horizon milnor_with_method (the CLI's --dmax) accepts.
# A germ whose partials are all one-term builds no rows and costs well
# under a millisecond at 128 (x^2*y^2 + z^2).  It does not bound germs that
# build rows: in-process on a 2-vCPU Xeon (Python 3.11.7, best of three)
# x^2*y^2 + x^5 + x^3*y^3 takes 0.34 s at 128 and x^2*y^2 + x^5 + x^3*y^3
# + z^2 2.4 s, and (x + y + z)^2*z^2 + x^5 took 150 s already at 64 (one
# run).  milnor_oracle itself is not capped: the corpus cross-check passes
# it oracle_dmax_for(mu), which can be larger.
MAX_ORACLE_DMAX = 128

METHOD_STANDARD_BASIS = "standard-basis"
METHOD_ORACLE = "truncated-oracle"
METHOD_FAST = "class-A-fast-path"


@record
class MilnorResult:
    """mu plus how it was obtained; mu None means not isolated, except
    from the oracle, where it means undecided.

    mu == 0 happens exactly when the germ is regular at 0 (some partial has
    a nonzero constant term).  leading_ideal_gens are the engine's minimal
    leading monomials of a finite staircase, which ``staircase`` lists anew.
    """

    mu: int | None
    method: str
    leading_ideal_gens: tuple[Monomial, ...] | None = None
    note: str | None = None

    @property
    def staircase(self) -> frozenset[Monomial] | None:
        return staircase_of(self.leading_ideal_gens or ())

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


def _check_bounds(f: Poly, mu: int | None):
    """Raise EngineError unless (order-1)^n <= mu <= (degree-1)^n.

    Every isolated germ obeys both bounds: the lower is Fulton,
    Intersection Theory, Cor. 12.4 (the n partials have order >= order-1),
    the upper refined Bezout, Ex. 12.3.1 (they have degree <= degree-1).
    A finite mu outside them can only come from a faulty engine.
    """
    if mu is None:
        return
    low, high = (f.order() - 1) ** f.nvars, (f.degree() - 1) ** f.nvars
    if not low <= mu <= high:
        raise EngineError(f"mu = {mu} is outside the a-priori bounds {low} <= mu <= {high}")


def milnor_number(f: Poly, max_steps: int = DEFAULT_MAX_STEPS) -> MilnorResult:
    """mu(f) = dim of the local ring modulo the Jacobian ideal; a mu outside
    the a-priori bounds raises EngineError."""
    _check_germ(f)
    result = standard_basis(f.jacobian(), max_steps=max_steps)
    mu, gens = result.quotient_dim, result.leading_ideal_gens
    _check_bounds(f, mu)
    return MilnorResult(mu, METHOD_STANDARD_BASIS, None if mu is None else gens)


# -- the independent oracle --------------------------------------------------

def _next_degree(level: list[int], units: list[int], degree: int) -> list[int]:
    """The packed monomials of degree + 1 from level, those of degree, both
    lex-descending: x_i times the tail of level free of x_1 .. x_(i-1)."""
    n = len(units)
    return [k + unit for i, unit in enumerate(units)
            for k in level[len(level) - comb(degree + n - 1 - i, degree):]]


def _new_row(shift: int, terms: list) -> dict[int, tuple]:
    """The first layer of a new row x^shift*g: g's lowest-degree terms, shifted."""
    return {shift + k: c for k, c in terms}


def _carry(rows: list, sources: list, steps: list, news: int, d: int) -> list[dict]:
    """The terms above d, by degree, of the rows that cancelled at degree d
    and have some, formed for them and every pivot they reach through steps."""
    needed = [not layer for layer in rows]
    for i in range(len(rows) - 1, -1, -1):
        if needed[i]:
            for _, pivot in steps[i]:
                needed[pivot] = True
    aboves = [None] * len(rows)
    for i, above in enumerate(sources):
        if needed[i]:
            if i < news:
                k, tail = above
                above = {d + o: {k + m: c for m, c in terms} for o, terms in tail}
            for factor, pivot in steps[i]:
                for e, terms in aboves[pivot].items():
                    add_multiple(above.setdefault(e, {}), factor, terms.items())
            aboves[i] = above
    return [above for above, layer in zip(aboves, rows) if above and not layer]


def _numerator(monomials: list[Monomial]) -> dict[int, int]:
    """N(t), degree -> coefficient, with N(t)/(1-t)^n the Hilbert series of
    C[x]/I for the ideal I the monomials generate.

    The monomials fall into groups of disjoint support, and N is the
    product of the groups' numerators.  In a group, minimalised, the last
    monomial m and the rest J give N(J + (m)) = N(J) - t^|m|*N(J : m), where
    J : m is generated by each x^b/gcd(x^b, m)."""
    groups: dict[int, list] = {}  # the support bits -> the monomials of each group
    for a in monomials:
        support = 0
        for i, e in enumerate(a):
            if e:
                support |= 1 << i
        members = [a]
        for bits in [bits for bits in groups if bits & support]:
            support |= bits
            members += groups.pop(bits)
        groups[support] = members
    result = {0: 1}
    for members in groups.values():
        if len(members) > 1:
            members = list(dict.fromkeys(members))
            members = [a for a in members if not any(b != a and all(map(le, b, a)) for b in members)]
        *rest, m = members
        factor, colon = {0: 1}, {0: 1}
        if rest:
            factor = _numerator(rest)
            colon = _numerator([tuple(max(x - y, 0) for x, y in zip(b, m)) for b in rest])
        for e, c in colon.items():
            factor[e + sum(m)] = factor.get(e + sum(m), 0) - c
        product: dict[int, int] = {}
        for e, c in result.items():
            for f, b in factor.items():
                product[e + f] = product.get(e + f, 0) + c * b
        result = product
    return result


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
    dmax is too small for it.  A degree whose rows would reach the packed
    monomials' DEGREE_LIMIT raises IterationLimitError before it is built.

    Each row enters once, at its lowest degree, and holds only its layer,
    its terms of the current degree d.  A one-term generator c*x^a builds no
    rows: its rows of degree d are c times the degree-d monomials x^a
    divides.  Once per call :func:`_numerator` gives the Hilbert numerator
    N(t) of the quotient by these monomials, and with c_e the t^e
    coefficient of 1 - N(t), marked(d) = sum c_e*C(d-e+n-1, n-1) degree-d
    monomials are divisible by one of them: the n-th running sum of the
    c_e, as C(j+n-1, n-1) is the t^j coefficient of (1-t)^-n.  Each call of
    its colon recursion makes two on fewer monomials per group, so k
    monomials cost at most 2^k - 1 calls; monomials of disjoint support, as
    the partials of a Brieskorn-Pham or Morse germ, cost one, and the k
    partials of one monomial, whose colons are all principal, 2k - 1.  At
    degree d the new rows reduce, then the pending ones, which cancelled in
    every degree so far: a lead that one of the monomials divides is
    deleted, and each step against a pivot is recorded, as (factor, pivot),
    for degree d only.  (i) A row reduced at degree d has its lead there, so
    a pivot of degree d is met only at degree d.  (ii) The terms above d of
    a row are its own plus its steps' multiples of their pivots' terms above
    d (a one-term row, which a deletion subtracts, has none); formed in
    reduction order for every row that a pending row reaches through steps,
    they give each pending row what the untruncated echelon holds.  (iii) So
    layer d of every row is the untruncated echelon's.  The one-term rows of
    degree d span exactly the marked monomials, and no pivot lands on one
    (its lead would have been deleted), so the lowest monomials of the
    degree-d span number marked(d) plus the pivots; as they do not depend on
    the row order, every degree's count is that of a fresh echelon of the
    rows truncated above d, and so is every result, None included.

    The row m*g_j of a generator of two or more terms is never built when
    the lead x^a of an earlier generator g_i (i < j; a lead c*x^a is the
    lowest-degree, local-order-largest term) divides m = m'*x^a: the case
    of Faugère's F5 criterion on the generators' own leads.  By
    g_i*g_j = g_j*g_i, c*m*g_j is m'*g_i*g_j, a combination of rows of g_i,
    minus m'*(g_i - c*x^a)*g_j, one of rows of g_j at shifts local-order
    smaller than m.  Induction on (j, shift) over the finitely many rows
    that enter at degree <= d ends, and rows that enter above d change only
    terms above d; so every dropped row, truncated above d, is a combination
    of built ones, every degree's pivot count is unchanged, and so is every
    result, None included.
    """
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("generators disagree on variable count")
    shift, guards, limit = packing(nvars)
    split = []  # (degree, its terms, the (offset, terms) above, earlier leads) of each 2+-term g
    ones: dict[int, Monomial] = {}  # packed -> exponents, the monomial of each one-term g
    leads = []
    top_degree = 0
    for g in gens:
        parts: dict[int, list] = {}
        for m, c in g._terms.items():
            parts.setdefault(sum(m), []).append((pack(m), c))
        low, high = min(parts), max(parts)
        lead = min(parts[low])[0]
        if len(g) == 1:
            ones[lead] = next(iter(g._terms))
        else:
            tail = [(e - low, terms) for e, terms in parts.items() if e > low]
            split.append((low, parts[low], tail, tuple(leads)))
        leads.append(lead)
        top_degree = max(top_degree, high)
    by_degree = {e: -c for e, c in _numerator(list(ones.values())).items()}  # e -> c_e
    by_degree[0] += 1
    lows = [low for low, *_ in split]
    lowest, reach = min(lows, default=dmax), max(lows, default=dmax)
    units = [pack((0,) * i + (1,) + (0,) * (nvars - 1 - i)) for i in range(nvars)]
    levels = [[0]]  # levels[s]: the packed shifts of degree s, lex-descending
    sums = [0] * nvars  # the running sums of the c_e that end in marked(d)
    below = 0  # the marked monomials and pivots of degree < d
    pending: list[dict] = []  # the terms above d - 1, by degree, of each row cancelled so far
    for d in range(dmax):
        if (d + top_degree) << shift >= limit:
            raise degree_limit_error()
        if d > lowest:  # degree d needs shifts of degree d - reach .. d - lowest
            levels.append(_next_degree(levels[-1], units, d - lowest - 1))
            if d > reach:
                levels[d - reach - 1] = None
        pivots: dict[int, int] = {}  # lead -> its row's place in rows
        # new rows reduce before the pending ones: the other way round is
        # slower on dense ideals
        rows = []  # the degree-d layer of each row, in reduction order
        sources = []  # (shift, tail) of each new row, then each resumed row's terms above d
        for low, first, tail, earlier in split:
            if d >= low:
                shifts = levels[d - low]
                for a in earlier:  # no row whose shift an earlier lead divides
                    shifts = [k for k in shifts if (k + guards - a) & guards != guards]
                rows += [_new_row(k, first) for k in shifts]
                sources += [(k, tail) for k in shifts]
        news = len(rows)
        waiting = []  # pending rows with no term of degree d
        for above in pending:
            layer = above.pop(d, None)
            if layer:
                rows.append(layer)
                sources.append(above)
            elif above:
                waiting.append(above)
        steps = []
        for i, layer in enumerate(rows):
            taken = []
            while layer:
                lead = min(layer)
                pivot = pivots.get(lead)
                if pivot is None:
                    for one in ones:  # a marked lead goes, an unmarked one is a pivot
                        if (lead + guards - one) & guards == guards:
                            del layer[lead]
                            break
                    else:
                        pivots[lead] = i
                        break
                    continue
                a, b, e = layer[lead]
                factor = quotient((-a, -b, e), rows[pivot][lead])
                taken.append((factor, pivot))
                add_multiple(layer, factor, rows[pivot].items())
            steps.append(taken)
        marked = by_degree.get(d, 0)
        for k in range(nvars):
            marked = sums[k] = sums[k] + marked
        found = marked + len(pivots)
        if found == comb(d + nvars - 1, nvars - 1):
            return comb(d - 1 + nvars, nvars) - below
        below += found
        if rows:
            waiting += _carry(rows, sources, steps, news, d)
        pending = waiting
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
    return milnor_number(f.initial_form()).mu is not None


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
    mu == (order-1)^nvars.  A mu outside the a-priori bounds raises
    EngineError.
    """
    mu = milnor_number(f).mu
    order = f.order()
    semihomogeneous = order >= 2 and mu == (order - 1) ** f.nvars
    return GermInvariants(f.nvars, order, f.degree(), mu, semihomogeneous)


def milnor_with_method(f: Poly, method: str = METHOD_STANDARD_BASIS,
                       dmax: int | None = None) -> MilnorResult:
    """Dispatcher used by the CLI; method names are part of the wire format.

    A mu outside the a-priori bounds raises EngineError, whatever the method.
    """
    if dmax is not None and dmax < 0:
        raise InputError(f"dmax must be non-negative, got {dmax}")
    if dmax is not None and dmax > MAX_ORACLE_DMAX:
        raise InputError(f"dmax above the maximum of {MAX_ORACLE_DMAX}")
    if method == METHOD_STANDARD_BASIS:
        return milnor_number(f)
    if method == METHOD_ORACLE:
        mu = milnor_oracle(f, DEFAULT_ORACLE_DMAX if dmax is None else dmax)
        note = None
        if mu is None:
            note = "no stabilization within dmax: not isolated, or dmax too small"
        result = MilnorResult(mu, METHOD_ORACLE, None, note)
    elif method == METHOD_FAST:
        if not is_semihomogeneous(f):
            raise InputError("the initial form has a non-isolated critical point; "
                             "the closed-form Milnor number does not apply")
        result = MilnorResult((f.order() - 1) ** f.nvars, METHOD_FAST, None)
    else:
        raise InputError(f"unknown milnor method {method!r}")
    _check_bounds(f, result.mu)
    return result


# -- local data at points away from the origin -------------------------------

def local_milnor_at(f: Poly, point) -> MilnorResult:
    """Milnor number of f at a critical point p, via exact translation.

    Errors if p is not a critical point of f.  The constant term of the
    translate is discarded so the value at p does not matter.
    """
    if not f:
        raise ZeroPolynomialError("expected a nonzero germ")
    if any(df.evaluate(point) for df in f.jacobian()):
        raise InputError(f"{tuple(str(GaussianRational.of(c)) for c in point)} "
                         "is not a critical point")
    shifted = f.translate(point)
    shifted = shifted - Poly.constant(f.nvars, shifted.constant_term())
    return milnor_number(shifted)
