"""Milnor numbers of isolated hypersurface germs, two independent ways.

The primary route is the local standard-basis engine: mu(f) is the staircase
size of the Jacobian ideal.  The second route, :func:`truncated_dim_oracle`,
never touches that engine: one row echelon on packed monomials, grown a
degree at a time, certifies a finite quotient by the local Nakayama
argument (m^D inside I + m^(D+1) forces m^D inside I) and an infinite one
by outgrowing the Bezout bound of its own generators.
The two are kept apart on purpose so each can catch the other lying.
"""

from __future__ import annotations

from math import comb
from operator import le

from ._record import record
from .errors import EngineError, InputError, IterationLimitError, ZeroPolynomialError
from .gaussian import GaussianRational, add_multiple, quotient
from .localring import DEFAULT_MAX_STEPS, bezout_bound, standard_basis, staircase_of
from .poly import Monomial, Poly, degree_limit_error, pack, packing

ORACLE_MAX_TERMS = 1_000_000  # the oracle's work budget, in terms formed

METHOD_STANDARD_BASIS = "standard-basis"
METHOD_ORACLE = "truncated-oracle"
METHOD_FAST = "class-A-fast-path"


@record
class MilnorResult:
    """mu plus how it was obtained; mu None means not isolated.

    mu == 0 happens exactly when the germ is regular at 0 (some partial has
    a nonzero constant term).  leading_ideal_gens are the engine's minimal
    leading monomials of a finite staircase, which ``staircase`` lists anew.
    """

    mu: int | None
    method: str
    leading_ideal_gens: tuple[Monomial, ...] | None = None

    @property
    def staircase(self) -> frozenset[Monomial] | None:
        return staircase_of(self.leading_ideal_gens or ())

    @property
    def isolated(self) -> bool:
        return self.mu is not None


def _check_germ(f: Poly):
    if not f:
        raise ZeroPolynomialError("expected a nonzero germ")
    if f.constant_term():
        raise InputError("the germ must vanish at the origin")


def checked_dim(gens, dim: int | None, what: str = "mu") -> int | None:
    """dim, an engine's quotient dimension for n generators in n variables,
    once checked: a finite one lies in prod(order) <= dim <= the bezout_bound
    of the nonzero generators (Fulton, Intersection Theory, Cor. 12.4 and
    Ex. 12.3.1), so one outside comes from a faulty engine: EngineError."""
    low, degrees = 1, []
    for sums in ([sum(m) for m in g._terms] for g in gens if g):
        low *= min(sums)
        degrees.append(max(sums))
    high = bezout_bound(degrees, len(gens))
    if dim is not None and not low <= dim <= high:
        raise EngineError(f"{what} = {dim} is outside the a-priori bounds "
                          f"{low} <= {what} <= {high}")
    return dim


def milnor_number(f: Poly, max_steps: int = DEFAULT_MAX_STEPS) -> MilnorResult:
    """mu(f) = dim of the local ring modulo the Jacobian ideal, via :func:`checked_dim`."""
    _check_germ(f)
    jacobian = f.jacobian()
    result = standard_basis(jacobian, max_steps=max_steps)
    mu, gens = checked_dim(jacobian, result.quotient_dim), result.leading_ideal_gens
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


def _spend(formed: int) -> int:  # formed, if within the oracle's work budget
    if formed > ORACLE_MAX_TERMS:
        raise IterationLimitError(f"the truncated oracle would form more than "
                                  f"{ORACLE_MAX_TERMS} terms, its work budget")
    return formed


def _carry(rows: list, sources: list, steps: list, news: int, d: int, formed: int) -> tuple:
    """formed plus the terms this forms, and the terms above d, by degree,
    of the rows that cancelled at degree d and have some, formed for them
    and every pivot they reach through steps."""
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
                formed += sum(map(len, above.values()))
            for factor, pivot in steps[i]:
                for e, terms in aboves[pivot].items():
                    formed += len(terms)
                    add_multiple(above.setdefault(e, {}), factor, terms.items())
            _spend(formed)
            aboves[i] = above
    return formed, [above for above, layer in zip(aboves, rows) if above and not layer]


def _numerator(monomials: list[Monomial]) -> dict[int, int]:
    """N(t), degree -> coefficient, with N(t)/(1-t)^n the Hilbert series of
    C[x]/I for the ideal I the monomials generate.

    The monomials fall into groups of disjoint support, and N is the
    product of the groups' numerators.  In a group, minimalised, the last
    monomial m and the rest J give N(J + (m)) = N(J) - t^|m|*N(J : m), where
    J : m is generated by each x^b/gcd(x^b, m).  k monomials cost at most
    2^k - 1 calls; k of disjoint support, as a Brieskorn-Pham Jacobian's, one."""
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


def truncated_dim_oracle(gens, dmax: int | None = None) -> int | None:
    """Quotient dimension by truncated linear algebra; None if infinite.

    One echelon of the rows mono*g, grown a degree layer at a time for
    d = 0, 1, ... (Lazard's degree-by-degree Macaulay matrices).  A row's
    pivot is its lowest term, so the degree-d pivots span the degree-d
    initial forms of the ideal.  When they number all degree-d monomials,
    m^d lies in the ideal (Nakayama), and the quotient is the monomials of
    degree < d modulo the span truncated there, whose rank is the count of
    lower pivots.  Exact rational arithmetic throughout.

    None proves the quotient infinite; with an explicit dmax it may also
    mean no stabilization by degree dmax - 1.  A finite quotient has dim
    O/J <= B = :func:`~germinv.localring.bezout_bound` (proved there).
    After a degree d that did not stop, the monomials of degree <= d less
    its marks and pivots count dim O/(J + m^(d+1)) <= dim O/J; once they
    outnumber B the result is None, by degree B as each adds at least one.
    Past ORACLE_MAX_TERMS terms formed or read (levels of shifts, filter
    passes, first layers, multiples, tails, pending rows), or for rows that
    would reach the packed monomials' DEGREE_LIMIT, it raises IterationLimitError.

    Each row enters once, at its lowest degree, and holds only its terms
    of the current degree d.  A one-term generator c*x^a builds no rows:
    its rows of degree d are c times the degree-d monomials x^a divides.
    With c_e the t^e coefficient of 1 - N(t), N the :func:`_numerator` of
    these monomials, marked(d) = sum c_e*C(d-e+n-1, n-1) degree-d monomials
    are divisible by one of them: the n-th running sum of the c_e, as
    C(j+n-1, n-1) is the t^j coefficient of (1-t)^-n.  At degree d the new
    rows reduce, then the pending ones, which cancelled in every degree so
    far: a lead that one of the monomials divides is deleted, and each step
    against a pivot is recorded, as (factor, pivot), for degree d only.
    (i) A row reduced at degree d has its lead there, so a pivot of degree
    d is met only at degree d.  (ii) The terms above d of a row are its
    own plus its steps' multiples of their pivots' terms above d (a
    one-term row, which a deletion subtracts, has none); formed in
    reduction order for every row that a pending row reaches through
    steps, they give each pending row what the untruncated echelon holds.
    (iii) So layer d of every row is the untruncated echelon's.  The
    one-term rows of degree d span exactly the marked monomials, and no
    pivot lands on one (its lead would have been deleted), so the lowest
    monomials of the degree-d span number marked(d) plus the pivots,
    independent of the row order: every degree's count, and so every
    result, is that of a fresh echelon of the rows truncated above d.

    The row m*g_j of a generator of two or more terms is never built when
    the lead x^a of an earlier generator g_i (i < j; a lead c*x^a is the
    lowest-degree, local-order-largest term) divides m = m'*x^a: Faugère's
    F5 criterion on the generators' own leads.  By g_i*g_j = g_j*g_i,
    c*m*g_j is m'*g_i*g_j, a combination of rows of g_i, minus
    m'*(g_i - c*x^a)*g_j, one of rows of g_j at shifts local-order smaller
    than m.  Nor when a one-term generator's monomial divides m: each term
    of m*g_j is then marked.  Induction on (j, shift) over the finitely
    many rows entering at degree <= d ends, and later rows change only
    terms above d; so every dropped row, truncated above d, is a
    combination of built and one-term rows, and no result changes.
    """
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("generators disagree on variable count")
    shift, guards, limit = packing(nvars)
    ones = {pack(m): m for g in gens if len(g) == 1 for m in g._terms}  # of the one-term gs
    split = []  # (degree, its terms, the (offset, terms) above, filters) of each 2+-term g
    leads, degrees = [], []  # the lead and the top degree of each g
    for g in gens:
        parts: dict[int, list] = {}
        for m, c in g._terms.items():
            parts.setdefault(sum(m), []).append((pack(m), c))
        low, high = min(parts), max(parts)
        if len(g) > 1:  # no row whose shift an earlier lead or a one-term g divides
            tail = [(e - low, terms) for e, terms in parts.items() if e > low]
            split.append((low, parts[low], tail, tuple(dict.fromkeys(leads + list(ones)))))
        leads.append(min(parts[low])[0])
        degrees.append(high)
    bound, top_degree = bezout_bound(degrees, nvars), max(degrees)
    horizon = bound + 1 if dmax is None else dmax
    by_degree = {e: (e == 0) - c for e, c in _numerator(list(ones.values())).items()}  # e -> c_e
    lows = [low for low, *_ in split]
    lowest, reach = min(lows, default=horizon), max(lows, default=horizon)
    units = [pack((0,) * i + (1,) + (0,) * (nvars - 1 - i)) for i in range(nvars)]
    levels = [[0]]  # levels[s]: the packed shifts of degree s, lex-descending
    sums = [0] * nvars  # the running sums of the c_e that end in marked(d)
    standard = 0  # the monomials of degree < d neither marked nor a pivot
    pending: list[dict] = []  # the terms above d - 1, by degree, of each row cancelled so far
    formed = 0  # the terms formed or looked at so far
    for d in range(horizon):
        if (d + top_degree) << shift >= limit:
            raise degree_limit_error()
        if d > lowest:  # degree d needs shifts of degree d - reach .. d - lowest
            formed = _spend(formed + comb(d - lowest + nvars - 1, nvars - 1))
            levels.append(_next_degree(levels[-1], units, d - lowest - 1))
            if d > reach:
                levels[d - reach - 1] = None
        pivots: dict[int, int] = {}  # lead -> its row's place in rows
        # new rows reduce before the pending ones: the other way round is
        # slower on dense ideals
        rows = []  # the degree-d layer of each row, in reduction order
        sources = []  # (shift, tail) of each new row, then each resumed row's terms above d
        for low, first, tail, filters in split:
            if d >= low:
                shifts = levels[d - low]
                formed += len(filters) * len(shifts)
                for a in filters:
                    shifts = [k for k in shifts if (k + guards - a) & guards != guards]
                formed = _spend(formed + len(first) * len(shifts))
                rows += [_new_row(k, first) for k in shifts]
                sources += [(k, tail) for k in shifts]
        news = len(rows)
        waiting = []  # pending rows with no term of degree d
        formed += len(pending)
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
                formed += len(rows[pivot])
                if formed > ORACLE_MAX_TERMS:  # not a _spend call per step: this loop is hot
                    _spend(formed)
                a, b, e = layer[lead]
                factor = quotient((-a, -b, e), rows[pivot][lead])
                taken.append((factor, pivot))
                add_multiple(layer, factor, rows[pivot].items())
            steps.append(taken)
        marked = by_degree.get(d, 0)
        for k in range(nvars):
            marked = sums[k] = sums[k] + marked
        unfound = comb(d + nvars - 1, nvars - 1) - marked - len(pivots)
        if not unfound:
            return standard
        standard += unfound
        if standard > bound:
            return None
        if rows:
            formed, carried = _carry(rows, sources, steps, news, d, formed)
            waiting += carried
        pending = waiting
    return None


def milnor_oracle(f: Poly, dmax: int | None = None) -> int | None:
    """mu(f) via the truncated oracle only; None if not isolated (or undecided by dmax)."""
    _check_germ(f)
    return truncated_dim_oracle(f.jacobian(), dmax)


def oracle_dmax_for(candidate_mu: int) -> int:
    """An explicit oracle horizon for a candidate mu from the other engine;
    the oracle needs none, and perfbench's dense sweep passes this one."""
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
    """mu, order, degree and class of f, from one standard basis: the class
    is read off mu (see GermInvariants); mu goes through :func:`checked_dim`."""
    mu = milnor_number(f).mu
    order = f.order()
    semihomogeneous = order >= 2 and mu == (order - 1) ** f.nvars
    return GermInvariants(f.nvars, order, f.degree(), mu, semihomogeneous)


def milnor_with_method(f: Poly, method: str = METHOD_STANDARD_BASIS) -> MilnorResult:
    """Dispatcher used by the CLI; method names are part of the wire format.
    Every method's mu goes through :func:`checked_dim`."""
    if method == METHOD_STANDARD_BASIS:
        return milnor_number(f)
    _check_germ(f)
    jacobian = f.jacobian()
    if method == METHOD_ORACLE:
        mu = truncated_dim_oracle(jacobian)
    elif method == METHOD_FAST:
        if not is_semihomogeneous(f):
            raise InputError("the initial form has a non-isolated critical point; "
                             "the closed-form Milnor number does not apply")
        mu = (f.order() - 1) ** f.nvars
    else:
        raise InputError(f"unknown milnor method {method!r}")
    return MilnorResult(checked_dim(jacobian, mu), method, None)


# -- local data at points away from the origin -------------------------------

def local_milnor_at(f: Poly, point) -> MilnorResult:
    """Milnor number of f at a critical point p, via exact translation.

    Errors if p is not a critical point of f.  The constant term of the
    translate is discarded so the value at p does not matter, and a zero
    translate is refused by milnor_number.
    """
    if any(df.evaluate(point) for df in f.jacobian()):
        raise InputError(f"{tuple(str(GaussianRational.of(c)) for c in point)} "
                         "is not a critical point")
    shifted = f.translate(point)
    shifted = shifted - Poly.constant(f.nvars, shifted.constant_term())
    return milnor_number(shifted)
