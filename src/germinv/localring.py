"""Standard bases in the local ring of germs at the origin.

The monomial order is fixed: anti-graded reverse lexicographic, i.e. a
monomial of smaller total degree is larger, with reverse-lex breaking ties.
That makes 1 the largest monomial, so leading terms pick out the lowest
order part of a germ, which is what local intersection multiplicities see.
No other order is offered on purpose; every consumer in this package wants
this one.

Division is Mora's weak normal form: reducers are chosen by minimal ecart
(degree spread between a polynomial and its leading monomial) and the
intermediate remainder itself joins the reducer list whenever its ecart is
smaller than every available reducer's, which is what makes the loop
terminate in the local setting.  The result is a weak normal form: for the
computed h there is a unit u with u*f = (combination of reducers) + h, and
that is exactly what leading-ideal and dimension computations need.

Completion works below a corner k with m^k inside the ideal (Greuel &
Pfister, *A Singular Introduction to Commutative Algebra*, §1.7): terms
of degree >= k are dropped from basis elements, s-polynomials (never
formed) and normal-form steps, pairs with an lcm of degree >= k are
skipped, and k falls to 1 + the top degree of the staircase of the
leading monomials found whenever that is lower.  k starts at the
generators' own corner if their leading monomials have one, and the run
is exact.  Else J + m^N is completed for N = 8, 16, ..., k starting at
N: an attempt that ends with k < N has m^(N-1) in J + m^N, so in J
(Nakayama), and is exact; as an m-primary J has k <= dim O/J <=
:func:`bezout_bound`, a failed attempt past that bound proves dim O/J
infinite.  Nothing is read from the oracle in :mod:`germinv.milnor`, so
the two Milnor engines stay independent.

Internally a monomial is one packed int (:mod:`germinv.poly`): a larger
monomial in the local order is a smaller int, so the leading term is the
least key and the degree sits in the greatest, keys add when monomials
multiply, and divisibility is one subtract and mask.  Completion runs on
keyed terms alone: a reducer is its sorted keys and coefficient triples
(with its lead, negated lead coefficient and ecart), and a remainder a
dict reduced in place; a reducer keeps its own lead coefficient, as every
step divides by it.  The quotient dimension sums the columns of the last
corner walk, which saw the final leading monomials; the monic basis Polys
are formed only when read, and mu does not read them.
:func:`mora_normal_form` is its normal form wrapped for Polys.
Each reduction step takes its factor from :func:`germinv.gaussian.quotient`
and hands the reducer's shifted keys, cut where the shifted degree reaches
the corner, with its triples to :func:`germinv.gaussian.add_multiple`; a
term that would reach the packed monomials' ``DEGREE_LIMIT`` raises
IterationLimitError before it is formed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from itertools import product as iter_product
from operator import le

from ._record import record
from .errors import InputError, IterationLimitError, ZeroPolynomialError
from .gaussian import add_multiple, quotient
from .poly import Monomial, Poly, degree_limit_error, pack, packing, unpack

DEFAULT_MAX_STEPS = 200_000


def _view(f: Poly) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """f's packed keys in ascending order (lead first, top degree last) and
    its coefficient triples; a term of degree DEGREE_LIMIT or more raises
    IterationLimitError."""
    if not f:
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    view = tuple(zip(*sorted((pack(m), c) for m, c in f._terms.items())))
    if view[0][-1] >= packing(f.nvars)[2]:
        raise degree_limit_error()
    return view


class _Budget:
    """Shared countdown over all reduction steps of one computation."""

    def __init__(self, max_steps: int):
        self.remaining = self.max_steps = max_steps

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise IterationLimitError(
                f"standard-basis engine exceeded {self.max_steps} reduction steps; "
                "raise max_steps if the input is genuinely this hard"
            )


def _reducer(keys, coeffs, shift: int):
    """(lead key, negated lead coefficient, ecart, keys, coefficients)."""
    a, b, d = coeffs[0]
    return keys[0], (-a, -b, d), (keys[-1] >> shift) - (keys[0] >> shift), keys, coeffs


def _poly(nvars: int, terms) -> Poly:
    return Poly._clean(nvars, {unpack(k, nvars): c for k, c in terms})


def _add_shifted(h: dict, factor: tuple, g, q: int, cut: int | None, limit: int):
    """h += factor * x^q * (the reducer g after its lead), forming no term
    of key >= cut (the corner's) and raising for one of key >= limit."""
    keys = g[3]
    stop = len(keys) if cut is None else bisect_left(keys, cut - q)
    if stop > 1 and keys[stop - 1] + q >= limit:
        raise degree_limit_error()
    add_multiple(h, factor, zip([k + q for k in keys[1:stop]], g[4][1:stop]))


def _spoly(f, g, lcm: int, cut: int | None, limit: int) -> dict:
    s: dict = {}  # the two leading terms cancel, so neither is formed
    _add_shifted(s, quotient((-1, 0, 1), f[1]), f, lcm - f[0], cut, limit)
    _add_shifted(s, quotient((1, 0, 1), g[1]), g, lcm - g[0], cut, limit)
    return s


def _reduce(h: dict, pool: list, budget: _Budget, cut: int | None, layout) -> dict:
    """Mora's weak normal form of the keyed terms h, in place; the pool of
    reducers gains the remainders it keeps."""
    shift, guards, limit = layout
    while h:
        lead = min(h)
        lead_g = lead + guards
        best = None
        for entry in pool:  # the first usable reducer of least ecart
            if (best is None or entry[2] < best[2]) and (lead_g - entry[0]) & guards == guards:
                best = entry
        if best is None:
            break
        if best[2] > (max(h) >> shift) - (lead >> shift):
            stored = sorted(h)
            pool.append(_reducer(stored, [h[k] for k in stored], shift))
        budget.spend()
        # h -= (ch/cg) * x^(lead - lg) * g: the leading terms cancel
        _add_shifted(h, quotient(h.pop(lead), best[1]), best, lead - best[0], cut, limit)
    return h


def mora_normal_form(
    f: Poly, reducers: list[Poly], budget: _Budget | None = None, _corner: int | None = None
) -> Poly:
    """Weak normal form of f against the reducers, Mora style.

    ``_corner`` is the completion's highest-corner degree k (m^k lies in
    the ideal): when given, f and every intermediate remainder are
    truncated below degree k, and no term of degree >= k is formed.
    """
    if not f:
        return f
    layout = packing(f.nvars)
    keys, coeffs = _view(f)
    cut = None if _corner is None else _corner << layout[0]
    stop = len(keys) if cut is None else bisect_left(keys, cut)
    pool = [_reducer(*_view(g), layout[0]) for g in reducers]
    h = _reduce(dict(zip(keys[:stop], coeffs[:stop])), pool, budget or _Budget(DEFAULT_MAX_STEPS),
                cut, layout)
    return _poly(f.nvars, h.items())


@record
class StandardBasisResult:
    """The minimal leading monomials, the quotient's dimension and the kept
    elements as keys and coefficient triples, not normalised: ``basis``
    (monic Polys) is formed anew at each read; ``((), None, ())`` for an
    infinite quotient.  Past the highest corner k (m^k lies in the ideal)
    the elements are truncated below degree k, one with a lead of degree k
    being that monomial.  Results with the same kept elements are equal.
    """

    leading_ideal_gens: tuple[Monomial, ...]
    quotient_dim: int | None
    elements: tuple[tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]], ...]

    @property
    def basis(self) -> tuple[Poly, ...]:
        monic = [add_multiple({}, quotient((1, 0, 1), c[0]), zip(k, c)) for k, c in self.elements]
        return tuple(_poly(len(self.leading_ideal_gens[0]), h.items()) for h in monic)


def _add_lead(leading: list[Monomial], m: Monomial) -> bool:
    """Add m to the divisibility-minimal monomials, kept sorted by (degree,
    m), and drop those it divides; False, changing nothing, if one of them
    divides m."""
    if any(all(map(le, k, m)) for k in leading):
        return False
    leading[:] = [k for k in leading if not all(map(le, m, k))]
    insort(leading, m, key=lambda m: (sum(m), m))
    return True


def _columns(leading_gens: tuple[Monomial, ...]):
    """The staircase outside a monomial ideal as (point, height) columns, one
    per point of the box of the other variables, under the least last
    exponent of a generator dividing there; None if some pure power is
    missing, exactly when the staircase is infinite."""
    if not leading_gens:
        return None
    if not all(map(any, leading_gens)):  # the unit ideal
        return []
    bounds = []
    for i in range(len(leading_gens[0])):
        pure = [m[i] for m in leading_gens if m[i] and m[i] == sum(m)]
        if not pure:
            return None
        bounds.append(min(pure))
    heads = [(g[:-1], g[-1]) for g in leading_gens]
    return [(point, min(e for head, e in heads if all(map(le, head, point))))
            for point in iter_product(*map(range, bounds[:-1]))]


def staircase_of(leading_gens: tuple[Monomial, ...]) -> frozenset[Monomial] | None:
    """Monomials outside the monomial ideal; None when that set is infinite
    or no generator is given."""
    columns = _columns(leading_gens)
    if columns is None:
        return None
    return frozenset(point + (e,) for point, height in columns for e in range(height))


def _corner_degree(columns) -> int:
    """1 + the top degree of a finite staircase, read from its columns: 0
    for the unit ideal."""
    return max((sum(point) + height for point, height in columns if height), default=0)


def _truncated(basis: list, cut: int, shift: int) -> list:
    """The reducers without their terms of key >= cut, but for the lead of one
    past cut: m^corner holds that monomial, and no pair or reduction below
    the corner can use it."""
    kept = []
    for g in basis:
        if cut <= g[3][-1]:
            stop = max(1, bisect_left(g[3], cut))
            g = _reducer(g[3][:stop], g[4][:stop], shift)
        kept.append(g)
    return kept


def bezout_bound(degrees, nvars: int) -> int:
    """The product of the nvars largest degrees of nonzero generators, 0 if
    there are fewer: it bounds dim O/J for their ideal J when finite, and
    so the corner c of a finite staircase, at most its size (a monomial of
    degree c - 1 in it has c divisors in it, one of each degree).

    For k generators of degrees d_1 >= d_2 >= ... in n variables: a proper
    J with k < n has height <= k (Krull), so an infinite quotient.  k = n
    is refined Bezout (Fulton, Intersection Theory, Ex. 12.3.1).  If k > n
    and J is m-primary, pick in turn h_i = g_i + a combination of
    g_(n+1), ..., g_k outside every minimal prime of (h_1, ..., h_(i-1)):
    a prime P holding that whole coset would hold g_1, ..., g_i and
    g_(n+1), ..., g_k, so J would lie in P + (g_(i+1), ..., g_n), of
    dimension >= 1.  So (h) is m-primary, lies in J and has deg h_i <= d_i,
    and dim O/J <= dim O/(h) <= d_1...d_n."""
    bound = int(len(degrees) >= nvars)
    for e in sorted(degrees, reverse=True)[:nvars]:
        bound *= e
    return bound


def _complete(views: list, noether: int, budget: _Budget, nvars: int):
    """Completion of the reducers below the corner of their leading
    monomials, which is exact, or if they have none below noether, as for
    J + m^noether, and then None if the corner stays at noether."""
    layout = shift, _, limit = packing(nvars)
    lm = [unpack(g[0], nvars) for g in views]
    leading: list[Monomial] = []
    for m in lm:
        _add_lead(leading, m)
    columns = _columns(leading)
    exact = columns is not None  # the generators' own corner
    corner = _corner_degree(columns) if exact else noether
    cut = corner << shift
    basis = _truncated(views, cut, shift)
    pairs = [(sum(map(max, lm[i], lm[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        degree, i, j = heapq.heappop(pairs)
        if degree >= corner:
            break  # this and every later s-polynomial lies in m^corner
        if degree == sum(lm[i]) + sum(lm[j]):
            continue  # coprime leading monomials: s-polynomial reduces to 0
        lcm = pack(tuple(map(max, lm[i], lm[j])))
        h = _reduce(_spoly(basis[i], basis[j], lcm, cut, limit), list(basis), budget, cut, layout)
        if h:
            keys = sorted(h)
            basis.append(_reducer(keys, [h[k] for k in keys], shift))
            lm.append(unpack(keys[0], nvars))
            new = len(basis) - 1
            for other in range(new):
                heapq.heappush(pairs, (sum(map(max, lm[other], lm[new])), other, new))
            if not _add_lead(leading, lm[new]):
                continue
            columns = _columns(leading)
            if columns is not None and (top := _corner_degree(columns)) < corner:
                corner, cut = top, top << shift
                basis = _truncated(basis, cut, shift)
    if not exact and corner == noether:
        return None
    kept = {}
    for g, m in zip(basis, lm):
        if m in leading and m not in kept:
            kept[m] = tuple(g[3]), tuple(g[4])
    dim = sum(height for _, height in columns)
    return StandardBasisResult(tuple(leading), dim, tuple(kept.values()))


def standard_basis(gens, max_steps: int = DEFAULT_MAX_STEPS) -> StandardBasisResult:
    """Mora's completion of the generators to a standard basis.

    Zero generators are dropped.  A quotient of infinite dimension,
    including that of the empty ideal (all generators zero), yields
    ``StandardBasisResult((), None, ())``.  No generators at all, or
    generators in different numbers of variables, raise InputError.
    Completion uses the product criterion and picks pairs by smallest lcm
    degree, so the run is deterministic for a given input order.

    All work stays below a corner k, m^k in the ideal, with attempts on
    J + m^N when the generators' leading monomials have none (see the
    module docstring); the attempts share the max_steps budget.
    """
    gens = list(gens)
    if not gens:
        raise InputError("standard_basis needs at least one generator")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("generators disagree on variable count")
    budget = _Budget(max_steps)
    shift = packing(nvars)[0]
    views = [_reducer(*_view(g), shift) for g in gens if g]
    noether = 8
    while (result := _complete(views, noether, budget, nvars)) is None:
        if noether > bezout_bound([g[3][-1] >> shift for g in views], nvars):
            return StandardBasisResult((), None, ())
        noether *= 2
    return result
