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

Completion bounds itself at its own highest corner (Greuel & Pfister, *A
Singular Introduction to Commutative Algebra*, §1.7).  Once the leading
monomials found so far contain a pure power of every variable, every
monomial of degree k = 1 + (top degree of their staircase) lies in them,
so m^k is inside the leading ideal of the input, and for a local degree
order that forces m^k inside the ideal itself.  From then on all terms of
degree >= k are dropped, from basis elements, from s-polynomials (those
terms are never formed) and from every normal-form step, and pairs whose
lcm has degree >= k are skipped; k only shrinks as the basis grows.  That
keeps dense germs from growing ever longer tails.
The bound is read off this engine's own leading monomials, never from the
truncated-dimension oracle in :mod:`germinv.milnor`, so the two Milnor
engines stay independent.

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
    """The minimal leading monomials, the quotient's dimension (None when
    infinite) and the kept elements as keys and coefficient triples, not
    normalised: ``basis`` (monic Polys) is formed anew at each read.  Past
    a highest corner k (m^k lies in the ideal) the elements are truncated
    below degree k, one with a lead of degree k being that monomial.
    Results with the same kept elements are equal.
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


def _corner_degree(columns) -> int | None:
    """1 + the top degree of the staircase, read from its columns: 0 for the
    unit ideal, None for an infinite staircase."""
    if columns is None:
        return None
    return max((sum(point) + height for point, height in columns if height), default=0)


def _truncated(basis: list, cut: int | None, shift: int) -> list:
    """The reducers without their terms of key >= cut, but for the lead of one
    past cut: m^corner holds that monomial, and no pair or reduction below
    the corner can use it."""
    if cut is None:
        return basis
    kept = []
    for g in basis:
        if cut <= g[3][-1]:
            stop = max(1, bisect_left(g[3], cut))
            g = _reducer(g[3][:stop], g[4][:stop], shift)
        kept.append(g)
    return kept


def standard_basis(gens, max_steps: int = DEFAULT_MAX_STEPS) -> StandardBasisResult:
    """Mora's completion of the generators to a standard basis.

    Zero generators are dropped.  An empty ideal (all generators zero)
    yields an empty basis with infinite staircase.  No generators at all,
    or generators in different numbers of variables, raise InputError.
    Completion uses the product criterion and picks pairs by smallest lcm
    degree, so the run is deterministic for a given input order.

    Whenever the leading monomials found so far have a finite staircase,
    its highest corner k bounds the work (see the module docstring):
    basis elements, s-polynomials and normal forms are truncated below
    degree k, and pairs with an lcm of degree >= k are never reduced.
    Since m^k already lies in the leading monomials, the leading ideal and
    staircase are those of the untruncated completion.
    """
    gens = list(gens)
    if not gens:
        raise InputError("standard_basis needs at least one generator")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("generators disagree on variable count")
    budget = _Budget(max_steps)
    layout = shift, _, limit = packing(nvars)
    basis = [_reducer(*_view(g), shift) for g in gens if g]
    lm = [unpack(g[0], nvars) for g in basis]
    leading: list[Monomial] = []
    for m in lm:
        _add_lead(leading, m)
    columns = _columns(leading)
    corner = _corner_degree(columns)
    cut = None if corner is None else corner << shift
    basis = _truncated(basis, cut, shift)
    pairs = [(sum(map(max, lm[i], lm[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        degree, i, j = heapq.heappop(pairs)
        if corner is not None and degree >= corner:
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
            corner, old = _corner_degree(columns), corner
            if corner != old:
                cut = corner << shift
                basis = _truncated(basis, cut, shift)

    kept = {}
    for g, m in zip(basis, lm):
        if m in leading and m not in kept:
            kept[m] = tuple(g[3]), tuple(g[4])
    dim = None if columns is None else sum(height for _, height in columns)
    return StandardBasisResult(tuple(leading), dim, tuple(kept.values()))
