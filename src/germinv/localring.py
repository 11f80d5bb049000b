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

Internally a term x^e is indexed by the key (degree, e_n, ..., e_1).  A
larger monomial in the local order has a smaller key, so the leading term
is the least key and the degree is the first entry of the greatest, both
plain tuple comparisons; and keys add when monomials multiply.  Each Poly
gets its sorted keys and coefficients (its view) once, on first use, and
keeps them in a cache slot, so leading terms, ecarts and truncation tests
never rescan it.  A normal form reduces a dict of keyed terms in place,
takes every reducer's terms from its view, and builds a Poly only for its
result; s-polynomials are formed the same way.  Coefficients stay the
Poly's own ``(a, b, d)`` triples throughout.  Each reduction step takes
its factor from :func:`germinv.gaussian.quotient`, shifts the reducer's
keys and hands them, with its triples, to
:func:`germinv.gaussian.add_multiple`.  With a corner k, a reducer's
terms are cut where the shifted degree reaches k, so no term of degree
>= k is ever formed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import product as iter_product
from operator import add, le, sub

from ._record import record
from .errors import IterationLimitError, ZeroPolynomialError
from .gaussian import GaussianRational, _make, add_multiple, quotient
from .poly import Monomial, Poly, mono_degree, mono_divides, mono_lcm

DEFAULT_MAX_STEPS = 200_000


def local_key(mono: Monomial):
    """Sort key; larger key means larger monomial in the local order.

    It is the componentwise negation of the index key (degree, e_n, ..., e_1)
    that :func:`_view` sorts terms by."""
    return (-mono_degree(mono), tuple(-e for e in reversed(mono)))


def _view(f: Poly) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, int], ...]]:
    """f's terms under the local order: their keys (degree, e_n, ..., e_1)
    in ascending order, so the leading term comes first and the highest
    degree last, and the coefficient triples in the same order.

    Built on first use and cached on f.
    """
    view = f._view
    if view is None:
        if not f:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        keyed = sorted(((sum(m),) + m[::-1], c) for m, c in f._terms.items())
        view = tuple(zip(*keyed))
        object.__setattr__(f, "_view", view)
    return view


def leading_monomial(f: Poly) -> Monomial:
    return _view(f)[0][0][:0:-1]


def leading_term(f: Poly) -> tuple[Monomial, GaussianRational]:
    keys, coeffs = _view(f)
    return keys[0][:0:-1], _make(*coeffs[0])


def ecart(f: Poly) -> int:
    """deg(f) - deg(LM(f)) >= 0; zero exactly for homogeneous f."""
    keys = _view(f)[0]
    return keys[-1][0] - keys[0][0]


class _Budget:
    """Shared countdown over all reduction steps of one computation."""

    def __init__(self, max_steps: int):
        self.remaining = max_steps
        self.max_steps = max_steps

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise IterationLimitError(
                f"standard-basis engine exceeded {self.max_steps} reduction steps; "
                "raise max_steps if the input is genuinely this hard"
            )


def _monic(f: Poly) -> Poly:
    return Poly._clean(f.nvars, add_multiple({}, quotient((1, 0, 1), _view(f)[1][0]),
                                             f._terms.items()))


def _below(f: Poly, corner: int | None) -> Poly:
    """f without its terms of degree >= corner; f itself when there is no corner."""
    if corner is None or not f or _view(f)[0][-1][0] < corner:
        return f
    return f.truncate_jet(corner - 1)


def _add_shifted(h: dict, keys, coeffs, q: tuple[int, ...], factor: tuple, corner: int | None):
    """h += factor * x^q * (the view's terms after its lead, of degree < corner).

    h is keyed as in :func:`_view`, and q is a key too: keys add under
    multiplication.  No term of degree >= corner is formed.
    """
    stop = len(keys) if corner is None else bisect_left(keys, (corner - q[0],))
    add_multiple(h, factor, zip([tuple(map(add, k, q)) for k in keys[1:stop]], coeffs[1:stop]))


def _poly(nvars: int, h: dict) -> Poly:
    """The polynomial of the keyed terms h."""
    return Poly._clean(nvars, {k[:0:-1]: c for k, c in h.items()})


def _reducer(keys, coeffs):
    """(lead key, negated lead coefficient, ecart, keys, coefficients) of a view."""
    a, b, d = coeffs[0]
    return keys[0], (-a, -b, d), keys[-1][0] - keys[0][0], keys, coeffs


def spoly(f: Poly, g: Poly, _corner: int | None = None) -> Poly:
    """The s-polynomial of f and g; with ``_corner`` k, only its terms of
    degree < k, without forming the others."""
    (kf, cf), (kg, cg) = _view(f), _view(g)
    tail = tuple(map(max, kf[0][1:], kg[0][1:]))
    lcm = (sum(tail),) + tail
    s: dict = {}  # the two leading terms cancel, so neither is formed
    _add_shifted(s, kf, cf, tuple(map(sub, lcm, kf[0])), quotient((1, 0, 1), cf[0]), _corner)
    _add_shifted(s, kg, cg, tuple(map(sub, lcm, kg[0])), quotient((-1, 0, 1), cg[0]), _corner)
    return _poly(f.nvars, s)


def mora_normal_form(
    f: Poly, reducers: list[Poly], budget: _Budget | None = None, _corner: int | None = None
) -> Poly:
    """Weak normal form of f against the reducers, Mora style.

    ``_corner`` is the completion's highest-corner degree k (m^k lies in
    the ideal): when given, f and every intermediate remainder are
    truncated below degree k, and no term of degree >= k is formed.
    """
    if budget is None:
        budget = _Budget(DEFAULT_MAX_STEPS)
    if not f:
        return f
    keys, coeffs = _view(f)
    stop = len(keys) if _corner is None else bisect_left(keys, (_corner,))
    h = dict(zip(keys[:stop], coeffs[:stop]))  # the remainder, keyed as in _view
    pool = [_reducer(*_view(g)) for g in reducers]
    while h:
        lead = min(h)
        best = None
        for entry in pool:  # the first usable reducer of least ecart
            if (best is None or entry[2] < best[2]) and all(map(le, entry[0], lead)):
                best = entry
        if best is None:
            break
        lg, minus_cg, eg, keys, coeffs = best
        eh = max(h)[0] - lead[0]
        if eg > eh:
            stored = sorted(h)
            pool.append(_reducer(stored, [h[k] for k in stored]))
        budget.spend()
        # h -= (ch/cg) * x^(lead - lg) * g: the leading terms cancel
        _add_shifted(h, keys, coeffs, tuple(map(sub, lead, lg)), quotient(h.pop(lead), minus_cg),
                     _corner)
    return _poly(f.nvars, h)


@record
class StandardBasisResult:
    """Monic standard basis plus the combinatorics read off from it.

    When the completion found a highest corner k (m^k lies in the ideal),
    basis elements are truncated below degree k, and a leading generator
    of degree k is represented by the monomial itself.

    staircase is the set of monomials outside the leading ideal when that
    set is finite, else None; its size is the quotient's vector space
    dimension over the scalars.
    """

    basis: tuple[Poly, ...]
    leading_ideal_gens: tuple[Monomial, ...]
    staircase: frozenset[Monomial] | None

    @property
    def finite(self) -> bool:
        return self.staircase is not None

    @property
    def quotient_dim(self) -> int | None:
        return None if self.staircase is None else len(self.staircase)


def _minimalize(monos: list[Monomial]) -> tuple[Monomial, ...]:
    """Keep only the divisibility-minimal monomials, deterministically."""
    unique = sorted(set(monos), key=lambda m: (mono_degree(m), m))
    keep: list[Monomial] = []
    for m in unique:
        if not any(mono_divides(k, m) for k in keep):
            keep.append(m)
    return tuple(keep)


def staircase_of(leading_gens: tuple[Monomial, ...], nvars: int) -> frozenset[Monomial] | None:
    """Monomials outside the monomial ideal; None when that set is infinite.

    Finiteness is exact: the quotient is finite dimensional iff the ideal
    contains a pure power of every variable.
    """
    if not leading_gens:
        return None
    if any(mono_degree(m) == 0 for m in leading_gens):
        return frozenset()
    bounds = []
    for i in range(nvars):
        pure = [
            m[i]
            for m in leading_gens
            if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    # one column of the last variable per point of the box of the others:
    # its height is the least last exponent among the generators dividing
    # there, at most bounds[-1] from the pure power
    heads = [(g[:-1], g[-1]) for g in leading_gens]
    stairs = []
    for point in iter_product(*(range(b) for b in bounds[:-1])):
        height = min(e for head, e in heads if mono_divides(head, point))
        stairs.extend(point + (e,) for e in range(height))
    return frozenset(stairs)


def _corner_degree(stairs: frozenset[Monomial] | None) -> int | None:
    """1 + the top degree of a finite staircase: the least k with m^k outside it.

    0 for the empty staircase (the unit ideal), None for an infinite one.
    """
    if stairs is None:
        return None
    return 1 + max(map(mono_degree, stairs), default=-1)


def standard_basis(gens, max_steps: int = DEFAULT_MAX_STEPS) -> StandardBasisResult:
    """Mora's completion of the generators to a standard basis.

    Zero generators are dropped.  An empty ideal (all generators zero)
    yields an empty basis with infinite staircase.  Completion uses the
    product criterion and picks pairs by smallest lcm degree, so the run
    is deterministic for a given input order.

    Whenever the leading monomials found so far have a finite staircase,
    its highest corner k = 1 + (top staircase degree) bounds the work:
    m^k is inside the leading monomials, hence inside the ideal (local
    degree order), so basis elements, s-polynomials and normal forms are
    truncated below degree k and pairs with an lcm of degree >= k are
    never reduced (their s-polynomials lie in m^k).  The corner comes from this engine's own
    leading monomials, not from the oracle, so the two Milnor engines stay
    independent.  Since m^k already lies in the leading monomials, the
    leading ideal and staircase are those of the untruncated completion.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("standard_basis needs at least one generator")
    nvars = gens[0].nvars
    budget = _Budget(max_steps)
    basis: list[Poly] = [_monic(g) for g in gens if g]
    if not basis:
        return StandardBasisResult((), (), None)

    lm = [leading_monomial(g) for g in basis]
    leading = _minimalize(lm)
    stairs = staircase_of(leading, nvars)
    corner = _corner_degree(stairs)

    def lcm_degree(i, j):
        return mono_degree(mono_lcm(lm[i], lm[j]))

    def truncated():
        # an element inside m^corner would truncate to 0: it stays as it is,
        # and no pair or reduction below the corner can use it
        return [g if mono_degree(m) >= corner else _below(g, corner) for g, m in zip(basis, lm)]

    if corner is not None:
        basis = truncated()
    pairs = [(lcm_degree(i, j), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        degree, i, j = heapq.heappop(pairs)
        if corner is not None and degree >= corner:
            break  # this and every later s-polynomial lies in m^corner
        if degree == mono_degree(lm[i]) + mono_degree(lm[j]):
            continue  # coprime leading monomials: s-polynomial reduces to 0
        s = spoly(basis[i], basis[j], _corner=corner)
        h = mora_normal_form(s, basis, budget, _corner=corner)
        if h:
            h = _monic(h)
            new_index = len(basis)
            basis.append(h)
            lm.append(leading_monomial(h))
            for other in range(new_index):
                heapq.heappush(pairs, (lcm_degree(other, new_index), other, new_index))
            leading = _minimalize(lm)
            stairs = staircase_of(leading, nvars)
            new_corner = _corner_degree(stairs)
            if new_corner != corner:
                corner = new_corner
                basis = truncated()

    kept = []
    seen_lm = set()
    for g, m in zip(basis, lm):
        if m in leading and m not in seen_lm:
            if corner is not None and mono_degree(m) >= corner:
                g = Poly.monomial(nvars, m)  # in m^corner, so in the ideal
            kept.append(g)
            seen_lm.add(m)
    return StandardBasisResult(tuple(kept), leading, stairs)


def ideal_quotient_dim(gens) -> int | None:
    """dim of local ring modulo the ideal, or None when infinite."""
    return standard_basis(gens).quotient_dim
