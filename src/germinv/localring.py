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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product as iter_product

from .errors import IterationLimitError
from .gaussian import ONE, GaussianRational
from .poly import Monomial, Poly, mono_degree, mono_divides, mono_lcm, mono_quotient

DEFAULT_MAX_STEPS = 200_000


def local_key(mono: Monomial):
    """Sort key; larger key means larger monomial in the local order."""
    return (-mono_degree(mono), tuple(-e for e in reversed(mono)))


def leading_monomial(f: Poly) -> Monomial:
    return max(f.terms(), key=local_key)


def leading_term(f: Poly) -> tuple[Monomial, GaussianRational]:
    m = leading_monomial(f)
    return m, f.coeff(m)


def ecart(f: Poly) -> int:
    """deg(f) - deg(LM(f)) >= 0; zero exactly for homogeneous f."""
    return f.degree() - mono_degree(leading_monomial(f))


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
    _, lc = leading_term(f)
    return f.scale(ONE / lc)


def _below(f: Poly, corner: int | None) -> Poly:
    """f without its terms of degree >= corner; f itself when there is no corner."""
    if corner is None or not f or f.degree() < corner:
        return f
    return f.truncate_jet(corner - 1)


def spoly(f: Poly, g: Poly, _corner: int | None = None) -> Poly:
    """The s-polynomial of f and g; with ``_corner`` k, only its terms of
    degree < k, without forming the others."""
    mf, cf = leading_term(f)
    mg, cg = leading_term(g)
    lcm = mono_lcm(mf, mg)
    qf, qg = mono_quotient(lcm, mf), mono_quotient(lcm, mg)
    if _corner is not None:
        f = _below(f, _corner - mono_degree(qf))
        g = _below(g, _corner - mono_degree(qg))
    return f.mul_term(qf, ONE / cf) + g.mul_term(qg, -(ONE / cg))


def mora_normal_form(
    f: Poly, reducers: list[Poly], budget: _Budget | None = None, _corner: int | None = None
) -> Poly:
    """Weak normal form of f against the reducers, Mora style.

    ``_corner`` is the completion's highest-corner degree k (m^k lies in
    the ideal): when given, f and every intermediate remainder are
    truncated below degree k.
    """
    if budget is None:
        budget = _Budget(DEFAULT_MAX_STEPS)
    h = _below(f, _corner)
    # (leading monomial, leading coefficient, ecart, polynomial), scanned once
    pool = [(*leading_term(g), ecart(g), g) for g in reducers]
    while h:
        mh, ch = leading_term(h)
        usable = [entry for entry in pool if mono_divides(entry[0], mh)]
        if not usable:
            return h
        mg, cg, eg, g = min(usable, key=lambda entry: entry[2])
        eh = h.degree() - mono_degree(mh)
        if eg > eh:
            pool.append((mh, ch, eh, h))
        budget.spend()
        h = _below(h + g.mul_term(mono_quotient(mh, mg), -(ch / cg)), _corner)
    return h


@dataclass(frozen=True)
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
    stairs = [
        mono
        for mono in iter_product(*(range(b) for b in bounds))
        if not any(mono_divides(g, mono) for g in leading_gens)
    ]
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
