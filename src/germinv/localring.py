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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .errors import IterationLimitError
from .gaussian import GaussianRational
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
    return f.scale(GaussianRational.of(1) / lc)


def _reduce_leading(h: Poly, g: Poly) -> Poly:
    """One division step: cancel LT(h) against LT(g)."""
    mh, ch = leading_term(h)
    mg, cg = leading_term(g)
    return h - g.mul_term(mono_quotient(mh, mg), ch / cg)


def spoly(f: Poly, g: Poly) -> Poly:
    mf, cf = leading_term(f)
    mg, cg = leading_term(g)
    lcm = mono_lcm(mf, mg)
    one = GaussianRational.of(1)
    return f.mul_term(mono_quotient(lcm, mf), one / cf) - g.mul_term(
        mono_quotient(lcm, mg), one / cg
    )


def mora_normal_form(f: Poly, reducers: list[Poly], budget: _Budget | None = None) -> Poly:
    """Weak normal form of f against the reducers, Mora style."""
    if budget is None:
        budget = _Budget(DEFAULT_MAX_STEPS)
    h = f
    pool = list(reducers)
    while h:
        mh = leading_monomial(h)
        usable = [g for g in pool if mono_divides(leading_monomial(g), mh)]
        if not usable:
            return h
        g = min(usable, key=ecart)
        if ecart(g) > ecart(h):
            pool.append(h)
        budget.spend()
        h = _reduce_leading(h, g)
    return h


@dataclass(frozen=True)
class StandardBasisResult:
    """Monic standard basis plus the combinatorics read off from it.

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


def standard_basis(gens, max_steps: int = DEFAULT_MAX_STEPS) -> StandardBasisResult:
    """Mora's completion of the generators to a standard basis.

    Zero generators are dropped.  An empty ideal (all generators zero)
    yields an empty basis with infinite staircase.  Completion uses the
    product criterion and picks pairs by smallest lcm degree, so the run
    is deterministic for a given input order.
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
    pairs: list[tuple[int, int]] = [
        (i, j) for j in range(len(basis)) for i in range(j)
    ]

    def pair_key(p):
        i, j = p
        return (mono_degree(mono_lcm(lm[i], lm[j])), i, j)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        lcm = mono_lcm(lm[i], lm[j])
        if mono_degree(lcm) == mono_degree(lm[i]) + mono_degree(lm[j]) and all(
            a == 0 or b == 0 for a, b in zip(lm[i], lm[j])
        ):
            continue  # coprime leading monomials: s-polynomial reduces to 0
        h = mora_normal_form(spoly(basis[i], basis[j]), basis, budget)
        if h:
            h = _monic(h)
            new_index = len(basis)
            basis.append(h)
            lm.append(leading_monomial(h))
            pairs.extend((k, new_index) for k in range(new_index))

    leading = _minimalize(lm)
    kept = []
    seen_lm = set()
    for g, m in zip(basis, lm):
        if m in leading and m not in seen_lm:
            kept.append(g)
            seen_lm.add(m)
    return StandardBasisResult(tuple(kept), leading, staircase_of(leading, nvars))


def ideal_quotient_dim(gens, max_steps: int = DEFAULT_MAX_STEPS) -> int | None:
    """dim of local ring modulo the ideal, or None when infinite."""
    return standard_basis(gens, max_steps).quotient_dim
