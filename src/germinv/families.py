"""One-parameter families of germs and their sampled invariant profiles.

A family is a finite sum of germ pieces weighted by powers of the
parameter t.  Everything is evaluated at exact rational (or Gaussian
rational) sample values; nothing here takes limits.  Profiles therefore
carry per-sample facts only, and callers downstream phrase conclusions
accordingly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product as iter_product

from .errors import InputError, ZeroPolynomialError
from .gaussian import GaussianRational, I, ONE
from .milnor import is_isolated, milnor_number
from .monodromy import _is_int
from .poly import MAX_EXPONENT, Poly, fermat, parse_poly

DEFAULT_SAMPLES = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)
DEFAULT_SEED = 0

STATUS_OK = "ok"
STATUS_NOT_ISOLATED = "not-isolated"
STATUS_ZERO = "zero"


@dataclass(frozen=True)
class FamilyPiece:
    poly: Poly
    tpower: int

    def __post_init__(self):
        if not 0 <= self.tpower <= MAX_EXPONENT:
            raise InputError(f"piece powers of t must lie in 0..{MAX_EXPONENT}")
        if not self.poly:
            raise InputError("family pieces must be nonzero polynomials")
        if self.poly.constant_term():
            raise InputError("family pieces must vanish at the origin")


@dataclass(frozen=True)
class GermFamily:
    pieces: tuple[FamilyPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise InputError("a family needs at least one piece")
        nvars = self.pieces[0].poly.nvars
        for piece in self.pieces:
            if piece.poly.nvars != nvars:
                raise InputError("family pieces disagree on variable count")

    @property
    def nvars(self) -> int:
        return self.pieces[0].poly.nvars

    def at(self, t) -> Poly:
        """The germ at parameter value t, exactly."""
        t = GaussianRational.of(t)
        total = Poly.zero(self.nvars)
        for piece in self.pieces:
            total = total + piece.poly.scale(t ** piece.tpower)
        return total


def rescaling_family(f: Poly) -> GermFamily:
    """The rescaling deformation: the degree-(order+j) part rides t^j.

    At t=1 it returns f itself; at t=0 only the initial form survives.
    """
    if not f:
        raise ZeroPolynomialError("cannot deform the zero polynomial")
    if f.constant_term():
        raise InputError("the germ must vanish at the origin")
    base = f.order()
    pieces = []
    for degree in range(base, f.degree() + 1):
        part = f.homogeneous_component(degree)
        if part:
            pieces.append(FamilyPiece(part, degree - base))
    return GermFamily(tuple(pieces))


def family_from_json(data) -> tuple[GermFamily, tuple[str, ...]]:
    """Load {"pieces": [{"poly": str, "tpower": int}, ...], "vars": [...]}.

    Returns the family together with the variable names it was written in.
    """
    if not isinstance(data, dict) or set(data) - {"pieces", "vars"}:
        raise InputError('family files carry exactly the keys "pieces" and "vars"')
    names = data.get("vars")
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise InputError('"vars" must be a list of variable names')
    raw_pieces = data.get("pieces")
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise InputError('"pieces" must be a non-empty list')
    pieces = []
    for entry in raw_pieces:
        if not isinstance(entry, dict) or set(entry) != {"poly", "tpower"}:
            raise InputError('each piece is an object with keys "poly" and "tpower"')
        if not _is_int(entry["tpower"]):
            raise InputError('"tpower" must be an integer')
        if not isinstance(entry["poly"], str):
            raise InputError('"poly" must be a polynomial expression string')
        pieces.append(FamilyPiece(parse_poly(entry["poly"], names), entry["tpower"]))
    return GermFamily(tuple(pieces)), tuple(names)


# -- mu profiles -------------------------------------------------------------

@dataclass(frozen=True)
class MuSample:
    t: GaussianRational
    mu: int | None
    status: str


@dataclass(frozen=True)
class MuProfile:
    """Per-sample Milnor numbers plus the jump against the t=0 germ.

    jump = mu(f_0) - mu(f_t*) at the smallest nonzero sample t*; None when
    either end is missing (zero germ or non-isolated).  A not-isolated
    sample is recorded, not fatal.
    """

    samples: tuple[MuSample, ...]
    mu_at_zero: int | None
    jump: int | None

    def is_constant(self) -> bool:
        values = {s.mu for s in self.samples}
        return len(values) == 1 and None not in values


def _mu_of(f: Poly) -> tuple[int | None, str]:
    if not f:
        return None, STATUS_ZERO
    result = milnor_number(f)
    if result.mu is None:
        return None, STATUS_NOT_ISOLATED
    return result.mu, STATUS_OK


def mu_profile(family: GermFamily, ts=DEFAULT_SAMPLES) -> MuProfile:
    ts = [GaussianRational.of(t) for t in ts]
    if not ts:
        raise InputError("need at least one sample value")
    samples = []
    for t in ts:
        mu, status = _mu_of(family.at(t))
        samples.append(MuSample(t, mu, status))
    at_zero = [s.mu for s in samples if not s.t]
    mu_zero = at_zero[0] if at_zero else _mu_of(family.at(0))[0]
    nonzero = [s for s in samples if s.t]
    jump = None
    if nonzero and mu_zero is not None:
        star = min(nonzero, key=lambda s: (s.t.norm_sq(), str(s.t)))
        if star.mu is not None:
            jump = mu_zero - star.mu
    return MuProfile(tuple(samples), mu_zero, jump)


# -- line profiles -----------------------------------------------------------

def line_order_profile(family: GermFamily, direction, ts=DEFAULT_SAMPLES):
    """Order of the germ restricted to a fixed line, per sample.

    A vanishing restriction means the line sits inside the germ's zero
    set at that sample, which defeats the point of the probe: hard error.
    """
    profile = []
    for t in ts:
        t = GaussianRational.of(t)
        germ = family.at(t)
        if not germ:
            raise InputError(f"the family vanishes identically at t = {t}")
        restricted = germ.restrict_to_line(direction)
        if not restricted:
            raise InputError(
                f"the probe line lies inside the germ's zero set at t = {t}"
            )
        profile.append((t, restricted.order()))
    return tuple(profile)


def find_transverse_line(
    forms, trials: int = 200, seed: int = DEFAULT_SEED
) -> tuple[GaussianRational, ...] | None:
    """A direction on which none of the given initial forms vanish.

    Deterministic: a fixed small-integer lattice sweep takes the first half
    of the trial budget, seeded random rational directions the rest.  The
    certificate is exact evaluation at every form; None when the budget is
    exhausted.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    forms = list(forms)
    if not forms:
        raise InputError("need at least one form to probe")
    nvars = forms[0].nvars
    for form in forms:
        if form.nvars != nvars:
            raise InputError("forms disagree on variable count")
        if not form:
            raise InputError("cannot find a transverse line for the zero form")

    def good(entries) -> bool:
        return all(form.evaluate(entries) for form in forms)

    lattice_budget = max(trials // 2, 1)
    used = 0
    radius = 1
    while used < lattice_budget:
        for entries in iter_product(range(-radius, radius + 1), repeat=nvars):
            if max(abs(e) for e in entries) != radius:
                continue
            used += 1
            if good(entries):
                return tuple(map(GaussianRational.of, entries))
            if used >= lattice_budget:
                break
        radius += 1

    rng = random.Random(seed)
    while used < trials:
        entries = tuple(
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(nvars)
        )
        if not any(entries):
            continue
        used += 1
        if good(entries):
            return tuple(map(GaussianRational.of, entries))
    return None


# -- joining a target form to the reference germ -----------------------------

DEFAULT_ALPHA_LADDER = (
    ONE,
    -ONE,
    I,
    GaussianRational.of(2),
    ONE + I,
    -I,
    ONE - I,
    -ONE + I,
    -ONE - I,
    GaussianRational.of(-2),
    GaussianRational.of(2) + I,
    GaussianRational.of(3),
)

RANDOM_ALPHA_TRIALS = 40  # seeded random candidates tried after the ladder


def find_alpha(
    target: Poly,
    ts=DEFAULT_SAMPLES,
    candidates=None,
    seed: int = DEFAULT_SEED,
) -> GaussianRational | None:
    """A scaling alpha joining the reference germ to alpha * target.

    The family is (1-t) * (sum of k-th powers) + t * alpha * target with k
    the degree of the homogeneous isolated target.  alpha is accepted when
    the family stays isolated at every sample.  Samples t = 0 and t = 1 are
    decided by construction and never reach the engine: at t = 0 the germ
    is the reference, isolated since k >= 2, and at t = 1 it is alpha *
    target with alpha nonzero, and the target's isolation is checked on
    entry.  Candidates default to a fixed ladder followed by seeded
    bounded-height random Gaussian rationals; None means the candidate set
    is exhausted (enlarge it or the sample set).
    """
    if not target:
        raise ZeroPolynomialError("the target form is zero")
    if not target.is_homogeneous() or target.order() < 2:
        raise InputError("the target must be homogeneous of degree >= 2")
    if not is_isolated(target):
        raise InputError("the target form must have an isolated critical point")
    reference = fermat(target.order(), target.nvars)
    ts = [GaussianRational.of(t) for t in ts]
    # GaussianRational(0) == 0 is False (only scalars compare equal): test truthiness.
    interior = [t for t in ts if t and t != ONE]

    if candidates is not None:
        stream = [GaussianRational.of(c) for c in candidates]
    else:
        rng = random.Random(seed)
        stream = chain(DEFAULT_ALPHA_LADDER, (
            GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for _ in range(RANDOM_ALPHA_TRIALS)
        ))

    def acceptable(alpha: GaussianRational) -> bool:
        for t in interior:
            germ = reference.scale(ONE - t) + target.scale(t * alpha)
            if not germ or not is_isolated(germ):
                return False
        return True

    for alpha in stream:
        if alpha and acceptable(alpha):
            return alpha
    return None
