"""One-parameter families of germs and their sampled invariant profiles.

A family is a finite sum of germ pieces weighted by powers of the
parameter t.  Everything is evaluated at exact rational (or Gaussian
rational) sample values; nothing here takes limits.  Profiles therefore
carry per-sample facts only, and callers downstream phrase conclusions
accordingly.  The probe-line search walks the integer points by max-norm
1, 2, 3, ... and always ends, by max-norm max(1, ceil(D/2)) for initial
forms of total degree D; the joining search walks alpha = 1, 2, 3, ...
and always ends for a homogeneous isolated target.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product as iter_product

from ._record import record
from .errors import InputError, ZeroPolynomialError
from .gaussian import GaussianRational, ONE
from .milnor import _check_germ, milnor_number
from .monodromy import _is_int
from .poly import MAX_DIGITS, MAX_EXPONENT, Poly, exceeds_digits, fermat, parse_poly

DEFAULT_SAMPLES = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)

STATUS_OK = "ok"
STATUS_NOT_ISOLATED = "not-isolated"
STATUS_ZERO = "zero"


@record
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


@record
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
        """The germ at parameter value t, exactly.

        Refuses t when a power ``t ** tpower`` could have a numerator or
        denominator of more than MAX_DIGITS digits, the parser's rule,
        before forming it.
        """
        t = GaussianRational.of(t)
        height = t.height()
        total = Poly.zero(self.nvars)
        for piece in self.pieces:
            if exceeds_digits(height, piece.tpower):
                raise InputError(f"t^{piece.tpower} at a sample could exceed the maximum "
                                 f"of {MAX_DIGITS} digits")
            total = total + piece.poly.scale(t ** piece.tpower)
        return total


def rescaling_family(f: Poly) -> GermFamily:
    """The rescaling deformation: the degree-(order+j) part rides t^j.

    At t=1 it returns f itself; at t=0 only the initial form survives.
    """
    _check_germ(f)
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

@record
class MuSample:
    t: GaussianRational
    mu: int | None
    status: str


@record
class MuProfile:
    """Per-sample Milnor numbers plus the jump against the t=0 germ.

    jump = mu(f_0) - mu(f_t*) at the smallest nonzero sample t*; None when
    either end is missing (zero germ or non-isolated).  A not-isolated
    sample is recorded, not fatal.
    """

    samples: tuple[MuSample, ...]
    mu_at_zero: int | None
    jump: int | None


def _mu_of(f: Poly) -> tuple[int | None, str]:
    if not f:
        return None, STATUS_ZERO
    mu = milnor_number(f).mu
    return mu, STATUS_NOT_ISOLATED if mu is None else STATUS_OK


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

    On the line s*v the germ is f(s*v) = sum of s^d * f_d(v) over its
    homogeneous parts f_d, so the order is the least d with f_d(v) nonzero;
    each f_d(v) is summed term by term, in one pass over the germ.
    A vanishing restriction means the line sits inside the germ's zero set
    at that sample, which defeats the point of the probe: hard error.
    """
    if len(direction) != family.nvars:
        raise InputError(f"direction has {len(direction)} entries, expected {family.nvars}")
    if not any(direction):
        raise InputError("direction vector must have a nonzero entry")
    profile = []
    for t in ts:
        t = GaussianRational.of(t)
        germ = family.at(t)
        if not germ:
            raise InputError(f"the family vanishes identically at t = {t}")
        parts = {}
        for m, c in germ.terms().items():
            for v, e in zip(direction, m):
                c = c * v ** e
            parts[sum(m)] = parts.get(sum(m), 0) + c
        order = min((d for d, value in parts.items() if value), default=None)
        if order is None:
            raise InputError(f"the probe line lies inside the germ's zero set at t = {t}")
        profile.append((t, order))
    return tuple(profile)


def find_transverse_line(forms) -> tuple[GaussianRational, ...]:
    """A direction on which none of the given forms vanish: the first
    integer point of max-norm r = 1, 2, 3, ... at which every form
    evaluates to nonzero, an exact certificate.

    The walk always ends.  The product of the forms is a nonzero
    polynomial of degree D, the sum of their degrees, and by Alon's
    Combinatorial Nullstellensatz (1999) it cannot vanish on all of
    {-r..r}^n once 2r + 1 > D.  A product of initial forms vanishes at the
    origin, so the answer has max-norm at most max(1, ceil(D/2)), and None
    never comes back.  (For forms that do not vanish at the origin, the
    same theorem with 0 dropped from one coordinate's range gives
    floor(D/2) + 1.)
    """
    forms = list(forms)
    if not forms:
        raise InputError("need at least one form to probe")
    nvars = forms[0].nvars
    for form in forms:
        if form.nvars != nvars:
            raise InputError("forms disagree on variable count")
        if not form:
            raise InputError("cannot find a transverse line for the zero form")
    for radius in count(1):
        for entries in iter_product(range(-radius, radius + 1), repeat=nvars):
            if max(map(abs, entries)) == radius and all(f.evaluate(entries) for f in forms):
                return tuple(map(GaussianRational.of, entries))


# -- joining a target form to the reference germ -----------------------------

def find_alpha(
    target: Poly, ts=DEFAULT_SAMPLES, candidates=None
) -> GaussianRational | None:
    """A scaling alpha joining the reference germ to alpha * target.

    The family is (1-t) * (sum of k-th powers) + t * alpha * target with k
    the degree of the homogeneous isolated target.  alpha is accepted when
    the family stays isolated at every sample.  Samples t = 0 and t = 1 are
    decided by construction and never reach the engine: at t = 0 the germ
    is the reference, isolated since k >= 2, and at t = 1 it is alpha *
    target with alpha nonzero, and the target's isolation is checked on
    entry.  Candidates default to alpha = 1, 2, 3, ..., a walk that always
    ends: at an interior sample t the germ is isolated unless the resultant
    of its n partials vanishes, a polynomial in alpha of degree at most
    n(k-1)^(n-1) that is nonzero at alpha = 0 (the scaled reference).  So
    m interior samples rule out at most m * n(k-1)^(n-1) integers, and None
    comes back only when explicit candidates run out.
    """
    if not target:
        raise ZeroPolynomialError("the target form is zero")
    if target.order() != target.degree() or target.order() < 2:
        raise InputError("the target must be homogeneous of degree >= 2")
    if milnor_number(target).mu is None:
        raise InputError("the target form must have an isolated critical point")
    reference = fermat(target.order(), target.nvars)
    ts = [GaussianRational.of(t) for t in ts]
    # GaussianRational(0) == 0 is False (only scalars compare equal): test truthiness.
    interior = [t for t in ts if t and t != ONE]
    stream = count(1) if candidates is None else candidates

    def acceptable(alpha: GaussianRational) -> bool:
        for t in interior:
            germ = reference.scale(ONE - t) + target.scale(t * alpha)
            if not germ or milnor_number(germ).mu is None:
                return False
        return True

    for alpha in map(GaussianRational.of, stream):
        if alpha and acceptable(alpha):
            return alpha
    return None
