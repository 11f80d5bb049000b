"""Necessary and conditional-sufficient screening for germ pairs.

Given two isolated (or regular) germs in the same variables, the
discriminator runs a fixed battery of checks:

* regular-vs-singular mismatch (one germ smooth, one not),
* Milnor number mismatch,
* disjoint degree windows (one germ's top degree below the other's order),
* the mixed tangent-cone-class constraint (exactly one germ
  semihomogeneous),
* the cone-complement Euler-characteristic criterion, which when it
  certifies makes equimultiplicity a consequence of equisingularity.

A NOT_EQUISINGULAR verdict is a proof (some necessary condition failed).
EQUIMULTIPLE_IF_EQUISINGULAR and INCONCLUSIVE never assert that the pair
is equisingular; nothing here does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ZeroPolynomialError
from .milnor import GermInvariants, germ_invariants
from .monodromy import chi_tangent_cone_complement
from .poly import Poly

NOT_EQUISINGULAR = "NOT_EQUISINGULAR"
EQUIMULTIPLE_IF_EQUISINGULAR = "EQUIMULTIPLE_IF_EQUISINGULAR"
INCONCLUSIVE = "INCONCLUSIVE"

CONE_CHI_CERTIFIED = "Certified"
CONE_CHI_NOT_SATISFIED = "NotSatisfied"
CONE_CHI_UNKNOWN = "Unknown"

RULE_REGULAR_SINGULAR = "regular-singular-mismatch"
RULE_MU_MISMATCH = "mu-mismatch"
RULE_WINDOW_GAP = "window-gap"
RULE_MIXED_CLASS = "mixed-class-constraint"
RULE_CONE_CHI = "cone-chi-criterion"


@dataclass(frozen=True)
class DegreeWindow:
    """[order, top degree] of a germ; every term's degree lands inside."""

    low: int
    high: int


def degree_window(f: Poly) -> DegreeWindow:
    if not f:
        raise ZeroPolynomialError("the zero polynomial has no degree window")
    return DegreeWindow(f.order(), f.degree())


def check_window_obstruction(f: Poly, g: Poly) -> bool:
    """True iff the windows are disjoint with a gap, in either direction."""
    wf, wg = degree_window(f), degree_window(g)
    return wf.high < wg.low or wg.high < wf.low


def check_regular_singular_mismatch(f: Poly, g: Poly) -> bool:
    """True iff exactly one of the germs is regular (order 1) at 0."""
    return (f.order() == 1) != (g.order() == 1)


@dataclass(frozen=True)
class ConeChiCheck:
    """Nonvanishing test for the cone complements' Euler numbers.

    chi entries are None when unknown (initial form with non-isolated
    critical point, so no closed form applies).
    """

    status: str
    chi: tuple[int | None, int | None]


def _cone_chi(germ: GermInvariants) -> int | None:
    if germ.order == 1:
        # Regular germ: the projectivized cone is a hyperplane, complement
        # an affine space, Euler number 1.
        return 1
    if germ.semihomogeneous:
        return chi_tangent_cone_complement(germ.order, germ.nvars)
    return None


def check_cone_chi_criterion(a: GermInvariants, b: GermInvariants) -> ConeChiCheck:
    chi_a = _cone_chi(a)
    chi_b = _cone_chi(b)
    if chi_a is not None and chi_b is not None:
        status = (
            CONE_CHI_CERTIFIED if chi_a != 0 and chi_b != 0 else CONE_CHI_NOT_SATISFIED
        )
    else:
        status = CONE_CHI_UNKNOWN
    return ConeChiCheck(status, (chi_a, chi_b))


@dataclass(frozen=True)
class MixedClassCheck:
    """Constraint from one semihomogeneous and one non-semihomogeneous germ.

    The semihomogeneous side has mu exactly (order-1)^n; the other side
    sits strictly above its own bound.  Equal orders therefore force a mu
    mismatch, and matching mu values force the non-semihomogeneous order
    to be strictly smaller.
    """

    obstructed: bool
    constraint: str | None
    semihomogeneous_side: int  # 0 = first argument, 1 = second
    bounds: tuple[int, int]  # ((order-1)^n for each germ, in argument order)


def check_mixed_class_pair(a: GermInvariants, b: GermInvariants) -> MixedClassCheck:
    if min(a.order, b.order) < 2:
        raise InputError("semihomogeneity is only defined for germs of order >= 2")
    if a.semihomogeneous == b.semihomogeneous:
        raise InputError(
            "mixed-class check needs exactly one semihomogeneous germ"
        )
    if a.mu is None or b.mu is None:
        raise InputError("mixed-class check needs isolated germs")
    side = 0 if a.semihomogeneous else 1
    bounds = (
        (a.order - 1) ** a.nvars,
        (b.order - 1) ** b.nvars,
    )
    obstructed = a.mu != b.mu
    constraint = None
    if not obstructed:
        sem, non = (a, b) if a.semihomogeneous else (b, a)
        constraint = (
            f"equal mu forces the non-semihomogeneous order ({non.order}) "
            f"strictly below the semihomogeneous order ({sem.order})"
        )
    return MixedClassCheck(obstructed, constraint, side, bounds)


@dataclass(frozen=True)
class CheckRecord:
    rule: str
    fired: bool
    detail: dict


@dataclass(frozen=True)
class DiscriminationReport:
    verdict: str
    mu: tuple[int, int]
    windows: tuple[DegreeWindow, DegreeWindow]
    class_a: tuple[bool, bool]
    checks: tuple[CheckRecord, ...]
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mu": list(self.mu),
            "windows": [[w.low, w.high] for w in self.windows],
            "classA": list(self.class_a),
            "checks": [
                {"detail": c.detail, "fired": c.fired, "rule": c.rule}
                for c in self.checks
            ],
            "caveats": list(self.caveats),
        }


def _validated_pair(f: Poly, g: Poly) -> tuple[GermInvariants, GermInvariants]:
    for label, p in (("first", f), ("second", g)):
        if not p:
            raise ZeroPolynomialError(f"the {label} germ is the zero polynomial")
        if p.constant_term():
            raise InputError(f"the {label} germ does not vanish at the origin")
    if f.nvars != g.nvars:
        raise InputError(
            f"germs live in different variable counts ({f.nvars} vs {g.nvars})"
        )
    germs = []
    for label, p in (("first", f), ("second", g)):
        germ = germ_invariants(p)
        if germ.mu is None:
            raise InputError(
                f"the {label} germ has a non-isolated critical locus "
                "(no finite Milnor number); the discriminator requires "
                "isolated or regular germs"
            )
        germs.append(germ)
    return germs[0], germs[1]


def discriminate(f: Poly, g: Poly) -> DiscriminationReport:
    """Run all checks and fold them into a single verdict.

    Verdict priority: any failed necessary condition yields
    NOT_EQUISINGULAR; otherwise a certified cone-chi criterion yields
    EQUIMULTIPLE_IF_EQUISINGULAR; otherwise INCONCLUSIVE.  All verdicts and
    every recorded check are symmetric in the two arguments.
    """
    a, b = _validated_pair(f, g)
    windows = (DegreeWindow(a.order, a.degree), DegreeWindow(b.order, b.degree))
    semi = (a.semihomogeneous, b.semihomogeneous)

    checks: list[CheckRecord] = []
    checks.append(
        CheckRecord(
            RULE_REGULAR_SINGULAR,
            check_regular_singular_mismatch(f, g),
            {"order": [a.order, b.order]},
        )
    )
    checks.append(
        CheckRecord(RULE_MU_MISMATCH, a.mu != b.mu, {"mu": [a.mu, b.mu]})
    )
    checks.append(
        CheckRecord(
            RULE_WINDOW_GAP,
            check_window_obstruction(f, g),
            {"windows": [[w.low, w.high] for w in windows]},
        )
    )
    if semi[0] != semi[1] and min(a.order, b.order) >= 2:
        mixed = check_mixed_class_pair(a, b)
        detail = {
            "closedFormBound": list(mixed.bounds),
            "mu": [a.mu, b.mu],
            "semihomogeneousSide": mixed.semihomogeneous_side,
        }
        if mixed.constraint:
            detail["constraint"] = mixed.constraint
        checks.append(CheckRecord(RULE_MIXED_CLASS, mixed.obstructed, detail))

    cone = check_cone_chi_criterion(a, b)
    checks.append(
        CheckRecord(
            RULE_CONE_CHI,
            cone.status == CONE_CHI_CERTIFIED,
            {"chi": list(cone.chi), "status": cone.status},
        )
    )

    obstructed = any(
        c.fired for c in checks if c.rule != RULE_CONE_CHI
    )
    if obstructed:
        verdict = NOT_EQUISINGULAR
    elif cone.status == CONE_CHI_CERTIFIED:
        verdict = EQUIMULTIPLE_IF_EQUISINGULAR
    else:
        verdict = INCONCLUSIVE

    caveats = []
    if cone.status == CONE_CHI_UNKNOWN:
        caveats.append("cone-complement-chi-unknown")

    return DiscriminationReport(
        verdict=verdict,
        mu=(a.mu, b.mu),
        windows=windows,
        class_a=semi,
        checks=tuple(checks),
        caveats=tuple(caveats),
    )
