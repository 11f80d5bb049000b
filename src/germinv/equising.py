"""Necessary and conditional-sufficient screening for germ pairs.

Given two isolated (or regular) germs in the same variables, the
discriminator reads one GermInvariants record per germ (mu, order, degree
and class, from one standard basis) and runs a fixed battery of rules on
the two records:

* regular-vs-singular mismatch (one germ smooth, one not),
* Milnor number mismatch,
* disjoint degree windows (one germ's top degree below the other's order),
* the mixed tangent-cone-class constraint (exactly one germ
  semihomogeneous),
* the cone-complement Euler-characteristic criterion, which when it
  certifies makes equimultiplicity a consequence of equisingularity.

Every rule has the same shape, ``(a, b) -> CheckRecord``: the record it
contributes to the report, fired or not, with the facts it read.

A NOT_EQUISINGULAR verdict is a proof (some necessary condition failed).
EQUIMULTIPLE_IF_EQUISINGULAR and INCONCLUSIVE never assert that the pair
is equisingular; nothing here does.
"""

from __future__ import annotations

from ._record import record
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


@record
class CheckRecord:
    """One rule's outcome as the report prints it: fired, and the facts read."""

    rule: str
    fired: bool
    detail: dict


def check_regular_singular_mismatch(a: GermInvariants, b: GermInvariants) -> CheckRecord:
    """Fires iff exactly one of the germs is regular (order 1) at 0."""
    return CheckRecord(RULE_REGULAR_SINGULAR, (a.order == 1) != (b.order == 1),
                       {"order": [a.order, b.order]})


def check_mu_mismatch(a: GermInvariants, b: GermInvariants) -> CheckRecord:
    """Fires iff the Milnor numbers differ."""
    return CheckRecord(RULE_MU_MISMATCH, a.mu != b.mu, {"mu": [a.mu, b.mu]})


def check_window_obstruction(a: GermInvariants, b: GermInvariants) -> CheckRecord:
    """Fires iff the degree windows [order, degree] are disjoint, either way.

    Every term of a germ has its degree inside its window.
    """
    return CheckRecord(RULE_WINDOW_GAP, a.degree < b.order or b.degree < a.order,
                       {"windows": [[a.order, a.degree], [b.order, b.degree]]})


def check_mixed_class_pair(a: GermInvariants, b: GermInvariants) -> CheckRecord:
    """Constraint from one semihomogeneous and one non-semihomogeneous germ.

    The semihomogeneous side has mu exactly (order-1)^n; the other side
    sits strictly above its own bound.  Equal orders therefore force a mu
    mismatch, and matching mu values force the non-semihomogeneous order
    to be strictly smaller.
    """
    if min(a.order, b.order) < 2:
        raise InputError("semihomogeneity is only defined for germs of order >= 2")
    if a.semihomogeneous == b.semihomogeneous:
        raise InputError("mixed-class check needs exactly one semihomogeneous germ")
    if a.mu is None or b.mu is None:
        raise InputError("mixed-class check needs isolated germs")
    detail = {
        "closedFormBound": [(a.order - 1) ** a.nvars, (b.order - 1) ** b.nvars],
        "mu": [a.mu, b.mu],
        "semihomogeneousSide": 0 if a.semihomogeneous else 1,
    }
    fired = a.mu != b.mu
    if not fired:
        sem, non = (a, b) if a.semihomogeneous else (b, a)
        detail["constraint"] = (
            f"equal mu forces the non-semihomogeneous order ({non.order}) "
            f"strictly below the semihomogeneous order ({sem.order})"
        )
    return CheckRecord(RULE_MIXED_CLASS, fired, detail)


def _cone_chi(germ: GermInvariants) -> int | None:
    """Euler number of the cone complement; None when no closed form applies
    (initial form with a non-isolated critical point)."""
    if germ.order == 1:
        # Regular germ: the projectivized cone is a hyperplane, complement
        # an affine space, Euler number 1.
        return 1
    if germ.semihomogeneous:
        return chi_tangent_cone_complement(germ.order, germ.nvars)
    return None


def check_cone_chi_criterion(a: GermInvariants, b: GermInvariants) -> CheckRecord:
    """Fires (certifies) iff both cone complements have nonzero Euler numbers."""
    chi = [_cone_chi(a), _cone_chi(b)]
    if None in chi:
        status = CONE_CHI_UNKNOWN
    elif 0 in chi:
        status = CONE_CHI_NOT_SATISFIED
    else:
        status = CONE_CHI_CERTIFIED
    return CheckRecord(RULE_CONE_CHI, status == CONE_CHI_CERTIFIED,
                       {"chi": chi, "status": status})


@record
class DiscriminationReport:
    verdict: str
    germs: tuple[GermInvariants, GermInvariants]
    checks: tuple[CheckRecord, ...]
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mu": [g.mu for g in self.germs],
            "windows": [[g.order, g.degree] for g in self.germs],
            "classA": [g.semihomogeneous for g in self.germs],
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
    necessary = [check_regular_singular_mismatch, check_mu_mismatch,
                 check_window_obstruction]
    if a.semihomogeneous != b.semihomogeneous and min(a.order, b.order) >= 2:
        necessary.append(check_mixed_class_pair)
    checks = [rule(a, b) for rule in necessary]
    cone = check_cone_chi_criterion(a, b)

    if any(c.fired for c in checks):
        verdict = NOT_EQUISINGULAR
    elif cone.fired:
        verdict = EQUIMULTIPLE_IF_EQUISINGULAR
    else:
        verdict = INCONCLUSIVE
    unknown = cone.detail["status"] == CONE_CHI_UNKNOWN
    caveats = ("cone-complement-chi-unknown",) if unknown else ()
    return DiscriminationReport(verdict, (a, b), (*checks, cone), caveats)
