"""Bundled germ corpus: the fixed examples every engine is tested against.

The isolated entries mix semihomogeneous germs (where the closed form
(order-1)^n applies) with germs whose initial form degenerates (the A-D-E
suspensions, the T-series, joins), including non-quasi-homogeneous ones.
known_mu values are classical or were frozen from the truncated-dimension
oracle; the corpus runner recomputes everything with both engines and
reports disagreements instead of hiding them.
"""

from __future__ import annotations

from ._record import record
from .milnor import METHOD_STANDARD_BASIS, germ_invariants, milnor_oracle, oracle_dmax_for
from .poly import Poly, parse_poly


@record
class CorpusGerm:
    name: str
    text: str
    vars: tuple[str, ...]
    semihomogeneous: bool
    known_mu: int | None = None

    def poly(self) -> Poly:
        return parse_poly(self.text, self.vars)


_XY = ("x", "y")
_XYZ = ("x", "y", "z")

ISOLATED_GERMS: tuple[CorpusGerm, ...] = (
    # Sums of powers and other semihomogeneous germs.
    CorpusGerm("fermat-2-2", "x^2 + y^2", _XY, True, 1),
    CorpusGerm("fermat-3-2", "x^3 + y^3", _XY, True, 4),
    CorpusGerm("fermat-4-2", "x^4 + y^4", _XY, True, 9),
    CorpusGerm("fermat-5-2", "x^5 + y^5", _XY, True, 16),
    CorpusGerm("fermat-2-3", "x^2 + y^2 + z^2", _XYZ, True, 1),
    CorpusGerm("fermat-3-3", "x^3 + y^3 + z^3", _XYZ, True, 8),
    CorpusGerm("cubic-tail-quartic", "x^3 + y^3 + x^4", _XY, True, 4),
    CorpusGerm("cubic-tail-quintic", "x^3 + y^3 + y^5", _XY, True, 4),
    CorpusGerm("quartic-tail", "x^4 + y^4 + x^3*y^2", _XY, True, 9),
    CorpusGerm("scaled-cubic", "x^3 + 2*y^3 + x^2*y^2", _XY, True, 4),
    CorpusGerm("gaussian-quadric", "x^2 + i*y^2", _XY, True, 1),
    CorpusGerm("binary-quartic", "x^4 + x^2*y^2 + y^4", _XY, True, 9),
    CorpusGerm("cubic-3d-tail", "x^3 + y^3 + z^3 + x^4", _XYZ, True, 8),
    # Degenerate initial forms: A-D-E and friends.
    CorpusGerm("a2-cusp", "x^2 + y^3", _XY, False, 2),
    CorpusGerm("a4", "x^2 + y^5", _XY, False, 4),
    CorpusGerm("d5", "x^2*y + y^4", _XY, False, 5),
    CorpusGerm("d6", "x^2*y + y^5", _XY, False, 6),
    CorpusGerm("e6", "x^3 + y^4", _XY, False, 6),
    CorpusGerm("e7", "x^3 + x*y^3", _XY, False, 7),
    CorpusGerm("e8", "x^3 + y^5", _XY, False, 8),
    CorpusGerm("brieskorn-4-5", "x^4 + y^5", _XY, False, 12),
    # Non-quasi-homogeneous T-series (mu frozen from the truncated oracle).
    CorpusGerm("t-5-5", "x^2*y^2 + x^5 + y^5", _XY, False, 11),
    CorpusGerm("t-5-6", "x^2*y^2 + x^5 + y^6", _XY, False, 12),
    # Three-variable suspensions and joins.
    CorpusGerm("a2-suspension", "x^2 + y^2 + z^3", _XYZ, False, 2),
    CorpusGerm("join-3-3-4", "x^3 + y^3 + z^4", _XYZ, False, 12),
)

# Germs with a non-isolated critical locus, for negative tests only.
NON_ISOLATED_GERMS: tuple[CorpusGerm, ...] = (
    CorpusGerm("square-of-product", "x^2*y^2", _XY, False, None),
    CorpusGerm("plane-squared", "x^2", _XY, False, None),
    CorpusGerm("cylinder", "x^2 + y^2", _XYZ, False, None),
)

# The degenerate-initial-form family used by the strict-inequality tests
# (k >= 4: at k = 3 the cubic is homogeneous with three distinct lines and
# the initial form is isolated after all).
NON_SEMIHOMOGENEOUS_FAMILY: tuple[CorpusGerm, ...] = tuple(
    CorpusGerm(f"d-series-{k}", f"x^2*y + y^{k}", _XY, False, k + 1)
    for k in range(4, 8)
)


def run_corpus(entries=ISOLATED_GERMS) -> list[dict]:
    """Recompute every entry with both engines; one result dict per germ.

    The oracle horizon is derived from the engine's candidate so a lying
    engine cannot quietly shrink the cross-check window.
    """
    results = []
    for germ in entries:
        f = germ.poly()
        engine = germ_invariants(f)
        if engine.mu is None:
            oracle = milnor_oracle(f)
        else:
            oracle = milnor_oracle(f, oracle_dmax_for(engine.mu))
        results.append(
            {
                "agreement": engine.mu == oracle,
                "classA": germ.semihomogeneous,
                "knownMu": germ.known_mu,
                "method": METHOD_STANDARD_BASIS,
                "mu": engine.mu,
                "muOracle": oracle,
                "name": germ.name,
                "order": engine.order,
                "semihomogeneousComputed": engine.semihomogeneous,
                "vars": list(germ.vars),
            }
        )
    return results
