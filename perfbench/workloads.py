"""The three benchmark workloads: inputs made from a seed, ops, output checks.

A workload is built from the seed alone and yields *passes*: lists of ops,
each op a zero-argument callable returning an :class:`Outcome`.  The timed
loop runs whole passes; the traced run measures exactly the first pass, so
its counters repeat for a given seed.

An op that ends in a way its workload does not allow raises
:class:`CheckFailure`.  That fails the whole run: a wrong answer is never
counted as a slow op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

# Ops call germinv through module attributes, never through names bound
# here, so the tracer's wrappers in those modules see every call.
import germinv.cli
from germinv import corpus, milnor
from germinv.corpus import ISOLATED_GERMS, NON_SEMIHOMOGENEOUS_FAMILY, CorpusGerm
from germinv.errors import EngineError, IterationLimitError
from germinv.gaussian import GaussianRational
from germinv.poly import Poly, monomials_of_degree

from golden import CLI_CALLS

# Step budget for the standard-basis engine on dense-sweep.  Recorded in
# BENCHMARK.json; changing it changes the workload.
DENSE_MAX_STEPS = 150

OK = "ok"
BUDGET = "budget-exceeded"  # the engine's IterationLimitError: a measured outcome
ERROR = "error"  # any other engine diagnostic or unexpected exit code
REPLACED = "replaced"  # dense draw the oracle could not certify: not an op


class CheckFailure(Exception):
    """An op's output is wrong: the run is invalid."""


def _engine_status(exc: EngineError) -> str:
    return BUDGET if isinstance(exc, IterationLimitError) else ERROR


@dataclass(frozen=True)
class Outcome:
    status: str
    digest_part: str


# -- sparse-sweep -------------------------------------------------------------

def brieskorn_germs() -> tuple[CorpusGerm, ...]:
    """x^a+y^b and x^a+y^b+z^c with near-balanced exponents, mu <= 200.

    Exponents stay within 3 (2 variables) or 2 (3 variables) of each other:
    lopsided ones like x^2+y^101 put the oracle at a horizon near 100 and
    one germ would take the whole run.
    """
    germs = []
    for a in range(2, 20):
        for b in range(a, a + 4):
            mu = (a - 1) * (b - 1)
            if mu <= 200:
                germs.append(CorpusGerm(f"x{a}y{b}", f"x^{a} + y^{b}", ("x", "y"), a == b, mu))
    for a in range(2, 10):
        for b in range(a, a + 3):
            for c in range(b, a + 3):
                mu = (a - 1) * (b - 1) * (c - 1)
                if mu <= 200:
                    germs.append(
                        CorpusGerm(f"x{a}y{b}z{c}", f"x^{a} + y^{b} + z^{c}",
                                   ("x", "y", "z"), a == b == c, mu)
                    )
    return tuple(germs)


SPARSE_GERMS = ISOLATED_GERMS + NON_SEMIHOMOGENEOUS_FAMILY + brieskorn_germs()


def _check_corpus_entry(germ: CorpusGerm, entry: dict):
    if entry["mu"] is None or entry["mu"] != entry["muOracle"]:
        raise CheckFailure(f"{germ.name}: engines disagree ({entry['mu']} vs {entry['muOracle']})")
    if entry["mu"] != germ.known_mu:
        raise CheckFailure(f"{germ.name}: mu {entry['mu']} != known {germ.known_mu}")
    if entry["semihomogeneousComputed"] != germ.semihomogeneous:
        raise CheckFailure(f"{germ.name}: class predicate disagrees")


def _sparse_op(germ: CorpusGerm):
    def op() -> Outcome:
        try:
            entry = corpus.run_corpus([germ])[0]
        except EngineError as exc:
            return Outcome(_engine_status(exc), f"{germ.name}:{type(exc).__name__}")
        _check_corpus_entry(germ, entry)
        return Outcome(OK, f"{germ.name}:{germ.text}:{entry['mu']}")
    return op


def sparse_passes(seed: int):
    """Every germ once per pass, scaled by a seeded rational each pass.

    mu, the class and known_mu are invariant under f -> c*f, so the checks
    stay exact, while each pass hands the engines freshly scaled Polys.
    """
    rng = random.Random(seed)
    while True:
        ops = []
        for germ in SPARSE_GERMS:
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            scaled = CorpusGerm(germ.name, f"({c})*({germ.text})", germ.vars,
                                germ.semihomogeneous, germ.known_mu)
            ops.append(_sparse_op(scaled))
        yield ops


# -- dense-sweep --------------------------------------------------------------

COEFF_KINDS = ("integer", "rational", "gaussian")
DENSE_PANEL = 36  # 24 germs in 2 variables, 12 in 3, each coefficient kind a third
PANEL_SEED = 2007  # fixes the dense germs; --seed only relabels them


def _coefficient(rng: random.Random, kind: str) -> GaussianRational:
    while True:
        if kind == "integer":
            c = GaussianRational(rng.randint(-3, 3))
        elif kind == "rational":
            c = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        else:
            c = GaussianRational(Fraction(rng.randint(-3, 3), 3), Fraction(rng.randint(-3, 3), 3))
        if c:
            return c


def dense_germ(rng: random.Random, nvars: int, kind: str) -> tuple[Poly, int]:
    """A dense germ of order 3 plus a pure power of every variable.

    Returns the germ and the Milnor number of its pure-power part.  That
    bounds mu whenever the germ is Newton non-degenerate (Kouchnirenko), as
    generic coefficients make it, so it sets the oracle horizon when the
    engine gives no candidate.
    """
    top = rng.randint(3, 6 if nvars == 2 else 4)
    terms = {}
    for degree in range(3, top + 1):
        for mono in monomials_of_degree(nvars, degree):
            if sum(1 for e in mono if e) > 1 and rng.random() < 0.5:
                terms[mono] = _coefficient(rng, kind)
    powers = [rng.randint(3, 7 if nvars == 2 else 4) for _ in range(nvars)]
    for i, p in enumerate(powers):
        terms[tuple(p if j == i else 0 for j in range(nvars))] = GaussianRational(1)
    return Poly(nvars, terms), prod(p - 1 for p in powers)


def _dense_op(f: Poly, bound: int):
    def op() -> Outcome:
        try:
            mu = milnor.milnor_number(f, max_steps=DENSE_MAX_STEPS).mu
            status = OK
        except EngineError as exc:
            mu, status = None, _engine_status(exc)
        oracle = milnor.milnor_oracle(f, milnor.oracle_dmax_for(bound if mu is None else mu))
        if oracle is None and mu is None:
            return Outcome(REPLACED, "")
        if status != OK:
            return Outcome(status, f"{f}:{status}:{oracle}")
        if mu != oracle:
            raise CheckFailure(f"{f}: standard basis gives {mu}, oracle {oracle}")
        return Outcome(OK, f"{f}:{mu}")
    return op


def _sign_flipped(f: Poly, signs: tuple[int, ...]) -> Poly:
    """f(s1*x1, ..., sn*xn) for signs si in {1, -1}."""
    return Poly(f.nvars, {
        mono: c * prod(s ** e for s, e in zip(signs, mono)) for mono, c in f.terms().items()
    })


def dense_passes(seed: int):
    """One fixed stratified panel of dense draws per pass, relabelled by the seed.

    Draw costs are heavy-tailed (1 ms to over 1 s), so fresh draws per seed
    would make a run's mix, and every timing with it, a matter of luck.
    The panel is therefore drawn once from PANEL_SEED, and every pass sends
    each panel germ through f -> c*f(+-x) with a seeded rational c and
    seeded signs.  Leading monomials, reduction steps, mu and the budget
    outcome are invariant under that map, so passes and seeds cost the same
    while each pass hands the engines freshly relabelled Polys.  Budget-exhausting
    draws stay in.  A draw is replaced (its op skipped) only when the
    oracle reports no stabilisation.
    """
    panel_rng = random.Random(PANEL_SEED)
    panel = []
    for slot in range(DENSE_PANEL):
        nvars = 3 if slot % 3 == 2 else 2
        kind = COEFF_KINDS[(slot // 3) % 3]
        panel.append(dense_germ(panel_rng, nvars, kind))
    rng = random.Random(seed)
    while True:
        ops = []
        for f, bound in panel:
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            signs = tuple(rng.choice((-1, 1)) for _ in range(f.nvars))
            ops.append(_dense_op(_sign_flipped(f, signs).scale(c), bound))
        yield ops


# -- cli-mix ------------------------------------------------------------------

def _cli_op(argv, expected_code, digest):
    def op() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = germinv.cli.main(list(argv))
        text = out.getvalue()
        if code != expected_code:
            return Outcome(ERROR, f"{argv}:exit {code}")
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != digest:
            raise CheckFailure(f"germinv {' '.join(argv)}: report digest {got} != golden {digest}")
        return Outcome(OK, got)
    return op


def cli_passes(seed: int):
    """The fixed call list, in a seeded order each pass."""
    rng = random.Random(seed)
    while True:
        calls = list(CLI_CALLS)
        rng.shuffle(calls)
        yield [_cli_op(*call) for call in calls]


PASSES = {
    "sparse-sweep": sparse_passes,
    "dense-sweep": dense_passes,
    "cli-mix": cli_passes,
}
