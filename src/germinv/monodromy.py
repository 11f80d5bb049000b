"""Monodromy arithmetic from resolution data.

Everything here is integer bookkeeping on plain values.  The multiplicity
strata of a resolution give one finitely supported s-sequence, and every
invariant is read off it: the Lefschetz numbers of the monodromy iterates
(a tuple with Lambda(h^k) at index k - 1, which Moebius inversion turns
back into s), the Euler number of the fiber, the Milnor number, and the
zeta function as a product of (1-t^i)^e factors.  The characteristic
polynomial of the monodromy comes from the zeta function and the Milnor
number, the multiplicity bound (an int) from the Lefschetz numbers.
Every size built here is checked against MAX_SIZE first.

Sign convention for the characteristic polynomial: with E = Euler number
of the fiber, Delta(t) = t^mu * [ (t-1)/t * Z(1/t) ]^epsilon where epsilon
is (-1)^n for n variables.  The opposite parity choice fails already on
the plain quadratic germ (it produces a non-polynomial), and the
eigenvalue-product tests pin this one down.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

from ._record import record
from .errors import ConventionViolationError, InputError

# The largest size the monodromy functions build, checked before building
# it: a Lefschetz horizon (zeta --K), a Milnor number (charpoly --mu), a
# stratum's |chi|, either cyclotomic degree in char_poly, and twice a
# stratum's multiplicity m, so that the default horizon 2 * max m fits.
# The cap on its degrees bounds char_poly's work (see its docstring): the
# slowest strata tried at the cap, Delta = (t-1)^2500 * (t^2-1)^1250, take
# about 1 s in-process on a 2-vCPU Xeon (Python 3.11.7), printing included.
# The goldens reach mu 216, K 26.
MAX_SIZE = 5_000


# -- little number theory ----------------------------------------------------

def divisors(n: int) -> list[int]:
    if n < 1:
        raise InputError("divisors of a positive integer only")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    if n < 1:
        raise InputError("mobius of a positive integer only")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _is_int(value) -> bool:
    """An int proper: bool is an int subclass, and JSON true must not pass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_size(what: str, value: int):
    # The value itself is not printed: it may have more digits than str() converts.
    if value > MAX_SIZE:
        raise InputError(f"{what} above the maximum of {MAX_SIZE}")


def _int_pairs(pairs, malformed: str, duplicate: str) -> tuple[tuple[int, int], ...]:
    """Integer (index >= 1, value) pairs with distinct indices, sorted by index."""
    clean = {}
    for i, v in pairs:
        if not (_is_int(i) and _is_int(v)) or i < 1:
            raise InputError(malformed)
        if i in clean:
            raise InputError(f"{duplicate} {i}")
        clean[i] = v
    return tuple(sorted(clean.items()))


def _sparse_pairs(pairs, malformed: str, duplicate: str) -> tuple[tuple[int, int], ...]:
    """_int_pairs with the zero values dropped."""
    return tuple((i, v) for i, v in _int_pairs(pairs, malformed, duplicate) if v)


# -- resolution data ---------------------------------------------------------

@record
class ResolutionData:
    """Multiplicity strata (m, chi(S_m)), distinct m >= 1, sorted; chi = 0 kept."""

    strata: tuple[tuple[int, int], ...]

    def __post_init__(self):
        strata = _int_pairs(
            self.strata,
            "strata must be integer (m, chi) pairs with m >= 1",
            "duplicate stratum multiplicity",
        )
        for m, chi in strata:
            _check_size("twice a stratum multiplicity", 2 * m)
            _check_size("stratum Euler number |chi|", abs(chi))
        object.__setattr__(self, "strata", strata)

    @staticmethod
    def from_json(data) -> "ResolutionData":
        if not isinstance(data, list):
            raise InputError("resolution data must be a JSON array of {m, chi}")
        strata = []
        for entry in data:
            if not isinstance(entry, dict) or set(entry) != {"m", "chi"}:
                raise InputError("each stratum must be an object with keys m, chi")
            strata.append((entry["m"], entry["chi"]))
        return ResolutionData(tuple(strata))

    def to_json(self) -> list[dict]:
        return [{"chi": chi, "m": m} for m, chi in self.strata]

    def max_multiplicity(self) -> int:
        return max((m for m, _ in self.strata), default=1)


# -- Lefschetz sequences and their inversion ---------------------------------

@record
class SSequence:
    """Finitely supported integer sequence s_i, stored sparse without zeros."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _sparse_pairs(
            self.entries,
            "s-sequence wants integer entries at indices >= 1",
            "duplicate s-sequence index",
        ))

    def total(self) -> int:
        """The Euler number of the Milnor fiber: Lambda(h^0) = sum of s_i."""
        return sum(s for _, s in self.entries)


def s_sequence(res: ResolutionData) -> SSequence:
    """s_m = m * chi(S_m) straight off the strata (A'Campo, Comment. Math.
    Helv. 50, 1975): every invariant of the strata is read off it."""
    return SSequence(tuple((m, m * chi) for m, chi in res.strata))


def lefschetz_from_s(s: SSequence, horizon: int) -> tuple[int, ...]:
    """Lambda(h^k) = sum of s_i over i dividing k, for k = 1..horizon: each
    s_i is added at the multiples of i, so the cost is about horizon * log."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    _check_size("horizon", horizon)
    lam = [0] * horizon
    for i, s_i in s.entries:
        for k in range(i - 1, horizon, i):
            lam[k] += s_i
    return tuple(lam)


def invert_lefschetz(lam: Sequence[int]) -> SSequence:
    """Recover s from Lambda(h^d) = lam[d - 1] by Moebius inversion over the
    divisor lattice."""
    values = {}
    for k in range(1, len(lam) + 1):
        s_k = sum(mobius(k // d) * lam[d - 1] for d in divisors(k))
        if s_k:
            values[k] = s_k
    return SSequence(tuple(values.items()))


def _milnor_sign(n: int) -> int:
    """(-1)^(n-1) for an ambient variable count n >= 1."""
    if n < 1:
        raise InputError(f"need n >= 1 variables, got {n}")
    return 1 if n % 2 else -1


def milnor_from_s(s: SSequence, n: int) -> int:
    """mu = (-1)^(n-1) * (sum of s_i - 1); negative means corrupt data."""
    mu = _milnor_sign(n) * (s.total() - 1)
    if mu < 0:
        raise InputError(f"inconsistent monodromy data: it implies Milnor number {mu}")
    return mu


# -- zeta functions ----------------------------------------------------------

@record
class ZetaFunction:
    """Product of (1 - t^i)^e factors, sparse in i, no zero exponents."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _sparse_pairs(
            self.factors,
            "zeta factors want integer exponents at i >= 1",
            "duplicate zeta factor index",
        ))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"(1-t^{i})^{e}" for i, e in self.factors)


def zeta(s: SSequence) -> ZetaFunction:
    """Z = prod over support of (1 - t^i)^(-s_i / i); i must divide s_i."""
    factors = []
    for i, s_i in s.entries:
        if s_i % i:
            raise InputError(
                f"malformed s-sequence: s_{i} = {s_i} is not divisible by {i}"
            )
        factors.append((i, -s_i // i))
    return ZetaFunction(tuple(factors))


# -- homogeneous reference germs ---------------------------------------------

def chi_tangent_cone_complement(l: int, n: int) -> int:
    """Euler number of the projective complement of a degree-l reference cone.

    (1 - (1-l)^n) / l; the quotient is always an integer, asserted hard.
    """
    if l < 1 or n < 1:
        raise InputError("need degree l >= 1 and n >= 1 variables")
    numerator = 1 - (1 - l) ** n
    assert numerator % l == 0, "divisibility must hold for all l, n"
    return numerator // l


def homogeneous_resolution(l: int, n: int) -> ResolutionData:
    """Resolution strata of the degree-l sum-of-powers germ in n variables.

    A single stratum: multiplicity l with chi = (1 - (1-l)^n) / l.  Its
    Milnor number (l-1)^n is capped at MAX_SIZE before the power is formed:
    for l > 2 the power exceeds the cap once n reaches the cap's bit length.
    """
    if l > 2 and n > 0 and (n >= MAX_SIZE.bit_length() or (l - 1) ** n > MAX_SIZE):
        raise InputError(f"Milnor number (l-1)^n above the maximum of {MAX_SIZE}")
    return ResolutionData(((l, chi_tangent_cone_complement(l, n)),))


# -- characteristic polynomial -----------------------------------------------

@record
class CharPoly:
    """Integer polynomial, coefficients ascending; monic up to sign."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        out = ""
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c:
                coeff = "" if abs(c) == 1 and e else str(abs(c))
                var = "" if e == 0 else "t" if e == 1 else f"t^{e}"
                body = "*".join(filter(None, (coeff, var)))
                sign = "-" if c < 0 else "+"
                out += f" {sign} {body}" if out else body if c > 0 else "-" + body
        return out or "0"


def char_poly(z: ZetaFunction, mu: int, n: int) -> CharPoly:
    """Delta(t) of the monodromy from its zeta function and mu.

    Delta(t) = t^mu * [ (t-1)/t * Z(1/t) ]^((-1)^n).  With Z = prod
    (1-t^i)^e_i and sign = (-1)^n this splits into a power of t and
    cyclotomic factors:

        Delta(t) = t^shift * prod (t^i - 1)^E_i,
        shift = mu - sum i*E_i,  E_i = sign * (e_i + [i = 1]).

    As t^i - 1 is the product of the cyclotomic Phi_d over d | i, this is a
    polynomial exactly when each Phi_d's total exponent is >= 0, and then
    Delta(0) = +-1 exactly when shift = 0.  Both are checked before anything
    is built (ConventionViolationError), and so are the sizes (InputError).

    Delta is then built on one coefficient list.  Each t^j - 1 of the
    denominator is paired, while one is left, with a t^i - 1 of the
    numerator with j | i, and their quotient 1 + t^j + ... + t^(i-j) is
    multiplied in as one running sum of stride j.  The unpaired numerator
    factors are multiplied in (the costliest power at once by the binomial
    theorem, every other factor as a shift and a subtraction) and, last,
    every unpaired denominator factor is divided out (a running sum from
    the top), so the list never outgrows the numerator degree D.  The work
    is at most sum |E_i| * D additions of integers with O(D) bits.
    """
    if mu < 1:
        raise InputError("need mu >= 1 to assemble a characteristic polynomial")
    _check_size("Milnor number", mu)
    sign = -_milnor_sign(n)  # (-1)^n
    exponents = {1: sign}
    for i, e in z.factors:
        exponents[i] = exponents.get(i, 0) + sign * e
    _check_size("numerator degree", sum(i * k for i, k in exponents.items() if k > 0))
    _check_size("denominator degree", sum(-i * k for i, k in exponents.items() if k < 0))
    phi_exponents = {}
    for i, k in exponents.items():
        for d in divisors(i):
            phi_exponents[d] = phi_exponents.get(d, 0) + k
    shift = mu - sum(i * k for i, k in exponents.items())
    if shift < 0 or min(phi_exponents.values()) < 0:
        raise ConventionViolationError("the quotient is not a polynomial")
    if shift > 0:
        raise ConventionViolationError(
            "characteristic polynomial must be monic up to sign with |Delta(0)| = 1"
        )
    # pair each denominator t^j - 1 with a numerator t^i - 1, j | i, if one is left
    numerators = {i: k for i, k in exponents.items() if k > 0}
    quotients, unpaired = [], []
    for j, k in exponents.items():
        k = -k  # the power of t^j - 1 in the denominator
        for i, free in numerators.items():
            if k > 0 and free and i % j == 0:
                paired = min(k, free)
                numerators[i] -= paired
                k -= paired
                quotients.append((i, j, paired))
        if k > 0:
            unpaired.append((j, k))
    # Delta, built in place: every multiplication before any division.  It
    # starts as the power (t^i - 1)^k that would take the most additions,
    # about i*k^2/2, if multiplied in one factor at a time: by the binomial
    # theorem, the coefficient of t^(i*m) is (-1)^(k-m) * C(k, m).  There is
    # a numerator factor, as sum i*E_i = mu >= 1.
    factors = sorted(numerators.items(), key=lambda factor: factor[0] * factor[1] ** 2)
    i, k = factors.pop()
    coeffs = [0] * (i * k + 1)
    c = (-1) ** k
    for m in range(k + 1):
        coeffs[i * m] = c
        c = -c * (k - m) // (m + 1)
    for i, k in factors:
        for _ in range(k):  # times t^i - 1: shift up by i, subtract the old list
            coeffs[:0] = [0] * i
            coeffs[:-i] = [a - b for a, b in zip(coeffs, coeffs[i:])]
    for i, j, k in quotients:
        for _ in range(k):  # times 1 + t^j + ... + t^(i-j) = (1 - t^i) / (1 - t^j)
            coeffs += [0] * (i - j)
            for r in range(j):  # over 1 - t^j: a running sum of stride j
                coeffs[r::j] = accumulate(coeffs[r::j])
            coeffs[i:] = [a - b for a, b in zip(coeffs[i:], coeffs)]
    for i, k in unpaired:
        for _ in range(k):  # over t^i - 1: q[j] = c[j+i] + q[j+i] from the top down
            for j in range(len(coeffs) - 1, i - 1, -1):
                coeffs[j - i] += coeffs[j]
            if any(coeffs[:i]):  # the remainder; q now starts at index i
                raise ConventionViolationError("the quotient is not a polynomial")
            del coeffs[:i]
    return CharPoly(tuple(coeffs))


# -- multiplicity detection --------------------------------------------------

def multiplicity_bound(lam: Sequence[int]) -> int:
    """The least k with Lambda(h^k) = lam[k - 1] nonzero, else len(lam) + 1,
    a lower bound.  Even when found, it is the exact multiplicity only under
    the nonvanishing hypothesis for the cone complement's Euler number;
    callers certify that.
    """
    return next((k for k, value in enumerate(lam, 1) if value), len(lam) + 1)
