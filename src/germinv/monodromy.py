"""Monodromy arithmetic from resolution data.

Everything here is integer bookkeeping: Lefschetz numbers of monodromy
iterates from the multiplicity strata of a resolution, the finitely
supported s-sequence recovered by Moebius inversion, the zeta function as
a product of (1-t^i)^e factors, and the characteristic polynomial of the
monodromy assembled from the zeta function and the Milnor number.

Sign convention for the characteristic polynomial: with E = Euler number
of the fiber, Delta(t) = t^mu * [ (t-1)/t * Z(1/t) ]^epsilon where epsilon
is (-1)^n for n variables.  The opposite parity choice fails already on
the plain quadratic germ (it produces a non-polynomial), and the
eigenvalue-product tests pin this one down.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ConventionViolationError, InputError


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


# -- resolution data ---------------------------------------------------------

@dataclass(frozen=True)
class ResolutionData:
    """Multiplicity strata (m, chi(S_m)) with distinct m >= 1."""

    strata: tuple[tuple[int, int], ...]

    def __post_init__(self):
        clean = []
        seen = set()
        for m, chi in self.strata:
            if not (_is_int(m) and _is_int(chi)):
                raise InputError("strata entries must be integer (m, chi) pairs")
            if m < 1:
                raise InputError(f"stratum multiplicity {m} must be >= 1")
            if m in seen:
                raise InputError(f"duplicate stratum multiplicity {m}")
            seen.add(m)
            clean.append((m, chi))
        clean.sort()
        object.__setattr__(self, "strata", tuple(clean))

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


def lefschetz(res: ResolutionData, k: int) -> int:
    """Lefschetz number of the k-th monodromy iterate, k >= 1."""
    if k < 1:
        raise InputError("iterate index must be >= 1")
    return sum(m * chi for m, chi in res.strata if k % m == 0)


def euler_fiber(res: ResolutionData) -> int:
    """Euler number of the Milnor fiber: the full weighted stratum sum."""
    return sum(m * chi for m, chi in res.strata)


def milnor_from_resolution(res: ResolutionData, n: int) -> int:
    """mu = (-1)^(n-1) * (euler_fiber - 1); negative means corrupt data."""
    mu = (-1) ** (n - 1) * (euler_fiber(res) - 1)
    if mu < 0:
        raise InputError(
            f"inconsistent resolution data: it implies Milnor number {mu}"
        )
    return mu


# -- Lefschetz sequences and their inversion ---------------------------------

@dataclass(frozen=True)
class LefschetzSequence:
    """Lambda(h^k) for k = 1..horizon, as a plain tuple."""

    values: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.values)

    def at(self, k: int) -> int:
        if not 1 <= k <= self.horizon:
            raise InputError(f"iterate {k} outside horizon 1..{self.horizon}")
        return self.values[k - 1]


def lefschetz_sequence(res: ResolutionData, horizon: int) -> LefschetzSequence:
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    return LefschetzSequence(tuple(lefschetz(res, k) for k in range(1, horizon + 1)))


@dataclass(frozen=True)
class SSequence:
    """Finitely supported integer sequence s_i, stored sparse without zeros."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        clean = []
        seen = set()
        for i, s in self.entries:
            if not (_is_int(i) and _is_int(s)) or i < 1:
                raise InputError("s-sequence wants integer entries at indices >= 1")
            if i in seen:
                raise InputError(f"duplicate s-sequence index {i}")
            seen.add(i)
            if s:
                clean.append((i, s))
        clean.sort()
        object.__setattr__(self, "entries", tuple(clean))

    @staticmethod
    def from_map(values: dict[int, int]) -> "SSequence":
        return SSequence(tuple(values.items()))

    def get(self, i: int) -> int:
        for j, s in self.entries:
            if j == i:
                return s
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def to_map(self) -> dict[int, int]:
        return dict(self.entries)

    def total(self) -> int:
        return sum(s for _, s in self.entries)


def s_sequence(res: ResolutionData) -> SSequence:
    """s_m = m * chi(S_m) straight off the strata."""
    return SSequence(tuple((m, m * chi) for m, chi in res.strata))


def lefschetz_from_s(s: SSequence, horizon: int) -> LefschetzSequence:
    """Lambda(h^k) = sum of s_i over i dividing k."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    values = []
    for k in range(1, horizon + 1):
        values.append(sum(s.get(d) for d in divisors(k)))
    return LefschetzSequence(tuple(values))


def invert_lefschetz(lam: LefschetzSequence) -> SSequence:
    """Recover s from Lambda by Moebius inversion over the divisor lattice."""
    values = {}
    for k in range(1, lam.horizon + 1):
        s_k = sum(mobius(k // d) * lam.at(d) for d in divisors(k))
        if s_k:
            values[k] = s_k
    return SSequence.from_map(values)


def milnor_from_s(s: SSequence, n: int) -> int:
    """mu = (-1)^(n-1) * (sum of s_i - 1); negative means corrupt data."""
    mu = (-1) ** (n - 1) * (s.total() - 1)
    if mu < 0:
        raise InputError(f"inconsistent s-sequence: it implies Milnor number {mu}")
    return mu


# -- zeta functions ----------------------------------------------------------

@dataclass(frozen=True)
class ZetaFunction:
    """Product of (1 - t^i)^e factors, sparse in i, no zero exponents."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        clean = []
        seen = set()
        for i, e in self.factors:
            if not (_is_int(i) and _is_int(e)) or i < 1:
                raise InputError("zeta factors want integer exponents at i >= 1")
            if i in seen:
                raise InputError(f"duplicate zeta factor index {i}")
            seen.add(i)
            if e:
                clean.append((i, e))
        clean.sort()
        object.__setattr__(self, "factors", tuple(clean))

    def exponent(self, i: int) -> int:
        for j, e in self.factors:
            if j == i:
                return e
        return 0

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


def chi_projective_cone(l: int, n: int) -> int:
    """Euler number of the projectivized cone itself; complement's partner."""
    return n - chi_tangent_cone_complement(l, n)


def homogeneous_resolution(l: int, n: int) -> ResolutionData:
    """Resolution strata of the degree-l sum-of-powers germ in n variables.

    A single stratum: multiplicity l with chi = (1 - (1-l)^n) / l.
    """
    return ResolutionData(((l, chi_tangent_cone_complement(l, n)),))


# -- characteristic polynomial -----------------------------------------------

def _upoly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _cyclotomic_power(i: int, k: int) -> list[int]:
    """(t^i - 1)^k by the binomial theorem."""
    out = [0] * (i * k + 1)
    for j in range(k + 1):
        out[i * j] = (-1) ** (k - j) * comb(k, j)
    return out


def _upoly_divmonic(num: list, den: list) -> list[int]:
    """Exact quotient by a monic divisor; a remainder is a diagnostic."""
    quot = [0] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + len(den) - 1]
        if c:
            for j, d in enumerate(den):
                rem[k + j] -= c * d
    if any(rem):
        raise ConventionViolationError("the quotient is not a polynomial")
    return quot


@dataclass(frozen=True)
class CharPoly:
    """Integer polynomial, coefficients ascending; monic up to sign."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    def __str__(self) -> str:
        if all(c == 0 for c in self.coeffs):
            return "0"
        pieces = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def char_poly(z: ZetaFunction, mu: int, n: int) -> CharPoly:
    """Delta(t) of the monodromy from its zeta function and mu.

    Delta(t) = t^mu * [ (t-1)/t * Z(1/t) ]^((-1)^n).  With Z = prod
    (1-t^i)^e_i and sign = (-1)^n this splits into a power of t and
    cyclotomic factors:

        Delta(t) = t^shift * prod (t^i - 1)^E_i,
        shift = mu - sign * (1 + sum i*e_i),  E_i = sign * (e_i + [i = 1]),

    and the factors with E_i < 0 divide out exactly, in integers, by a
    monic polynomial.  The degree, shift + sum i*E_i, is mu identically.
    Raises a ConventionViolationError when the inputs are inconsistent: a
    negative shift or a non-exact division, or |Delta(0)| != 1.
    """
    if mu < 1:
        raise InputError("need mu >= 1 to assemble a characteristic polynomial")
    sign = 1 if n % 2 == 0 else -1
    shift = mu - sign * (1 + sum(i * e for i, e in z.factors))
    if shift < 0:
        raise ConventionViolationError("the quotient is not a polynomial")
    exponents = {1: sign}
    for i, e in z.factors:
        exponents[i] = exponents.get(i, 0) + sign * e
    num, den = [1], [1]
    for i, k in exponents.items():
        if k > 0:
            num = _upoly_mul(num, _cyclotomic_power(i, k))
        elif k < 0:
            den = _upoly_mul(den, _cyclotomic_power(i, -k))
    coeffs = [0] * shift + _upoly_divmonic(num, den)
    if abs(coeffs[0]) != 1:
        raise ConventionViolationError(
            "characteristic polynomial must be monic up to sign with |Delta(0)| = 1"
        )
    return CharPoly(tuple(coeffs))


# -- multiplicity detection --------------------------------------------------

@dataclass(frozen=True)
class MultiplicityBound:
    """Smallest iterate with nonzero Lefschetz number, if seen in horizon.

    first_nonzero None means every Lambda(h^k) vanished up to the horizon,
    so all we know is a lower bound of horizon + 1.  Even when found, the
    value is the exact multiplicity only under the nonvanishing hypothesis
    for the cone complement's Euler number; callers certify that.
    """

    first_nonzero: int | None
    horizon: int

    @property
    def known(self) -> bool:
        return self.first_nonzero is not None

    @property
    def lower_bound(self) -> int:
        return self.first_nonzero if self.known else self.horizon + 1


def multiplicity_bound(lam: LefschetzSequence) -> MultiplicityBound:
    for k in range(1, lam.horizon + 1):
        if lam.at(k):
            return MultiplicityBound(k, lam.horizon)
    return MultiplicityBound(None, lam.horizon)
