"""Gamma and generalized hypergeometric machinery with the closed-form tables.

The x-space ground states for stability indices 1 and 3/2 admit finite
sums

    psi0(x) = sum_m a_{2m} x**(2m) f_{2m}(scale * x**power)

with pFq factors f_{2m}.  The parameter tables are transcribed verbatim
below, unreduced fractions included, so they can be audited symbol by
symbol; whether every printed coefficient is correct is checked elsewhere
(the validation suite compares term by term against an independent
moment-series oracle and itemizes mismatches rather than correcting
them).

Series evaluation runs in mpmath arbitrary precision: the index-3/2
table mixes large Gamma values with tiny rational prefactors, and the
series themselves alternate, so double precision would shed digits to
cancellation.  Public entry points return floats.

``pfq_mp`` sums in fixed point (Brent & Zimmermann, *Modern Computer
Arithmetic*, 2010, sec. 4.4): terms and partial sum are Python ints
scaled by 2**wp, wp = mp.prec + 32 guard bits, and z is rounded to that
grid once.  Each step is term = (term * Z >> wp) * top(n) // bottom(n),
with top and bottom Python ints (the parameters scaled by the lcm of
their denominators), so a step costs two integer products, a shift and
one integer division instead of four normalised mpf operations.  The sum
becomes an mpf once, at the end.  Per spec, top(n), bottom(n) and the
z-free factor of the tail bound are kept in tables that are built on
first use and doubled on demand.  Summation stops on a ratio tail bound
in the spirit of Johansson, "Computing hypergeometric functions
rigorously" (arXiv:1606.06977): a float bound r_n on all later term
ratios, and the geometric tail |term_n| r_n/(1 - r_n) below mp.eps of
the partial sum.  A cancellation guard re-sums once at higher precision
when the largest term exceeds the sum by more than all but 20 of the
working digits (index 1 beyond x of about 5.25).  Coefficients a_{2m}
are cached per (index, power, precision); no series value is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import mpmath as mp
from mpmath.libmp import to_fixed

from .kterms import _as_fraction


class ConvergenceError(RuntimeError):
    """Series term cap reached before the stopping rule fired."""


class UnsupportedAlpha(ValueError):
    """No closed-form table exists for this stability index."""


_TERM_CAP = 10_000
_SPARE_DIGITS = 20    # fewer digits than this left after cancellation: re-sum
_GUARD_DIGITS = 10    # extra digits of the re-sum beyond those lost
_GUARD_BITS = 32      # fixed-point bits beyond the working precision
_FIRST_TABLE = 32     # table length built on first use; doubled on demand


@dataclass(frozen=True)
class PFQSpec:
    """A pFq series with rational parameters and argument scale * x**power."""

    numerator_params: tuple[Fraction, ...]
    denominator_params: tuple[Fraction, ...]
    argument_scale: Fraction
    argument_power: int

    def __post_init__(self) -> None:
        for b in self.denominator_params:
            if b.denominator == 1 and b <= 0:
                raise ValueError(f"denominator parameter {b} is a non-positive integer")
        if self.argument_power < 1:
            raise ValueError("argument power must be a positive integer")
        if len(self.numerator_params) > len(self.denominator_params) + 1:
            raise ValueError("series diverges: p > q + 1")

    def argument(self, x) -> mp.mpf:
        scale = mp.mpf(self.argument_scale.numerator) / self.argument_scale.denominator
        return scale * mp.mpf(x) ** self.argument_power

    @cached_property
    def _steps(self) -> _Steps:
        # kept on the instance: a cache keyed by the spec would hash its
        # Fractions on every call, a sixth of a short series' time
        return _Steps(self)


class _Steps:
    """Integer term ratios and tail-bound factors for one spec.

    With D the lcm of all parameter denominators, a + n = (D*a + n*D)/D,
    so term_{n+1}/term_n = z * top(n) / bottom(n) with Python-int top and
    bottom.  ``pairs`` and ``extras`` feed ``factor``, the z-free part of
    the tail bound.  The three per-step tables are built on first use and
    grown on demand; each growth replaces them in one assignment, so
    concurrent readers see either the old tables or the new.
    """

    def __init__(self, spec: PFQSpec) -> None:
        nums = [Fraction(a) for a in spec.numerator_params]
        dens = [Fraction(b) for b in spec.denominator_params]
        d = math.lcm(*(v.denominator for v in nums + dens))
        p, q = len(nums), len(dens)
        self.lcm = d
        self.top_params = tuple(int(a * d) for a in nums)
        self.bottom_params = tuple(int(b * d) for b in dens)
        self.top_scale = d ** (q - p) if q >= p else 1
        self.bottom_scale = d if p > q else 1
        # each |a| is paired with one denominator parameter, the factorial's
        # (n+1) counting as b = 1; p <= q + 1 leaves no |a| unpaired
        abs_a = sorted((abs(float(a)) for a in nums), reverse=True)
        bs = sorted((float(b) for b in dens + [Fraction(1)]), reverse=True)
        self.pairs = tuple(zip(abs_a, bs))
        self.extras = tuple(bs[p:])
        self._tables: tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]] = ((), (), ())

    def top(self, n: int) -> int:
        out = self.top_scale
        for a in self.top_params:
            out *= a + n * self.lcm
        return out

    def bottom(self, n: int) -> int:
        out = self.bottom_scale * (n + 1)
        for b in self.bottom_params:
            out *= b + n * self.lcm
        return out

    def factor(self, n: int) -> float:
        """r_n / |z|; inf while some b + n <= 0."""
        r = 1.0
        for a, b in self.pairs:
            if b + n <= 0:
                return math.inf
            if a > b:
                r *= (a + n) / (b + n)
        for b in self.extras:
            if b + n <= 0:
                return math.inf
            r /= b + n
        return r

    def bound(self, n: int, zabs: float) -> float:
        """r_n >= sup_{m >= n} |term_{m+1}/term_m|, inf while some b + n <= 0."""
        f = self.factor(n)
        # inf * 0 is nan, so an infinite factor stays inf at z = 0
        return f if f == math.inf else zabs * f

    def tables(self, size: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """(top, bottom, factor) tables covering at least n < size."""
        tops, bottoms, factors = self._tables
        if len(factors) < size:
            grow = range(len(factors), size)
            tops += tuple(self.top(n) for n in grow)
            bottoms += tuple(self.bottom(n) for n in grow)
            factors += tuple(self.factor(n) for n in grow)
            self._tables = (tops, bottoms, factors)
        return tops, bottoms, factors


def _sum_series(steps: _Steps, z: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """(sum, largest |term|) at the current working precision.

    Terms and the partial sum are Python ints scaled by 2**wp, wp =
    mp.mp.prec + _GUARD_BITS; z is rounded to that grid once.  The stopping
    test |term| r/(1 - r) <= eps |sum| is made exactly in integers.
    """
    prec = mp.mp.prec
    wp = prec + _GUARD_BITS
    zfix = to_fixed(z._mpf_, wp)
    zabs = float(abs(z))
    term = total = largest = 1 << wp
    tops, bottoms, factors = steps.tables(_FIRST_TABLE)
    for n in range(_TERM_CAP):
        if n == len(factors):
            tops, bottoms, factors = steps.tables(min(2 * n, _TERM_CAP))
        mag = abs(term)
        if mag > largest:
            largest = mag
        # an infinite factor gives nan at z = 0, which fails r < 1 as inf does
        r = zabs * factors[n]
        if r < 1:
            num, den = (r / (1 - r)).as_integer_ratio()
            if mag * num << (prec - 1) <= abs(total) * den:
                return mp.mpf((total, -wp)), mp.mpf((largest, -wp))
        term = (term * zfix >> wp) * tops[n] // bottoms[n]
        total += term
    raise ConvergenceError(
        f"no convergence within {_TERM_CAP} terms (|z| = {zabs:.3g})"
    )


def pfq_mp(spec: PFQSpec, x, dps: int = 40) -> mp.mpf:
    """Series evaluation by term recurrence at the given working precision.

    term_{n+1} = term_n * prod(a+n)/prod(b+n) * z/(n+1), with the ratio
    formed from Python ints (parameters scaled by the lcm of their
    denominators).  Terms and the partial sum are fixed-point ints with
    wp = mp.prec + 32 bits below the binary point: the truncation of up
    to 10,000 steps, under 2**14 units of the last place, stays in the
    guard bits.  top(n), bottom(n) and the z-free factor of a float bound
    r_n on every later term ratio come from per-spec tables, built on
    first use and doubled on demand; summation stops once r_n < 1
    and the geometric tail |term_n| r_n/(1 - r_n) is at most mp.eps times
    the partial sum, and raises ConvergenceError at the 10,000-term cap.
    Cancellation guard: if the largest |term| exceeds the sum by so much
    that fewer than 20 digits survive, the series is summed once more at
    dps + (digits lost) + 10 and rounded back to dps.
    """
    steps = spec._steps
    with mp.workdps(dps):
        z = spec.argument(x)
        if len(spec.numerator_params) == len(spec.denominator_params) + 1 and abs(z) >= 1:
            raise ValueError("argument outside the convergence disk for p = q + 1")
        total, largest = _sum_series(steps, z)
        if largest <= abs(total) * mp.mpf(10) ** (dps - _SPARE_DIGITS):
            return total
        lost = dps if not total else int(mp.ceil(mp.log10(largest / abs(total))))
    with mp.workdps(dps + lost + _GUARD_DIGITS):
        total, _ = _sum_series(steps, spec.argument(x))
    with mp.workdps(dps):
        return +total


def pfq(spec: PFQSpec, x) -> float:
    return float(pfq_mp(spec, x))


def _spec(nums: Sequence[Fraction], dens: Sequence[Fraction], scale: Fraction, power: int) -> PFQSpec:
    return PFQSpec(tuple(nums), tuple(dens), scale, power)


@dataclass(frozen=True)
class ClosedFormTerm:
    """One summand a * x**power * f(...); ``a_recipe`` documents the exact symbolic form."""

    power: int
    f: PFQSpec
    a_recipe: str


@dataclass(frozen=True)
class ClosedFormPsi0:
    """Closed-form table for psi0 at one stability index."""

    alpha: Fraction
    terms: tuple[ClosedFormTerm, ...]

    def a_values(self, dps: int = 50) -> list[mp.mpf]:
        return [_a_value(self.alpha, t.power, dps) for t in self.terms]


# ---------------------------------------------------------------------------
# index 1 table: psi0 = sum_{m=0}^{2} a_{2m} x^{2m} f_{2m}(-x^6 / 6^2)

_SCALE_1 = Fraction(-1, 6**2)

_TABLE_1 = (
    ClosedFormTerm(
        0,
        _spec(
            [Fraction(5, 12), Fraction(11, 12)],
            [Fraction(2, 6), Fraction(3, 6), Fraction(5, 6)],
            _SCALE_1, 6,
        ),
        "2^(1/3) * 3^(2/3) * Gamma(5/3)",
    ),
    ClosedFormTerm(
        2,
        _spec(
            [Fraction(3, 4), Fraction(4, 4), Fraction(5, 4)],
            [Fraction(4, 6), Fraction(5, 6), Fraction(7, 6), Fraction(8, 6)],
            _SCALE_1, 6,
        ),
        "-3/2",
    ),
    ClosedFormTerm(
        4,
        _spec(
            [Fraction(13, 12), Fraction(19, 12)],
            [Fraction(7, 6), Fraction(9, 6), Fraction(10, 6)],
            _SCALE_1, 6,
        ),
        "(7/16) * (3/2)^(1/3) * Gamma(7/3)",
    ),
)

# ---------------------------------------------------------------------------
# index 3/2 table: psi0 = sum_{m=0}^{6} a_{2m} x^{2m} f_{2m}(-x^14 / 14^6)

_SCALE_32 = Fraction(-1, 14**6)


def _f56(nums: Sequence[int], dens: Sequence[int]) -> PFQSpec:
    return _spec(
        [Fraction(v, 56) for v in nums],
        [Fraction(v, 14) for v in dens],
        _SCALE_32, 14,
    )


_TABLE_32 = (
    ClosedFormTerm(
        0,
        _f56([11, 18, 25, 39, 46, 53], [2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13]),
        "7^3 * 7^(4/7) / (11 * 2 * 2^(1/7) * 3^2 * 5^2) * Gamma(32/7)",
    ),
    ClosedFormTerm(
        2,
        _f56([19, 26, 33, 47, 54, 61], [4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16]),
        "5 * 2^(4/7) / (2^3 * 7^(11/14)) * Gamma(-2/7)/sin(pi/7)^2 * sin(pi/14)/cos(3pi/14)",
    ),
    ClosedFormTerm(
        4,
        _f56([27, 34, 41, 55, 62, 69], [6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 18]),
        "13 * 2^(2/7) * 7^(5/14) / 2^7 * Gamma(6/7)/sin(pi/7)^2 * sin(pi/14)/cos(3pi/14)",
    ),
    ClosedFormTerm(
        6,
        _f56([35, 42, 49, 56, 63, 70, 77], [8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20]),
        "-7^3 * 7^(1/7) / (2^8 * 3 * 5) * cot(pi/7) * tan(pi/14) * tan(3pi/14)",
    ),
    ClosedFormTerm(
        8,
        _f56([43, 50, 57, 71, 78, 85], [10, 11, 12, 13, 15, 17, 18, 19, 20, 21, 22]),
        "7^7 * 7^(1/7) / (19 * 43 * 3^5 * 5^3 * 2^14 * 2^(2/7)) * Gamma(64/7)",
    ),
    ClosedFormTerm(
        10,
        _f56([51, 58, 65, 79, 86, 93], [12, 13, 15, 16, 17, 19, 20, 21, 22, 23, 24]),
        "-7^8 * 7^(2/7) / (11 * 13 * 17 * 29 * 3^5 * 5^3 * 2^17 * 2^(4/7)) * Gamma(72/7)",
    ),
    ClosedFormTerm(
        12,
        _f56([59, 66, 73, 87, 94, 101], [15, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26]),
        "7^9 * 7^(3/7) / (11^2 * 13 * 59 * 73 * 3^5 * 5^2 * 2^24 * 2^(6/7)) * Gamma(80/7)",
    ),
)


@lru_cache(maxsize=None)
def _a_value(alpha: Fraction, power: int, dps: int) -> mp.mpf:
    """The a coefficient for one (alpha, power) slot, from its symbolic recipe (cached)."""
    with mp.workdps(dps):
        pi = mp.pi
        if alpha == 1:
            if power == 0:
                return mp.power(2, mp.mpf(1) / 3) * mp.power(3, mp.mpf(2) / 3) * mp.gamma(mp.mpf(5) / 3)
            if power == 2:
                return mp.mpf(-3) / 2
            if power == 4:
                return mp.mpf(7) / 16 * mp.power(mp.mpf(3) / 2, mp.mpf(1) / 3) * mp.gamma(mp.mpf(7) / 3)
        elif alpha == Fraction(3, 2):
            odd_ratio = mp.sin(pi / 14) / mp.cos(3 * pi / 14)
            if power == 0:
                return (
                    7**3 * mp.power(7, mp.mpf(4) / 7)
                    / (11 * 2 * mp.power(2, mp.mpf(1) / 7) * 3**2 * 5**2)
                    * mp.gamma(mp.mpf(32) / 7)
                )
            if power == 2:
                return (
                    5 * mp.power(2, mp.mpf(4) / 7) / (2**3 * mp.power(7, mp.mpf(11) / 14))
                    * mp.gamma(mp.mpf(-2) / 7) / mp.sin(pi / 7) ** 2
                    * odd_ratio
                )
            if power == 4:
                return (
                    13 * mp.power(2, mp.mpf(2) / 7) * mp.power(7, mp.mpf(5) / 14) / 2**7
                    * mp.gamma(mp.mpf(6) / 7) / mp.sin(pi / 7) ** 2
                    * odd_ratio
                )
            if power == 6:
                return (
                    -(7**3) * mp.power(7, mp.mpf(1) / 7) / (2**8 * 3 * 5)
                    * (mp.cos(pi / 7) / mp.sin(pi / 7))
                    * mp.tan(pi / 14) * mp.tan(3 * pi / 14)
                )
            if power == 8:
                return (
                    mp.mpf(7**7) * mp.power(7, mp.mpf(1) / 7)
                    / (19 * 43 * 3**5 * 5**3 * 2**14 * mp.power(2, mp.mpf(2) / 7))
                    * mp.gamma(mp.mpf(64) / 7)
                )
            if power == 10:
                return (
                    -mp.mpf(7**8) * mp.power(7, mp.mpf(2) / 7)
                    / (11 * 13 * 17 * 29 * 3**5 * 5**3 * 2**17 * mp.power(2, mp.mpf(4) / 7))
                    * mp.gamma(mp.mpf(72) / 7)
                )
            if power == 12:
                return (
                    mp.mpf(7**9) * mp.power(7, mp.mpf(3) / 7)
                    / (11**2 * 13 * 59 * 73 * 3**5 * 5**2 * 2**24 * mp.power(2, mp.mpf(6) / 7))
                    * mp.gamma(mp.mpf(80) / 7)
                )
        raise UnsupportedAlpha(f"no coefficient recipe for alpha={alpha}, power={power}")


def closed_form_psi0(alpha) -> ClosedFormPsi0:
    """The transcribed closed-form table; only indices 1 and 3/2 exist."""
    a = _as_fraction(alpha)
    if a == 1:
        return ClosedFormPsi0(a, _TABLE_1)
    if a == Fraction(3, 2):
        return ClosedFormPsi0(a, _TABLE_32)
    raise UnsupportedAlpha(f"no closed-form table for alpha = {alpha}")


def closed_form_term_values(c: ClosedFormPsi0, x, dps: int = 40) -> list[float]:
    """Each a * x**power * f value separately (for per-term auditing)."""
    out = []
    with mp.workdps(dps):
        xm = mp.mpf(x)
        for t in c.terms:
            a = _a_value(c.alpha, t.power, dps + 10)
            out.append(float(a * xm**t.power * pfq_mp(t.f, x, dps)))
    return out


def eval_closed_form(c: ClosedFormPsi0, x, dps: int = 40) -> float:
    """sum_m a_{2m} x**(2m) f_{2m}(x), summed at working precision."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for t in c.terms:
            a = _a_value(c.alpha, t.power, dps + 10)
            total += a * xm**t.power * pfq_mp(t.f, x, dps)
        return float(total)


# confluent pieces of the Gaussian identity, argument -x^2/2
_GAUSS_A = _spec([Fraction(1, 2)], [Fraction(3, 2)], Fraction(-1, 2), 2)
_GAUSS_B = _spec([Fraction(3, 2)], [Fraction(5, 2)], Fraction(-1, 2), 2)


def gaussian_via_pfq(x) -> float:
    """exp(-x**2/2) rebuilt from two confluent series: 1F1(1/2,3/2;-x^2/2) - (x^2/3) 1F1(3/2,5/2;-x^2/2)."""
    xf = float(x)
    return pfq(_GAUSS_A, xf) - xf**2 / 3 * pfq(_GAUSS_B, xf)


__all__ = [
    "ClosedFormPsi0",
    "ClosedFormTerm",
    "ConvergenceError",
    "PFQSpec",
    "UnsupportedAlpha",
    "closed_form_psi0",
    "closed_form_term_values",
    "eval_closed_form",
    "gaussian_via_pfq",
    "pfq",
    "pfq_mp",
]
