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

Series are summed to 40 working digits (``_DPS``): the index-3/2
table mixes large Gamma values with tiny rational prefactors, and the
series themselves alternate, so double precision would shed digits to
cancellation.  Public entry points return floats, except ``pfq_mp``.

Every series is summed in fixed point (Brent & Zimmermann, *Modern
Computer Arithmetic*, 2010, sec. 4.4) by one loop, ``_sum_series``:
terms and partial sum are Python ints scaled by 2**wp, wp = prec + 32
guard bits, prec the binary precision of those digits (the truncation of
up to 10,000 steps, under 2**14 units of the last place, stays in the
guard bits).  The argument is exact: z = scale * x**power is formed from
x's integer ratio (a float's, or an mpf's mantissa and exponent),
checked exactly against 1 for p = q + 1, and rounded once to the 2**-wp
grid.  Each step is term = (term * Z >> wp) * top(n) // bottom(n), with
top and bottom Python ints (the parameters scaled by the lcm of their
denominators).  Per spec, top(n), bottom(n) and the z-free factor of the
tail bound are kept in tables that are built on first use and doubled on
demand.  Summation stops on a ratio tail bound in the spirit of
Johansson, "Computing hypergeometric functions rigorously"
(arXiv:1606.06977): a float bound r_n on all later term ratios, and the
geometric tail |term_n| r_n/(1 - r_n) below 2**(1 - prec) of the partial
sum, tested every 8 terms.  Refused before any term is summed: a z whose
bound stays at least 1 up to the 10,000-term cap, and a z whose bounds
let a term exceed 2**4096 (index 3/2 from about x = 44); a non-finite x
is refused outright.  A cancellation guard re-sums once at higher
precision, still in integers, when the largest term exceeds the sum by
more than all but 20 of the working digits (index 1 beyond x of about
5.25).

``closed_form_values`` evaluates a table over a whole x grid: each a_{2m}
becomes an exact binary fraction once per call, each a x**(2m) f is
added exactly in integers, and each point is rounded to float once.
Each table row holds its a_{2m} as an mpmath expression; the values,
read at 50 digits, are cached per table, and no series value is.

mpmath is imported on first use, inside the functions that need it, so
the exact subcommands start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .kterms import _as_fraction

if TYPE_CHECKING:
    import mpmath as mp


class ConvergenceError(RuntimeError):
    """Series term cap reached before the stopping rule fired."""


class UnsupportedAlpha(ValueError):
    """No closed-form table exists for this stability index."""


_DPS = 40             # working digits of every series; each a_{2m} is read at _DPS + 10
_TERM_CAP = 10_000
_SPARE_DIGITS = 20    # fewer digits than this left after cancellation: re-sum
_GUARD_DIGITS = 10    # extra digits of the re-sum beyond those lost
_GUARD_BITS = 32      # fixed-point bits beyond the working precision
_FIRST_TABLE = 32     # table length built on first use; doubled on demand
_STRIDE = 8           # terms summed between two stopping tests
_MAX_TERM_BITS = 4096 # a bound on |term| beyond 2**this is refused before summing


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
        import mpmath as mp

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
        self.cap_factor = self.factor(_TERM_CAP - 1)  # tested on every call
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
        """r_n / |z|, with r_n >= sup_{m >= n} |term_{m+1}/term_m|; inf while some b + n <= 0."""
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


def _prec(dps: int) -> int:
    """Binary precision for ``dps`` decimal digits (mpmath's dps_to_prec)."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _ratio(x) -> tuple[int, int]:
    """x exactly, as (numerator, positive denominator); ValueError unless finite."""
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        # an mpmath real, read from its mantissa and exponent; inf and nan
        # are the raw values with a zero mantissa and a nonzero exponent
        sign, man, exp, _ = raw
        if man or not exp:
            man = -man if sign else man
            return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    else:
        try:
            return Fraction(x).as_integer_ratio()
        except (OverflowError, ValueError):
            pass
    raise ValueError(f"series argument x must be finite, got {x}")


def _float(num: int, den: int) -> float:
    """num / den rounded once to float (int / int is correctly rounded); +-inf beyond range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _cap_reached(zabs: float) -> ConvergenceError:
    return ConvergenceError(f"no convergence within {_TERM_CAP} terms (|z| = {zabs:.3g})")


def _growth(steps: _Steps, zabs: float) -> int:
    """The first n with ratio bound r_n = |z| factor(n) < 1, before which terms may grow.

    ConvergenceError if the product of the r_n before it (the exact |ratio|
    where factor(n) is infinite), a bound on every |term|, passes 2**_MAX_TERM_BITS.
    """
    bits, n = 0.0, 0
    tops, bottoms, factors = steps.tables(_FIRST_TABLE)
    while bits <= _MAX_TERM_BITS:
        if n == len(factors):
            tops, bottoms, factors = steps.tables(min(2 * n, _TERM_CAP))
        r = zabs * factors[n]
        if r < 1:
            return n
        if r == math.inf:
            # top and bottom carry the parameters' signs and may lie beyond float range
            r = zabs * _float(abs(tops[n]), abs(bottoms[n]))
        # r is nan for z = 0 under an infinite factor, and adds nothing
        bits += math.log2(r) if r > 1 else 0.0
        n += 1
    raise ConvergenceError(f"terms may exceed 2**{_MAX_TERM_BITS} before converging (|z| = {zabs:.3g})")


def _sum_series(steps: _Steps, zfix: int, zabs: float, prec: int, grow: int) -> tuple[int, int]:
    """(sum, largest |term|), both Python ints scaled by 2**wp.

    wp = prec + _GUARD_BITS; ``zfix`` is z on that grid and ``zabs`` is
    |z| as a float.  Terms before ``grow`` (from ``_growth``) may grow, and
    the largest is tracked.  From there r_n < 1 bounds every later ratio, so
    no later term is larger; the stopping test |term| r/(1 - r) <= 2**(1 -
    prec) |sum| is made exactly in integers every _STRIDE terms.
    """
    wp = prec + _GUARD_BITS
    term = total = largest = 1 << wp
    tops, bottoms, factors = steps.tables(grow + 1)
    for n in range(grow):
        term = (term * zfix >> wp) * tops[n] // bottoms[n]
        total += term
        largest = max(largest, abs(term))
    n = grow
    while n + _STRIDE < _TERM_CAP:
        r = zabs * factors[n]
        num, den = (r / (1 - r)).as_integer_ratio()
        if abs(term) * num << (prec - 1) <= abs(total) * den:
            return total, largest
        if n + _STRIDE >= len(factors):
            tops, bottoms, factors = steps.tables(min(2 * (n + _STRIDE + 1), _TERM_CAP))
        for m in range(n, n + _STRIDE):
            term = (term * zfix >> wp) * tops[m] // bottoms[m]
            total += term
        n += _STRIDE
    raise _cap_reached(zabs)


def _pfq_fixed(spec: PFQSpec, x: tuple[int, int], dps: int) -> int:
    """pFq at x = numerator/denominator, as an int scaled by 2**(_prec(dps) + _GUARD_BITS).

    z = scale * x**power is formed exactly and rounded once to the grid of
    each summation.  Refused before any term is summed: |z| >= 1 for
    p = q + 1, any z whose tail bound is still at least 1 at the term
    cap, where the stopping rule cannot fire, and any z whose ratio bounds
    let a term exceed 2**_MAX_TERM_BITS.  Cancellation guard: if the
    largest |term| exceeds the sum by so much that fewer than 20 digits
    survive, the series is summed once more at dps + (digits lost) + 10
    and rounded back to the dps grid.
    """
    steps = spec._steps
    num, den = x
    zn = spec.argument_scale.numerator * num**spec.argument_power
    zd = spec.argument_scale.denominator * den**spec.argument_power
    if len(spec.numerator_params) == len(spec.denominator_params) + 1 and abs(zn) >= zd:
        raise ValueError("argument outside the convergence disk for p = q + 1")
    try:
        zabs = abs(zn) / zd
    except OverflowError:
        zabs = math.inf
    if zabs * steps.cap_factor >= 1:
        raise _cap_reached(zabs)
    grow = _growth(steps, zabs)

    def fixed_z(prec: int) -> int:
        # z rounded to nearest on the 2**-wp grid
        return ((zn << (prec + _GUARD_BITS + 1)) // zd + 1) >> 1

    prec = _prec(dps)
    total, largest = _sum_series(steps, fixed_z(prec), zabs, prec, grow)
    if largest * 10**_SPARE_DIGITS <= abs(total) * 10**dps:
        return total
    # largest / |total| < 2**(bits + 1): round the digits lost up
    bits = largest.bit_length() - abs(total).bit_length()
    lost = -(-(bits + 1) * 30103 // 100000) if total else dps
    extra = _prec(dps + lost + _GUARD_DIGITS) - prec
    total, _ = _sum_series(steps, fixed_z(prec + extra), zabs, prec + extra, grow)
    return (total + (1 << (extra - 1))) >> extra


def pfq_mp(spec: PFQSpec, x) -> mp.mpf:
    """One series at x, summed in fixed point (see the module docstring); an mpf rounded to 40 digits.

    ValueError for a non-finite x, or |z| >= 1 when p = q + 1;
    ConvergenceError where the stopping rule cannot fire within 10,000
    terms, before any term is summed when the ratio bound is still at
    least 1 at the cap or lets a term exceed 2**4096.
    """
    import mpmath as mp

    prec = _prec(_DPS)
    total = _pfq_fixed(spec, _ratio(x), _DPS)
    return mp.make_mpf(mp.libmp.from_man_exp(total, -(prec + _GUARD_BITS), prec, mp.libmp.round_nearest))


def _spec(nums: Sequence[Fraction], dens: Sequence[Fraction], scale: Fraction, power: int) -> PFQSpec:
    return PFQSpec(tuple(nums), tuple(dens), scale, power)


@dataclass(frozen=True, eq=False)
class ClosedFormTerm:
    """One summand a * x**power * f(...); ``a(mp)`` is the exact symbolic form of a in mpmath.

    ``a`` is evaluated at the working precision set by the caller.  Terms
    compare by identity, so a table's coefficient cache is keyed cheaply.
    """

    power: int
    f: PFQSpec
    a: Callable[[Any], mp.mpf]


@dataclass(frozen=True)
class ClosedFormPsi0:
    """Closed-form table for psi0 at one stability index."""

    alpha: Fraction
    terms: tuple[ClosedFormTerm, ...]

    def a_values(self) -> list[mp.mpf]:
        return list(_a_values(self.terms))


@lru_cache(maxsize=None)
def _a_values(terms: tuple[ClosedFormTerm, ...]) -> tuple[mp.mpf, ...]:
    """Each term's a at _DPS + 10 digits, cached per table."""
    import mpmath as mp

    with mp.workdps(_DPS + 10):
        return tuple(t.a(mp) for t in terms)


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
        lambda mp: mp.power(2, mp.mpf(1) / 3) * mp.power(3, mp.mpf(2) / 3) * mp.gamma(mp.mpf(5) / 3),
    ),
    ClosedFormTerm(
        2,
        _spec(
            [Fraction(3, 4), Fraction(4, 4), Fraction(5, 4)],
            [Fraction(4, 6), Fraction(5, 6), Fraction(7, 6), Fraction(8, 6)],
            _SCALE_1, 6,
        ),
        lambda mp: mp.mpf(-3) / 2,
    ),
    ClosedFormTerm(
        4,
        _spec(
            [Fraction(13, 12), Fraction(19, 12)],
            [Fraction(7, 6), Fraction(9, 6), Fraction(10, 6)],
            _SCALE_1, 6,
        ),
        lambda mp: mp.mpf(7) / 16 * mp.power(mp.mpf(3) / 2, mp.mpf(1) / 3) * mp.gamma(mp.mpf(7) / 3),
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
        lambda mp: (
            7**3 * mp.power(7, mp.mpf(4) / 7)
            / (11 * 2 * mp.power(2, mp.mpf(1) / 7) * 3**2 * 5**2)
            * mp.gamma(mp.mpf(32) / 7)
        ),
    ),
    ClosedFormTerm(
        2,
        _f56([19, 26, 33, 47, 54, 61], [4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16]),
        lambda mp: (
            5 * mp.power(2, mp.mpf(4) / 7) / (2**3 * mp.power(7, mp.mpf(11) / 14))
            * mp.gamma(mp.mpf(-2) / 7) / mp.sin(mp.pi / 7) ** 2
            * (mp.sin(mp.pi / 14) / mp.cos(3 * mp.pi / 14))
        ),
    ),
    ClosedFormTerm(
        4,
        _f56([27, 34, 41, 55, 62, 69], [6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 18]),
        lambda mp: (
            13 * mp.power(2, mp.mpf(2) / 7) * mp.power(7, mp.mpf(5) / 14) / 2**7
            * mp.gamma(mp.mpf(6) / 7) / mp.sin(mp.pi / 7) ** 2
            * (mp.sin(mp.pi / 14) / mp.cos(3 * mp.pi / 14))
        ),
    ),
    ClosedFormTerm(
        6,
        _f56([35, 42, 49, 56, 63, 70, 77], [8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20]),
        lambda mp: (
            -(7**3) * mp.power(7, mp.mpf(1) / 7) / (2**8 * 3 * 5)
            * (mp.cos(mp.pi / 7) / mp.sin(mp.pi / 7))
            * mp.tan(mp.pi / 14) * mp.tan(3 * mp.pi / 14)
        ),
    ),
    ClosedFormTerm(
        8,
        _f56([43, 50, 57, 71, 78, 85], [10, 11, 12, 13, 15, 17, 18, 19, 20, 21, 22]),
        lambda mp: (
            mp.mpf(7**7) * mp.power(7, mp.mpf(1) / 7)
            / (19 * 43 * 3**5 * 5**3 * 2**14 * mp.power(2, mp.mpf(2) / 7))
            * mp.gamma(mp.mpf(64) / 7)
        ),
    ),
    ClosedFormTerm(
        10,
        _f56([51, 58, 65, 79, 86, 93], [12, 13, 15, 16, 17, 19, 20, 21, 22, 23, 24]),
        lambda mp: (
            -mp.mpf(7**8) * mp.power(7, mp.mpf(2) / 7)
            / (11 * 13 * 17 * 29 * 3**5 * 5**3 * 2**17 * mp.power(2, mp.mpf(4) / 7))
            * mp.gamma(mp.mpf(72) / 7)
        ),
    ),
    ClosedFormTerm(
        12,
        _f56([59, 66, 73, 87, 94, 101], [15, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26]),
        lambda mp: (
            mp.mpf(7**9) * mp.power(7, mp.mpf(3) / 7)
            / (11**2 * 13 * 59 * 73 * 3**5 * 5**2 * 2**24 * mp.power(2, mp.mpf(6) / 7))
            * mp.gamma(mp.mpf(80) / 7)
        ),
    ),
)


def closed_form_psi0(alpha) -> ClosedFormPsi0:
    """The transcribed closed-form table; only indices 1 and 3/2 exist."""
    a = _as_fraction(alpha)
    if a == 1:
        return ClosedFormPsi0(a, _TABLE_1)
    if a == Fraction(3, 2):
        return ClosedFormPsi0(a, _TABLE_32)
    raise UnsupportedAlpha(f"no closed-form table for alpha = {alpha}")


def _term_numerators(c: ClosedFormPsi0, xs: Iterable) -> Iterator[tuple[list[int], int]]:
    """Per x, each a * x**power * f exactly as an int over one shared int denominator.

    Each a (at _DPS + 10 digits) is an exact binary fraction, read once per
    call; f is the fixed-point series value and x**power is exact, so the
    only roundings are those of a and f.
    """
    ratios = [_ratio(a) for a in c.a_values()]
    a_den = max(den for _, den in ratios)  # each den is a power of 2
    a_num = [num * (a_den // den) for num, den in ratios]
    top = max(t.power for t in c.terms)
    one = a_den << (_prec(_DPS) + _GUARD_BITS)
    for x in xs:
        num, den = r = _ratio(x)
        yield (
            [
                a * _pfq_fixed(t.f, r, _DPS) * num**t.power * den ** (top - t.power)
                for a, t in zip(a_num, c.terms)
            ],
            one * den**top,
        )


def closed_form_values(c: ClosedFormPsi0, xs: Iterable) -> list[float]:
    """sum_m a_{2m} x**(2m) f_{2m}(x) at each x, summed exactly and rounded once to float."""
    return [_float(sum(nums), den) for nums, den in _term_numerators(c, xs)]


def eval_closed_form(c: ClosedFormPsi0, x) -> float:
    """sum_m a_{2m} x**(2m) f_{2m}(x) at one x (see closed_form_values)."""
    return closed_form_values(c, [x])[0]


def closed_form_term_values(c: ClosedFormPsi0, x) -> list[float]:
    """Each a * x**power * f value separately (for per-term auditing)."""
    nums, den = next(_term_numerators(c, [x]))
    return [_float(v, den) for v in nums]


# confluent pieces of the Gaussian identity, argument -x^2/2
_GAUSS_A = _spec([Fraction(1, 2)], [Fraction(3, 2)], Fraction(-1, 2), 2)
_GAUSS_B = _spec([Fraction(3, 2)], [Fraction(5, 2)], Fraction(-1, 2), 2)


def gaussian_values(xs: Iterable) -> list[float]:
    """exp(-x**2/2) at each x, rebuilt from two confluent series.

    1F1(1/2,3/2;-x^2/2) - (x^2/3) 1F1(3/2,5/2;-x^2/2): the two parts
    cancel to about x^2/2 log10(e) digits, so each series is summed to
    that many digits beyond 40, the two sums are combined exactly in
    integers, and the result is rounded to float once.
    """
    out = []
    for x in xs:
        xf = float(x)
        num, den = r = _ratio(xf)
        # beyond x = 100 both series are refused before summing, whatever dps
        dps = _DPS + math.ceil(min(xf * xf, 1e4) / 2 * math.log10(math.e))
        a, b = (_pfq_fixed(spec, r, dps) for spec in (_GAUSS_A, _GAUSS_B))
        den3 = 3 * den * den
        out.append(_float(den3 * a - num * num * b, den3 << (_prec(dps) + _GUARD_BITS)))
    return out


__all__ = [
    "ClosedFormPsi0",
    "ClosedFormTerm",
    "ConvergenceError",
    "PFQSpec",
    "UnsupportedAlpha",
    "closed_form_psi0",
    "closed_form_term_values",
    "closed_form_values",
    "eval_closed_form",
    "gaussian_values",
    "pfq_mp",
]
