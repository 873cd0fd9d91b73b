"""Exact signed-power term algebra in the Fourier variable k.

Expressions are finite sums of monomials

    c(a) * sgn(k)**p * |k|**(j*a/2 + m)

where ``a`` is the stability index kept symbolic, ``c(a)`` is a polynomial
in ``a`` with exact rational coefficients, ``p`` is 0 or 1 (sgn(k)**2 == 1
away from the origin), and the exponent is encoded by the integer pair
``(j, m)``.  Sums, products and d/dk are exact; floating point enters only
when an expression is evaluated at concrete ``(a, k)``.

``c(a)`` is stored as integer numerators over one positive common
denominator, ``AlphaPoly(num, den)``, reduced so that gcd(den, *num) == 1
and with trailing zero numerators stripped (zero is ``((), 1)``).  The
ladder and Rodrigues builds make only small integers over powers of 2, so
the algebra runs on Python ints; ``Fraction`` appears only in the derived
``coeffs`` and in ``eval``.

Exponent keys are structural: (j=2, m=-2) and (j=0, m=0) coincide at a=2
but stay distinct so the algebra remains generic in ``a``.  Numeric
coincidences are resolved by ``KExpr.at_alpha``, which substitutes ``a``
and re-merges.

Differentiation rule for a single term, valid for k != 0:

    d/dk [c * sgn(k)**p * |k|**q] = c*q * sgn(k)**(p+1) * |k|**(q-1)

(sgn' contributes nothing away from the origin).  At k = 0 evaluation
uses sgn(0) = 0 and raises ``DomainError`` for negative exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


class DomainError(ValueError):
    """Evaluation requested at a point outside a term's domain (k = 0 with a negative exponent)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _poly(num: list[int], den: int) -> AlphaPoly:
    """AlphaPoly with numerators ``num`` over ``den`` > 0, put in canonical form.

    Strips trailing zeros and divides out gcd(den, *num); one gcd per result.
    """
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return AlphaPoly(tuple(num), den)


@dataclass(frozen=True)
class AlphaPoly:
    """Polynomial (num[0] + num[1]*a + num[2]*a**2 + ...) / den in the stability index.

    Canonical form: integer numerators ``num`` lowest degree first with
    trailing zeros stripped, over one common denominator ``den`` > 0, and
    gcd(den, *num) == 1; the zero polynomial is ``((), 1)``.  Equal
    polynomials therefore have equal fields, so ``==`` and ``hash`` act on
    values.  The arithmetic runs on Python ints with one gcd normalisation
    per result.  Construct through ``of``/``const`` (or the operators) to
    maintain the form; ``coeffs`` gives the exact rational coefficients.
    """

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def of(*values) -> AlphaPoly:
        fs = [_as_fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fs))
        return _poly([f.numerator * (den // f.denominator) for f in fs], den)

    @staticmethod
    def const(value) -> AlphaPoly:
        return AlphaPoly.of(value)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Exact rational coefficients, lowest degree first; empty for the zero polynomial."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.num) - 1

    def __add__(self, other: AlphaPoly) -> AlphaPoly:
        a, b = self.num, other.num
        if self.den != other.den:
            g = math.gcd(self.den, other.den)
            sa, sb = other.den // g, self.den // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            den = self.den * sa
        else:
            den = self.den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    def __neg__(self) -> AlphaPoly:
        return AlphaPoly(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: AlphaPoly) -> AlphaPoly:
        return self + (-other)

    def __mul__(self, other: AlphaPoly) -> AlphaPoly:
        if not self.num or not other.num:
            return _ZERO
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if not a:
                continue
            for j, b in enumerate(other.num, i):
                out[j] += a * b
        return _poly(out, self.den * other.den)

    def scale(self, factor) -> AlphaPoly:
        f = _as_fraction(factor)
        return _poly([c * f.numerator for c in self.num], self.den * f.denominator)

    def eval(self, alpha: Fraction) -> Fraction:
        """Exact value at ``alpha``: integer Horner on its numerator and denominator."""
        if not self.num:
            return Fraction(0)
        p, q = alpha.numerator, alpha.denominator
        acc, qpow = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                body = str(c)
            else:
                var = "a" if d == 1 else f"a^{d}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}*{var}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


_ZERO = AlphaPoly(())

ALPHA = AlphaPoly.of(0, 1)


@dataclass(frozen=True)
class FracExponent:
    """Exponent j*a/2 + m of |k|, encoded structurally by integers (j, m)."""

    j: int
    m: int

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError("half-index multiplier j must be nonnegative")

    def value(self, alpha: Fraction) -> Fraction:
        return Fraction(self.j) * alpha / 2 + self.m

    @property
    def is_zero(self) -> bool:
        return self.j == 0 and self.m == 0

    def shift(self, dm: int) -> FracExponent:
        return FracExponent(self.j, self.m + dm)

    def __add__(self, other: FracExponent) -> FracExponent:
        return FracExponent(self.j + other.j, self.m + other.m)

    def __str__(self) -> str:
        if self.j == 0:
            return str(self.m)
        ja = "a/2" if self.j == 1 else f"{self.j}a/2"
        if self.m == 0:
            return ja
        return f"{ja}{self.m:+d}"


@dataclass(frozen=True)
class KTerm:
    """One monomial coeff(a) * sgn(k)**sgn_parity * |k|**exponent."""

    coeff: AlphaPoly
    sgn_parity: int
    exponent: FracExponent

    def __post_init__(self) -> None:
        if self.sgn_parity not in (0, 1):
            raise ValueError("sgn parity must be 0 or 1")

    def __str__(self) -> str:
        cs = str(self.coeff)
        if "+" in cs or (" - " in cs):
            cs = f"({cs})"
        sgn = "sgn(k)*" if self.sgn_parity else ""
        if self.exponent.is_zero:
            return f"{cs}*{sgn}1" if self.sgn_parity else cs
        return f"{cs}*{sgn}|k|^({self.exponent})"


def _merge_terms(terms: Iterable[KTerm]) -> tuple[KTerm, ...]:
    acc: dict[tuple[int, int, int], AlphaPoly] = {}
    for t in terms:
        key = (t.exponent.j, t.exponent.m, t.sgn_parity)
        prev = acc.get(key)
        acc[key] = t.coeff if prev is None else prev + t.coeff
    out = [
        KTerm(coeff, key[2], FracExponent(key[0], key[1]))
        for key, coeff in acc.items()
        if not coeff.is_zero
    ]
    out.sort(key=lambda t: (t.exponent.j, t.exponent.m, t.sgn_parity), reverse=True)
    return tuple(out)


@dataclass(frozen=True)
class KExpr:
    """Canonical sum of KTerm monomials.

    Canonical form: terms merged on (j, m, parity), zero coefficients
    dropped, sorted by (j, m, parity) descending.  Construct through
    ``from_terms`` (or the arithmetic operators) to maintain it.
    """

    terms: tuple[KTerm, ...]

    @staticmethod
    def from_terms(terms: Iterable[KTerm]) -> KExpr:
        return KExpr(_merge_terms(terms))

    @staticmethod
    def zero() -> KExpr:
        return KExpr(())

    @staticmethod
    def one() -> KExpr:
        return KExpr.monomial(1, 0, 0, 0)

    @staticmethod
    def monomial(coeff, sgn_parity: int, j: int, m: int) -> KExpr:
        c = coeff if isinstance(coeff, AlphaPoly) else AlphaPoly.const(coeff)
        return KExpr.from_terms([KTerm(c, sgn_parity, FracExponent(j, m))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: KExpr) -> KExpr:
        return KExpr.from_terms(self.terms + other.terms)

    def __neg__(self) -> KExpr:
        return KExpr(tuple(KTerm(-t.coeff, t.sgn_parity, t.exponent) for t in self.terms))

    def __sub__(self, other: KExpr) -> KExpr:
        return self + (-other)

    def __mul__(self, other: KExpr) -> KExpr:
        prods = [
            KTerm(
                s.coeff * o.coeff,
                (s.sgn_parity + o.sgn_parity) % 2,
                s.exponent + o.exponent,
            )
            for s in self.terms
            for o in other.terms
        ]
        return KExpr.from_terms(prods)

    def scale(self, factor) -> KExpr:
        if isinstance(factor, AlphaPoly):
            poly = factor
        else:
            poly = AlphaPoly.const(factor)
        return KExpr.from_terms(
            KTerm(t.coeff * poly, t.sgn_parity, t.exponent) for t in self.terms
        )

    def differentiate(self) -> KExpr:
        out = []
        for t in self.terms:
            # multiply by the exponent value j*a/2 + m as a polynomial in a
            mult = _poly([2 * t.exponent.m, t.exponent.j], 2)
            out.append(KTerm(t.coeff * mult, (t.sgn_parity + 1) % 2, t.exponent.shift(-1)))
        return KExpr.from_terms(out)

    def at_alpha(self, alpha) -> FixedKExpr:
        """Substitute the stability index; numerically coincident exponents merge."""
        a = _as_fraction(alpha)
        return FixedKExpr.from_terms(
            FixedKTerm(t.coeff.eval(a), t.sgn_parity, t.exponent.value(a))
            for t in self.terms
        )

    def eval(self, alpha, k: float) -> float:
        return self.at_alpha(alpha).eval(k)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "coeff": [str(c) for c in t.coeff.coeffs],
                "sgn": t.sgn_parity,
                "j": t.exponent.j,
                "m": t.exponent.m,
            }
            for t in self.terms
        ]

    @staticmethod
    def from_json_obj(obj: Sequence[dict]) -> KExpr:
        terms = []
        for entry in obj:
            coeff = AlphaPoly.of(*[Fraction(c) for c in entry["coeff"]])
            terms.append(KTerm(coeff, int(entry["sgn"]), FracExponent(int(entry["j"]), int(entry["m"]))))
        return KExpr.from_terms(terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class FixedKTerm:
    """Monomial with the stability index already substituted: coeff * sgn**p * |k|**q."""

    coeff: Fraction
    sgn_parity: int
    exponent: Fraction


@dataclass(frozen=True)
class FixedKExpr:
    """Sum of FixedKTerm monomials, merged on (exponent, parity), sorted descending."""

    terms: tuple[FixedKTerm, ...]

    @staticmethod
    def from_terms(terms: Iterable[FixedKTerm]) -> FixedKExpr:
        acc: dict[tuple[Fraction, int], Fraction] = {}
        for t in terms:
            key = (t.exponent, t.sgn_parity)
            acc[key] = acc.get(key, Fraction(0)) + t.coeff
        out = [
            FixedKTerm(c, key[1], key[0]) for key, c in acc.items() if c != 0
        ]
        out.sort(key=lambda t: (t.exponent, t.sgn_parity), reverse=True)
        return FixedKExpr(tuple(out))

    @staticmethod
    def zero() -> FixedKExpr:
        return FixedKExpr(())

    @staticmethod
    def monomial(coeff, sgn_parity: int, exponent) -> FixedKExpr:
        return FixedKExpr.from_terms(
            [FixedKTerm(_as_fraction(coeff), sgn_parity, _as_fraction(exponent))]
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: FixedKExpr) -> FixedKExpr:
        return FixedKExpr.from_terms(self.terms + other.terms)

    def __neg__(self) -> FixedKExpr:
        return FixedKExpr(tuple(FixedKTerm(-t.coeff, t.sgn_parity, t.exponent) for t in self.terms))

    def __sub__(self, other: FixedKExpr) -> FixedKExpr:
        return self + (-other)

    def __mul__(self, other: FixedKExpr) -> FixedKExpr:
        return FixedKExpr.from_terms(
            FixedKTerm(
                s.coeff * o.coeff,
                (s.sgn_parity + o.sgn_parity) % 2,
                s.exponent + o.exponent,
            )
            for s in self.terms
            for o in other.terms
        )

    def scale(self, factor) -> FixedKExpr:
        f = _as_fraction(factor)
        return FixedKExpr.from_terms(
            FixedKTerm(t.coeff * f, t.sgn_parity, t.exponent) for t in self.terms
        )

    def differentiate(self) -> FixedKExpr:
        return FixedKExpr.from_terms(
            FixedKTerm(t.coeff * t.exponent, (t.sgn_parity + 1) % 2, t.exponent - 1)
            for t in self.terms
        )

    def eval(self, k: float) -> float:
        """Pointwise value with sgn(0) = 0; k = 0 with a negative exponent raises DomainError."""
        kf = float(k)
        if kf == 0.0:
            total = 0.0
            for t in self.terms:
                if t.exponent < 0:
                    raise DomainError(
                        f"|k|^({t.exponent}) diverges at k = 0"
                    )
                if t.exponent == 0 and t.sgn_parity == 0:
                    total += float(t.coeff)
                # exponent > 0 contributes 0; any sgn factor contributes 0
            return total
        sign = 1.0 if kf > 0 else -1.0
        mag = abs(kf)
        parts = []
        for t in self.terms:
            v = float(t.coeff) * mag ** float(t.exponent)
            if t.sgn_parity and sign < 0:
                v = -v
            parts.append(v)
        return math.fsum(parts)

    @property
    def min_exponent(self) -> Fraction | None:
        if not self.terms:
            return None
        return min(t.exponent for t in self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for t in self.terms:
            sgn = "sgn(k)*" if t.sgn_parity else ""
            if t.exponent == 0:
                body = f"{t.coeff}*{sgn}1" if t.sgn_parity else str(t.coeff)
            else:
                body = f"{t.coeff}*{sgn}|k|^({t.exponent})"
            bits.append(body)
        return " + ".join(bits)
