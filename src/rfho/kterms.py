"""Exact signed-power term algebra in the Fourier variable k.

Expressions are finite sums of monomials

    c(a) * sgn(k)**p * |k|**(j*a/2 + m)

where ``a`` is the stability index kept symbolic, ``c(a)`` is a polynomial
in ``a`` with exact rational coefficients, ``p`` is 0 or 1 (sgn(k)**2 == 1
away from the origin), and the exponent is encoded by the integer pair
``(j, m)``.  Sums, products and d/dk are exact; floating point enters only
when an expression is evaluated at concrete ``(a, k)``.

Canonical form.  ``KExpr``, ``FixedKExpr`` (the same sums once ``a`` is
substituted) and ``operators.OpExpr`` (normal-ordered words in x and D)
are all canonical sums of terms, each term a key and a coefficient: terms
with equal keys are merged by adding their coefficients, terms whose
coefficient is zero are dropped, and the rest are sorted by key.  Equal
sums therefore have equal term tuples, so ``==`` and ``hash`` act on
values.  The rule lives once, in ``_TermSum``; construct through the
named constructors and the operators to keep it.

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
from typing import Iterable


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


def _signed_join(parts: list[str]) -> str:
    """Join printed terms with " + ", writing a leading minus as " - "; "0" when empty."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


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

    def __bool__(self) -> bool:
        return bool(self.num)

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
        return _signed_join(parts)


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


class _TermSum:
    """Canonical sum of terms, each a (key, coeff) pair; see the module docstring.

    A subclass is a frozen dataclass whose one field is the term tuple.  It
    supplies ``_pairs`` (the (key, coeff) pair of each term), ``_term`` (the
    term for a key and a coefficient), ``_coerce`` (a scalar into the
    coefficient ring), ``_descending`` (the sort direction) and its product.
    """

    _descending = False

    @classmethod
    def _merge(cls, pairs: Iterable[tuple]):
        """The canonical sum of (key, coeff) pairs: merged on key, zeros dropped, sorted."""
        acc: dict = {}
        for key, coeff in pairs:
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
        keys = sorted((key for key, coeff in acc.items() if coeff), reverse=cls._descending)
        return cls(tuple(cls._term(key, acc[key]) for key in keys))

    @classmethod
    def _single(cls, term):
        """The sum of one term: empty when its coefficient is zero."""
        return cls((term,) if term.coeff else ())

    @classmethod
    def zero(cls):
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self._pairs()

    def __add__(self, other):
        return self._merge(self._pairs() + other._pairs())

    def __neg__(self):
        return type(self)(tuple(self._term(key, -coeff) for key, coeff in self._pairs()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        f = self._coerce(factor)
        return self._merge((key, coeff * f) for key, coeff in self._pairs())


def _as_poly(value) -> AlphaPoly:
    return value if isinstance(value, AlphaPoly) else AlphaPoly.const(value)


@dataclass(frozen=True)
class KExpr(_TermSum):
    """Canonical sum of KTerm monomials, keyed on (j, m, parity), sorted descending."""

    terms: tuple[KTerm, ...]

    _descending = True
    _coerce = staticmethod(_as_poly)

    def _pairs(self) -> list[tuple]:
        return [((t.exponent.j, t.exponent.m, t.sgn_parity), t.coeff) for t in self.terms]

    @staticmethod
    def _term(key: tuple, coeff: AlphaPoly) -> KTerm:
        return KTerm(coeff, key[2], FracExponent(key[0], key[1]))

    @staticmethod
    def from_terms(terms: Iterable[KTerm]) -> KExpr:
        return KExpr._merge(((t.exponent.j, t.exponent.m, t.sgn_parity), t.coeff) for t in terms)

    @staticmethod
    def one() -> KExpr:
        return KExpr.monomial(1, 0, 0, 0)

    @staticmethod
    def monomial(coeff, sgn_parity: int, j: int, m: int) -> KExpr:
        return KExpr._single(KTerm(_as_poly(coeff), sgn_parity, FracExponent(j, m)))

    def __mul__(self, other: KExpr) -> KExpr:
        right = other._pairs()
        return KExpr._merge(
            ((j + oj, m + om, (p + op) % 2), c * oc)
            for (j, m, p), c in self._pairs()
            for (oj, om, op), oc in right
        )

    def differentiate(self) -> KExpr:
        # multiply by the exponent value j*a/2 + m as a polynomial in a
        return KExpr._merge(
            ((j, m - 1, 1 - p), c * _poly([2 * m, j], 2)) for (j, m, p), c in self._pairs()
        )

    def at_alpha(self, alpha) -> FixedKExpr:
        """Substitute the stability index; numerically coincident exponents merge."""
        a = _as_fraction(alpha)
        return FixedKExpr._merge(
            ((t.exponent.value(a), t.sgn_parity), t.coeff.eval(a)) for t in self.terms
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
class FixedKExpr(_TermSum):
    """Canonical sum of FixedKTerm monomials, keyed on (exponent, parity), sorted descending."""

    terms: tuple[FixedKTerm, ...]

    _descending = True
    _coerce = staticmethod(_as_fraction)

    def _pairs(self) -> list[tuple]:
        return [((t.exponent, t.sgn_parity), t.coeff) for t in self.terms]

    @staticmethod
    def _term(key: tuple, coeff: Fraction) -> FixedKTerm:
        return FixedKTerm(coeff, key[1], key[0])

    @staticmethod
    def monomial(coeff, sgn_parity: int, exponent) -> FixedKExpr:
        return FixedKExpr._single(
            FixedKTerm(_as_fraction(coeff), sgn_parity, _as_fraction(exponent))
        )

    def __mul__(self, other: FixedKExpr) -> FixedKExpr:
        right = other._pairs()
        return FixedKExpr._merge(
            ((e + oe, (p + op) % 2), c * oc)
            for (e, p), c in self._pairs()
            for (oe, op), oc in right
        )

    def differentiate(self) -> FixedKExpr:
        return FixedKExpr._merge(((e - 1, 1 - p), c * e) for (e, p), c in self._pairs())

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
