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

Sums, differences and ``at_alpha`` merge reduced coefficients
(``_TermSum._merge``) and ``scale`` keeps the keys.  ``KExpr`` products,
``KExpr.differentiate`` and the ladder step (``hermite.ladder_next``) build
unreduced (key, numerators, denominator) triples instead and reduce each
output coefficient once, in ``KExpr._reduce``.

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
from itertools import zip_longest
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


def _signed_join(parts: list[str]) -> str:
    """Join printed terms with " + ", writing a leading minus as " - "; "0" when empty."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Numerators of the product of two nonzero numerator tuples, unreduced."""
    if len(b) == 1 or len(a) == 1:  # a constant scales the other's numerators
        (k,), num = (b, a) if len(b) == 1 else (a, b)
        return [c * k for c in num]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _combine(
    an: Sequence[int], ad: int, bn: Sequence[int], bd: int, sign: int = 1
) -> tuple[list[int], int]:
    """an/ad + sign * bn/bd over a common denominator, unreduced."""
    g = math.gcd(ad, bd)
    sa, sb = bd // g, sign * ad // g
    return [x * sa + y * sb for x, y in zip_longest(an, bn, fillvalue=0)], ad * sa


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
    per result.  Construct through ``of`` (or the operators) to
    maintain the form; ``coeffs`` gives the exact rational coefficients.
    """

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def of(*values) -> AlphaPoly:
        fs = [_as_fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fs))
        return _poly([f.numerator * (den // f.denominator) for f in fs], den)

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

    def _plus(self, other: AlphaPoly, sign: int) -> AlphaPoly:
        """self + sign * other over a common denominator, normalised once."""
        return _poly(*_combine(self.num, self.den, other.num, other.den, sign))

    def __add__(self, other: AlphaPoly) -> AlphaPoly:
        return self._plus(other, 1)

    def __neg__(self) -> AlphaPoly:
        return AlphaPoly(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: AlphaPoly) -> AlphaPoly:
        return self._plus(other, -1)

    def __mul__(self, other: AlphaPoly) -> AlphaPoly:
        if not self.num or not other.num:
            return _ZERO
        return _poly(_convolve(self.num, other.num), self.den * other.den)

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
        return self._merge(self._pairs() + [(key, -coeff) for key, coeff in other._pairs()])

    def scale(self, factor):
        f = self._coerce(factor)
        if not f:
            return self.zero()
        return type(self)(tuple(self._term(key, coeff * f) for key, coeff in self._pairs()))


def _as_poly(value) -> AlphaPoly:
    return value if isinstance(value, AlphaPoly) else AlphaPoly.of(value)


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
    def one() -> KExpr:
        return KExpr.monomial(1, 0, 0, 0)

    @staticmethod
    def monomial(coeff, sgn_parity: int, j: int, m: int) -> KExpr:
        return KExpr._single(KTerm(_as_poly(coeff), sgn_parity, FracExponent(j, m)))

    @staticmethod
    def _reduce(triples: Iterable[tuple]) -> KExpr:
        """The canonical sum of unreduced (key, numerators, denominator) triples.

        Triples with equal keys are brought to a common denominator; each
        key's coefficient is then reduced once, zeros are dropped and the
        keys sorted descending.
        """
        acc: dict = {}
        for key, num, den in triples:
            prev = acc.get(key)
            acc[key] = (num, den) if prev is None else _combine(*prev, num, den)
        terms = []
        for key in sorted(acc, reverse=True):
            coeff = _poly(*acc[key])
            if coeff:
                terms.append(KExpr._term(key, coeff))
        return KExpr(tuple(terms))

    def _product_triples(self, other: KExpr) -> list[tuple]:
        """The triples of self * other: numerators convolved, denominators multiplied."""
        right = other._pairs()
        return [
            ((j + oj, m + om, (p + op) % 2), _convolve(c.num, oc.num), c.den * oc.den)
            for (j, m, p), c in self._pairs()
            for (oj, om, op), oc in right
        ]

    def _derivative_triples(self, sign: int = 1) -> list[tuple]:
        """The triples of sign * d/dk: each coefficient times its exponent j*a/2 + m.

        c(a) * (j*a/2 + m) has numerators 2m*num[i] + j*num[i-1] over 2*den.
        """
        out = []
        for (j, m, p), c in self._pairs():
            if j or m:
                up, same = sign * j, 2 * sign * m  # factors of num[i - 1] and num[i]
                num = [same * x + up * y for x, y in zip((*c.num, 0), (0, *c.num))]
                out.append(((j, m - 1, 1 - p), num, 2 * c.den))
        return out

    def __mul__(self, other: KExpr) -> KExpr:
        return KExpr._reduce(self._product_triples(other))

    def differentiate(self) -> KExpr:
        return KExpr._reduce(self._derivative_triples())

    def at_alpha(self, alpha) -> FixedKExpr:
        """Substitute the stability index; numerically coincident exponents merge."""
        a = _as_fraction(alpha)
        return FixedKExpr._merge(
            ((t.exponent.value(a), t.sgn_parity), t.coeff.eval(a)) for t in self.terms
        )

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
        """Pointwise value, one loop for every k, with sgn(0) = 0 and 0**0 = 1.

        At k = 0 a negative ``min_exponent`` raises DomainError.  The value
        may be -0.0 (c * sgn(k) for c < 0); the CLI writer prints 0.
        """
        kf = float(k)
        if kf == 0.0 and (self.min_exponent or 0) < 0:
            raise DomainError(f"|k|^({self.min_exponent}) diverges at k = 0")
        sign = (kf > 0) - (kf < 0)
        mag = abs(kf)
        parts = []
        for t in self.terms:
            v = float(t.coeff) * mag ** float(t.exponent)
            parts.append(v * sign if t.sgn_parity else v)
        return math.fsum(parts)

    @property
    def min_exponent(self) -> Fraction | None:
        """The last term's exponent: the terms are sorted descending."""
        return self.terms[-1].exponent if self.terms else None

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": str(t.coeff), "sgn": t.sgn_parity, "exponent": str(t.exponent)}
            for t in self.terms
        ]

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
