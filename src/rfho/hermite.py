"""Generalized Hermite polynomials attached to the fractional ground state.

The Fourier-space ground state is phi0(k) = exp(-|k|**(a/2+1) / (a/2+1)),
so its logarithmic derivative is -sgn(k)|k|**(a/2).  Applying the raising
operation to phi_n = i**n * H_n * phi0 and stripping phase and ground
factors gives the reduced recurrence used here:

    H_0 = 1
    H_{n+1} = 2 sgn(k) |k|**(a/2) H_n - H_n'

All H_n live in the exact signed-power algebra of :mod:`rfho.kterms`,
generic in the stability index ``a``.  At a = 2 the family collapses to
the classical Hermite polynomials (see ``standard_reduction``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .kterms import ALPHA, AlphaPoly, FracExponent, KExpr, KTerm


class StructureError(ValueError):
    """An expression does not have the exponent layout required by the operation."""


#: 2 sgn(k) |k|**(a/2), the multiplicative part of the raising operation
LADDER_FACTOR = KExpr.monomial(2, 1, 1, 0)

#: derivative of -W with W = 2|k|**(a/2+1)/(a/2+1), i.e. (exp(-W))'/exp(-W)
_MINUS_W_PRIME = KExpr.monomial(-2, 1, 1, 0)


@dataclass(frozen=True)
class RFHermite:
    """Index and exact expression of one member of the generalized family."""

    n: int
    expr: KExpr


def ladder_next(h: RFHermite) -> RFHermite:
    """One raising step: H_{n+1} = 2 sgn|k|**(a/2) H_n - H_n'."""
    return RFHermite(h.n + 1, LADDER_FACTOR * h.expr - h.expr.differentiate())


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError("index must be a nonnegative integer")


# typed, so that a float such as 2.0 misses the entry for 2 and is refused
@lru_cache(maxsize=None, typed=True)
def rf_hermite(n: int) -> RFHermite:
    """n-th generalized Hermite polynomial, built by iterating the ladder from H_0 = 1.

    Cached; safe for concurrent reads once built.  Lower members are
    requested in ascending order, so each is a cache hit or one ladder
    step from the one before it, and the call depth stays bounded
    whatever n is.
    """
    _check_index(n)
    if n == 0:
        return RFHermite(0, KExpr.one())
    for k in range(1, n - 1):
        rf_hermite(k)
    return ladder_next(rf_hermite(n - 1))


def _weight_factors(n: int) -> Iterator[KExpr]:
    """G_0..G_n in exp(W) d^m/dk^m exp(-W) = G_m, W = 2|k|**(a/2+1)/(a/2+1), one at a time.

        G_0 = 1,   G_{m+1} = G_m' + G_m * (-W')
    """
    g = KExpr.one()
    yield g
    for _ in range(n):
        g = g.differentiate() + g * _MINUS_W_PRIME
        yield g


def rodrigues_family(n: int) -> list[RFHermite]:
    """Independent generation of H_0..H_n from the weight exp(-W), in one pass.

    H_m = (-1)**m * exp(W) * d^m/dk^m exp(-W) = (-1)**m G_m.  No sgn(k)**m
    prefactor is applied: with it, m = 1 would give 2|k|**(a/2) instead of
    the ladder's 2 sgn(k)|k|**(a/2).  Agreement with the ladder output is
    a structural identity of the family, exercised by the validation suite.
    """
    _check_index(n)
    return [RFHermite(m, -g if m % 2 else g) for m, g in enumerate(_weight_factors(n))]


def rodrigues(n: int) -> RFHermite:
    """H_n from the weight exp(-W): the last member of ``rodrigues_family(n)``.

    Walks the same recurrence but keeps only the current factor.
    """
    _check_index(n)
    g = deque(_weight_factors(n), maxlen=1)[0]
    return RFHermite(n, -g if n % 2 else g)


def extract_p_coefficients(h: RFHermite) -> list[AlphaPoly]:
    """Coefficients p_i(a) in H_n = sgn**(n mod 2) * sum_i (-1)^i p_i |k|**((n-i)a/2 - i).

    Every ladder step flips sgn parity once, so all terms of H_n share
    parity n mod 2, and the exponents lie on the lattice ((n-i)*a/2, -i).
    The half-index multiplier never drops to zero for n >= 1 (the first
    ladder step multiplies, it cannot differentiate the constant), so the
    list has length max(n, 1): [p_0, ..., p_{n-1}] with p_0 = 2**n.  Any
    other layout raises StructureError.  Entries are returned with the
    alternating sign (-1)**i stripped.
    """
    n = h.n
    width = max(n, 1)
    out: list[AlphaPoly] = [AlphaPoly(()) for _ in range(width)]
    for t in h.expr.terms:
        j, m = t.exponent.j, t.exponent.m
        i = -m
        if not (0 <= i < width) or j != n - i:
            raise StructureError(
                f"term |k|^({t.exponent}) outside the ladder exponent lattice for n={n}"
            )
        if t.sgn_parity != n % 2:
            raise StructureError(
                f"term |k|^({t.exponent}) has parity {t.sgn_parity}, expected {n % 2}"
            )
        sign = -1 if i % 2 else 1
        out[i] = t.coeff.scale(sign)
    return out


def standard_reduction(h: RFHermite) -> KExpr:
    """Substitute a = 2 and re-express on integer powers of k.

    At a = 2 every exponent j*a/2 + m collapses to the integer j + m and
    sgn(k)**p |k|**q with p == q mod 2 is the plain power k**q.  The result
    is returned in the same algebra with j = 0 exponents.  A parity that
    disagrees with the exponent mod 2 cannot be written as a power of k and
    raises StructureError (the ladder family never produces one).
    """
    fixed = h.expr.at_alpha(2)
    terms = []
    for t in fixed.terms:
        if t.exponent.denominator != 1:
            raise StructureError("non-integer exponent after substituting a = 2")
        q = int(t.exponent)
        if q < 0:
            raise StructureError("negative exponent after substituting a = 2")
        if t.sgn_parity != q % 2:
            raise StructureError(
                f"sgn parity {t.sgn_parity} does not match exponent {q} mod 2 at a = 2"
            )
        terms.append(KTerm(AlphaPoly.const(t.coeff), q % 2, FracExponent(0, q)))
    return KExpr.from_terms(terms)


def leading_term_checks(h: RFHermite) -> None:
    """Raise StructureError unless H_n has leading term 2**n sgn**n |k|**(n a/2).

    Degree bound: every exponent satisfies j <= n and j + m <= n (value at
    a = 2 at most n), and the exponent lattice admits at most n + 1 terms.
    """
    n = h.n
    lead = h.expr.terms[0]
    if lead.exponent != FracExponent(n, 0) or lead.sgn_parity != n % 2:
        raise StructureError("leading exponent is not (n*a/2, parity n mod 2)")
    if lead.coeff != AlphaPoly.const(Fraction(2) ** n):
        raise StructureError("leading coefficient is not 2**n")
    for t in h.expr.terms:
        if t.exponent.j > n or t.exponent.j + t.exponent.m > n:
            raise StructureError("exponent outside the degree bound")
    if len(h.expr.terms) > n + 1:
        raise StructureError("more terms than the exponent lattice admits")


__all__ = [
    "ALPHA",
    "LADDER_FACTOR",
    "RFHermite",
    "StructureError",
    "extract_p_coefficients",
    "ladder_next",
    "leading_term_checks",
    "rf_hermite",
    "rodrigues",
    "rodrigues_family",
    "standard_reduction",
]
