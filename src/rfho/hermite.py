"""Generalized Hermite polynomials attached to the fractional ground state.

The Fourier-space ground state is phi0(k) = exp(-|k|**(a/2+1) / (a/2+1)),
so its logarithmic derivative is -sgn(k)|k|**(a/2).  Applying the raising
operation to phi_n = i**n * H_n * phi0 and stripping phase and ground
factors gives the reduced recurrence

    H_0 = 1
    H_{n+1} = 2 sgn(k) |k|**(a/2) H_n - H_n'

Every step flips sgn parity once and moves each term one place down an
exponent lattice.  With b = a/2,

    H_n = sgn(k)**(n mod 2) * sum_i c_{n,i}(b) |k|**((n-i) b - i),

and the recurrence becomes one on the coefficients alone:

    c_{0,0} = 1
    c_{n+1,i} = 2 c_{n,i} - ((n-i+1) b - (i-1)) c_{n,i-1}

so every c_{n,i} is a polynomial in b with integer coefficients.
``rf_hermite`` runs this lattice recurrence on Python ints and converts
only the requested row to the exact signed-power algebra of
:mod:`rfho.kterms`.  ``ladder_next`` and the weight-derivative builds
(``rodrigues``, ``rodrigues_family``) run the same recurrence in that
general algebra instead.  At a = 2 the family collapses to the classical
Hermite polynomials (see ``standard_reduction``).
``extract_p_coefficients`` is the one reader of the lattice in a built
expression; the a = 2 reduction is derived from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .kterms import ALPHA, AlphaPoly, FracExponent, KExpr, KTerm, _poly


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


def _next_row(n: int, row: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Row n + 1 of the lattice from row n: c_{n+1,i} = 2 c_{n,i} - ((n-i+1) b - (i-1)) c_{n,i-1}.

    Each c is a tuple of ints, the coefficients of b**0, b**1, ...; row n
    holds c_{n,0..max(n,1)-1}, and c_{n,i} beyond it is zero.
    """
    out = []
    for i in range(n + 1):
        c = [2 * x for x in row[i]] if i < len(row) else []
        if i:
            prev = row[i - 1]
            c += [0] * (len(prev) + 1 - len(c))
            u, v = n - i + 1, 1 - i
            for d, x in enumerate(prev):
                c[d] -= v * x
                c[d + 1] -= u * x
        out.append(tuple(c))
    return tuple(out)


#: lattice rows 0..len-1, grown on demand; each growth replaces the tuple in
#: one assignment, so concurrent readers see either the old rows or the new
_rows: tuple[tuple[tuple[int, ...], ...], ...] = (((1,),),)


def _lattice_row(n: int) -> tuple[tuple[int, ...], ...]:
    global _rows
    rows = _rows
    if len(rows) <= n:
        grown = list(rows)
        while len(grown) <= n:
            grown.append(_next_row(len(grown) - 1, grown[-1]))
        _rows = rows = tuple(grown)
    return rows[n]


# typed, so that a float such as 2.0 misses the entry for 2 and is refused
@lru_cache(maxsize=None, typed=True)
def rf_hermite(n: int) -> RFHermite:
    """n-th generalized Hermite polynomial, read off row n of the lattice recurrence.

    The rows are integer polynomials in b = a/2 (see the module
    docstring), shared by all n and grown in a loop, so the build never
    recurses whatever n is.  Only row n is converted to a ``KExpr``, one
    ``AlphaPoly`` per term.  Cached; safe for concurrent calls.
    """
    _check_index(n)
    # c_{n,i} has degree exactly i in b, its top coefficient of sign (-1)**i
    # (2 c_{n,i} and -(n-i+1) b c_{n,i-1} add with one sign there), so no
    # term vanishes, and the keys (n-i, -i, n mod 2) descend with i: the
    # tuple is already the canonical sum.  b**d = a**d / 2**d puts c over 2**i.
    terms = []
    for i, c in enumerate(_lattice_row(n)):
        coeff = _poly([x << (i - d) for d, x in enumerate(c)], 1 << i)
        terms.append(KTerm(coeff, n % 2, FracExponent(n - i, -i)))
    return RFHermite(n, KExpr(tuple(terms)))


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
    """H_0..H_n from the weight exp(-W), in one pass.

    H_m = (-1)**m * exp(W) * d^m/dk^m exp(-W) = (-1)**m G_m.  No sgn(k)**m
    prefactor is applied: with it, m = 1 would give 2|k|**(a/2) instead of
    the ladder's 2 sgn(k)|k|**(a/2).  With W' = 2 sgn(k)|k|**(a/2), the
    step G_{m+1} = G_m' - W' G_m is exactly the ladder step for H_m, run in
    the general term algebra.  Agreement with ``rf_hermite``, which runs
    that recurrence on the lattice coefficients, checks two code paths for
    one recurrence against each other; it is not an independent derivation
    of H_n.
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
    out = [AlphaPoly(())] * width
    for t in h.expr.terms:
        i = -t.exponent.m
        if not 0 <= i < width or t.exponent.j != n - i or t.sgn_parity != n % 2:
            raise StructureError(
                f"term sgn^{t.sgn_parity} |k|^({t.exponent}) off the ladder lattice for n={n}"
            )
        out[i] = t.coeff.scale(-1 if i % 2 else 1)
    return out


def standard_reduction(h: RFHermite) -> list[Fraction]:
    """Exact coefficients of k**0, ..., k**n in H_n at a = 2.

    At a = 2 lattice term i has the integer exponent n - 2i and parity
    n mod 2, so sgn**(n mod 2) |k|**(n - 2i) is the plain power k**(n - 2i)
    and carries (-1)**i p_i(2).  A nonzero value on a negative power of k
    raises StructureError, as does any term off the lattice.
    """
    n = h.n
    out = [Fraction(0)] * (n + 1)
    for i, p in enumerate(extract_p_coefficients(h)):
        c = p.eval(Fraction(2))
        if 2 * i <= n:
            out[n - 2 * i] = -c if i % 2 else c
        elif c:
            raise StructureError(f"nonzero coefficient on k^({n - 2 * i}) at a = 2")
    return out


__all__ = [
    "ALPHA",
    "LADDER_FACTOR",
    "RFHermite",
    "StructureError",
    "extract_p_coefficients",
    "ladder_next",
    "rf_hermite",
    "rodrigues",
    "rodrigues_family",
    "standard_reduction",
]
