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
:mod:`rfho.kterms`; every other layer takes H_n from it.  ``ladder_next``
takes the same step in that general algebra, and ``rodrigues`` iterates it
from H_0 = 1 as the second path the ``ladder-rodrigues`` check compares.
At a = 2 the family collapses to the classical Hermite polynomials (see
``standard_reduction``).
``extract_p_coefficients`` is the one reader of the lattice in a built
expression; the a = 2 reduction is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .kterms import AlphaPoly, FracExponent, KExpr, KTerm, _poly


class StructureError(ValueError):
    """An expression does not have the exponent layout required by the operation."""


#: s = sgn(k)|k|**(a/2), minus the log-derivative of the ground state
S_EXPR = KExpr.monomial(1, 1, 1, 0)

#: 2s, the multiplicative part of the raising operation
LADDER_FACTOR = S_EXPR.scale(2)


@dataclass(frozen=True)
class RFHermite:
    """Index and exact expression of one member of the generalized family."""

    n: int
    expr: KExpr


def ladder_next(h: RFHermite) -> RFHermite:
    """One raising step: H_{n+1} = 2 sgn|k|**(a/2) H_n - H_n', both parts' pairs merged once."""
    pairs = LADDER_FACTOR._product_pairs(h.expr) + h.expr._derivative_pairs(-1)
    return RFHermite(h.n + 1, KExpr._merge(pairs))


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


def rodrigues(n: int) -> RFHermite:
    """H_n from the weight exp(-W), W' = 2s, in the general term algebra.

    The Rodrigues form H_m = (-1)**m exp(W) d^m/dk^m exp(-W) = (-1)**m G_m
    has G_0 = 1 and G_{m+1} = G_m' - W' G_m, which for H_m is the ladder
    step; so H_n is ``ladder_next`` iterated n times from H_0 = 1, holding
    one member.  No sgn(k)**m prefactor is applied: with it, m = 1 would
    give 2|k|**(a/2) instead of the ladder's 2 sgn(k)|k|**(a/2).
    Agreement with ``rf_hermite``, which runs that recurrence on the lattice
    coefficients, checks two code paths for one recurrence against each
    other; it is not an independent derivation of H_n.
    """
    _check_index(n)
    h = RFHermite(0, KExpr.one())
    for _ in range(n):
        h = ladder_next(h)
    return h


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
    "LADDER_FACTOR",
    "RFHermite",
    "S_EXPR",
    "StructureError",
    "extract_p_coefficients",
    "ladder_next",
    "rf_hermite",
    "rodrigues",
    "standard_reduction",
]
