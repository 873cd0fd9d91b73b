"""Fourier-space eigenstates and local eigenvalues of the fractional oscillator.

The momentum-space Hamiltonian acts as multiplication by the asymmetric
power symbol |k|**a * exp(i sgn(k) theta pi/2) plus -d^2/dk^2.  Its
factorization uses the half-order symbol with unit asymmetry, whose kernel
is the stretched-exponential ground state

    phi0(k) = exp(-|k|**(a/2+1) / (a/2+1)),

and the n-th eigenstate is phi_n = i**n H_n(k) phi0(k) with H_n from
:mod:`rfho.hermite`.  These states are eigenfunctions of the full operator
only locally: applying the operator and dividing back by phi_n yields a
k-dependent "local eigenvalue".  With s = sgn(k)|k|**(a/2), minus the
log-derivative of phi0, stripping phi0 from -phi_n'' gives
-H_n'' + 2s H_n' - (s**2 - s') H_n, and the ladder step differentiated,
H_{n+1}' = 2s' H_n + 2s H_n' - H_n'', turns that into
H_{n+1}' - s' H_n - |k|**a H_n.  So

    lam_n(k) = [ H_{n+1}' - s' H_n + (S_theta(k) - |k|**a) H_n ] / (a H_n)

with S_theta(k) = |k|**a exp(i sgn(k) theta pi/2): one derivative of
H_{n+1} = ``rf_hermite(n + 1)`` and no product s**2.  At a = 2, s' = 1 and
H_{n+1}' = 2(n+1) H_n, so the symmetric lam_n is n + 1/2.  The numerator
and denominator are exact expressions in the signed-power algebra; the
1/a scaling is carried by the denominator polynomial so everything stays
polynomial in ``a``.

Exact symbolic eigenvalues require the half-angle cosine and sine of
theta*pi/2 to be rational, which restricts theta to integers (0 gives the
symmetric operator, 1 the fully skewed one).  Arbitrary rational theta is
supported numerically through ``sample_local_eigenvalue``, which adds the
same theta term (S_theta - |k|**a) / a to the symmetric eigenvalue.

Every sampler returns a ``Grid``, which lives here: ``sample_regular`` and
``sample_local_eigenvalue`` on the k axis, the transforms and
non-Gaussianity curves of :mod:`rfho.transform` on either axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hermite import S_EXPR, _check_index, rf_hermite
from .kterms import ALPHA, AlphaPoly, DomainError, FixedKExpr, KExpr, _as_fraction


def half_turn(theta) -> tuple[float, float]:
    """(cos, sin) of theta pi/2 for any rational theta.

    theta is reduced exactly into (-2, 2] before it becomes a float, so
    theta + 4m gives the same values however large m is.  An integer
    theta takes exact ints (in floats exp(i pi) is -1 + 1.2e-16i).
    """
    th = _as_fraction(theta)
    th -= 4 * math.ceil((th - 2) / 4)
    if th.denominator == 1:
        return ((1, 0), (0, 1), (-1, 0), (0, -1))[int(th) % 4]
    angle = float(th) * math.pi / 2
    return math.cos(angle), math.sin(angle)


def symbol_eval(order, asymmetry, k: float) -> complex:
    """Power symbol |k|**order * exp(i sgn(k) asymmetry pi/2) at one point.

    Raises DomainError at k = 0 for a negative order, where it diverges.
    """
    q = _as_fraction(order)
    kf = float(k)
    if kf == 0.0:
        if q < 0:
            raise DomainError("negative-order symbol diverges at k = 0")
        return 0j if q > 0 else complex(1.0)
    cos, sin = half_turn(asymmetry)
    mag = abs(kf) ** float(q)
    return complex(mag * cos, mag * sin if kf > 0 else -mag * sin)


def _check_alpha(alpha: Fraction) -> None:
    if not (0 < alpha <= 2):
        raise ValueError("stability index must lie in (0, 2]")


@dataclass(frozen=True)
class Grid:
    """A sampled axis with complex amplitudes; the symbolic/numeric exchange format."""

    axis_label: str
    points: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.axis_label not in ("k", "x"):
            raise ValueError("axis label must be 'k' or 'x'")
        if len(self.points) != len(self.values):
            raise ValueError("points and values lengths differ")
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")


@dataclass(frozen=True)
class KState:
    """Eigenstate phi_n = i**n H_n(k) phi0(k) in k space, fixed by n and alpha.

    alpha is checked, then n; only then is ``hermite`` set to ``rf_hermite(n)``.
    """

    n: int
    alpha: Fraction

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_index(self.n)
        object.__setattr__(self, "hermite", rf_hermite(self.n))

    @property
    def ground_exponent(self) -> Fraction:
        """Exponent e = a/2 + 1 in phi0 = exp(-|k|**e / e)."""
        return self.alpha / 2 + 1

    def ground_value(self, k: float) -> float:
        e = float(self.ground_exponent)
        return math.exp(-abs(float(k)) ** e / e)

    def amplitude(self) -> FixedKExpr:
        """Real factor A in phi_n = i**(n mod 2) A phi0, at this alpha.

        A is H_n, negated when n mod 4 >= 2 (i**n = -1 or -i).  Every term
        of H_n carries sgn(k)**(n mod 2), so phi_n is real and even for
        even n, imaginary and odd for odd n.
        """
        h = self.hermite.expr.at_alpha(self.alpha)
        return -h if self.n % 4 >= 2 else h

    def eval(self, k: float) -> complex:
        # + 0.0 and a literal zero part: a product such as 0 * v is -0 for v < 0
        v = self.amplitude().eval(k) * self.ground_value(k) + 0.0
        return complex(0.0, v) if self.n % 2 else complex(v, 0.0)


def ground_state(alpha) -> KState:
    return KState(0, _as_fraction(alpha))


def excited_state(n: int, alpha) -> KState:
    return KState(n, _as_fraction(alpha))


def ground_kernel_residual() -> KExpr:
    """Symbolic lowering residue on the ground state, times e = a/2 + 1; exactly zero.

    Applying (half-order unit-asymmetry symbol) + i d/dk to phi0 and
    stripping i*phi0 leaves s + (log phi0)'.  With log phi0 = -|k|**e / e
    that is s - (d/dk |k|**e) / e, so e s - d/dk |k|**e is returned: the
    derivative is taken by the exact algebra from phi0's exponent.
    """
    e = AlphaPoly.of(1, Fraction(1, 2))  # phi0's exponent a/2 + 1
    return S_EXPR.scale(e) - KExpr.monomial(1, 0, 1, 1).differentiate()


def kernel_residual_at(alpha, k: float) -> complex:
    """Numeric lowering residue [S_{a/2,1} phi0 + i phi0'](k), zero up to rounding.

    phi0' is the complex step Im phi0(k + ih) / h, independent of the
    symbol; it needs phi0 analytic at k, so k = 0 raises DomainError.
    """
    kf = float(k)
    if kf == 0.0:
        raise DomainError("the complex-step derivative needs k != 0")
    state = ground_state(alpha)
    e = float(state.ground_exponent)
    h = 1e-20
    z = complex(abs(kf), h if kf > 0 else -h)  # sgn(k) (k + ih): |k|**e continued
    dphi = cmath.exp(-(z**e) / e).imag / h
    return symbol_eval(state.alpha / 2, 1, kf) * state.ground_value(kf) + 1j * dphi


@dataclass(frozen=True)
class LocalEigenvalue:
    """Exact rational form lam_n(k) = (re_num + i im_num) / den, generic in ``a``.

    den = a * H_n, so lam_n has poles exactly at the amplitude zeros of
    phi_n (and possibly at k = 0 through negative powers in the numerator).
    """

    n: int
    alpha: Fraction
    theta: Fraction
    re_num: KExpr
    im_num: KExpr
    den: KExpr

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def eval(self, k: float) -> complex:
        d = self.den.at_alpha(self.alpha).eval(k)
        if d == 0.0:
            raise ZeroDivisionError(f"local eigenvalue pole at k = {k}")
        re = self.re_num.at_alpha(self.alpha).eval(k)
        im = self.im_num.at_alpha(self.alpha).eval(k)
        return complex(re / d, im / d if im else 0.0)  # a literal 0: 0 / d is -0 for d < 0


def local_eigenvalue(n: int, alpha, theta=0) -> LocalEigenvalue:
    """Exact local eigenvalue of the n-th state for integer asymmetry theta.

    cos(theta pi/2) and sin(theta pi/2) are rational only when theta is an
    integer (the only rational points of the cosine at rational angles),
    so the exact form is restricted to integer theta; use
    ``sample_local_eigenvalue`` for other rational values.
    """
    a = _as_fraction(alpha)
    _check_alpha(a)  # before H_n and H_{n+1} are built
    th = _as_fraction(theta)
    if th.denominator != 1:
        raise ValueError(
            "exact symbolic eigenvalues require integer asymmetry; "
            "use sample_local_eigenvalue for general rational theta"
        )
    cos_half, sin_half = half_turn(th)

    h = rf_hermite(n).expr
    # -phi_n''/phi0 = H_{n+1}' - s'H_n - |k|**a H_n (module docstring), plus S_theta H_n
    re_num = rf_hermite(n + 1).expr.differentiate() + (
        KExpr.monomial(cos_half - 1, 0, 2, 0) - S_EXPR.differentiate()
    ) * h
    im_num = KExpr.monomial(sin_half, 1, 2, 0) * h
    return LocalEigenvalue(n, a, th, re_num, im_num, h.scale(ALPHA))


def sample_regular(f, ks: Sequence[float]) -> Grid:
    """The k-axis Grid of f over ks, leaving out the singular points.

    A point is singular when f raises there: DomainError at the origin
    under a negative power of |k|, ZeroDivisionError at a root of a
    denominator.
    """
    pts, vals = [], []
    for k in ks:
        try:
            vals.append(f(k))
        except (DomainError, ZeroDivisionError):
            continue
        pts.append(k)
    return Grid("k", tuple(pts), tuple(vals))


def sample_local_eigenvalue(n: int, alpha, theta, ks: Sequence[float]) -> Grid:
    """Local eigenvalue at the regular sample points, for any rational asymmetry.

    Evaluates the exact symmetric (theta = 0) form and adds the closed
    asymmetry correction (exp(i sgn(k) theta pi/2) - 1) |k|**a / a, which
    is how theta enters the multiplication symbol.  Singular points are
    left out, as in ``sample_regular``; returns their k-axis Grid.
    The phase comes from ``half_turn``; where it is 1 nothing is added,
    so the values are those of ``LocalEigenvalue.eval``.
    """
    a = float(_as_fraction(alpha))
    cos, sin = half_turn(theta)
    skewed = (cos, sin) != (1, 0)
    base = local_eigenvalue(n, alpha, 0)

    def lam(k: float) -> complex:
        value = base.eval(k)
        kf = float(k)
        if kf != 0.0 and skewed:
            sign = 1.0 if kf > 0 else -1.0
            value += (complex(cos, sign * sin) - 1.0) * abs(kf) ** a / a
        return value

    return sample_regular(lam, ks)


__all__ = [
    "Grid",
    "KState",
    "LocalEigenvalue",
    "excited_state",
    "ground_kernel_residual",
    "ground_state",
    "half_turn",
    "kernel_residual_at",
    "local_eigenvalue",
    "sample_local_eigenvalue",
    "symbol_eval",
]
