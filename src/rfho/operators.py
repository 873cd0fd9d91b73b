"""Formal algebra of x-space operator words and the factorization remainders.

Words are monomials c * x**a * D**b where D**b is a fractional derivative
of exact rational order b (negative b denotes an antiderivative order).
The only structural axiom is the commutation rule

    D**b x = x D**b + b D**(b-1)

applied repeatedly to push derivative factors to the right of x factors
(normal order).  Everything downstream is exact rational bookkeeping.

The oscillator factorizes through the first-order pair

    lowering(d) = D**(d/2) + x        raising(g) = -D**(g/2) + x

with mixed orders d (delta) and g (gamma).  Normal-ordering the products
against H = -D**a + x**2, a = (d+g)/2, isolates the remainders:

    raising(g)*lowering(d) = H - remainder_forward(g, d)
    lowering(d)*raising(g) = H + remainder_reverted(d, g)

The reverted remainder is the forward one with the orders swapped, so one
closed form serves both; the normal-ordered products check it.
For d = g = a both collapse to (a/2) D**(a/2-1), whose 1/a-scaled form
(1/2) D**(a/2-1) is the factorization constant generalizing the 1/2 of
the ordinary oscillator.

``fourier_remainder`` gives the k-space image of the forward remainder as
a first-order operator in d/dk with complex symbol coefficients, each
part an exact monomial sum; ``FourierRemainder`` states the sign and
scaling conventions it fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .kterms import FixedKExpr, _as_fraction, _signed_join, _TermSum
from .spectral import KState, half_turn


@dataclass(frozen=True)
class OpWord:
    """Monomial coeff * x**xpow * D**dorder in normal order."""

    coeff: Fraction
    xpow: int
    dorder: Fraction

    def __post_init__(self) -> None:
        if self.xpow < 0:
            raise ValueError("x power must be nonnegative")

    def __str__(self) -> str:
        factors = []
        if self.xpow:
            factors.append("x" if self.xpow == 1 else f"x^{self.xpow}")
        if self.dorder != 0:
            factors.append(f"D^({self.dorder})")
        if not factors:
            return str(self.coeff)
        body = "*".join(factors)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


@dataclass(frozen=True)
class OpExpr(_TermSum):
    """Normal-ordered sum of OpWord, keyed on (xpow, dorder), sorted ascending."""

    words: tuple[OpWord, ...]

    _coerce = staticmethod(_as_fraction)

    def _pairs(self) -> list[tuple]:
        return [((w.xpow, w.dorder), w.coeff) for w in self.words]

    @staticmethod
    def _term(key: tuple, coeff: Fraction) -> OpWord:
        return OpWord(coeff, key[0], key[1])

    @staticmethod
    def word(coeff, xpow: int, dorder) -> OpExpr:
        return OpExpr._single(OpWord(_as_fraction(coeff), xpow, _as_fraction(dorder)))

    def __mul__(self, other: OpExpr) -> OpExpr:
        right = other._pairs()
        # push each left D order through the right x power, then the D orders add
        return OpExpr._merge(
            ((x + w.xpow, w.dorder + od), c * oc * w.coeff)
            for (x, d), c in self._pairs()
            for (ox, od), oc in right
            for w in _push_through(d, ox).words
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": str(w.coeff), "xpow": w.xpow, "dorder": str(w.dorder)}
            for w in self.words
        ]

    def __str__(self) -> str:
        return _signed_join([str(w) for w in self.words])


@lru_cache(maxsize=None)
def _push_through(dorder: Fraction, xpow: int) -> OpExpr:
    """Normal-order D**dorder x**xpow.

    Single axiom D**b x = x D**b + b D**(b-1), recursed over xpow:
    D**b x**n = x (D**b x**(n-1)) + b (D**(b-1) x**(n-1)).  Each step
    lowers the number of x factors right of the D factor, so this
    terminates; the x factor on the left is already in normal order.
    """
    if xpow == 0 or dorder == 0:
        return OpExpr.word(1, xpow, dorder)
    x = OpExpr.word(1, 1, 0)
    return x * _push_through(dorder, xpow - 1) + _push_through(dorder - 1, xpow - 1).scale(dorder)


def _positive_order(value) -> Fraction:
    v = _as_fraction(value)
    if v <= 0:
        raise ValueError("fractional orders must be positive")
    return v


def lowering_op(delta) -> OpExpr:
    """D**(delta/2) + x."""
    d = _positive_order(delta)
    return OpExpr.word(1, 0, d / 2) + OpExpr.word(1, 1, 0)


def raising_op(gamma) -> OpExpr:
    """-D**(gamma/2) + x."""
    g = _positive_order(gamma)
    return OpExpr.word(-1, 0, g / 2) + OpExpr.word(1, 1, 0)


def oscillator_op(alpha) -> OpExpr:
    """-D**alpha + x**2 (unscaled)."""
    a = _positive_order(alpha)
    return OpExpr.word(-1, 0, a) + OpExpr.word(1, 2, 0)


def remainder_forward_closed(gamma, delta) -> OpExpr:
    """Closed form (g/2) D**(g/2-1) + x (D**(g/2) - D**(d/2))."""
    g, d = _as_fraction(gamma), _as_fraction(delta)
    return (
        OpExpr.word(g / 2, 0, g / 2 - 1)
        + OpExpr.word(1, 1, g / 2)
        - OpExpr.word(1, 1, d / 2)
    )


def remainder_reverted_closed(delta, gamma) -> OpExpr:
    """Closed form (d/2) D**(d/2-1) + x (D**(d/2) - D**(g/2)): the forward one with the orders swapped."""
    return remainder_forward_closed(delta, gamma)


def compose_factorization(delta, gamma) -> tuple[OpExpr, OpExpr]:
    """(hamiltonian, remainder) with raising(g)*lowering(d) = H - remainder.

    The product is normal-ordered from the factor pair; the remainder is
    recovered as H - product with a = (d+g)/2, so its closed form is a
    derived result here, not an input.
    """
    g, d = _positive_order(gamma), _positive_order(delta)
    h = oscillator_op((d + g) / 2)
    product = raising_op(g) * lowering_op(d)
    return h, h - product


def reverted_factorization(delta, gamma) -> OpExpr:
    """Remainder of the reverted product: lowering(d)*raising(g) - H."""
    g, d = _positive_order(gamma), _positive_order(delta)
    h = oscillator_op((d + g) / 2)
    return lowering_op(d) * raising_op(g) - h


def scaled_remainder(alpha) -> OpExpr:
    """Equal-order remainder with the 1/alpha scaling: (1/2) D**(alpha/2 - 1)."""
    a = _as_fraction(alpha)
    _, rem = compose_factorization(a, a)
    return rem.scale(1 / a)


@dataclass(frozen=True)
class ComplexFixed:
    """Complex-valued expression as a (real, imaginary) FixedKExpr pair."""

    re: FixedKExpr
    im: FixedKExpr

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def times_i(self) -> ComplexFixed:
        return ComplexFixed(-self.im, self.re)

    def scale(self, factor) -> ComplexFixed:
        return ComplexFixed(self.re.scale(factor), self.im.scale(factor))

    def eval(self, k: float) -> complex:
        return complex(self.re.eval(k), self.im.eval(k))


@dataclass(frozen=True)
class FourierRemainder:
    """k-space image of the forward remainder, as c0 + c1 * d/dk.

    Built from the symbol calculus d/dk S_q = q sgn(k) S_{q-1} (S_q the
    power symbol of order q) and the transform of x into i d/dk:

        c0 = -(g/2) S_{g/2-1}
             + i [ (g/2) sgn S_{g/2-1} - (d/2) sgn S_{d/2-1} ]
        c1 = i [ S_{g/2} - S_{d/2} ]

    Two conventions are inherited as-is from the x-space display this
    mirrors: the overall sign of c0's first term (opposite to the x-space
    forward remainder's constant term), and the absence of the 1/a
    scaling that turns the equal-order remainder into the factorization
    constant; apply ``.scale(1/alpha)`` for the scaled form.
    """

    gamma: Fraction
    delta: Fraction
    theta: int
    c0: ComplexFixed
    c1: ComplexFixed

    def scale(self, factor) -> FourierRemainder:
        return FourierRemainder(
            self.gamma, self.delta, self.theta,
            self.c0.scale(factor), self.c1.scale(factor),
        )

    def apply(self, state: KState) -> ComplexFixed:
        """Amplitude pair B with (remainder phi_n)(k) = B(k) * phi0(k).

        phi_n = i**(n mod 2) A phi0 with the real amplitude A of
        ``KState.amplitude`` gives d phi_n/dk = i**(n mod 2) (A' - s A) phi0
        with s = sgn(k)|k|**(a/2), so B is c0 A + c1 (A' - s A), times i
        for odd n, all exact at the state's alpha.
        """
        amp = state.amplitude()
        deriv = amp.differentiate() - FixedKExpr.monomial(1, 1, state.alpha / 2) * amp
        out = ComplexFixed(
            self.c0.re * amp + self.c1.re * deriv,
            self.c0.im * amp + self.c1.im * deriv,
        )
        return out.times_i() if state.n % 2 else out

    def eval_applied(self, state: KState, k: float) -> complex:
        return self.apply(state).eval(k) * state.ground_value(k)


def fourier_remainder(gamma, delta, theta=0) -> FourierRemainder:
    """Exact k-space forward remainder for integer asymmetry theta.

    Then S_q = |k|**q (cos + i sgn sin) with cos, sin in {-1, 0, 1}, so the
    parts of c0 and c1 are exact sums over (exponent, sgn parity) keys.
    """
    g, d = _positive_order(gamma), _positive_order(delta)
    th = _as_fraction(theta)
    if th.denominator != 1:
        raise ValueError("exact k-space coefficients require integer asymmetry")
    cos, sin = map(Fraction, half_turn(th))
    hg, hd = g / 2, d / 2
    re0, im0, re1, im1 = (FixedKExpr._merge(pairs) for pairs in (
        [((hg - 1, 0), -hg * (cos + sin)), ((hd - 1, 0), hd * sin)],
        [((hg - 1, 1), hg * (cos - sin)), ((hd - 1, 1), -hd * cos)],
        [((hg, 1), -sin), ((hd, 1), sin)],
        [((hg, 0), cos), ((hd, 0), -cos)],
    ))
    return FourierRemainder(g, d, int(th), ComplexFixed(re0, im0), ComplexFixed(re1, im1))


__all__ = [
    "ComplexFixed",
    "FourierRemainder",
    "OpExpr",
    "OpWord",
    "compose_factorization",
    "fourier_remainder",
    "lowering_op",
    "oscillator_op",
    "raising_op",
    "remainder_forward_closed",
    "remainder_reverted_closed",
    "reverted_factorization",
    "scaled_remainder",
]
