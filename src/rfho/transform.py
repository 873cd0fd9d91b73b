"""Inverse Fourier transform of k-space states and the non-Gaussianity measures.

Convention: psi(x) = integral over all k of phi(k) e^{ikx} dk, with no
2-pi prefactor.  This is pinned by calibration: at stability index 1 the
value psi0(0) = 2 * integral of exp(-(2/3) k^(3/2)) equals the closed-form
table's leading coefficient 2^(1/3) 3^(2/3) Gamma(5/3); the 1/(2pi) and
1/sqrt(2pi) conventions miss that anchor by their respective factors.

Every term of H_n = ``rf_hermite(n)`` carries sgn(k)**(n mod 2) (the
``parity-reality`` check).  So phi_n = i**(n mod 2) A phi0 with one real
amplitude A (``KState.amplitude``), phi_n(-k) = (-1)^n phi_n(k), and the
two-sided integral folds onto k > 0:

    even n:  psi = 2 * int_0^inf phi(k) cos(kx) dk  =  2 * int_0^inf A phi0 cos(kx) dk
    odd  n:  psi = 2i * int_0^inf phi(k) sin(kx) dk = -2 * int_0^inf A phi0 sin(kx) dk

so psi is real in both cases, and the transform computes that one real
integral per state.

Quadrature: PANEL_COUNT = 200 uniform panels of width h = K / 200 cover
[0, K]; only ``inverse_fourier`` takes another count, as the keyword
``panel_count``.  The cutoff K is derived from the index: it is the smallest
integer K >= 25 whose ground-state tail exp(-K**e / e), e = alpha/2 + 1,
is below 1e-16.  That is K = 25 for every alpha >= 0.35, 26 at 1/3, 29
at 1/5, 33 at 1/10 and 37 as alpha -> 0; a shared pass over several
states uses the largest K among them.  The amplitudes carry |k|**q
singularities at the origin (integrable after the parity factor softens
them to k**p, p > -1), so the first panel [0, h] uses a tanh-sinh rule,
whose nodes crowd double exponentially towards k = 0; the other panels
use 16-node Gauss-Legendre.  Every node is kept.  Weight and amplitude
are formed together, as (w / k) * sum_i c_i k**(q_i + 1): each power
q_i + 1 is above 0 on the even fold and above -1 on the odd one, so no
factor overflows, even at the deepest node k0, 6e-276 panel widths from
the origin.  The sliver [0, k0] below it is left out; the transform is
refused if that sliver's mass, bounded by the state's coefficient sum
times k0**(p+1) / (p+1), may exceed 1e-16 of the integrand's absolute
mass (n = 2 and 3 at index 1/10, where p + 1 is 0.05).

Reach: a Gauss-Legendre panel of width h resolves cos(kx) only while
|x| h is small, so a transform is refused when some |x| h exceeds 8,
that is |x| > 64 at K = 25 with 200 panels (128 with the panel count
doubled, 55.2 at index 1/5).  At x = 64 the states n = 0, 1 at indices
1/2, 1 and 3/2 agree with an 800-panel rule to 8e-17 of their peak, and
to 1.3e-15 (rounding) anywhere on |x| <= 64; past the reach, at x = 100
they are off by 8e-14 and at x = 200 by 1.1e-8.

The cos/sin kernel is never held whole: the sums run over blocks of 128
x rows, so the transform's working memory is one block of 128 x nodes
floats (3.3 MB on the default rule), whatever the grid size.

Every result is a ``spectral.Grid`` (imported here, so ``transform.Grid``
names the same class).

numpy is imported on first use, inside the functions that need it, so
the exact subcommands start without it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .spectral import Grid, KState, ground_state

if TYPE_CHECKING:
    import numpy as np


class QuadratureError(RuntimeError):
    """A transform was refused: the state is not integrable at k = 0, the
    sliver below the rule's deepest node may hold too much of its mass, or
    some |x| is beyond the rule's reach."""


#: ground-state mass the cutoff may leave beyond it
_TAIL_LIMIT = 1e-16
#: smallest cutoff; every index >= 0.35 meets _TAIL_LIMIT there
_MIN_CUTOFF = 25
#: Gauss-Legendre nodes on each panel after the first
_GL_NODES = 16
#: share of the integrand's absolute mass the sliver below the deepest node may hold
_DROP_LIMIT = 1e-16
#: largest |x| * panel width the rule resolves: 64 at the width 1/8 of K = 25, 200 panels
_REACH = 8.0
#: x rows whose cos/sin kernel is held at once
_BLOCK_ROWS = 128
#: |psi0_2| at or below which the non-Gaussianity ratio is nan: 1e-12 of its peak sqrt(2 pi)
_GAUSS_TAIL = 1e-12 * math.sqrt(2 * math.pi)
#: uniform panels covering [0, K]: 77 tanh-sinh nodes + 199 * 16 Gauss-Legendre = 3261
PANEL_COUNT = 200
#: tanh-sinh abscissae t = j * _TS_STEP, j = _TS_FIRST.._TS_LAST; at t = -6 the
#: node sits 6e-276 panel widths from k = 0, at t = 3.5 its weight is 2e-22 widths
_TS_STEP = 1 / 8
_TS_FIRST = -48
_TS_LAST = 28


def _cutoff(state: KState) -> int:
    """Smallest integer K >= 25 at which the state's phi0(K) is below 1e-16."""
    k = _MIN_CUTOFF
    while state.ground_value(k) >= _TAIL_LIMIT:
        k += 1
    return k


def _tanh_sinh(width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes k = width / (1 + exp(-pi sinh t)) and weights on [0, width], ascending."""
    import numpy as np

    t = np.arange(_TS_FIRST, _TS_LAST + 1) * _TS_STEP
    z = np.pi * np.sinh(t)
    # u = 1 / (1 + e^-z) and v = 1 - u, each formed without cancellation
    ez = np.exp(-np.abs(z))
    near, far = ez / (1 + ez), 1 / (1 + ez)
    u = np.where(z < 0, near, far)
    v = np.where(z < 0, far, near)
    return width * u, width * _TS_STEP * np.pi * np.cosh(t) * u * v


@lru_cache(maxsize=8)
def _nodes_and_weights(cutoff: int, panel_count: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    width = cutoff / panel_count
    base_x, base_w = np.polynomial.legendre.leggauss(_GL_NODES)
    centers = width * (np.arange(1, panel_count) + 0.5)
    ts_nodes, ts_weights = _tanh_sinh(width)
    nodes = np.concatenate([ts_nodes, (centers[:, None] + width / 2 * base_x).ravel()])
    weights = np.concatenate([ts_weights, np.tile(width / 2 * base_w, panel_count - 1)])
    return nodes, weights


def _integrand(
    state: KState, nodes: np.ndarray, weights: np.ndarray, x_reach: float
) -> np.ndarray:
    """One state's weighted integrand on the rule's nodes, to pair with the kernel.

    Each value is (w_j / k_j) * sum_i c_i k_j**(q_i + 1) * phi0(k_j),
    negated on the odd fold; the module docstring says why no factor
    overflows.  Refused when the state is not integrable at k = 0, when the
    sliver below the deepest node may hold more than _DROP_LIMIT of the
    integrand's absolute mass, or when some value is not finite.
    """
    import numpy as np

    odd = state.n % 2
    amp = state.amplitude()
    # odd states gain one origin power from the sin kernel, |sin kx| <= k x_reach
    softened = amp.min_exponent + odd
    if softened <= -1:
        raise QuadratureError(
            f"state n={state.n} at index {state.alpha} is not integrable at k=0"
        )
    e = float(state.ground_exponent)
    raised = np.zeros_like(nodes)
    for t in amp.terms:
        raised += float(t.coeff) * nodes ** float(t.exponent + 1)
    value = weights / nodes * raised * np.exp(-(nodes**e) / e)
    if not np.all(np.isfinite(value)):
        raise QuadratureError(f"state n={state.n} at index {state.alpha}: integrand not finite")
    mass = np.abs(value)
    if odd:
        mass *= np.minimum(1.0, nodes * x_reach)
    # on [0, k0]: |A| <= coeff_sum * k**q_min and phi0 <= 1; p + 1 is formed
    # exactly, and one that underflows to 0.0 leaves the sliver unbounded
    power = float(softened + 1)
    coeff_sum = sum(abs(float(t.coeff)) for t in amp.terms)
    sliver = coeff_sum * (x_reach if odd else 1.0) * float(nodes[0]) ** power
    sliver = sliver / power if power else math.inf
    share = sliver / float(np.sum(mass))
    if share > _DROP_LIMIT:
        raise QuadratureError(
            f"state n={state.n} at index {state.alpha}: the sliver next to k=0 below "
            f"the rule's deepest node may hold {share:.1e} of the integrand's mass "
            f"(limit {_DROP_LIMIT})"
        )
    return -value if odd else value


def _fourier_sums(
    x_arr: np.ndarray, nodes: np.ndarray, columns: Sequence[np.ndarray], odd: bool
) -> np.ndarray:
    """2 * sum_j trig(x_i k_j) c_j for each column c, one row per column.

    The kernel is formed _BLOCK_ROWS rows of x at a time in one reused
    buffer; each column gets its own matrix-vector product, so identical
    columns give identical sums.
    """
    import numpy as np

    trig = np.sin if odd else np.cos
    out = np.empty((len(columns), x_arr.size))
    block = np.empty((min(_BLOCK_ROWS, x_arr.size), nodes.size))
    for lo in range(0, x_arr.size, _BLOCK_ROWS):
        rows = x_arr[lo : lo + _BLOCK_ROWS]
        kernel = block[: rows.size]
        np.multiply.outer(rows, nodes, out=kernel)
        trig(kernel, out=kernel)
        for c, column in enumerate(columns):
            np.dot(kernel, column, out=out[c, lo : lo + rows.size])
    out *= 2.0
    return out


def _x_array(xs: Sequence[float]) -> np.ndarray:
    import numpy as np

    x_arr = np.asarray([float(x) for x in xs], dtype=float)
    if x_arr.size and not np.all(np.isfinite(x_arr)):
        raise ValueError("sample points must be finite")
    if not np.all(x_arr[:-1] < x_arr[1:]):
        raise ValueError("points must be strictly increasing")
    return x_arr


def _transform(states: Sequence[KState], x_arr: np.ndarray, panel_count: int) -> np.ndarray:
    """psi of each state, all of one parity, in one kernel pass; one row per state."""
    if panel_count < 1:
        raise ValueError("panel count must be positive")
    cutoff = max(_cutoff(s) for s in states)
    width = cutoff / panel_count
    x_far = float(abs(x_arr).max()) if x_arr.size else 0.0
    if x_far * width > _REACH:
        raise QuadratureError(
            f"|x| = {x_far:.6g} is beyond the rule's reach |x| <= {_REACH / width:g}"
        )
    nodes, weights = _nodes_and_weights(cutoff, panel_count)
    odd = states[0].n % 2 == 1
    x_reach = max(1.0, x_far) if odd else 1.0
    columns = [_integrand(s, nodes, weights, x_reach) for s in states]
    return _fourier_sums(x_arr, nodes, columns, odd)


def inverse_fourier(
    state: KState, xs: Sequence[float], *, panel_count: int = PANEL_COUNT
) -> Grid:
    """Transform a k-space state to the x axis; returns a real-valued Grid.

    ``panel_count`` panels cover [0, K]; doubling it halves each panel.
    Raises ValueError for unordered or non-finite points or a count below 1,
    and QuadratureError when some |x| lies beyond the rule's reach (|x| *
    panel width > 8), the state is not integrable at k = 0, or the sliver
    below the rule's deepest node may hold more than 1e-16 of its mass.
    """
    x_arr = _x_array(xs)
    [psi] = _transform([state], x_arr, panel_count)
    values = tuple(complex(v, 0.0) for v in psi)
    return Grid("x", tuple(float(x) for x in x_arr), values)


def nongaussianity_k(alpha, ks: Sequence[float]) -> Grid:
    """1 - phi0_alpha(k) / phi0_2(k) on a k grid: 0 at index 2, ValueError outside (0, 2].

    Written as -expm1(k^2/2 - |k|^e/e), which keeps its digits as the
    exponent tends to 0 with k; at index 2 that is -0.0, which the CLI
    writer prints as 0.  OverflowError once the exponent passes about 709.
    """
    e = float(ground_state(alpha).ground_exponent)
    pts = tuple(float(k) for k in ks)
    values = tuple(
        complex(-math.expm1(k * k / 2 - abs(k) ** e / e), 0.0) for k in pts
    )
    return Grid("k", pts, values)


def nongaussianity_x(alpha, xs: Sequence[float]) -> Grid:
    """1 - psi0_alpha(x) / psi0_2(x) under one shared transform convention.

    Both ground states are even and go through one kernel pass on the same
    nodes.  Points where |psi0_2| falls to 1e-12 of its peak sqrt(2 pi),
    from |x| = 7.43 on, are reported as nan whatever grid they sit in (the
    ratio is numerically meaningless in the deep tail).
    """
    x_arr = _x_array(xs)
    numer, denom = _transform([ground_state(alpha), ground_state(2)], x_arr, PANEL_COUNT)
    out = []
    for num, den in zip(numer, denom):
        if abs(den) <= _GAUSS_TAIL:
            out.append(complex(math.nan, 0.0))
        else:
            out.append(complex(1.0 - num / den, 0.0))
    return Grid("x", tuple(float(x) for x in x_arr), tuple(out))


__all__ = [
    "Grid",
    "PANEL_COUNT",
    "QuadratureError",
    "inverse_fourier",
    "nongaussianity_k",
    "nongaussianity_x",
]
