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
[0, K] for every caller; only ``rfho validate`` uses 400, through the
private ``_transform``, to measure self-convergence.  The cutoff K is
derived from the index: it is the smallest integer K >= 25 whose
ground-state tail exp(-K**e / e), e = alpha/2 + 1, is below 1e-16.
That is K = 25 for every alpha >= 0.35, 26 at 1/3, 29 at 1/5, 33 at
1/10 and 37 as alpha -> 0; a shared pass over several states uses the
largest K among them.  The amplitudes carry |k|**q singularities at the
origin (integrable after the parity factor softens them to k**p,
p > -1), so the first panel [0, h] uses a tanh-sinh rule,
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
that is |x| > 64 at K = 25 with 200 panels (128 on the 400 panels of
``validate``, 55.2 at index 1/5).  At x = 64 the states n = 0, 1 at indices
1/2, 1 and 3/2 agree with an 800-panel rule to 8e-17 of their peak, and
to 1.2e-15 (rounding) anywhere on |x| <= 64; past the reach, at x = 100
they are off by 8e-14 and at x = 200 by 1.1e-8.

Kernel: each Gauss-Legendre panel is its centre c plus 16 offsets that
come in pairs +-delta, so by angle addition the panel's share of the sum
needs cos and sin of c x and of the 8 delta x, not of each k x.  Centre
p sits at c_1 + (16 u + v) h, so cos and sin of c_p x come by a second
angle addition from 13 coarse angles 16 u h x and 16 fine angles
(c_1 + v h) x.  With the 77 tanh-sinh nodes taken directly that is
2 * 13 + 2 * 16 + 2 * 8 + 77 = 151 trig calls per x on the default rule
instead of 3261.  The sums over the panels are fused einsum contractions
with optimize=False, which never reach BLAS: each runs along one row's
contiguous panel axis in an order set by the row length and numpy's SIMD
width alone.  So every sum runs in a fixed order, a value at x is the
same bits whatever else the grid holds, and since cos is even and sin
odd, psi_n(-x) = (-1)^n psi_n(x) holds exactly.  The last bits do depend
on the SIMD target numpy picks at run time: with its AVX512 targets
disabled (NPY_DISABLE_CPU_FEATURES=X86_V4), ``state --n 1 --alpha 3/2
--space x --grid=-30:30:2001`` writes other bytes, though ``validate``
writes the same.  The sums run over blocks of 128 x rows, so the working
memory is a few block-sized buffers (about 1.3 MB on the default rule),
whatever the grid size.

Every result is a ``spectral.Grid`` (imported here, so ``transform.Grid``
names the same class).

numpy is imported on first use, inside the functions that need it, so
the exact subcommands start without it.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .spectral import Grid, KState, _points, ground_state

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
#: node pairs (j, 15 - j) each panel folds into one cos and one sin term
_HALF = _GL_NODES // 2
#: fine centre steps per coarse step: 13 coarse and 16 fine angles give the 199 centres
_FINE_STEPS = 16
#: share of the integrand's absolute mass the sliver below the deepest node may hold
_DROP_LIMIT = 1e-16
#: largest |x| * panel width the rule resolves: 64 at the width 1/8 of K = 25, 200 panels
_REACH = 8.0
#: x rows whose cos/sin kernel is held at once
_BLOCK_ROWS = 128
#: longest index a refusal names as its exact fraction; a longer one gets 6 digits
_INDEX_TEXT_MAX = 16
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


def _state_name(state: KState) -> str:
    """"state n=... at index ..." for a refusal: the index as its exact fraction
    when that is short, else to 6 significant digits from ``decimal``, since
    float(alpha) may underflow to 0."""
    index = str(state.alpha)
    if len(index) > _INDEX_TEXT_MAX:
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            index = f"{decimal.Decimal(state.alpha.numerator) / state.alpha.denominator:.6g}"
    return f"state n={state.n} at index {index}"


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


class _Rule(NamedTuple):
    """The quadrature rule on [0, K]: every node and weight, tanh-sinh first,
    and the Gauss-Legendre panels as centres plus one shared set of offsets,
    each centre c_p = coarse[u] + fine[v] with p - 1 = 16 u + v."""

    nodes: np.ndarray
    weights: np.ndarray
    #: the coarse steps 16 u h, u < ceil(199 / 16) on the default rule
    coarse: np.ndarray
    #: the fine steps c_1 + v h, v < 16, with c_1 = 3h/2 the first panel's centre
    fine: np.ndarray
    #: the offsets delta_j, j < 8, of each panel's first 8 nodes; node 15 - j sits at -delta_j
    offsets: np.ndarray


@lru_cache(maxsize=8)
def _rule(cutoff: int, panel_count: int) -> _Rule:
    """The rule of ``panel_count`` panels on [0, cutoff]; QuadratureError when
    the Gauss-Legendre offsets are not exactly antisymmetric, as the kernel's
    fold needs."""
    import numpy as np

    width = cutoff / panel_count
    base_x, base_w = np.polynomial.legendre.leggauss(_GL_NODES)
    if not np.array_equal(base_x[:_HALF], -base_x[: _HALF - 1 : -1]):
        raise QuadratureError("the Gauss-Legendre offsets are not antisymmetric")
    offsets = width / 2 * base_x
    centers = width * (np.arange(1, panel_count) + 0.5)
    ts_nodes, ts_weights = _tanh_sinh(width)
    nodes = np.concatenate([ts_nodes, (centers[:, None] + offsets).ravel()])
    weights = np.concatenate([ts_weights, np.tile(width / 2 * base_w, panel_count - 1)])
    coarse = _FINE_STEPS * width * np.arange(math.ceil((panel_count - 1) / _FINE_STEPS))
    fine = width * (np.arange(_FINE_STEPS) + 1.5)
    return _Rule(nodes, weights, coarse, fine, offsets[:_HALF].copy())


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
        raise QuadratureError(f"{_state_name(state)} is not integrable at k=0")
    e = float(state.ground_exponent)
    raised = np.zeros_like(nodes)
    for t in amp.terms:
        raised += float(t.coeff) * nodes ** float(t.exponent + 1)
    value = weights / nodes * raised * np.exp(-(nodes**e) / e)
    if not np.all(np.isfinite(value)):
        raise QuadratureError(f"{_state_name(state)}: integrand not finite")
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
            f"{_state_name(state)}: the sliver next to k=0 below the rule's deepest "
            f"node may hold {share:.1e} of the integrand's mass "
            f"(limit {_DROP_LIMIT})"
        )
    return -value if odd else value


def _fourier_sums(
    x_arr: np.ndarray, rule: _Rule, columns: Sequence[np.ndarray], odd: bool
) -> np.ndarray:
    """2 * sum_j trig(x_i k_j) c_j for each column c, one row per column.

    The tanh-sinh nodes are summed directly.  A Gauss-Legendre panel's node
    j sits at c_p + delta_j with delta_{15-j} = -delta_j, so by angle
    addition the panels add sum_{j<8} cos(delta_j x) P_j + sin(delta_j x) Q_j
    to the sum, where P_j = sum_p first(c_p x) (f_jp + f_{15-j,p}) and Q_j =
    +-sum_p second(c_p x) (f_jp - f_{15-j,p}); first, second and the sign are
    cos, sin and - on the cos fold, sin, cos and + on the sin fold.  cos and
    sin of c_p x come by one more angle addition from the coarse and fine steps.
    No sum depends on which other rows are in the grid: P and Q are einsum
    contractions, which call no BLAS and sum in an order set by the row
    length alone, and each row's panel terms and tanh-sinh terms are summed
    by np.add.reduce, panels first.  The rows are taken _BLOCK_ROWS at a time
    in reused buffers.
    """
    import numpy as np

    trig = np.sin if odd else np.cos
    ts_count = _TS_LAST - _TS_FIRST + 1
    ts_nodes = rule.nodes[:ts_count]
    folded = []
    for column in columns:
        panels = column[ts_count:].reshape(-1, _GL_NODES)
        head, tail = panels[:, :_HALF], panels[:, : _HALF - 1 : -1]
        # Q enters the cos sum negated: cos(cx) P - sin(cx) Q
        signed = head - tail if odd else tail - head
        folded.append((column[:ts_count], (head + tail).T.copy(), signed.T.copy()))
    centre_count = (rule.nodes.size - ts_count) // _GL_NODES
    out = np.empty((len(columns), x_arr.size))
    # cos and sin of centre 16 u + v at [row, u, v], slots past the last centre
    # unused; reused across blocks, as fresh arrays this size cost page faults
    shape = (min(_BLOCK_ROWS, x_arr.size), rule.coarse.size, rule.fine.size)
    cos_c, sin_c, term = (np.empty(shape) for _ in range(3))
    for lo in range(0, x_arr.size, _BLOCK_ROWS):
        rows = x_arr[lo : lo + _BLOCK_ROWS]
        size = rows.size
        coarse, fine = np.multiply.outer(rows, rule.coarse), np.multiply.outer(rows, rule.fine)
        cos_u, sin_u = np.cos(coarse)[:, :, None], np.sin(coarse)[:, :, None]
        cos_v, sin_v = np.cos(fine)[:, None, :], np.sin(fine)[:, None, :]
        np.multiply(cos_u, cos_v, out=cos_c[:size])
        cos_c[:size] -= np.multiply(sin_u, sin_v, out=term[:size])
        np.multiply(sin_u, cos_v, out=sin_c[:size])
        sin_c[:size] += np.multiply(cos_u, sin_v, out=term[:size])
        first, second = (
            trig_c[:size].reshape(size, -1)[:, :centre_count]
            for trig_c in ((sin_c, cos_c) if odd else (cos_c, sin_c))
        )
        dx = np.multiply.outer(rows, rule.offsets)
        cos_d, sin_d = np.cos(dx), np.sin(dx)
        ts_kernel = trig(np.multiply.outer(rows, ts_nodes))
        for c, (ts_column, plus, signed) in enumerate(folded):
            terms = cos_d * np.einsum("ip,jp->ij", first, plus, optimize=False)
            terms += sin_d * np.einsum("ip,jp->ij", second, signed, optimize=False)
            ts_terms = ts_kernel * ts_column
            out[c, lo : lo + size] = (
                np.add.reduce(terms, axis=1) + np.add.reduce(ts_terms, axis=1)
            )
    out *= 2.0
    return out


def _transform(states: Sequence[KState], xs: Sequence[float], panel_count: int) -> np.ndarray:
    """psi of each state, all of one parity, at points that keep ``Grid``'s rule,
    in one kernel pass on ``panel_count`` panels; one row per state."""
    import numpy as np

    x_arr = np.array(xs, dtype=float)
    cutoff = max(_cutoff(s) for s in states)
    width = cutoff / panel_count
    x_far = float(abs(x_arr).max()) if x_arr.size else 0.0
    if x_far * width > _REACH:
        raise QuadratureError(
            f"|x| = {x_far:.6g} is beyond the rule's reach |x| <= {_REACH / width:g}"
        )
    rule = _rule(cutoff, panel_count)
    odd = states[0].n % 2 == 1
    x_reach = max(1.0, x_far) if odd else 1.0
    columns = [_integrand(s, rule.nodes, rule.weights, x_reach) for s in states]
    return _fourier_sums(x_arr, rule, columns, odd)


def inverse_fourier(state: KState, xs: Sequence[float]) -> Grid:
    """Transform a k-space state to the x axis on PANEL_COUNT panels; returns a real-valued Grid.

    Raises ValueError for unordered or non-finite points, and
    QuadratureError when some |x| lies beyond the rule's reach (|x| *
    panel width > 8), the state is not integrable at k = 0, or the sliver
    below the rule's deepest node may hold more than 1e-16 of its mass.
    """
    pts = _points(float(x) for x in xs)
    [psi] = _transform([state], pts, PANEL_COUNT)
    return Grid("x", pts, tuple(complex(v, 0.0) for v in psi))


def nongaussianity_k(alpha, ks: Sequence[float]) -> Grid:
    """1 - phi0_alpha(k) / phi0_2(k) on a k grid: 0 at index 2, ValueError outside (0, 2]
    or for points that break ``Grid``'s rule, before any is evaluated.

    Written as -expm1(k^2/2 - |k|^e/e), which keeps its digits as the
    exponent tends to 0 with k; at index 2 that is -0.0, which the CLI
    writer prints as 0.  OverflowError once the exponent passes about 709,
    and where it is not finite: past |k| = 1.3e154 k^2 is inf in floating
    point, where expm1 would give -inf with no error.
    """
    e = float(ground_state(alpha).ground_exponent)
    pts = _points(float(k) for k in ks)
    values = []
    for k in pts:
        exponent = k * k / 2 - abs(k) ** e / e
        if not math.isfinite(exponent):
            raise OverflowError(f"the exponent at k = {k:g} is not finite")
        values.append(complex(-math.expm1(exponent), 0.0))
    return Grid("k", pts, tuple(values))


def nongaussianity_x(alpha, xs: Sequence[float]) -> Grid:
    """1 - psi0_alpha(x) / psi0_2(x) under one shared transform convention.

    Both ground states are even and go through one kernel pass on the same
    nodes.  Points where |psi0_2| falls to 1e-12 of its peak sqrt(2 pi),
    from |x| = 7.43 on, are reported as nan whatever grid they sit in (the
    ratio is numerically meaningless in the deep tail).
    """
    pts = _points(float(x) for x in xs)
    numer, denom = _transform([ground_state(alpha), ground_state(2)], pts, PANEL_COUNT)
    out = []
    for num, den in zip(numer, denom):
        if abs(den) <= _GAUSS_TAIL:
            out.append(complex(math.nan, 0.0))
        else:
            out.append(complex(1.0 - num / den, 0.0))
    return Grid("x", pts, tuple(out))


__all__ = [
    "Grid",
    "PANEL_COUNT",
    "QuadratureError",
    "inverse_fourier",
    "nongaussianity_k",
    "nongaussianity_x",
]
