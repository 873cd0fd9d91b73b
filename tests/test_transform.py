"""Quadrature transform to x space and the non-Gaussianity measures."""

import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from rfho import transform
from rfho.spectral import excited_state, ground_state
from rfho.transform import (
    Grid,
    QuadratureError,
    inverse_fourier,
    nongaussianity_k,
    nongaussianity_x,
)
from rfho.validation import _moment_series

SQRT_2PI = math.sqrt(2 * math.pi)

# pinned with a 40-digit evaluation of the moment series of the transform
PSI0_INDEX1 = {
    0.0: 2.3658619576637485549,
    0.5: 2.0254735494620157175,
    1.0: 1.3184660969979294324,
    2.0: 0.37353833818643760117,
    3.0: 0.1184932407420538525,
}
PSI0_INDEX32 = {
    0.0: 2.452450321319681370,
    0.5: 2.137202644396775857,
    1.0: 1.431687051053191762,
    2.0: 0.353246344475297431,
    3.0: 0.073418183095989970,
}


def _no_kernel(*args):
    raise AssertionError("the kernel ran on a refused grid")


class TestGaussianBaseline:
    def test_ground_index2_is_gaussian(self):
        xs = [0.0, 0.5, 1.0, 2.0]
        grid = inverse_fourier(ground_state(F(2)), xs)
        for x, v in zip(grid.points, grid.values):
            assert v.real == pytest.approx(SQRT_2PI * math.exp(-x * x / 2), rel=1e-12)
            assert v.imag == 0.0

    def test_classical_hermite_functions(self):
        # transform eigenfunction phases: psi_n = (-1)^(floor stuff) sqrt(2pi) H_n e^(-x^2/2);
        # even members keep the classical sign, odd members flip it
        cases = {
            1: lambda x: -(2 * x),
            2: lambda x: 4 * x * x - 2,
            3: lambda x: -(8 * x ** 3 - 12 * x),
            4: lambda x: 16 * x ** 4 - 48 * x * x + 12,
        }
        for n, hn in cases.items():
            grid = inverse_fourier(excited_state(n, F(2)), [0.3, 1.0, 1.7])
            for x, v in zip(grid.points, grid.values):
                want = SQRT_2PI * hn(x) * math.exp(-x * x / 2)
                assert v.real == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestFractionalGround:
    @pytest.mark.parametrize("alpha,pinned", [(F(1), PSI0_INDEX1), (F(3, 2), PSI0_INDEX32)])
    def test_pinned_values(self, alpha, pinned):
        xs = sorted(pinned)
        grid = inverse_fourier(ground_state(alpha), xs)
        for x, v in zip(grid.points, grid.values):
            assert v.real == pytest.approx(pinned[x], rel=1e-10)

    def test_imaginary_residue_is_structural_zero(self):
        # +0.0, not -0.0, at negative x too
        for alpha in (F(1), F(3, 2), F(2)):
            for n in range(4):
                grid = inverse_fourier(excited_state(n, alpha), [-2.1, -0.7, 0.0, 0.7, 2.1])
                assert all(math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0 for v in grid.values)


class TestCutoff:
    @pytest.mark.parametrize(
        "alpha,want", [(F(2), 25), (F(7, 20), 25), (F(1, 3), 26), (F(1, 5), 29), (F(1, 10), 33),
                       (F(1, 10**9), 37)]
    )
    def test_pinned_values(self, alpha, want):
        assert transform._cutoff(ground_state(alpha)) == want
        e = float(alpha / 2 + 1)
        assert math.exp(-(want**e) / e) < 1e-16
        if want > 25:
            assert math.exp(-((want - 1) ** e) / e) >= 1e-16


class TestGuards:
    def test_panel_count_checked(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                inverse_fourier(ground_state(F(1)), [0.0], panel_count=bad)
        inverse_fourier(ground_state(F(1)), [0.0], panel_count=1)
        # the count is keyword-only, so a third positional argument fails loudly
        with pytest.raises(TypeError):
            inverse_fourier(ground_state(F(1)), [0.0], 400)

    def test_divergent_state_rejected(self):
        with pytest.raises(QuadratureError):
            inverse_fourier(excited_state(4, F(1)), [0.0])

    def test_x_beyond_reach_refused(self):
        # |x| * panel width may reach 8: |x| = 64 on the default rule
        inverse_fourier(ground_state(F(1)), [-64.0, 0.0, 64.0])
        for state in (ground_state(F(1)), excited_state(1, F(3, 2))):
            with pytest.raises(QuadratureError, match="reach"):
                inverse_fourier(state, [0.0, 200.0])
        with pytest.raises(QuadratureError, match="reach"):
            nongaussianity_x(F(1, 2), [-200.0, 0.0])
        # halving the panels doubles the reach
        inverse_fourier(ground_state(F(1)), [128.0], panel_count=400)
        # index 1/5 needs K = 29, so the reach is 8 * 200 / 29 = 55.2
        inverse_fourier(ground_state(F(1, 5)), [-55.0, 55.0])
        with pytest.raises(QuadratureError, match="reach"):
            inverse_fourier(ground_state(F(1, 5)), [56.0])
        with pytest.raises(QuadratureError, match="reach"):
            nongaussianity_x(F(1, 5), [56.0])

    def test_index2_polynomial_states_fine_at_n4(self):
        grid = inverse_fourier(excited_state(4, F(2)), [0.0])
        assert grid.values[0].real == pytest.approx(12 * SQRT_2PI, rel=1e-10)

    def test_unsorted_points_rejected(self, monkeypatch):
        # refused before the kernel pass, not by Grid after it
        monkeypatch.setattr(transform, "_fourier_sums", _no_kernel)
        for xs in ([1.0, 0.0], [0.0, 0.0], [-1.0, 2.0, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                inverse_fourier(excited_state(1, F(3, 2)), xs)
            with pytest.raises(ValueError, match="strictly increasing"):
                nongaussianity_x(F(1, 2), xs)

    def test_nonfinite_points_rejected(self, monkeypatch):
        monkeypatch.setattr(transform, "_fourier_sums", _no_kernel)
        for xs in ([0.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="sample points must be finite"):
                inverse_fourier(excited_state(1, F(3, 2)), xs)
            with pytest.raises(ValueError, match="sample points must be finite"):
                nongaussianity_x(F(1, 2), xs)

    def test_grid_type_invariants(self):
        with pytest.raises(ValueError):
            Grid("t", (0.0, 1.0), (0j, 0j))
        with pytest.raises(ValueError):
            Grid("x", (0.0, 1.0), (0j,))
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid("x", (1.0, 0.0), (0j, 0j))


class TestNonGaussianity:
    def test_index2_exactly_zero_in_k(self):
        grid = nongaussianity_k(F(2), [i * 0.25 - 3.0 for i in range(25)])
        assert all(v == 0 for v in grid.values)

    def test_index2_exactly_zero_in_x(self):
        grid = nongaussianity_x(F(2), [0.0, 0.5, 1.0, 2.0])
        assert all(v == 0 for v in grid.values)

    @pytest.mark.parametrize(
        "alpha", [F(1, 5), F(1, 2), F(2, 3), F(1), F(5, 4), F(3, 2), F(7, 4), F(2)], ids=str
    )
    def test_k_space_matches_mpmath_near_zero(self, alpha):
        # 1 - exp(E) lost up to 8e-2 of its value at k = 1e-8, where E -> 0
        import mpmath as mp

        ks = [10.0**-j for j in range(8, 0, -1)] + [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
        grid = nongaussianity_k(alpha, ks)
        e = alpha / 2 + 1
        with mp.workdps(50):
            em = mp.mpf(e.numerator) / e.denominator
            for k, v in zip(ks, grid.values):
                ref = -mp.expm1(mp.mpf(k) ** 2 / 2 - mp.mpf(k) ** em / em)
                assert abs(v.real - ref) <= 1e-14 * abs(ref), (k, v.real)

    def test_index1_crossing(self):
        # k* solves k^2/2 = (2/3) k^(3/2), i.e. k* = 16/9
        star = 16 / 9
        assert abs(nongaussianity_k(F(1), [star]).values[0]) < 1e-14
        assert nongaussianity_k(F(1), [star - 0.1]).values[0].real > 0
        assert nongaussianity_k(F(1), [star + 0.1]).values[0].real < 0

    @pytest.mark.parametrize("alpha", [0, 5, -2, F(7, 3)])
    def test_index_outside_range_refused(self, alpha):
        with pytest.raises(ValueError, match="stability index"):
            nongaussianity_k(alpha, [1.0])

    def test_x_space_positive_near_origin(self):
        grid = nongaussianity_x(F(1), [0.0])
        want = 1 - PSI0_INDEX1[0.0] / SQRT_2PI
        assert grid.values[0].real == pytest.approx(want, rel=1e-9)

    def test_deep_tail_reported_nan(self):
        grid = nongaussianity_x(F(2), [0.0, 30.0])
        assert math.isnan(grid.values[1].real)
        assert grid.values[0] == 0

    @pytest.mark.parametrize("alpha", [F(1, 5), F(1, 2), F(1), F(3, 2)], ids=str)
    def test_nan_cut_independent_of_grid(self, alpha):
        # psi0_2 falls to 1e-12 of its peak sqrt(2 pi) at |x| = 7.43, so the
        # cut sits there whatever else the grid holds
        xs = [-30.0, -9.0, -7.5, -7.3, 0.0, 7.3, 7.5, 9.0, 30.0]
        whole = [v.real for v in nongaussianity_x(alpha, xs).values]
        for sub in ([-9.0, 9.0], [7.5], [0.0, 7.5], [-7.5, -7.3], [9.0], [30.0], [7.3]):
            part = nongaussianity_x(alpha, sub).values
            for x, v in zip(sub, part):
                assert math.isnan(v.real) == math.isnan(whole[xs.index(x)]), (x, sub)
        for x, v in zip(xs, whole):
            assert math.isnan(v) == (abs(x) >= 7.5), x


class TestMomentOracle:
    """Quadrature against the 60-digit moment series, independent of any rule."""

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(13, 17), F(1), F(3, 2), F(2)])
    def test_matches_moment_series(self, alpha, n):
        xs = [0.75 * i for i in range(5)]
        grid = inverse_fourier(excited_state(n, alpha), xs)
        for x, v, (ref, scale) in zip(xs, grid.values, _moment_series(alpha, n, xs)):
            assert abs(v.real - ref) <= 1e-12 * scale, (x, v.real, ref)

    @pytest.mark.parametrize(
        "alpha,n",
        [(F(1, 3), n) for n in range(4)] + [(F(1, 5), n) for n in range(3)]
        + [(F(1, 10), n) for n in range(2)] + [(F(1, 5), 3)],
    )
    def test_low_index_matches_moment_series(self, alpha, n):
        # below index 0.35 the cutoff grows past 25 to keep the tail under 1e-16
        xs = [0.25 * i for i in range(5)]
        grid = inverse_fourier(excited_state(n, alpha), xs)
        for x, v, (ref, scale) in zip(xs, grid.values, _moment_series(alpha, n, xs)):
            assert abs(v.real - ref) <= 1e-12 * scale, (x, v.real, ref)

    def test_origin_powers_kept_exact(self):
        # k**-1.9 would overflow at the deepest tanh-sinh nodes; its
        # weighted form k**-0.9 does not, and every node is kept
        xs = [0.0, 0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 3):
                grid = inverse_fourier(excited_state(n, F(1, 5)), xs)
                for x, v, (ref, scale) in zip(xs, grid.values, _moment_series(F(1, 5), n, xs)):
                    assert math.isfinite(v.real) and abs(v.real - ref) <= 1e-12 * scale


class TestOriginRule:
    ALPHAS = [F(1, 10), F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1), F(5, 4), F(3, 2), F(7, 4), F(2)]
    #: the only states n <= 20 at these indices the sliver bound refuses
    SLIVER = {(F(1, 10), 2), (F(1, 10), 3)}

    def test_integrand_finite_at_every_node(self):
        # every state is either refused as not integrable or by the sliver
        # bound, or has a finite weight times amplitude at all 3261 nodes,
        # with no overflow on the way
        for alpha in self.ALPHAS:
            nodes, weights = transform._nodes_and_weights(
                transform._cutoff(ground_state(alpha)), transform.PANEL_COUNT)
            for n in range(21):
                state = excited_state(n, alpha)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        column = transform._integrand(state, nodes, weights, 39.0)
                    except QuadratureError as exc:
                        sliver = (alpha, n) in self.SLIVER
                        assert ("sliver" if sliver else "not integrable") in str(exc), (alpha, n)
                        continue
                assert (alpha, n) not in self.SLIVER
                assert column.shape == nodes.shape and np.all(np.isfinite(column)), (alpha, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_index_tenth_refused_by_sliver(self, n):
        with pytest.raises(QuadratureError, match="sliver next to k=0") as info:
            inverse_fourier(excited_state(n, F(1, 10)), [0.0, 1.0])
        share = {2: "2.5e-13", 3: "4.3e-13"}[n]
        assert str(info.value) == (
            f"state n={n} at index 1/10: the sliver next to k=0 below the rule's deepest "
            f"node may hold {share} of the integrand's mass (limit 1e-16)"
        )

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("alpha,share", [(F(1, 10**20), "e+20"), (F(1, 10**400), "inf")])
    def test_tiny_index_refused_by_sliver(self, n, alpha, share):
        # the origin power p + 1 = a/2 is lost in float(-1 + a/2) + 1 at
        # 1e-20, and float(a/2) underflows to 0.0 at 1e-400
        with pytest.raises(QuadratureError, match="sliver next to k=0") as info:
            inverse_fourier(excited_state(n, alpha), [-1.0, 0.0, 1.0])
        assert f"{share} of the integrand's mass" in str(info.value)


class TestRowBlocks:
    BLOCK = transform._BLOCK_ROWS

    @pytest.mark.parametrize("n,top", [(2, 4001), (3, 2 * BLOCK + 1)])
    def test_blocks_equal_dense_kernel(self, n, top):
        # tolerance 1e-15 of the integrand's mass: the blocks change only
        # which rows share a BLAS call, not the terms of any sum
        state = excited_state(n, F(1, 2))
        nodes, weights = transform._nodes_and_weights(25, transform.PANEL_COUNT)
        column = transform._integrand(state, nodes, weights, 39.0)
        # on the odd fold |sin kx| <= k |x| softens the origin powers
        mass = 2 * np.sum(np.abs(column) * (np.minimum(1.0, 39.0 * nodes) if n % 2 else 1.0))
        trig = np.sin if n % 2 else np.cos
        for size in (1, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, top):
            xs = np.linspace(-39.0, 39.0, size) if size > 1 else np.array([0.7])
            blocked = transform._fourier_sums(xs, nodes, [column], n % 2 == 1)[0]
            kernel = np.outer(xs, nodes)
            dense = 2 * (trig(kernel, out=kernel) @ column)
            assert np.max(np.abs(blocked - dense)) <= 1e-15 * mass

    def test_memory_is_one_block(self):
        xs = list(np.linspace(-39.0, 39.0, 2001))
        for run in (
            lambda: inverse_fourier(excited_state(3, F(3, 2)), xs),
            lambda: nongaussianity_x(F(1, 2), xs),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20


class TestSharedPass:
    def test_equals_separate_transforms(self):
        xs = [i * 0.25 - 6.0 for i in range(49)]
        mass_2 = inverse_fourier(ground_state(F(2)), [0.0]).values[0].real
        for alpha in (F(1, 2), F(1), F(7, 4)):
            mass_a = inverse_fourier(ground_state(alpha), [0.0]).values[0].real
            psi_a = inverse_fourier(ground_state(alpha), xs).values
            psi_2 = inverse_fourier(ground_state(F(2)), xs).values
            shared = nongaussianity_x(alpha, xs).values
            for a, g, v in zip(psi_a, psi_2, shared):
                ratio = a.real / g.real
                tol = 1e-15 * (mass_a + abs(ratio) * mass_2) / abs(g.real)
                assert abs(v.real - (1 - ratio)) <= tol

    def test_index2_zero_across_blocks(self):
        xs = [i * 0.05 - 8.0 for i in range(321)]
        grid = nongaussianity_x(F(2), xs)
        assert all(v == 0 for v in grid.values if not math.isnan(v.real))
        assert sum(v == 0 for v in grid.values) > 200


def test_determinism():
    xs = [0.0, 1.0, 2.0]
    a = inverse_fourier(ground_state(F(3, 2)), xs)
    b = inverse_fourier(ground_state(F(3, 2)), xs)
    assert a.values == b.values


class TestParity:
    """psi_n(-x) = (-1)**n psi_n(x) to within rounding on exactly mirrored grids.

    Not exactly: the sums at -x and x may take different BLAS summation
    orders, which moves last digits. With numpy 2.4 on x86-64, 106 of the
    39,072 pairs below differ, by at most 2.6e-15 of the peak (the peak of
    |psi_n| on the 2001-point grid).
    """

    ALPHAS = [F(1, 5), F(1, 2), F(2, 3), F(1), F(5, 4), F(3, 2), F(7, 4), F(2)]

    @staticmethod
    def mirrored(count: int) -> list[float]:
        half = count // 2
        right = [40.0 * i / half for i in range(1, half + 1)]
        return [-x for x in reversed(right)] + [0.0] + right

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mirror_pairs_agree(self, alpha):
        for n in range(4):
            state = excited_state(n, alpha)
            sign = (-1) ** n
            grids = [inverse_fourier(state, self.mirrored(c)) for c in (2001, 401, 41, 3)]
            peak = max(abs(v) for v in grids[0].values)
            for grid in grids:
                psi = [v.real for v in grid.values]
                worst = max(abs(a - sign * b) for a, b in zip(psi, reversed(psi)))
                assert worst <= 1e-14 * peak, (n, len(psi), worst / peak)
