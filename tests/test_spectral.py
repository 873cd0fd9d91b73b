"""States and local eigenvalues in k space."""

import math
from dataclasses import fields
from fractions import Fraction as F

import pytest

from rfho.hermite import rf_hermite
from rfho.kterms import AlphaPoly, DomainError, KExpr
from rfho.spectral import (
    KState,
    LocalEigenvalue,
    excited_state,
    ground_kernel_residual,
    ground_state,
    half_turn,
    kernel_residual_at,
    local_eigenvalue,
    sample_local_eigenvalue,
    symbol_eval,
)


class TestSymbol:
    def test_symmetric_is_power(self):
        assert symbol_eval(F(2), 0, 3.0) == pytest.approx(9.0)
        assert symbol_eval(F(1), 0, -2.0) == pytest.approx(2.0)

    def test_skewed_phase(self):
        v = symbol_eval(F(3, 2), 1, -2.0)
        want = 2.0 ** 1.5 * complex(math.cos(math.pi / 2), -math.sin(math.pi / 2))
        assert v == pytest.approx(want)

    def test_origin(self):
        assert symbol_eval(F(1), 1, 0.0) == 0
        with pytest.raises(ValueError):
            symbol_eval(F(-1, 2), 0, 0.0)

    def test_symbol_phase_is_reduced_exactly(self):
        # exp(i pi) in floats is -1 + 1.2e-16i; an integer asymmetry takes the exact phase
        for k in (-2.0, -0.5, 0.5, 3.0):
            assert symbol_eval(1, 2, k).imag == 0.0
        # the phase has period 4, so theta must be reduced before it becomes a float
        for theta in (F(1), F(1, 2), F(-1, 3)):
            for k in (-2.0, 0.7):
                assert symbol_eval(F(3, 2), theta + 4 * 10**20, k) == symbol_eval(F(3, 2), theta, k)
        assert symbol_eval(F(3, 2), 10**400, -2.0) == symbol_eval(F(3, 2), 0, -2.0)
        with pytest.raises(DomainError):
            symbol_eval(F(-1, 2), 1, 0.0)


class TestStates:
    def test_ground_value(self):
        v = ground_state(F(1)).eval(1.0)
        assert v.real == pytest.approx(math.exp(-2 / 3), abs=1e-15)
        assert v.imag == 0.0

    def test_first_excited_index2(self):
        v = excited_state(1, F(2)).eval(1.0)
        assert v.real == 0.0
        assert v.imag == pytest.approx(2 * math.exp(-0.5), abs=1e-15)

    def test_parity_under_reflection(self):
        for n in range(5):
            st = excited_state(n, F(3, 2))
            a, b = st.eval(1.3), st.eval(-1.3)
            if n % 2 == 0:
                assert a == pytest.approx(b)
            else:
                assert a == pytest.approx(-b)

    def test_amplitude_carries_the_phase(self):
        # phi_n = i**n H_n phi0 from one real amplitude; the other part is +0.0
        for n in range(7):
            st = excited_state(n, F(3, 2))
            h = rf_hermite(n).expr.at_alpha(F(3, 2))
            for k in (-1.3, 0.7):
                v = st.eval(k)
                assert v == pytest.approx(1j**n * h.eval(k) * st.ground_value(k), rel=1e-15)
                assert math.copysign(1.0, v.real if n % 2 else v.imag) == 1.0

    def test_index_range(self):
        with pytest.raises(ValueError):
            ground_state(F(5, 2))
        with pytest.raises(ValueError):
            ground_state(0)

    def test_built_from_index_and_level(self):
        assert [f.name for f in fields(KState)] == ["n", "alpha"]
        assert not hasattr(excited_state(3, F(3, 2)), "hermite")

    def test_index_checked_before_any_hermite_build(self):
        before = rf_hermite.cache_info()
        for build in (lambda: excited_state(57, 0), lambda: KState(57, F(0))):
            with pytest.raises(ValueError, match="stability index"):
                build()
        assert rf_hermite.cache_info() == before

    def test_level_checked(self):
        for n in (-1, True):
            with pytest.raises(ValueError, match="index must be a nonnegative integer"):
                KState(n, F(1))

    def test_alpha_made_exact_at_construction(self):
        # a float passes the range check, so it is refused before it, not at the first eval
        state = KState(1, 1)
        assert type(state.alpha) is F and state.alpha == 1
        lam = local_eigenvalue(2, F(3, 2))
        rebuilt = LocalEigenvalue(2, "3/2", lam.theta, lam.re_num, lam.im_num, lam.den)
        assert type(rebuilt.alpha) is F and rebuilt == lam
        for build in (
            lambda: KState(1, 0.5),
            lambda: LocalEigenvalue(2, 1.5, lam.theta, lam.re_num, lam.im_num, lam.den),
        ):
            with pytest.raises(TypeError, match="expected an exact rational, got float"):
                build()


class TestKernel:
    def test_symbolic_residual_vanishes(self):
        assert ground_kernel_residual().is_zero

    def test_numeric_residual(self):
        for a in (F(1), F(3, 2), F(2)):
            for k in (0.3, -0.3, 1.0, -1.0, 2.5, -2.5):
                assert abs(kernel_residual_at(a, k)) < 1e-12

    def test_numeric_residual_needs_nonzero_k(self):
        with pytest.raises(DomainError):
            kernel_residual_at(F(1), 0.0)


def _two_derivative_reference(n: int, theta: int) -> tuple[KExpr, KExpr, KExpr]:
    """(re_num, im_num, den) of lam_n with both derivatives of H_n taken.

    With phi_n = H_n phi0 and s = sgn(k)|k|^(a/2) = -(log phi0)',
    phi_n''/phi0 = H'' - 2s H' + (s^2 - s') H, and
    lam_n = (S_theta H - phi_n''/phi0) / (a H).
    """
    cos_half, sin_half = half_turn(theta)
    h = rf_hermite(n).expr
    h1 = h.differentiate()
    s = KExpr.monomial(1, 1, 1, 0)
    bracket = h1.differentiate() - (s * h1).scale(2) + (s * s - s.differentiate()) * h
    re_num = (KExpr.monomial(1, 0, 2, 0) * h).scale(cos_half) - bracket
    im_num = (KExpr.monomial(1, 1, 2, 0) * h).scale(sin_half)
    return re_num, im_num, h.scale(AlphaPoly.of(0, 1))


class TestEigenvalues:
    def test_lambda0_values(self):
        lam = local_eigenvalue(0, F(1), 0)
        assert lam.eval(4.0) == pytest.approx(0.25)

    def test_index2_is_classical(self):
        for n in range(4):
            lam = local_eigenvalue(n, F(2), 0)
            for k in (0.7, 1.0, 2.3, -1.9):
                assert lam.eval(k) == pytest.approx(n + 0.5, abs=1e-12)
        for n in range(21):
            lam = local_eigenvalue(n, F(2), 0)
            assert lam.re_num.at_alpha(2) == lam.den.at_alpha(2).scale(F(2 * n + 1, 2))
            assert lam.im_num.is_zero

    def test_equals_two_derivative_reference(self):
        # the ladder form must equal the direct -phi''/phi0 build term for term
        for n in range(21):
            for theta in range(-3, 4):
                lam = local_eigenvalue(n, F(3, 2), theta)
                assert (lam.re_num, lam.im_num, lam.den) == _two_derivative_reference(n, theta)

    def test_lambda1_against_transcribed_form(self):
        # (3/2)|k|^(a/2-1) - (1/2)(a/2-1)|k|^(-2) at a=1, k=2
        want = 1.5 * 2 ** -0.5 + 0.0625
        assert local_eigenvalue(1, F(1), 0).eval(2.0) == pytest.approx(want, abs=1e-14)

    def test_lambda2_against_transcribed_form(self):
        a, k = 1.0, 1.5
        num = (11 * a / 2 - 6) * k ** (a / 2 - 1) - 10 * k ** a \
            - (a / 2 - 1) * (a / 2 - 2) * k ** -2
        den = a - 4 * k ** (a / 2 + 1)
        lam = local_eigenvalue(2, F(1), 0)
        assert lam.eval(k) == pytest.approx(num / den, rel=1e-13)

    def test_even_in_k(self):
        lam = local_eigenvalue(2, F(3, 2), 0)
        assert lam.eval(1.3) == pytest.approx(lam.eval(-1.3))

    def test_pole_and_origin(self):
        with pytest.raises(ZeroDivisionError):
            local_eigenvalue(1, F(2), 0).eval(0.0)
        with pytest.raises(DomainError):
            local_eigenvalue(2, F(1), 0).eval(0.0)

    def test_index_outside_range_refused(self):
        # refused before H_n and H_{n+1} are built
        before = rf_hermite.cache_info()
        for alpha in (F(3), F(0), F(-1, 2), "5/2"):
            with pytest.raises(ValueError, match="stability index must lie in"):
                local_eigenvalue(57, alpha)
        assert rf_hermite.cache_info() == before

    def test_large_k_limit(self):
        # the leading terms give lam_n(k) -> (n + 1/2)|k|^(a/2 - 1) as |k| -> oo:
        # 2^(n-1)(2n+1) a |k|^((n+1)a/2 - 1) over 2^n a |k|^(n a/2)
        for n in range(21):
            lam = local_eigenvalue(n, F(3, 2))
            top, bottom = lam.re_num.terms[0], lam.den.terms[0]
            assert top.coeff == AlphaPoly.of(0, F(2) ** (n - 1) * (2 * n + 1))
            assert (top.exponent.j, top.exponent.m, top.sgn_parity) == (n + 1, -1, n % 2)
            assert bottom.coeff == AlphaPoly.of(0, 2 ** n)
            assert (bottom.exponent.j, bottom.exponent.m, bottom.sgn_parity) == (n, 0, n % 2)
            for a in map(F, ("1/5", "1/2", "2/3", "1", "5/4", "3/2", "7/4", "2")):
                top, bottom = lam.re_num.at_alpha(a).terms[0], lam.den.at_alpha(a).terms[0]
                assert (top.coeff, top.exponent, top.sgn_parity) == (
                    F(2) ** (n - 1) * (2 * n + 1) * a, (n + 1) * a / 2 - 1, n % 2)
                assert (bottom.coeff, bottom.exponent, bottom.sgn_parity) == (2 ** n * a, n * a / 2, n % 2)

    def test_integer_asymmetry_required(self):
        with pytest.raises(ValueError):
            local_eigenvalue(0, F(1), F(1, 2))

    def test_skewed_sample_value(self):
        # symmetric 1/2 at k=1 plus the (i sgn - 1)|k|^a / a correction
        got = sample_local_eigenvalue(0, F(1), 1, [1.0]).values[0]
        assert got == pytest.approx(complex(-0.5, 1.0), abs=1e-14)
        mirrored = sample_local_eigenvalue(0, F(1), 1, [-1.0]).values[0]
        assert mirrored == pytest.approx(complex(-0.5, -1.0), abs=1e-14)

    def test_fractional_asymmetry_sampling(self):
        got = sample_local_eigenvalue(0, F(2), F(1, 2), [1.0]).values[0]
        corr = (complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) - 1) / 2
        assert got == pytest.approx(0.5 + corr, abs=1e-14)

    def test_asymmetry_has_period_four(self):
        # theta enters through exp(i sgn(k) theta pi/2); a float of a large
        # theta loses its value modulo 4, so it must be reduced exactly
        ks = [-1.0, -0.5, 0.5, 1.0]
        for theta in (F(4, 3), F(1, 2), F(-1), F(2), F(1, 3)):
            want = sample_local_eigenvalue(3, F(1, 3), theta, ks)
            for m in (1, -3, 10**20, 10**400):
                assert sample_local_eigenvalue(3, F(1, 3), theta + 4 * m, ks) == want
        flat = sample_local_eigenvalue(3, F(1, 3), 0, ks)
        assert sample_local_eigenvalue(3, F(1, 3), F(10**400), ks) == flat

    def test_half_turn_asymmetry_adds_no_imaginary_part(self):
        # exp(i pi) in floats is -1 + 1.2e-16i; theta = 2 must take the exact phase
        for n in (0, 3, 6):
            for alpha in (F(1, 3), F(3, 2)):
                grid = sample_local_eigenvalue(n, alpha, 2, [-2.0, -1.0, 1.0, 2.0])
                assert [v.imag for v in grid.values] == [0.0] * 4

    def test_integer_asymmetry_matches_exact_form(self):
        ks = [-2.5, -1.0, -0.3, 0.3, 1.0, 2.5]
        for n in range(5):
            for alpha in (F(1, 3), F(1), F(3, 2)):
                for theta in range(-3, 6):
                    exact = local_eigenvalue(n, alpha, theta)
                    grid = sample_local_eigenvalue(n, alpha, theta, ks)
                    for k, got in zip(grid.points, grid.values):
                        assert got == pytest.approx(exact.eval(k), rel=1e-14)

    def test_sampling_omits_singular_points(self):
        # n = 1 at a = 2: the denominator a*H_1 vanishes at the origin
        grid = sample_local_eigenvalue(1, F(2), 0, [-1.0, 0.0, 1.0])
        assert grid.axis_label == "k" and grid.points == (-1.0, 1.0) and len(grid.values) == 2
        # n = 2 at a = 1: a negative power of |k| diverges at the origin
        assert sample_local_eigenvalue(2, F(1), F(1, 2), [-1.0, 0.0, 1.0]).points == (-1.0, 1.0)
        ks = (-1.5, -0.5, 0.5, 1.5)
        grid = sample_local_eigenvalue(1, F(2), 0, ks)
        assert grid.points == ks
        assert grid.values == pytest.approx([1.5] * 4, abs=1e-12)
