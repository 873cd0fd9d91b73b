"""Generalized hypergeometric evaluation and the closed-form tables."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfho.hyper import (
    _GAUSS_A,
    _GAUSS_B,
    _steps,
    ConvergenceError,
    PFQSpec,
    PoleError,
    UnsupportedAlpha,
    closed_form_psi0,
    closed_form_term_values,
    eval_closed_form,
    gamma,
    gaussian_via_pfq,
    pfq,
    pfq_mp,
)

# independently pinned with a 40-digit evaluation of the defining series
PSI0_INDEX1 = {
    0.0: 2.3658619576637485549,
    0.5: 2.0254735494620157175,
    1.0: 1.3184660969979294324,
    2.0: 0.37353833818643760117,
    3.0: 0.1184932407420538525,
}

A0_INDEX32 = 2.452450321319681370001226


def test_gamma_basic():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(5) == 24.0


def test_gamma_poles():
    for z in (0, -1, -3):
        with pytest.raises(PoleError):
            gamma(z)


def test_spec_validation():
    with pytest.raises(ValueError):
        PFQSpec((F(1), F(1), F(1)), (F(1, 2),), F(-1), 2)  # p > q + 1
    with pytest.raises(ValueError):
        PFQSpec((F(1),), (F(0),), F(-1), 2)  # nonpositive denominator param
    with pytest.raises(ValueError):
        PFQSpec((F(1),), (F(1, 2),), F(-1), 0)  # power must be >= 1


def test_gauss_class_needs_unit_disk():
    spec = PFQSpec((F(1, 2), F(1, 2)), (F(3, 2),), F(1), 1)
    assert pfq(spec, 0.5) > 0
    with pytest.raises(ValueError):
        pfq(spec, 2.0)


def test_confluent_erf_value():
    # 1F1(1/2; 3/2; -1) = (sqrt(pi)/2) erf(1)
    spec = PFQSpec((F(1, 2),), (F(3, 2),), F(-1), 2)
    assert pfq(spec, 1.0) == pytest.approx(0.7468241328124271, abs=1e-15)


def test_gaussian_identity_spot():
    for x in (0.0, 0.5, 1.0, 2.0, 4.0):
        assert gaussian_via_pfq(x) == pytest.approx(math.exp(-x * x / 2), abs=5e-14)


@given(st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_pfq_matches_mpmath_hyper(x):
    table = closed_form_psi0(F(1))
    spec = table.terms[0].f
    z = float(spec.argument(x))
    ours = pfq(spec, x)
    ref = float(mp.hyper([mp.mpf(p.numerator) / p.denominator for p in spec.numerator_params],
                         [mp.mpf(q.numerator) / q.denominator for q in spec.denominator_params],
                         z))
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestClosedFormIndex1:
    def test_pinned_values(self):
        table = closed_form_psi0(F(1))
        for x, want in PSI0_INDEX1.items():
            assert eval_closed_form(table, x) == pytest.approx(want, rel=1e-12)

    def test_anchor_at_origin(self):
        table = closed_form_psi0(F(1))
        a0 = float(table.a_values()[0])
        # a0 = 2^(1/3) 3^(2/3) Gamma(5/3)
        assert a0 == pytest.approx(2 ** (1 / 3) * 3 ** (2 / 3) * math.gamma(5 / 3), rel=1e-14)
        assert eval_closed_form(table, 0.0) == pytest.approx(a0, rel=1e-15)

    def test_term_structure(self):
        table = closed_form_psi0(F(1))
        vals = closed_form_term_values(table, 0.0)
        assert len(vals) == 3
        assert vals[1] == 0.0 and vals[2] == 0.0


class TestClosedFormIndex32:
    def test_term_count(self):
        table = closed_form_psi0(F(3, 2))
        assert len(table.terms) == 7
        assert [t.power for t in table.terms] == [0, 2, 4, 6, 8, 10, 12]

    def test_anchor_at_origin(self):
        table = closed_form_psi0(F(3, 2))
        assert eval_closed_form(table, 0.0) == pytest.approx(A0_INDEX32, rel=1e-14)

    def test_transcribed_a6_off_by_trig_factor(self):
        # the x^6 prefactor as printed equals -343/3840 times
        # 7^(1/7) cot(pi/7) tan(pi/14) tan(3 pi/14); the rational part alone
        # reproduces the transform, so the trig factor looks like a slip
        table = closed_form_psi0(F(3, 2))
        printed = float(table.a_values()[3])
        ratio = printed / (-343 / 3840)
        assert ratio == pytest.approx(0.49909046335303403, rel=1e-12)

    def test_low_terms_positive_high_alternating(self):
        table = closed_form_psi0(F(3, 2))
        a = [float(v) for v in table.a_values()]
        assert a[0] > 0 and a[1] < 0 and a[2] > 0


def test_unsupported_index():
    with pytest.raises(UnsupportedAlpha):
        closed_form_psi0(F(7, 8))


ALL_SPECS = [t.f for a in (F(1), F(3, 2)) for t in closed_form_psi0(a).terms] + [_GAUSS_A, _GAUSS_B]


def _mp_reference(spec, x, dps=60):
    with mp.workdps(dps):
        return mp.hyper(
            [mp.mpf(p.numerator) / p.denominator for p in spec.numerator_params],
            [mp.mpf(q.numerator) / q.denominator for q in spec.denominator_params],
            spec.argument(x),
        )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_pfq_mp_matches_60_digit_hyper(spec):
    for i in range(9):
        x = 0.5 * i
        ours = pfq_mp(spec, x)
        ref = _mp_reference(spec, x)
        assert abs(ours - ref) <= mp.mpf("1e-25") * abs(ref), (spec, x)


# p = q + 1 with every |a| below its b: the term ratio rises towards |z|
# with n, so its supremum is not reached at the current step
_RISING_RATIO = PFQSpec((F(1, 2), F(1, 3)), (F(2),), F(1, 8), 1)


@pytest.mark.parametrize("spec", ALL_SPECS + [_RISING_RATIO])
def test_tail_bound_dominates_later_ratios(spec):
    # r_n must bound |term_{m+1}/term_m| for every m >= n; checked exactly
    # on a window of later m at a few arguments
    steps = _steps(spec)
    for x in (0.5, 2.0, 4.0):
        z = F(spec.argument_scale) * F(x) ** spec.argument_power
        for n in range(0, 40, 3):
            r = steps.bound(n, float(abs(z)))
            for m in range(n, n + 20):
                ratio = abs(z * steps.top(m)) / steps.bottom(m)
                assert ratio <= r * (1 + 1e-12), (spec, x, n, m)


def test_origin_returns_exactly_one():
    for spec in ALL_SPECS:
        assert pfq_mp(spec, 0.0) == 1


def test_terminating_series_is_exact():
    # 1F1(-2; 1/2; z) = 1 - 4z + (4/3) z^2, which is 25 at z = -3
    spec = PFQSpec((F(-2),), (F(1, 2),), F(-3), 1)
    assert pfq_mp(spec, 1.0) == 25


def test_slow_series_hits_term_cap():
    # 2F1(1, 1; 1/2; z) next to the edge of its disk: the ratio bound stays
    # above 1 far past the 10,000-term cap
    spec = PFQSpec((F(1), F(1)), (F(1, 2),), F(1), 1)
    with pytest.raises(ConvergenceError):
        pfq_mp(spec, 0.999999)
    assert issubclass(ConvergenceError, RuntimeError)


@pytest.mark.parametrize("x, want", [(6.0, 0.016455441648800972), (7.0, 0.010858592805585278)])
def test_cancellation_guard_at_large_x(x, want):
    # the index-1 series lose 30 (x = 6) and 49 (x = 7) digits to
    # cancellation, more than the 40 working digits hold; want is the
    # 120-digit value
    table = closed_form_psi0(F(1))
    assert eval_closed_form(table, x, dps=120) == pytest.approx(want, rel=1e-15)
    assert eval_closed_form(table, x) == pytest.approx(want, rel=1e-13)
