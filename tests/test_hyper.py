"""Generalized hypergeometric evaluation and the closed-form tables."""

import math
import time
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfho.hyper import (
    _GAUSS_A,
    _GAUSS_B,
    ConvergenceError,
    PFQSpec,
    UnsupportedAlpha,
    closed_form_psi0,
    closed_form_term_values,
    closed_form_values,
    eval_closed_form,
    gaussian_values,
    gaussian_via_pfq,
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


def test_spec_validation():
    with pytest.raises(ValueError):
        PFQSpec((F(1), F(1), F(1)), (F(1, 2),), F(-1), 2)  # p > q + 1
    with pytest.raises(ValueError):
        PFQSpec((F(1),), (F(0),), F(-1), 2)  # nonpositive denominator param
    with pytest.raises(ValueError):
        PFQSpec((F(1),), (F(1, 2),), F(-1), 0)  # power must be >= 1


def test_gauss_class_needs_unit_disk():
    spec = PFQSpec((F(1, 2), F(1, 2)), (F(3, 2),), F(1), 1)
    assert float(pfq_mp(spec, 0.5)) > 0
    with pytest.raises(ValueError):
        float(pfq_mp(spec, 2.0))


def test_confluent_erf_value():
    # 1F1(1/2; 3/2; -1) = (sqrt(pi)/2) erf(1)
    spec = PFQSpec((F(1, 2),), (F(3, 2),), F(-1), 2)
    assert float(pfq_mp(spec, 1.0)) == pytest.approx(0.7468241328124271, abs=1e-15)


def test_gaussian_identity_spot():
    for x in (0.0, 0.5, 1.0, 2.0, 4.0):
        assert gaussian_via_pfq(x) == pytest.approx(math.exp(-x * x / 2), abs=5e-14)


@given(st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_pfq_matches_mpmath_hyper(x):
    table = closed_form_psi0(F(1))
    spec = table.terms[0].f
    z = float(spec.argument(x))
    ours = float(pfq_mp(spec, x))
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


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_pfq_mp_full_working_precision(spec):
    # the fixed-point sum keeps all 40 working digits where the series
    # cancels; summed term by term in mpf, the worst case here lost 7
    for i in range(17):
        x = 0.25 * i
        ours = pfq_mp(spec, x, dps=40)
        ref = _mp_reference(spec, x)
        assert abs(ours - ref) <= mp.mpf("1e-36") * abs(ref), (spec, x)


# b = -5/2: the tail bound is infinite for n = 0, 1, 2, and inf * |z| is
# nan at z = 0
_NEGATIVE_B = PFQSpec((F(1, 3),), (F(-5, 2),), F(-1), 1)


def test_negative_denominator_parameter():
    assert pfq_mp(_NEGATIVE_B, 0.0) == 1
    assert _NEGATIVE_B._steps.bound(0, 0.0) == math.inf
    with mp.workdps(60):
        ref = mp.hyp1f1(mp.mpf(1) / 3, mp.mpf(-5) / 2, -1)
    assert abs(pfq_mp(_NEGATIVE_B, 1.0) - ref) <= mp.mpf("1e-36") * abs(ref)


# p = q + 1 with every |a| below its b: the term ratio rises towards |z|
# with n, so its supremum is not reached at the current step
_RISING_RATIO = PFQSpec((F(1, 2), F(1, 3)), (F(2),), F(1, 8), 1)


@pytest.mark.parametrize("spec", ALL_SPECS + [_RISING_RATIO])
def test_tail_bound_dominates_later_ratios(spec):
    # r_n must bound |term_{m+1}/term_m| for every m >= n; checked exactly
    # on a window of later m at a few arguments
    steps = spec._steps
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


@pytest.mark.parametrize("alpha", [F(1), F(3, 2)])
def test_grid_matches_per_point_bit_for_bit(alpha):
    table = closed_form_psi0(alpha)
    xs = [3.0 * i / 60 for i in range(61)]
    assert closed_form_values(table, xs) == [eval_closed_form(table, x) for x in xs]


def _closed_form_reference(table, x, dps=60):
    with mp.workdps(dps):
        return sum(
            a * mp.mpf(x) ** t.power * _mp_reference(t.f, x, dps)
            for a, t in zip(table.a_values(dps), table.terms)
        )


@pytest.mark.parametrize("dps", [40, 120])
def test_grid_resums_past_the_guard(dps):
    # x = 6 and 7 lose 30 and 49 digits to cancellation, so at 40 digits
    # the guard re-sums inside the grid; mp.hyper raises its own precision
    table = closed_form_psi0(F(1))
    got = closed_form_values(table, [0.5, 6.0, 7.0], dps)
    for x, value in zip([6.0, 7.0], got[1:]):
        assert value == float(_closed_form_reference(table, x)), (x, dps)


def test_argument_is_exact_for_every_number_type():
    # a float, the same value as an mpf (mantissa and exponent) and as a
    # Fraction give the same fixed-point argument, hence the same sum
    for spec in ALL_SPECS:
        x = 1.375
        assert pfq_mp(spec, x) == pfq_mp(spec, mp.mpf(x)) == pfq_mp(spec, F(11, 8))


def test_huge_x_is_refused_before_summing():
    # the tail bound is still above 1 at the term cap, so the call is
    # refused before a term is summed, however many bits z has
    calls = [
        lambda: pfq_mp(_GAUSS_A, 1e300),
        lambda: gaussian_via_pfq(1e300),
        lambda: eval_closed_form(closed_form_psi0(F(1)), 1e300),
        lambda: closed_form_values(closed_form_psi0(F(3, 2)), [0.0, -1e300]),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            call()
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, mp.nan, mp.inf])
def test_non_finite_x_is_refused(x):
    calls = [
        lambda: pfq_mp(_GAUSS_A, x),
        lambda: gaussian_values([0.0, x]),
        lambda: closed_form_values(closed_form_psi0(F(1)), [0.0, x]),
        lambda: closed_form_term_values(closed_form_psi0(F(3, 2)), x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite") as caught:
            call()
        assert "\n" not in str(caught.value)


def test_values_beyond_float_range_are_infinite():
    # the index-3/2 table's slipped high terms blow up at large x; a value
    # beyond the float range rounds to a signed infinity
    table = closed_form_psi0(F(3, 2))
    assert eval_closed_form(table, 40.0) == -math.inf
    inf = math.inf
    assert closed_form_term_values(table, 40.0) == [-inf, inf, -inf, inf, -inf, inf, inf]
