"""Normal-ordered operator words and factorization remainders."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfho.operators import (
    OpExpr,
    OpWord,
    compose_factorization,
    fourier_remainder,
    lowering_op,
    oscillator_op,
    raising_op,
    remainder_forward_closed,
    remainder_reverted_closed,
    reverted_factorization,
    scaled_remainder,
)
from rfho.spectral import excited_state, ground_state


def test_commutation_axiom_halfline():
    # D^(1/2) x = x D^(1/2) + (1/2) D^(-1/2)
    got = OpExpr.word(1, 0, F(1, 2)) * OpExpr.word(1, 1, 0)
    want = OpExpr.word(1, 1, F(1, 2)) + OpExpr.word(F(1, 2), 0, F(-1, 2))
    assert got == want


def test_commutation_axiom_classical():
    d, x = OpExpr.word(1, 0, 1), OpExpr.word(1, 1, 0)
    assert d * x - x * d == OpExpr.word(1, 0, 0)


def test_push_through_square():
    # D x^2 = x^2 D + 2x
    got = OpExpr.word(1, 0, 1) * OpExpr.word(1, 2, 0)
    want = OpExpr.word(1, 2, 1) + OpExpr.word(2, 1, 0)
    assert got == want


def test_push_through_closed_form():
    # D^(1/2) x^80: C(80, i) (1/2)(-1/2)...(3/2 - i) x^(80-i) D^(1/2-i), every i kept
    b, fall, want = F(1, 2), F(1), OpExpr.zero()
    for i in range(81):
        want += OpExpr.word(math.comb(80, i) * fall, 80 - i, b - i)
        fall *= b - i
    got = OpExpr.word(1, 0, b) * OpExpr.word(1, 80, 0)
    assert got == want and len(got.words) == 81


def test_push_through_high_power_without_recursion():
    # far beyond the interpreter's recursion limit; x^3000 = x^2999 x, and the
    # last x passes each of the 3000 words by the axiom applied once
    d = OpExpr.word(1, 0, F(1, 2))
    got = d * OpExpr.word(1, 3000, 0)
    assert len(got.words) == 3001
    assert got == (d * OpExpr.word(1, 2999, 0)) * OpExpr.word(1, 1, 0)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
orders = st.sampled_from([F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)])
words = st.builds(OpExpr.word, coeffs, st.integers(min_value=0, max_value=2), orders)
exprs = st.lists(words, min_size=1, max_size=3).map(
    lambda ws: sum(ws[1:], start=ws[0])
)


@given(exprs, exprs, exprs)
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(exprs, exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


# an OpExpr as a plain dict {(xpow, dorder): coeff}; x powers up to 5 reach
# the higher terms of the closed form
word_parts = st.lists(st.tuples(coeffs, st.integers(min_value=0, max_value=5), orders), max_size=4)


def _oref(pairs) -> dict:
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, F(0)) + c
    return {key: c for key, c in out.items() if c}


def _oref_mul(r: dict, q: dict) -> dict:
    """Normal order each x^a D^b x^c D^e by applying D^b x = x D^b + b D^(b-1) directly."""
    pending = [(a, b, c, e, u * v) for (a, b), u in r.items() for (c, e), v in q.items()]
    out = []
    while pending:
        a, b, c, e, coeff = pending.pop()
        if c == 0 or b == 0:
            out.append(((a + c, b + e), coeff))
        else:
            pending.append((a + 1, b, c - 1, e, coeff))
            pending.append((a, b - 1, c - 1, e, coeff * b))
    return _oref(out)


@given(word_parts, word_parts, st.one_of(st.just(F(0)), coeffs))
@settings(max_examples=150, deadline=None)
def test_matches_dict_reference(ps, qs, f):
    e = sum((OpExpr.word(c, x, d) for c, x, d in ps), start=OpExpr.zero())
    g = sum((OpExpr.word(c, x, d) for c, x, d in qs), start=OpExpr.zero())
    r, q = _oref(((x, d), c) for c, x, d in ps), _oref(((x, d), c) for c, x, d in qs)
    results = (
        (e, r),
        (e + g, _oref([*r.items(), *q.items()])),
        (e - g, _oref([*r.items(), *((key, -c) for key, c in q.items())])),
        (-e, {key: -c for key, c in r.items()}),
        (e * g, _oref_mul(r, q)),
        (e.scale(f), _oref((key, c * f) for key, c in r.items())),
    )
    for got, want in results:
        assert {(w.xpow, w.dorder): w.coeff for w in got.words} == want
        assert [(w.xpow, w.dorder) for w in got.words] == sorted(want)
        assert got.is_zero == (not want)


def test_generator_shapes():
    assert lowering_op(F(2)) == OpExpr.word(1, 0, 1) + OpExpr.word(1, 1, 0)
    assert raising_op(F(2)) == OpExpr.word(-1, 0, 1) + OpExpr.word(1, 1, 0)
    assert oscillator_op(F(2)) == OpExpr.word(-1, 0, 2) + OpExpr.word(1, 2, 0)


def test_forward_remainder_closed_form():
    # (g/2) D^(g/2-1) + x (D^(g/2) - D^(d/2)) at d=1, g=2
    got = remainder_forward_closed(F(2), F(1))
    want = OpExpr.word(1, 0, 0) + OpExpr.word(1, 1, 1) + OpExpr.word(-1, 1, F(1, 2))
    assert got == want


def test_reverted_remainder_closed_form():
    got = remainder_reverted_closed(F(1), F(2))
    want = (
        OpExpr.word(F(1, 2), 0, F(-1, 2))
        + OpExpr.word(1, 1, F(1, 2))
        + OpExpr.word(-1, 1, 1)
    )
    assert got == want


_PAIRS = [(F(1), F(2)), (F(3, 2), F(1)), (F(2), F(2))]
# every ordered pair of the orders the benchmark draws from
_ORDERS = [F(v) for v in ("1/3", "1/2", "1", "4/3", "3/2", "2", "5/2")]


@pytest.mark.parametrize("d,g", _PAIRS + [(d, g) for d in _ORDERS for g in _ORDERS if (d, g) not in _PAIRS])
def test_composed_remainders_match_closed_forms(d, g):
    h, fwd = compose_factorization(d, g)
    assert h == oscillator_op((d + g) / 2)
    assert fwd == remainder_forward_closed(g, d)
    assert reverted_factorization(d, g) == remainder_reverted_closed(d, g)


def test_x_terms_opposite_in_sign():
    fwd = remainder_forward_closed(F(2), F(1))
    rev = remainder_reverted_closed(F(1), F(2))
    combined = fwd + rev
    assert all(w.xpow == 0 for w in combined.words)


def test_equal_order_collapse():
    for a in (F(1), F(3, 2), F(2)):
        _, fwd = compose_factorization(a, a)
        assert fwd == OpExpr.word(a / 2, 0, a / 2 - 1)
        assert fwd == reverted_factorization(a, a)


def test_scaled_remainder_strings():
    assert str(scaled_remainder(F(2))) == "1/2"
    assert str(scaled_remainder(F(3, 2))) == "1/2*D^(-1/4)"


def test_factorization_identity_scaled():
    for a in (F(1), F(3, 2), F(2)):
        product = (raising_op(a) * lowering_op(a)).scale(F(1, 1) / a)
        assert product + scaled_remainder(a) == oscillator_op(a).scale(F(1, 1) / a)


def test_negative_x_power_refused():
    with pytest.raises(ValueError, match="x power must be nonnegative"):
        OpWord(F(1), -1, F(0))


@pytest.mark.parametrize("xpow", [F(3, 2), 1.5, True, False, "2"])
def test_non_integral_x_power_refused(xpow):
    # a product runs the axiom x-power times, and True would print as x
    with pytest.raises(ValueError, match="x power must be nonnegative and integral"):
        OpExpr.word(1, xpow, 0)


def test_positive_orders_required():
    with pytest.raises(ValueError):
        compose_factorization(F(0), F(1))
    with pytest.raises(ValueError):
        lowering_op(F(-1))
    for closed_form, orders in ((remainder_forward_closed, (F(-1), F(2))),
                                (remainder_reverted_closed, (F(2), F(-1))),
                                (remainder_forward_closed, (F(1), F(0)))):
        with pytest.raises(ValueError, match="fractional orders must be positive"):
            closed_form(*orders)


class TestFourierRemainder:
    def test_gaussian_sample(self):
        fr = fourier_remainder(F(2), F(2), 0)
        state = ground_state(F(2))
        v = fr.apply(state).eval(1.0) * state.ground_value(1.0)
        assert v == pytest.approx(-math.exp(-0.5), abs=1e-15)
        scaled = fr.scale(F(1, 2)).apply(state).eval(1.0) * state.ground_value(1.0)
        assert scaled == pytest.approx(-0.5 * math.exp(-0.5), abs=1e-15)

    def test_equal_orders_kill_derivative_multiplier(self):
        fr = fourier_remainder(F(2), F(2), 0)
        assert fr.c1.is_zero

    def test_mixed_orders_populate_both(self):
        fr = fourier_remainder(F(2), F(1), 0)
        assert not fr.c0.is_zero
        assert not fr.c1.is_zero

    def test_integer_theta_only(self):
        with pytest.raises(ValueError):
            fourier_remainder(F(2), F(2), F(1, 2))

    @pytest.mark.parametrize(
        "gamma,delta,theta", [(F(2), F(1), 0), (F(3, 2), F(3, 2), 1), (F(1, 2), F(5, 2), -1)]
    )
    def test_applied_matches_finite_difference(self, gamma, delta, theta):
        # c0 phi_n + c1 phi_n', with phi_n' a central difference of the state
        fr = fourier_remainder(gamma, delta, theta)
        h = 1e-5
        for alpha in (F(1), F(3, 2), F(2)):
            for n in range(5):
                state = excited_state(n, alpha)
                applied = fr.apply(state)
                for k in (0.7, -1.3, 2.1):
                    phi = state.eval(k)
                    dphi = (state.eval(k + h) - state.eval(k - h)) / (2 * h)
                    ref = fr.c0.eval(k) * phi + fr.c1.eval(k) * dphi
                    got = applied.eval(k) * state.ground_value(k)
                    assert abs(got - ref) <= 1e-7 * max(abs(ref), abs(phi))
