"""Exact signed-power algebra: canonicalization, calculus, substitution."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfho.hermite import LADDER_FACTOR, RFHermite, ladder_next, rf_hermite
from rfho.kterms import (
    ALPHA,
    AlphaPoly,
    DomainError,
    FixedKExpr,
    FracExponent,
    KExpr,
    KTerm,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)

alpha_polys = st.lists(fracs, min_size=0, max_size=4).map(lambda cs: AlphaPoly.of(*cs))

# coefficients with non-dyadic denominators, and scale factors including 0 and 2/7
coeff_fracs = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=14))
scale_factors = st.one_of(
    st.sampled_from([F(0), F(-1), F(2, 7), F(-3, 2)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


def _ref(cs: list[F]) -> list[F]:
    """Plain list-of-Fraction reference: trailing zeros stripped."""
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_add(cs: list[F], ds: list[F]) -> list[F]:
    n = max(len(cs), len(ds))
    return _ref([(cs[i] if i < len(cs) else 0) + (ds[i] if i < len(ds) else 0) for i in range(n)])


def _ref_mul(cs: list[F], ds: list[F]) -> list[F]:
    out = [F(0)] * max(len(cs) + len(ds) - 1, 0)
    for i, c in enumerate(cs):
        for j, d in enumerate(ds):
            out[i + j] += c * d
    return _ref(out)


def _ref_eval(cs: list[F], a: F) -> F:
    return sum((c * a ** d for d, c in enumerate(cs)), F(0))


def _ref_str(cs: list[F]) -> str:
    parts = []
    for d, c in enumerate(cs):
        if c == 0:
            continue
        var = "" if d == 0 else ("a" if d == 1 else f"a^{d}")
        mag = abs(c)
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in parts[1:])


monomials = st.tuples(
    fracs,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3),
)


def _expr(parts) -> KExpr:
    out = KExpr.zero()
    for coeff, parity, j, m in parts:
        out = out + KExpr.monomial(coeff, parity, j, m)
    return out


kexprs = st.lists(monomials, min_size=0, max_size=5).map(_expr)

EVAL_ALPHAS = (F(1, 2), F(1), F(3, 2), F(2))


class TestAlphaPoly:
    def test_trailing_zeros_stripped(self):
        assert AlphaPoly.of(1, 0, 0) == AlphaPoly.of(1)
        assert AlphaPoly.of(0, 0).is_zero

    def test_degree(self):
        assert AlphaPoly.of(0, -8, 7).degree == 2
        assert AlphaPoly.of(3).degree == 0

    def test_str_uses_index_variable(self):
        assert str(AlphaPoly.of(0, -8, 7)) == "-8*a + 7*a^2"

    @given(alpha_polys, alpha_polys, fracs)
    def test_mul_eval_homomorphism(self, p, q, a):
        assert (p * q).eval(a) == p.eval(a) * q.eval(a)

    @given(alpha_polys, alpha_polys, fracs)
    def test_add_sub_eval_homomorphism(self, p, q, a):
        assert (p + q).eval(a) == p.eval(a) + q.eval(a)
        assert (p - q).eval(a) == p.eval(a) - q.eval(a)

    def test_inexact_coefficient_refused(self):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            AlphaPoly.of(1.5)

    def test_alpha_constant(self):
        assert ALPHA.eval(F(3, 2)) == F(3, 2)

    def test_equal_values_from_different_routes(self):
        pairs = (
            (AlphaPoly.of(F(2, 4)), AlphaPoly.of(1) * AlphaPoly.of(F(1, 2))),
            (AlphaPoly.of(0, 1), AlphaPoly.of(0, F(1, 2)) + AlphaPoly.of(0, F(1, 2))),
            (AlphaPoly.of(), AlphaPoly.of(F(1, 3), 2).scale(0)),
            (AlphaPoly.of(F(1, 6), 3), AlphaPoly.of(F(7, 12), F(21, 2)).scale(F(2, 7))),
        )
        for p, q in pairs:
            assert p == q
            assert hash(p) == hash(q)

    @given(
        st.lists(coeff_fracs, max_size=5),
        st.lists(coeff_fracs, max_size=5),
        scale_factors,
        coeff_fracs,
    )
    @settings(max_examples=150)
    def test_matches_fraction_list_reference(self, cs, ds, f, a):
        p, q = AlphaPoly.of(*cs), AlphaPoly.of(*ds)
        rc, rd = _ref(cs), _ref(ds)
        results = (
            (p, rc),
            (p + q, _ref_add(rc, rd)),
            (p - q, _ref_add(rc, [-d for d in rd])),
            (-p, [-c for c in rc]),
            (p * q, _ref_mul(rc, rd)),
            (p.scale(f), [c * f for c in rc] if f else []),
        )
        for got, want in results:
            assert got.coeffs == tuple(want)
            assert got.degree == len(want) - 1
            assert got.is_zero == (not want)
            assert str(got) == _ref_str(want)
            assert got.eval(a) == _ref_eval(want, a)
            # canonical form: positive reduced denominator, no trailing zero
            assert got.den > 0 and math.gcd(got.den, *got.num) == 1
            assert not got.num or got.num[-1] != 0
            # the same value rebuilt from its coefficients is equal and hashes equal
            again = AlphaPoly.of(*want)
            assert got == again and hash(got) == hash(again)


class TestFracExponent:
    def test_value(self):
        # j*a/2 + m at a = 3/2
        assert FracExponent(3, -1).value(F(3, 2)) == F(5, 4)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            FracExponent(-1, 0)


class TestKExpr:
    def test_merge_doubles_coefficient(self):
        m = KExpr.monomial(3, 1, 2, -1)
        s = m + m
        assert len(s.terms) == 1
        assert s.terms[0].coeff == AlphaPoly.of(6)

    def test_cancellation_gives_zero(self):
        m = KExpr.monomial(F(5, 3), 0, 1, 0)
        assert (m - m).is_zero

    def test_exponent_keys_are_structural(self):
        # |k|^(a/2) and |k|^1 stay distinct generically, merge at a=2
        e = KExpr.monomial(1, 0, 1, 0) + KExpr.monomial(1, 0, 0, 1)
        assert len(e.terms) == 2
        fixed = e.at_alpha(F(2))
        assert len(fixed.terms) == 1
        assert fixed.terms[0].coeff == 2

    def test_sgn_parity_outside_0_1_refused(self):
        with pytest.raises(ValueError, match="sgn parity must be 0 or 1"):
            KTerm(AlphaPoly.of(1), 2, FracExponent(1, 0))

    def test_str(self):
        assert str(rf_hermite(2).expr) == "4*|k|^(2a/2) + -a*|k|^(a/2-1)"
        assert str(rf_hermite(3).expr) == (
            "8*sgn(k)*|k|^(3a/2) + -6*a*sgn(k)*|k|^(2a/2-1) + (-a + 1/2*a^2)*sgn(k)*|k|^(a/2-2)"
        )
        assert str(KExpr.monomial(2, 1, 0, 0)) == "2*sgn(k)*1"
        assert str(KExpr.zero()) == "0"

    def test_sgn_squares_away(self):
        m = KExpr.monomial(1, 1, 1, 0)
        assert (m * m) == KExpr.monomial(1, 0, 2, 0)

    def test_derivative_of_weight_numerator(self):
        # d/dk 2 sgn |k|^(a/2+1) = 2(a/2+1) |k|^(a/2); sgn' carries no delta here
        w = KExpr.monomial(2, 1, 1, 1)
        got = w.differentiate()
        coeff = got.terms[0].coeff
        assert got.terms[0].exponent == FracExponent(1, 0)
        assert got.terms[0].sgn_parity == 0
        assert coeff == AlphaPoly.of(2, 1)  # 2(a/2 + 1)

    @given(kexprs, kexprs)
    @settings(max_examples=60)
    def test_product_rule(self, f, g):
        lhs = (f * g).differentiate()
        rhs = f.differentiate() * g + f * g.differentiate()
        assert lhs == rhs

    @given(kexprs)
    @settings(max_examples=60)
    def test_json_fields(self, e):
        obj = json.loads(json.dumps(e.to_json_obj()))
        assert len(obj) == len(e.terms)
        for entry, t in zip(obj, e.terms):
            assert set(entry) == {"coeff", "sgn", "j", "m"}
            assert [F(c) for c in entry["coeff"]] == list(t.coeff.coeffs)
            assert (entry["sgn"], entry["j"], entry["m"]) == (
                t.sgn_parity, t.exponent.j, t.exponent.m
            )


# a KExpr as a plain dict {(j, m, parity): reference coefficient list}
kterm_parts = st.lists(
    st.tuples(
        st.lists(coeff_fracs, max_size=3),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-1, max_value=1),
    ),
    max_size=6,
)


def _kref(parts) -> dict:
    out: dict = {}
    for cs, p, j, m in parts:
        out[(j, m, p)] = _ref_add(out.get((j, m, p), []), cs)
    return {key: cs for key, cs in out.items() if cs}


def _kref_merge(pairs) -> dict:
    return _kref([(cs, p, j, m) for (j, m, p), cs in pairs])


def _kdict(e: KExpr) -> dict:
    return {(t.exponent.j, t.exponent.m, t.sgn_parity): list(t.coeff.coeffs) for t in e.terms}


def _kexpr_of(parts) -> KExpr:
    out = KExpr.zero()
    for cs, p, j, m in parts:
        out = out + KExpr.monomial(AlphaPoly.of(*cs), p, j, m)
    return out


# one term with a nonzero coefficient
single_parts = st.tuples(
    st.lists(coeff_fracs, min_size=1, max_size=3).filter(any),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-1, max_value=1),
).map(lambda part: [part])


def _ref_product(r: dict, q: dict) -> dict:
    return _kref_merge(
        ((j + oj, m + om, (p + op) % 2), _ref_mul(cs, ds))
        for (j, m, p), cs in r.items() for (oj, om, op), ds in q.items()
    )


def _ref_derivative(r: dict) -> dict:
    # d/dk multiplies by the exponent m + j*a/2 and lowers m by one
    return _kref_merge(
        ((j, m - 1, 1 - p), _ref_mul(cs, [F(m), F(j, 2)])) for (j, m, p), cs in r.items()
    )


def _assert_canonical(e: KExpr) -> None:
    keys = [(t.exponent.j, t.exponent.m, t.sgn_parity) for t in e.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
    for t in e.terms:
        num, den = t.coeff.num, t.coeff.den
        assert num and num[-1] != 0 and den > 0
        assert math.gcd(den, *num) == 1


class TestKExprReference:
    @given(kterm_parts, kterm_parts, single_parts, scale_factors, st.sampled_from(EVAL_ALPHAS))
    @settings(max_examples=150)
    def test_matches_dict_reference(self, ps, qs, one, f, a):
        e, g, u = _kexpr_of(ps), _kexpr_of(qs), _kexpr_of(one)
        r, q, w = _kref(ps), _kref(qs), _kref(one)
        # both parities at one (j, m), which the sgn flip of d/dk swaps, and
        # a constant term, which d/dk drops
        c1 = one[0][0]
        mixed_parts = [*ps, (c1, 0, 3, -1), ([-c for c in c1], 1, 3, -1), (c1, 0, 0, 0)]
        mixed, rm = _kexpr_of(mixed_parts), _kref(mixed_parts)
        h = RFHermite(len(ps), e)
        results = (
            (e, r),
            (e + g, _kref_merge([*r.items(), *q.items()])),
            (e - g, _kref_merge([*r.items(), *((key, [-c for c in cs]) for key, cs in q.items())])),
            (-e, {key: [-c for c in cs] for key, cs in r.items()}),
            (e * g, _ref_product(r, q)),
            # products with a one-term factor, on either side
            (e * u, _ref_product(r, w)),
            (u * e, _ref_product(w, r)),
            (e.scale(f), _kref_merge((key, [c * f for c in cs]) for key, cs in r.items())),
            (e.scale(0), {}),
            (mixed.scale(f), _kref_merge((key, [c * f for c in cs]) for key, cs in rm.items())),
            (mixed.scale(0), {}),
            (e.differentiate(), _ref_derivative(r)),
            (mixed.differentiate(), _ref_derivative(rm)),
            # one ladder step: 2 sgn|k|^(a/2) H - H'
            (ladder_next(h).expr, _kref_merge([
                *_ref_product({(1, 0, 1): [F(2)]}, r).items(),
                *((key, [-c for c in cs]) for key, cs in _ref_derivative(r).items()),
            ])),
            (LADDER_FACTOR * e - e.differentiate(), _kdict(ladder_next(h).expr)),
        )
        assert ladder_next(h).n == h.n + 1
        for got, want in results:
            assert _kdict(got) == want
            keys = [(t.exponent.j, t.exponent.m, t.sgn_parity) for t in got.terms]
            assert keys == sorted(want, reverse=True)
            assert got.is_zero == (not want)
            _assert_canonical(got)
            again = sum(
                (KExpr.monomial(t.coeff, t.sgn_parity, t.exponent.j, t.exponent.m)
                 for t in reversed(got.terms)),
                KExpr.zero(),
            )
            assert got == again and hash(got) == hash(again)
        fixed: dict = {}
        for (j, m, p), cs in r.items():
            key = (F(j) * a / 2 + m, p)
            fixed[key] = fixed.get(key, F(0)) + _ref_eval(cs, a)
        fixed = {key: c for key, c in fixed.items() if c}
        got = e.at_alpha(a)
        assert {(t.exponent, t.sgn_parity): t.coeff for t in got.terms} == fixed
        assert [(t.exponent, t.sgn_parity) for t in got.terms] == sorted(fixed, reverse=True)


class TestOriginRules:
    def test_sgn_vanishes_at_zero(self):
        e = KExpr.monomial(5, 1, 0, 0)
        assert e.at_alpha(F(1)).eval(0.0) == 0.0

    def test_constant_survives_at_zero(self):
        e = KExpr.monomial(5, 0, 0, 0)
        assert e.at_alpha(F(1)).eval(0.0) == 5.0

    def test_negative_exponent_raises(self):
        e = KExpr.monomial(1, 0, 0, -1)
        with pytest.raises(DomainError):
            e.at_alpha(F(1)).eval(0.0)

    def test_positive_exponent_zero(self):
        e = KExpr.monomial(1, 0, 1, 0)
        assert e.at_alpha(F(3, 2)).eval(0.0) == 0.0


class TestFixedKExpr:
    def test_parity_sign_at_negative_k(self):
        e = FixedKExpr.monomial(1, 1, F(2))
        assert e.eval(-2.0) == -4.0
        assert e.eval(2.0) == 4.0

    def test_differentiate(self):
        e = FixedKExpr.monomial(3, 0, F(2))
        d = e.differentiate()
        assert d.eval(2.0) == 12.0
        assert d.terms[0].sgn_parity == 1

    def test_min_exponent(self):
        e = FixedKExpr.monomial(1, 0, F(2)) + FixedKExpr.monomial(1, 0, F(-1, 2))
        assert e.min_exponent == F(-1, 2)
        assert FixedKExpr.zero().min_exponent is None

    def test_json_fields(self):
        assert rf_hermite(2).expr.at_alpha(F(1)).to_json_obj() == [
            {"coeff": "4", "sgn": 0, "exponent": "1"},
            {"coeff": "-1", "sgn": 0, "exponent": "-1/2"},
        ]

    def test_merge_on_exponent_and_parity(self):
        a = FixedKExpr.monomial(1, 0, F(1))
        b = FixedKExpr.monomial(1, 1, F(1))
        assert len((a + b).terms) == 2
        assert len((a + a).terms) == 1
