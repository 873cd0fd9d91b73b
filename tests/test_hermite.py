"""Polynomial family: lattice build vs ladder step and Rodrigues build, reductions, structure."""

import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from rfho import hermite
from rfho.hermite import (
    RFHermite,
    StructureError,
    extract_p_coefficients,
    ladder_next,
    rf_hermite,
    rodrigues,
    standard_reduction,
)
from rfho.kterms import AlphaPoly, KExpr


def test_member_zero_is_one():
    assert rf_hermite(0).expr == KExpr.one()


def test_first_three_members():
    h1 = KExpr.monomial(2, 1, 1, 0)
    h2 = KExpr.monomial(4, 0, 2, 0) + KExpr.monomial(AlphaPoly.of(0, -1), 0, 1, -1)
    h3 = (
        KExpr.monomial(8, 1, 3, 0)
        + KExpr.monomial(AlphaPoly.of(0, -6), 1, 2, -1)
        + KExpr.monomial(AlphaPoly.of(0, -1, F(1, 2)), 1, 1, -2)
    )
    assert rf_hermite(1).expr == h1
    assert rf_hermite(2).expr == h2
    assert rf_hermite(3).expr == h3


def _assert_leading_term(h):
    p = extract_p_coefficients(h)
    assert len(p) == max(h.n, 1)
    assert p[0] == AlphaPoly.const(2**h.n)


def test_ladder_equals_rodrigues():
    # up to the largest size the benchmark proves
    for n in range(41):
        h = rodrigues(n)
        assert h.n == n and rf_hermite(n).expr == h.expr
        _assert_leading_term(h)


def test_lattice_build_equals_one_ladder_step():
    # the lattice recurrence against the general term algebra, step by step
    for n in range(1, 41):
        assert ladder_next(rf_hermite(n - 1)) == rf_hermite(n)


def test_non_integer_index_refused():
    rf_hermite(2)
    for n in (2.5, 2.0, -1):
        for build in (rf_hermite, rodrigues):
            with pytest.raises(ValueError, match="index must be a nonnegative integer"):
                build(n)


def test_ladder_next_increments_index():
    h = ladder_next(rf_hermite(4))
    assert h.n == 5
    assert h.expr == rf_hermite(5).expr


def test_structure_invariants():
    for n in range(41):
        _assert_leading_term(rf_hermite(n))


def test_term_count_bound():
    for n in range(1, 13):
        assert len(rf_hermite(n).expr.terms) <= n


def test_extract_coefficients_n1():
    assert extract_p_coefficients(rf_hermite(1)) == [AlphaPoly.of(2)]


def test_extract_coefficients_n3():
    # alternating-sign convention: term i carries (-1)^i p_i
    p = extract_p_coefficients(rf_hermite(3))
    assert p == [AlphaPoly.of(8), AlphaPoly.of(0, 6), AlphaPoly.of(0, -1, F(1, 2))]


def test_extract_rejects_wrong_index():
    with pytest.raises(StructureError):
        extract_p_coefficients(RFHermite(2, rf_hermite(3).expr))


def test_standard_reduction_refuses_a_negative_power():
    # |k|^(a/2 - 2) sits on H_3's lattice (i = 2) but is k^(-1) at a = 2;
    # H_3's own i = 2 coefficient vanishes there
    h = RFHermite(3, rf_hermite(3).expr + KExpr.monomial(1, 1, 1, -2))
    extract_p_coefficients(h)
    with pytest.raises(StructureError, match=r"k\^\(-1\)"):
        standard_reduction(h)


def test_standard_reduction_refuses_a_wrong_parity_member():
    with pytest.raises(StructureError, match="lattice"):
        standard_reduction(RFHermite(1, KExpr.monomial(2, 0, 1, 0)))


def _classical(n: int) -> list[int]:
    h = [1]
    for _ in range(n):
        shifted = [0, *(2 * c for c in h)]
        deriv = [i * c for i, c in enumerate(h)][1:]
        h = [a - b for a, b in zip(shifted, deriv + [0] * (len(shifted) - len(deriv)))]
    return h


def test_standard_reduction_matches_classical():
    for n in range(41):
        reduced = standard_reduction(rf_hermite(n))
        assert all(isinstance(c, F) for c in reduced)
        assert reduced == _classical(n)
        assert len(reduced) == n + 1


def test_index_32_exponents():
    fixed = rf_hermite(4).expr.at_alpha(F(3, 2))
    assert {t.exponent for t in fixed.terms} == {F(3), F(5, 4), F(-1, 2), F(-9, 4)}


def test_most_negative_exponent():
    # lattice floor sits at a/2 - (n-1)
    for n in range(2, 8):
        fixed = rf_hermite(n).expr.at_alpha(F(1))
        assert min(t.exponent for t in fixed.terms) == F(1, 2) - (n - 1)


def _call_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _reset_builds(monkeypatch):
    """Empty the member cache and cut the lattice rows back to row 0."""
    rf_hermite.cache_clear()
    monkeypatch.setattr(hermite, "_rows", hermite._rows[:1])


def test_cold_build_needs_no_deep_recursion(monkeypatch):
    built = rf_hermite(45)
    _reset_builds(monkeypatch)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_call_depth() + 30)
    try:
        rebuilt = rf_hermite(45)
    finally:
        sys.setrecursionlimit(limit)
    assert rebuilt == built


def _build_in_threads(orders):
    """rf_hermite(n) for each order's n, one thread per order, started together."""
    results = [{} for _ in orders]
    errors = []
    start = threading.Barrier(len(orders))

    def build(order, out):
        try:
            start.wait(timeout=60)
            for n in order:
                out[n] = rf_hermite(n)
        except Exception as exc:  # reported by the caller; a thread cannot raise into the test
            errors.append(exc)

    threads = [threading.Thread(target=build, args=pair) for pair in zip(orders, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return results, errors


def test_concurrent_cold_builds_match_sequential(monkeypatch):
    _reset_builds(monkeypatch)
    expected = [rf_hermite(n) for n in range(31)]
    next_row = hermite._next_row

    def yielding_next_row(n, row):
        # give up the interpreter lock while a row is built, so that
        # another thread's growth can interleave with this one
        time.sleep(0)
        return next_row(n, row)

    monkeypatch.setattr(hermite, "_next_row", yielding_next_row)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            _reset_builds(monkeypatch)
            orders = [random.Random(4 * round_ + t).sample(range(31), 31) for t in range(4)]
            results, errors = _build_in_threads(orders)
            assert errors == []
            for out in results:
                assert [out[n] for n in range(31)] == expected
    finally:
        sys.setswitchinterval(interval)
