"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s to see the lines as they execute; each test also asserts, so
a red criterion fails the suite. The two documented-discrepancy entries
are informational by design and are checked to stay that way.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from rfho import validation as v
from rfho.hermite import LADDER_FACTOR, rf_hermite
from rfho.kterms import AlphaPoly, KExpr
from rfho.transform import Grid


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} [{result.name}] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_ladder_rodrigues_equivalence():
    _report(v.crit_ladder_rodrigues())


def test_criterion_classical_reduction():
    _report(v.crit_classical_reduction())


def test_criterion_printed_family_match():
    _report(v.crit_printed_family())


@pytest.mark.parametrize("name, fault, message", [
    ("_printed_h123", lambda printed: lambda: [h.scale(2) for h in printed()],
     "member 1 differs from the transcribed form"),
    ("_printed_h4", lambda printed: lambda: printed() + KExpr.one(),
     "member 4 differs from the transcribed form beyond the documented coefficient"),
    # still differs from the recurrence value only in the one documented term
    ("H4_COEFF_PRINTED", lambda coeff: AlphaPoly.of(0, -7, 7),
     "the two member-4 variants disagree at index 2"),
])
def test_criterion_printed_family_fails_a_changed_transcription(monkeypatch, name, fault, message):
    monkeypatch.setattr(v, name, fault(getattr(v, name)))
    result = v.crit_printed_family()
    assert result.passed is False
    assert message in result.detail


def test_criterion_eigenvalues():
    _report(v.crit_eigenvalues())


@pytest.mark.parametrize("theta, doubled_at, message", [
    (1, None, "symmetric eigenvalue 0 has an imaginary part"),
    (0, F(1), "eigenvalue 0 differs from the transcribed form"),
    (0, F(2), "index-2 eigenvalue 0 is not 0 + 1/2"),
])
def test_criterion_eigenvalues_fails_a_wrong_eigenvalue(monkeypatch, theta, doubled_at, message):
    # the skewed form in place of the symmetric one, or a doubled numerator at one index
    original = v.local_eigenvalue

    def faulty(n, alpha, _theta):
        lam = original(n, alpha, theta)
        return replace(lam, re_num=lam.re_num.scale(2)) if alpha == doubled_at else lam

    monkeypatch.setattr(v, "local_eigenvalue", faulty)
    result = v.crit_eigenvalues()
    assert result.passed is False
    assert message in result.detail


def test_criterion_kernel_check():
    _report(v.crit_kernel())


def test_criterion_kernel_fails_on_conjugate_phase(monkeypatch):
    # phi0' comes from a complex step, not from the symbol's own algebra,
    # so a wrong sign on the symbol's phase must show
    from rfho import spectral

    symbol = spectral.symbol_eval
    monkeypatch.setattr(spectral, "symbol_eval", lambda q, th, k: symbol(q, th, k).conjugate())
    result = v.crit_kernel()
    assert not result.passed, result.detail


def test_criterion_kernel_fails_a_symbolic_residue(monkeypatch):
    monkeypatch.setattr(v, "ground_kernel_residual", KExpr.one)
    result = v.crit_kernel()
    assert result.passed is False
    assert "symbolic lowering residue is not identically zero" in result.detail


def test_criterion_factorization_identities():
    _report(v.crit_factorization())


def _doubled(build):
    return lambda *args: build(*args).scale(2)


def _doubled_at_equal_order_1(compose):
    def broken(d, g):
        product, fwd = compose(d, g)
        return product, fwd.scale(2) if d == g == 1 else fwd

    return broken


@pytest.mark.parametrize("name, fault, message", [
    ("scaled_remainder", _doubled, "scaled remainder at order 1 is not (1/2)D^(a/2-1)"),
    ("oscillator_op", _doubled, "product-plus-remainder identity fails at order 1"),
    ("remainder_forward_closed", _doubled, "forward remainder at (d,g)=(1,2) off closed form"),
    ("remainder_reverted_closed", _doubled, "reverted remainder at (d,g)=(1,2) off closed form"),
    ("compose_factorization", _doubled_at_equal_order_1, "equal-order remainders do not collapse at 1"),
])
def test_criterion_factorization_fails_a_doubled_operator(monkeypatch, name, fault, message):
    monkeypatch.setattr(v, name, fault(getattr(v, name)))
    result = v.crit_factorization()
    assert result.passed is False
    assert message in result.detail


def test_criterion_gaussian_hypergeometric_identity():
    _report(v.crit_gaussian_identity())


def test_criterion_gaussian_identity_fails_a_wrong_sign(monkeypatch):
    # 1F1(3/2; 5/2; +x^2/2) in place of -x^2/2
    from rfho import hyper

    spec = hyper._GAUSS_B
    monkeypatch.setattr(hyper, "_GAUSS_B", replace(spec, argument_scale=-spec.argument_scale))
    result = v.crit_gaussian_identity()
    assert not result.passed, result.detail


def test_criterion_transform_calibration():
    _report(v.crit_calibration())


def _changed_values(grid: Grid, change) -> Grid:
    return Grid(grid.axis_label, grid.points, tuple(change(z) for z in grid.values))


def test_criterion_calibration_fails_a_scaled_transform(monkeypatch):
    original = v.inverse_fourier
    monkeypatch.setattr(
        v, "inverse_fourier",
        lambda *args: _changed_values(original(*args), lambda z: z * (1 + 1e-8)),
    )
    result = v.crit_calibration()
    assert result.passed is False
    assert "relative error 1.00e-08 (limit 1e-10)" in result.detail


def test_criterion_closed_form_index1_crosscheck():
    _report(v.crit_closed_form_alpha1())


def test_criterion_closed_form_index1_fails_a_shifted_coefficient(monkeypatch):
    # a_2 = -3/2 off by 1e-5 of its value
    import dataclasses

    from rfho import hyper

    low, term, high = hyper._TABLE_1
    assert term.power == 2
    shifted = dataclasses.replace(term, a=lambda mp: term.a(mp) * (1 + mp.mpf(10) ** -5))
    monkeypatch.setattr(hyper, "_TABLE_1", (low, shifted, high))
    result = v.crit_closed_form_alpha1()
    assert not result.passed, result.detail


def test_criterion_closed_form_index32_crosscheck():
    result = v.crit_closed_form_alpha32()
    _report(result)
    # the per-term audit must surface the transcription slips, not hide them
    assert "term m=3" in result.detail
    assert "0.499090463" in result.detail


def test_criterion_closed_form_index32_gates_low_terms(monkeypatch):
    # a 1e-8 slip in term m=1 stays below the 1e-6 itemization threshold
    # but must still fail the criterion
    original = v.closed_form_term_values

    def slipped(table, x):
        values = original(table, x)
        values[1] *= 1 + 1e-8
        return values

    monkeypatch.setattr(v, "closed_form_term_values", slipped)
    result = v.crit_closed_form_alpha32()
    assert not result.passed
    assert "lowest three terms" in result.detail


def test_criterion_parity_reality():
    _report(v.crit_parity_reality())


def test_criterion_nongaussianity():
    _report(v.crit_nongaussianity())


@pytest.mark.parametrize("name, at, change, message", [
    ("nongaussianity_k", F(2), lambda z: z + 1e-300, "k-space measure at index 2 is not exactly zero"),
    ("nongaussianity_x", F(2), lambda z: z + 1e-300, "x-space measure at index 2 is not exactly zero"),
    ("nongaussianity_k", F(1), lambda z: -z, "index-1 k-space measure not positive below the crossing"),
    ("nongaussianity_k", F(3, 2), lambda z: -z, "index ordering 1 > 3/2 > 2 fails on (0, 1]"),
])
def test_criterion_nongaussianity_fails_a_changed_measure(monkeypatch, name, at, change, message):
    original = getattr(v, name)

    def faulty(alpha, points):
        grid = original(alpha, points)
        return _changed_values(grid, change) if alpha == at else grid

    monkeypatch.setattr(v, name, faulty)
    result = v.crit_nongaussianity()
    assert result.passed is False
    assert message in result.detail


def test_informational_entries_present_and_not_failures():
    for entry in (v.info_hermite4(), v.info_theta_term()):
        print(f"INFO [{entry.name}] {entry.detail}")
        assert entry.kind == "info"
        assert entry.passed


def test_info_hermite4_reports_both_coefficients():
    detail = v.info_hermite4().detail
    assert str(v.H4_COEFF_RECURRENCE) in detail
    assert str(v.H4_COEFF_PRINTED) in detail
    # computed in the entry: one ladder step from the transcribed H_3
    assert f"gives {v.H4_COEFF_RECURRENCE} (matches the recurrence)" in detail


def _family_with_sign_error(n_max: int) -> list[KExpr]:
    # ladder with the derivative added instead of subtracted
    exprs = [KExpr.one()]
    for _ in range(n_max):
        h = exprs[-1]
        exprs.append(LADDER_FACTOR * h + h.differentiate())
    return exprs


def test_mutation_sanity():
    broken = _family_with_sign_error(6)
    assert not v.crit_ladder_rodrigues(broken).passed
    assert not v.crit_classical_reduction(broken).passed


def test_classical_reduction_fails_a_scaled_member():
    # 5/4 H_1 reduces to (5/2) k; the check must compare exact coefficients
    family = [rf_hermite(n).expr for n in range(4)]
    family[1] = family[1].scale(F(5, 4))
    assert v.crit_classical_reduction(family).passed is False


def test_parity_criterion_fails_a_wrong_parity_member():
    family = [rf_hermite(n).expr for n in range(4)]
    family[1] = KExpr.one()
    result = v.crit_parity_reality(family)
    assert result.passed is False
    assert "H_1" in result.detail
    # no index-2 reduction exists for it; the criterion fails instead of raising
    assert v.crit_classical_reduction(family).passed is False


def test_run_all_shape():
    results = v.run_all()
    assert len(results) == 14
    assert len({r.name for r in results}) == 14
    assert sum(r.kind == "primary" for r in results) == 12
    assert all(r.passed for r in results)
