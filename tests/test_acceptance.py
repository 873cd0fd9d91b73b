"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s to see the lines as they execute; each test also asserts, so
a red criterion fails the suite. The two documented-discrepancy entries
are informational by design and are checked to stay that way.
"""

from dataclasses import replace
from fractions import Fraction as F

from rfho import validation as v
from rfho.hermite import LADDER_FACTOR, rf_hermite
from rfho.kterms import KExpr


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} [{result.name}] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_ladder_rodrigues_equivalence():
    _report(v.crit_ladder_rodrigues())


def test_criterion_classical_reduction():
    _report(v.crit_classical_reduction())


def test_criterion_printed_family_match():
    _report(v.crit_printed_family())


def test_criterion_eigenvalues():
    _report(v.crit_eigenvalues())


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


def test_criterion_factorization_identities():
    _report(v.crit_factorization())


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


def test_criterion_closed_form_index1_crosscheck():
    _report(v.crit_closed_form_alpha1())


def test_criterion_closed_form_index1_fails_a_shifted_coefficient(monkeypatch):
    # a_2 = -3/2 off by 1e-5 of its value
    import mpmath as mp

    from rfho import hyper

    original = hyper._a_value

    def shifted(alpha, power, dps):
        a = original(alpha, power, dps)
        return a * (1 + mp.mpf(10) ** -5) if (alpha, power) == (1, 2) else a

    monkeypatch.setattr(hyper, "_a_value", shifted)
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

    def slipped(table, x, dps=40):
        values = original(table, x, dps)
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


def test_informational_entries_present_and_not_failures():
    for entry in (v.info_hermite4(), v.info_theta_term()):
        print(f"INFO [{entry.name}] {entry.detail}")
        assert entry.kind == "info"
        assert entry.passed


def test_info_hermite4_reports_both_coefficients():
    detail = v.info_hermite4().detail
    assert str(v.H4_COEFF_RECURRENCE) in detail
    assert str(v.H4_COEFF_PRINTED) in detail


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
