"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s to see the lines as they execute; each test also asserts, so
a red criterion fails the suite. The two documented-discrepancy entries
are informational by design and are checked to stay that way; each still
fails, and fails ``validate``, when its own check does.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from rfho import validation as v
from rfho.cli import main
from rfho.hermite import LADDER_FACTOR, rf_hermite
from rfho.hyper import ConvergenceError
from rfho.kterms import AlphaPoly, KExpr
from rfho.transform import Grid, QuadratureError


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
    assert "relative error 1.00e-08 (limit 1e-13)" in result.detail


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


def _h4_step_off_by_one(monkeypatch):
    # the ladder step's |k|^(a-2) coefficient no longer matches the recurrence
    original = v.extract_p_coefficients

    def faulty(h):
        p = original(h)
        return [*p[:2], p[2] + AlphaPoly.of(1), *p[3:]]

    monkeypatch.setattr(v, "extract_p_coefficients", faulty)


def _skew_with_extra_one(monkeypatch):
    # the fully skewed eigenvalues carry an extra +1 in their imaginary numerator
    original = v.local_eigenvalue

    def faulty(n, alpha, theta=0):
        lam = original(n, alpha, theta)
        if theta != 1:
            return lam
        return replace(lam, im_num=lam.im_num + KExpr.one())

    monkeypatch.setattr(v, "local_eigenvalue", faulty)


@pytest.mark.parametrize("name,entry,mutate", [
    ("hermite4-coefficient", v.info_hermite4, _h4_step_off_by_one),
    ("theta-correction-scaling", v.info_theta_term, _skew_with_extra_one),
])
def test_info_entry_fails_its_own_check(monkeypatch, capsys, name, entry, mutate):
    mutate(monkeypatch)
    result = entry()
    assert result.kind == "info" and result.passed is False
    assert main(["validate"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fails] == [f"FAIL {name}"]


def _raise(exc):
    def stand_in(*args, **kwargs):
        raise exc
    return stand_in


@pytest.mark.parametrize("name,exc,failing", [
    ("gaussian_values", ConvergenceError("no convergence"), ["gaussian-identity"]),
    # the three entries that transform through validation's own reference
    ("inverse_fourier", QuadratureError("refused"),
     ["transform-calibration", "closed-form-index-1", "closed-form-index-3/2"]),
])
def test_raising_check_reads_fail(monkeypatch, capsys, name, exc, failing):
    monkeypatch.setattr(v, name, _raise(exc))
    assert main(["validate"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 14
    detail = f"raised {type(exc).__name__}: {exc}"
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {entry}: {detail}" for entry in failing
    ]


def _family_with_sign_error(n_max: int) -> list[KExpr]:
    # ladder with the derivative added instead of subtracted
    exprs = [KExpr.one()]
    for _ in range(n_max):
        h = exprs[-1]
        exprs.append(LADDER_FACTOR * h + h.differentiate())
    return exprs


def test_mutation_sanity(monkeypatch):
    monkeypatch.setattr(v, "_default_family", lambda: _family_with_sign_error(6))
    assert not v.crit_ladder_rodrigues().passed
    assert not v.crit_classical_reduction().passed


def test_classical_reduction_fails_a_scaled_member(monkeypatch):
    # 5/4 H_1 reduces to (5/2) k; the check must compare exact coefficients
    family = [rf_hermite(n).expr for n in range(4)]
    family[1] = family[1].scale(F(5, 4))
    monkeypatch.setattr(v, "_default_family", lambda: family)
    assert v.crit_classical_reduction().passed is False


def test_parity_criterion_fails_a_wrong_parity_member(monkeypatch):
    family = [rf_hermite(n).expr for n in range(4)]
    family[1] = KExpr.one()
    monkeypatch.setattr(v, "_default_family", lambda: family)
    result = v.crit_parity_reality()
    assert result.passed is False
    assert "H_1" in result.detail
    # no index-2 reduction exists for it; the criterion fails instead of raising
    assert v.crit_classical_reduction().passed is False


def test_limits_are_pinned():
    # a gate may be tightened, never loosened: any change here must be logged
    assert v.LIMITS == {
        "kernel": 1e-14,
        "gaussian-identity": 1e-14,
        "transform-calibration": 1e-13,
        "closed-form-index-1": 1e-13,
        "closed-form-index-3/2 drift": 1e-12,
        "closed-form-index-3/2 low terms": 1e-12,
        "closed-form-index-3/2 overall": 1e-5,
    }


def _patch_scaled(monkeypatch, name, scale, when=lambda *args, **kwargs: True):
    original = getattr(v, name)

    def scaled(*args, **kwargs):
        out = original(*args, **kwargs)
        if not when(*args, **kwargs):
            return out
        if isinstance(out, Grid):
            return _changed_values(out, lambda z: z * scale)
        return [c * scale for c in out]

    monkeypatch.setattr(v, name, scaled)


def _second_term_slipped(monkeypatch):
    original = v.closed_form_term_values

    def slipped(table, x):
        values = original(table, x)
        values[1] *= 1 + 1e-11
        return values

    monkeypatch.setattr(v, "closed_form_term_values", slipped)


# each mutant moves its gate's measured value into the gap between the
# parent's limit and the tightened one
_MUTANTS = [
    ("crit_kernel", "kernel", 1e-12, lambda mp: mp.setattr(
        v, "kernel_residual_at", lambda a, k, f=v.kernel_residual_at: f(a, k) + 1e-13)),
    ("crit_gaussian_identity", "gaussian-identity", 1e-12,
     lambda mp: _patch_scaled(mp, "gaussian_values", 1 + 1e-13)),
    ("crit_calibration", "transform-calibration", 1e-10,
     lambda mp: _patch_scaled(mp, "inverse_fourier", 1 + 1e-11)),
    ("crit_closed_form_alpha1", "closed-form-index-1", 1e-6,
     lambda mp: _patch_scaled(mp, "inverse_fourier", 1 + 1e-11)),
    ("crit_closed_form_alpha32", "closed-form-index-3/2 drift", 1e-10,
     lambda mp: _patch_scaled(mp, "inverse_fourier", 1 + 1e-11,
                              lambda *args, panel_count=None: panel_count is not None)),
    ("crit_closed_form_alpha32", "closed-form-index-3/2 low terms", 1e-9, _second_term_slipped),
]


@pytest.mark.parametrize("crit, key, parent_limit, mutant", _MUTANTS, ids=[m[1] for m in _MUTANTS])
def test_tightened_gate_fails_what_the_parent_limit_passed(monkeypatch, crit, key, parent_limit, mutant):
    mutant(monkeypatch)
    result = getattr(v, crit)()
    assert result.passed is False, result.detail
    monkeypatch.setitem(v.LIMITS, key, parent_limit)
    result = getattr(v, crit)()
    assert result.passed, result.detail


@pytest.mark.parametrize("b", [F(11, 10), F(7, 4), F(2)], ids=str)
@pytest.mark.parametrize("p", [F(-1, 2), F(0), F(1), F(5, 2)], ids=str)
def test_moment_matches_quadrature(p, b):
    import mpmath as mp

    # k = u^2 takes the k^(-1/2) endpoint singularity out of the integrand
    with mp.workdps(50):
        bm, pm = v._mpq(b), v._mpq(p)
        ref = mp.quad(lambda u: 2 * u ** (2 * pm + 1) * mp.exp(-u ** (2 * bm) / bm), [0, mp.inf])
        assert abs(v._moment(b, p) - ref) <= mp.mpf(10) ** -40 * ref


@pytest.mark.parametrize("p", [F(-1, 2), F(0), F(1), F(5, 2)], ids=str)
def test_moment_at_index2_is_the_gaussian_moment(p):
    import mpmath as mp

    with mp.workdps(60):
        pm = v._mpq(p)
        want = mp.power(2, (pm - 1) / 2) * mp.gamma((pm + 1) / 2)
        assert abs(v._moment(F(2), p) - want) <= mp.mpf(10) ** -55 * want


def test_run_all_shape(monkeypatch):
    results = v.run_all()
    assert [(r.name, r.kind) for r in results] == [
        ("ladder-rodrigues", "primary"),
        ("classical-reduction", "primary"),
        ("printed-family", "primary"),
        ("eigenvalues", "primary"),
        ("kernel", "primary"),
        ("factorization", "primary"),
        ("gaussian-identity", "primary"),
        ("transform-calibration", "primary"),
        ("closed-form-index-1", "primary"),
        ("closed-form-index-3/2", "primary"),
        ("parity-reality", "primary"),
        ("non-gaussianity", "primary"),
        ("hermite4-coefficient", "info"),
        ("theta-correction-scaling", "info"),
    ]
    assert all(r.passed for r in results)
    # run_all looks each check up by module attribute when it is called, so
    # a check replaced on the module (as a tracer replaces it) is the one run
    stand_in = v.CriterionResult("kernel", "primary", False, "replaced")
    monkeypatch.setattr(v, "crit_kernel", lambda: stand_in)
    assert v.run_all()[4] is stand_in
