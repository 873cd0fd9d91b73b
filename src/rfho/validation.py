"""Executable verification suite: every shipped claim as a pass/fail check.

Each criterion returns ``(passed, detail)`` under ``@_criterion(name, kind)``,
which builds its CriterionResult; one that raises reads as failed, with the
detail ``raised Type: message``, and the others are still reported.
``run_all`` looks each up by module attribute and runs them in a fixed
order.  Oracles used here are independent of the code paths they check:

* the classical Hermite family is rebuilt from the plain three-term
  recurrence on integer coefficient lists,
* the closed-form tables are audited against a moment-series expansion of
  the transform integral (termwise Mellin moments of the ground state),
  summed in high precision,
* printed expression families are transcribed as literal constants.

Two known documented discrepancies are reported as "info" entries rather
than failures: the |k|**(a-2) coefficient of the fourth Hermite member,
and the scaling of the asymmetry correction to the local eigenvalues.
Each still computes a check of its own and fails when that check does.
The closed-form table for index 3/2 contains per-term mismatches against
the moment oracle; these are itemized in the corresponding criterion's
detail text (suspected transcription slips, not corrected).  Its three
lowest terms carry no slip and must match the oracle to 1e-12.

Every threshold a numeric criterion compares against and prints lives in
``LIMITS``.

mpmath is imported on first use, inside the oracles that need it, so
the exact subcommands start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable, Sequence

from .hermite import (
    RFHermite,
    StructureError,
    extract_p_coefficients,
    ladder_next,
    rf_hermite,
    standard_reduction,
)
from .hyper import closed_form_psi0, closed_form_term_values, closed_form_values, gaussian_values
from .kterms import ALPHA, AlphaPoly, KExpr
from .operators import (
    OpExpr,
    compose_factorization,
    lowering_op,
    oscillator_op,
    raising_op,
    remainder_forward_closed,
    remainder_reverted_closed,
    reverted_factorization,
    scaled_remainder,
)
from .spectral import (
    excited_state,
    ground_kernel_residual,
    ground_state,
    kernel_residual_at,
    local_eigenvalue,
)
from .transform import PANEL_COUNT, inverse_fourier, nongaussianity_k, nongaussianity_x

F = Fraction


@dataclass(frozen=True)
class CriterionResult:
    name: str
    kind: str              # "primary" or "info"
    passed: bool           # False when the entry's own check fails, info entries too
    detail: str


def _criterion(name: str, kind: str = "primary"):
    """Build the CriterionResult of a check returning ``(passed, detail)``, or of its raise."""
    def wrap(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        @wraps(check)
        def run() -> CriterionResult:
            try:
                passed, detail = check()
            except Exception as exc:
                return CriterionResult(name, kind, False, f"raised {type(exc).__name__}: {exc}")
            return CriterionResult(name, kind, passed, detail)

        return run

    return wrap


N_MAX = 12

_TEST_ALPHAS = (F(1), F(3, 2), F(2))
#: working digits of the moment-series oracles
_ORACLE_DPS = 60


#: the bound each numeric gate compares against and prints, about 100 times
#: the largest value measured; the index-3/2 "overall" entry only labels the
#: mismatch within or beyond, and gates nothing
LIMITS = {
    "kernel": 1e-14,
    "gaussian-identity": 1e-14,
    "transform-calibration": 1e-13,
    "closed-form-index-1": 1e-13,
    "closed-form-index-3/2 drift": 1e-12,
    "closed-form-index-3/2 low terms": 1e-12,
    "closed-form-index-3/2 overall": 1e-5,
}


def _gate(key: str, value: float) -> tuple[bool, str]:
    """Whether ``value`` lies below LIMITS[key], and that limit as printed: 1e-5, not 1e-05."""
    mantissa, exponent = f"{LIMITS[key]:.0e}".split("e")
    return value < LIMITS[key], f"{mantissa}e{int(exponent)}"


def _default_family() -> list[KExpr]:
    return [rf_hermite(n).expr for n in range(N_MAX + 1)]


# ---------------------------------------------------------------------------
# symbolic criteria

@_criterion("ladder-rodrigues")
def crit_ladder_rodrigues() -> tuple[bool, str]:
    exprs = _default_family()
    h = RFHermite(0, KExpr.one())
    for n, expr in enumerate(exprs):
        if n:
            h = ladder_next(h)
        if expr != h.expr:
            return False, f"lattice and Rodrigues builds differ at n={n}"
    return True, f"exact symbolic agreement for n=0..{len(exprs) - 1}"


def _classical_hermite(n: int) -> list[int]:
    """Plain integer-list three-term build: H_{n+1} = 2k H_n - H_n'."""
    h = [1]
    for _ in range(n):
        shifted = [0, *(2 * c for c in h)]
        deriv = [i * c for i, c in enumerate(h)][1:]
        h = [a - b for a, b in zip(shifted, deriv + [0] * (len(shifted) - len(deriv)))]
    return h


@_criterion("classical-reduction")
def crit_classical_reduction() -> tuple[bool, str]:
    exprs = _default_family()
    for n, expr in enumerate(exprs):
        try:
            reduced = standard_reduction(RFHermite(n, expr))
        except StructureError as exc:
            return False, f"no index-2 reduction at n={n}: {exc}"
        if reduced != _classical_hermite(n):
            return False, f"index-2 reduction disagrees with the three-term oracle at n={n}"
    return True, f"index-2 reduction equals the three-term oracle for n=0..{len(exprs) - 1}"


@_criterion("parity-reality")
def crit_parity_reality() -> tuple[bool, str]:
    """Every term of H_n carries sgn(k)**(n mod 2).

    That premise makes phi_n = i**n H_n phi0 real and even or imaginary and
    odd, so psi_n is a real cos (even n) or sin (odd n) transform.
    """
    exprs = _default_family()
    for n, expr in enumerate(exprs):
        if any(t.sgn_parity != n % 2 for t in expr.terms):
            return False, f"H_{n} has a term of sgn parity {1 - n % 2}"
    return (
        True,
        f"every term of H_n carries sgn(k)^(n mod 2) for n=0..{len(exprs) - 1}: "
        "psi_n is a real cos (even n) or sin (odd n) transform",
    )


def _printed_h123() -> list[KExpr]:
    h1 = KExpr.monomial(2, 1, 1, 0)
    h2 = KExpr.monomial(4, 0, 2, 0) + KExpr.monomial(AlphaPoly.of(0, -1), 0, 1, -1)
    h3 = (
        KExpr.monomial(8, 1, 3, 0)
        + KExpr.monomial(AlphaPoly.of(0, -6), 1, 2, -1)
        + KExpr.monomial(AlphaPoly.of(0, -1, F(1, 2)), 1, 1, -2)
    )
    return [h1, h2, h3]


#: the two competing |k|**(a-2) coefficients in the fourth member
H4_COEFF_RECURRENCE = AlphaPoly.of(0, -8, 7)          # 6a(a-1) + 4(a/2)(a/2-1)
H4_COEFF_PRINTED = AlphaPoly.of(0, -7, F(13, 2))      # 6a(a-1) + 2(a/2)(a/2-1)


def _printed_h4() -> KExpr:
    return (
        KExpr.monomial(16, 0, 4, 0)
        + KExpr.monomial(AlphaPoly.of(0, -24), 0, 3, -1)
        + KExpr.monomial(H4_COEFF_PRINTED, 0, 2, -2)
        + KExpr.monomial(AlphaPoly.of(0, -2, F(3, 2), F(-1, 4)), 0, 1, -3)
    )


@_criterion("printed-family")
def crit_printed_family() -> tuple[bool, str]:
    for n, printed in enumerate(_printed_h123(), start=1):
        if rf_hermite(n).expr != printed:
            return False, f"member {n} differs from the transcribed form"
    ours = rf_hermite(4).expr
    printed4 = _printed_h4()
    diff = ours - printed4
    expected_diff = KExpr.monomial(H4_COEFF_RECURRENCE - H4_COEFF_PRINTED, 0, 2, -2)
    if diff != expected_diff:
        return False, "member 4 differs from the transcribed form beyond the documented coefficient"
    if H4_COEFF_RECURRENCE.eval(F(2)) != H4_COEFF_PRINTED.eval(F(2)):
        return False, "the two member-4 variants disagree at index 2"
    return (
        True,
        "members 1-3 exact; member 4 differs only in the documented coefficient (see info entry)",
    )


@_criterion("hermite4-coefficient", kind="info")
def info_hermite4() -> tuple[bool, str]:
    # the transcribed third member is exact (crit_printed_family), so one
    # ladder step from it tells the two coefficients apart; p_2 is the
    # |k|^(a-2) coefficient
    step = extract_p_coefficients(ladder_next(RFHermite(3, _printed_h123()[2])))[2]
    ok = step == H4_COEFF_RECURRENCE
    status = "matches the recurrence" if ok else "LADDER CHECK FAILED"
    return (
        ok,
        "fourth member, |k|^(a-2) term: recurrence gives "
        f"{H4_COEFF_RECURRENCE} [= 6a(a-1)+4(a/2)(a/2-1)], transcribed source gives "
        f"{H4_COEFF_PRINTED} [= 6a(a-1)+2(a/2)(a/2-1)]; both equal "
        f"{H4_COEFF_RECURRENCE.eval(F(2))} at a=2; one ladder step from the transcribed "
        f"third member gives {step} ({status}), so the recurrence value is shipped",
    )


def _printed_eigen_forms() -> list[tuple[KExpr, KExpr]]:
    one = KExpr.one()
    l0 = (KExpr.monomial(F(1, 2), 0, 1, -1), one)
    l1 = (
        KExpr.monomial(F(3, 2), 0, 1, -1)
        + KExpr.monomial(AlphaPoly.of(F(1, 2), F(-1, 4)), 0, 0, -2),
        one,
    )
    l2_num = (
        KExpr.monomial(AlphaPoly.of(-6, F(11, 2)), 0, 1, -1)
        + KExpr.monomial(-10, 0, 2, 0)
        + KExpr.monomial(AlphaPoly.of(-2, F(3, 2), F(-1, 4)), 0, 0, -2)
    )
    l2_den = KExpr.monomial(ALPHA, 0, 0, 0) + KExpr.monomial(-4, 0, 1, 1)
    return [l0, l1, (l2_num, l2_den)]


@_criterion("eigenvalues")
def crit_eigenvalues() -> tuple[bool, str]:
    for n, (p_num, p_den) in enumerate(_printed_eigen_forms()):
        lam = local_eigenvalue(n, F(1), 0)
        if not lam.im_num.is_zero:
            return False, f"symmetric eigenvalue {n} has an imaginary part"
        if lam.re_num * p_den != p_num * lam.den:
            return False, f"eigenvalue {n} differs from the transcribed form (cross-multiplied)"
    for n in range(6):
        lam = local_eigenvalue(n, F(2), 0)
        want = lam.den.at_alpha(F(2)).scale(F(2 * n + 1, 2))
        if lam.re_num.at_alpha(F(2)) != want or not lam.im_num.is_zero:
            return False, f"index-2 eigenvalue {n} is not {n} + 1/2"
    return (
        True,
        "first three symmetric eigenvalues match the transcribed forms exactly; "
        "index 2 gives n + 1/2 for n <= 5",
    )


@_criterion("theta-correction-scaling", kind="info")
def info_theta_term() -> tuple[bool, str]:
    # exact difference between the fully skewed and symmetric eigenvalues
    checked = []
    for n in range(4):
        skew = local_eigenvalue(n, F(1), 1)
        base = local_eigenvalue(n, F(1), 0)
        h = rf_hermite(n).expr
        ok = (
            skew.den == base.den
            and (skew.re_num - base.re_num) == -(KExpr.monomial(1, 0, 2, 0) * h)
            and skew.im_num == KExpr.monomial(1, 1, 2, 0) * h
        )
        checked.append(ok)
    status = "verified symbolically for n<=3" if all(checked) else "SYMBOLIC CHECK FAILED"
    return (
        all(checked),
        "fully skewed minus symmetric eigenvalue equals (i sgn(k) - 1) |k|^a / a for every n "
        f"({status}); the alternative per-n forms (i sgn - 1)|k|^((2n+2)a/2) resp. "
        "(2n+1)a/2 describe the leading numerator term before division by H_n and "
        "carry no 1/a factor; the exact difference is shipped",
    )


@_criterion("kernel")
def crit_kernel() -> tuple[bool, str]:
    if not ground_kernel_residual().is_zero:
        return False, "symbolic lowering residue is not identically zero"
    worst = 0.0
    for a in _TEST_ALPHAS:
        for k in (0.3, -0.3, 1.0, -1.0, 2.5, -2.5):
            worst = max(worst, abs(kernel_residual_at(a, k)))
    ok, limit = _gate("kernel", worst)
    return ok, f"max |lowering residue| = {worst:.2e} (limit {limit})"


@_criterion("factorization")
def crit_factorization() -> tuple[bool, str]:
    for a in _TEST_ALPHAS:
        eps = scaled_remainder(a)
        if eps != OpExpr.word(F(1, 2), 0, a / 2 - 1):
            return False, f"scaled remainder at order {a} is not (1/2)D^(a/2-1)"
        product = (raising_op(a) * lowering_op(a)).scale(1 / a)
        if product + eps != oscillator_op(a).scale(1 / a):
            return False, f"product-plus-remainder identity fails at order {a}"
    for d, g in ((F(1), F(2)), (F(3, 2), F(1)), (F(2), F(2))):
        _, fwd = compose_factorization(d, g)
        if fwd != remainder_forward_closed(g, d):
            return False, f"forward remainder at (d,g)=({d},{g}) off closed form"
        rev = reverted_factorization(d, g)
        if rev != remainder_reverted_closed(d, g):
            return False, f"reverted remainder at (d,g)=({d},{g}) off closed form"
    for a in _TEST_ALPHAS:
        _, fwd = compose_factorization(a, a)
        if fwd != OpExpr.word(a / 2, 0, a / 2 - 1) or fwd != reverted_factorization(a, a):
            return False, f"equal-order remainders do not collapse at {a}"
    return True, "product identities, closed-form remainders, and equal-order collapse all exact"


# ---------------------------------------------------------------------------
# numeric criteria

@_criterion("gaussian-identity")
def crit_gaussian_identity() -> tuple[bool, str]:
    xs = [4.0 * i / 99 for i in range(100)]
    worst = max(abs(math.exp(-x * x / 2) - g) for x, g in zip(xs, gaussian_values(xs)))
    ok, limit = _gate("gaussian-identity", worst)
    return ok, f"max |residual| = {worst:.2e} on [0,4] (limit {limit})"


@_criterion("transform-calibration")
def crit_calibration() -> tuple[bool, str]:
    psi = inverse_fourier(ground_state(1), [0.0])
    a0 = float(closed_form_psi0(F(1)).a_values()[0])
    rel = abs(psi.values[0].real - a0) / a0
    ok, limit = _gate("transform-calibration", rel)
    return ok, f"psi0(0) vs closed-form anchor: relative error {rel:.2e} (limit {limit})"


def _closed_form_mismatch(alpha: Fraction):
    """psi0 by quadrature on 61 points of [0, 3], its closed-form table, and
    the worst mismatch between the two relative to the peak psi0(0)."""
    grid = inverse_fourier(ground_state(alpha), [3.0 * i / 60 for i in range(61)])
    peak = grid.values[0].real
    table = closed_form_psi0(alpha)
    worst = max(
        abs(v.real - c) / peak
        for v, c in zip(grid.values, closed_form_values(table, grid.points))
    )
    return grid, table, worst


@_criterion("closed-form-index-1")
def crit_closed_form_alpha1() -> tuple[bool, str]:
    _, _, worst = _closed_form_mismatch(F(1))
    ok, limit = _gate("closed-form-index-1", worst)
    return ok, f"max relative-to-peak mismatch {worst:.2e} on [0,3] (limit {limit})"


def _mpq(v: Fraction):
    import mpmath as mp

    return mp.mpf(v.numerator) / v.denominator


@lru_cache(maxsize=4096)
def _moment(b: Fraction, p: Fraction):
    """Ground-state moment M_p = b^((p+1)/b - 1) Gamma((p+1)/b) at _ORACLE_DPS digits.

    For p > -1 this is integral_0^inf k^p exp(-k^b/b) dk, b = alpha/2 + 1
    (Gradshteyn & Ryzhik 3.326.2); for p <= -1 it is Gamma's continuation.
    """
    import mpmath as mp

    with mp.workdps(_ORACLE_DPS):
        z = _mpq((p + 1) / b)
        return mp.power(_mpq(b), z - 1) * mp.gamma(z)


def _series_terms(b: Fraction, q: Fraction, s: int, x) -> list:
    """Terms (-1)^j x^(2j+s)/(2j+s)! M_{q+2j+s} up to the first below 1e-40 of the largest.

    Cos (s = 0) or sin (s = 1) expanded under the moment integral; the
    terms may dip before they peak, but never by 40 digits for |x| <= 3.
    """
    import mpmath as mp

    x2, tiny = x * x, mp.mpf(10) ** -40
    power = x**s            # x^(2j+s) / (2j+s)!
    terms, top, j = [], mp.mpf(0), 0
    while True:
        t = power * _moment(b, q + 2 * j + s)
        terms.append(-t if j % 2 else t)
        top = max(top, abs(t))
        if abs(t) <= tiny * top:
            return terms
        power *= x2 / ((2 * j + s + 1) * (2 * j + s + 2))
        j += 1


def _moment_blocks(alpha: Fraction, x: float, modulus: int) -> list[float]:
    """Independent oracle: psi0 series moments grouped by residue class.

    psi0(x) = 2 sum_j (-1)^j x^(2j)/(2j)! M_{2j} with the ground-state
    moments of _moment; class m mod ``modulus`` isolates the closed-form
    table's m-th summand.
    """
    import mpmath as mp

    blocks = [mp.mpf(0)] * modulus
    with mp.workdps(_ORACLE_DPS):
        for j, t in enumerate(_series_terms(Fraction(alpha) / 2 + 1, F(0), 0, mp.mpf(x))):
            blocks[j % modulus] += 2 * t
    return [float(v) for v in blocks]


def _moment_series(alpha: Fraction, n: int, xs: Sequence[float]) -> list[tuple[float, float]]:
    """Independent oracle for psi_n: (value, scale) at each x, summed at _ORACLE_DPS digits.

    The generalisation of _moment_blocks to every term c k^q (k > 0) of the
    amplitude that pairs with the kernel: cos for even n (s = 0), sin with
    the odd fold's factor 2i * i = -2 for odd n (s = 1).  Each term adds
    2 c sum_j (-1)^j x^(2j+s)/(2j+s)! M_{q+2j+s}.  ``scale`` bounds the
    integrand's absolute mass by 2 sum |c| M_q, or for odd n by
    2 sum |c| |x| M_{q+1} (|sin kx| <= |kx|) where that is smaller or M_q
    diverges.  The series is entire in x, but for small alpha its terms
    peak late: keep |x| <= 3 above index 1/2 and |x| <= 1 down to 1/5.
    """
    import mpmath as mp

    alpha = Fraction(alpha)
    b = alpha / 2 + 1
    s = n % 2
    amp = excited_state(n, alpha).amplitude()
    out = []
    with mp.workdps(_ORACLE_DPS):
        terms = [(_mpq(-t.coeff if s else t.coeff), t.exponent) for t in amp.terms]
        for x in xs:
            xm = mp.mpf(x)
            value = scale = mp.mpf(0)
            for c, q in terms:
                value += c * mp.fsum(_series_terms(b, q, s, xm))
                bound = _moment(b, q) if q > -1 else mp.inf
                if s:
                    bound = min(bound, abs(xm) * _moment(b, q + 1))
                scale += abs(c) * bound
            out.append((float(2 * value), float(2 * scale)))
    return out


@_criterion("closed-form-index-3/2")
def crit_closed_form_alpha32() -> tuple[bool, str]:
    grid, table, overall = _closed_form_mismatch(F(3, 2))
    overall_ok, overall_limit = _gate("closed-form-index-3/2 overall", overall)

    # per-term audit at one representative abscissa
    x = 2.0
    printed = closed_form_term_values(table, x)
    oracle = _moment_blocks(F(3, 2), x, 7)
    ratios = [p / o if o != 0 else math.inf for p, o in zip(printed, oracle)]
    items = [
        f"term m={m}: printed/oracle = {ratio:.9g}"
        for m, ratio in enumerate(ratios) if abs(ratio - 1) > 1e-6
    ]
    itemized = "; ".join(items) if items else "all terms match the moment oracle"
    # the three lowest terms carry no suspected slip: they gate the table
    low = max(abs(ratio - 1) for ratio in ratios[:3])
    low_ok, low_limit = _gate("closed-form-index-3/2 low terms", low)

    grid2 = inverse_fourier(ground_state(F(3, 2)), grid.points, panel_count=2 * PANEL_COUNT)
    drift = max(abs(a.real - b.real) for a, b in zip(grid.values, grid2.values))
    converged, drift_limit = _gate("closed-form-index-3/2 drift", drift)

    detail = (
        f"quadrature self-convergence drift {drift:.2e} (limit {drift_limit}); "
        f"overall closed-form mismatch {overall:.2e} "
        f"({'within' if overall_ok else 'beyond'} {overall_limit}); {itemized}"
    )
    if not low_ok:
        detail += f"; lowest three terms off the moment oracle by {low:.2e} (limit {low_limit})"
    return converged and low_ok, detail


@_criterion("non-gaussianity")
def crit_nongaussianity() -> tuple[bool, str]:
    ks = [i * 0.05 for i in range(1, 35)]            # (0, 1.7]
    flat_k = nongaussianity_k(F(2), [i * 0.25 - 3.0 for i in range(25)])
    if any(v != 0 for v in flat_k.values):
        return False, "k-space measure at index 2 is not exactly zero"
    xs = [i * 0.25 for i in range(13)]
    flat_x = nongaussianity_x(F(2), xs)
    if any(v != 0 for v in flat_x.values):
        return False, "x-space measure at index 2 is not exactly zero"
    eta1 = [v.real for v in nongaussianity_k(F(1), ks).values]
    if not all(v > 0 for v in eta1):
        return False, "index-1 k-space measure not positive below the crossing"
    ks_unit = [k for k in ks if k <= 1.0]
    eta32 = [v.real for v in nongaussianity_k(F(3, 2), ks_unit).values]
    ordered = all(
        a > b > 0 for a, b in zip(eta1[: len(ks_unit)], eta32)
    )
    if not ordered:
        return False, "index ordering 1 > 3/2 > 2 fails on (0, 1]"
    return (
        True,
        "index-2 measures exactly zero; index-1 positive below the crossing; ordering holds on (0, 1]",
    )


# ---------------------------------------------------------------------------

def run_all() -> list[CriterionResult]:
    checks = [
        crit_ladder_rodrigues,
        crit_classical_reduction,
        crit_printed_family,
        crit_eigenvalues,
        crit_kernel,
        crit_factorization,
        crit_gaussian_identity,
        crit_calibration,
        crit_closed_form_alpha1,
        crit_closed_form_alpha32,
        crit_parity_reality,
        crit_nongaussianity,
        info_hermite4,
        info_theta_term,
    ]
    return [check() for check in checks]


__all__ = [
    "CriterionResult",
    "H4_COEFF_PRINTED",
    "H4_COEFF_RECURRENCE",
    "LIMITS",
    "crit_calibration",
    "crit_classical_reduction",
    "crit_closed_form_alpha1",
    "crit_closed_form_alpha32",
    "crit_eigenvalues",
    "crit_factorization",
    "crit_gaussian_identity",
    "crit_kernel",
    "crit_ladder_rodrigues",
    "crit_nongaussianity",
    "crit_parity_reality",
    "crit_printed_family",
    "info_hermite4",
    "info_theta_term",
    "run_all",
]
