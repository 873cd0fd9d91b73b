"""Independent references for the benchmark's correctness checks.

Nothing here imports rfho.  Every reference is computed in mpmath at
``DPS`` (30) digits by a method other than the one under test:

* k-space states and local eigenvalues come from truncated Taylor series
  (jets) about the sample point: the ladder H_{n+1} = 2 s H_n - H_n' is
  run on jets instead of on exact monomials, and the local eigenvalue is
  taken from its definition (S_theta phi - phi'') / (a phi) rather than
  from the expanded rational form.  At a = 2 the classical Hermite
  polynomials (``mpmath.hermite``) and lambda_n = n + 1/2 are used.
* x-space states are integrated by tanh-sinh quadrature along a ray
  rotated into the upper half plane, where exp(ikx) decays instead of
  oscillating, with closed-form Gamma moments at x = 0.
* exact tables are compared with the classical integer Hermite recurrence
  at a = 2, with a direct Fraction substitution of the index, and with
  the hand-derived factorization remainders.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DPS = 30


def mpq(v: Fraction) -> mp.mpf:
    return mp.mpf(v.numerator) / v.denominator


# ---------------------------------------------------------------------------
# jets: coefficient lists of truncated Taylor series about a point k0 != 0

def _jmul(a: list, b: list) -> list:
    return [mp.fsum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _jabs_pow(k0: mp.mpf, p, order: int) -> list:
    """Jet of |k|**p at k0: |k0+t|**p = sum binom(p, j) |k0|**(p-j) sgn(k0)**j t**j."""
    sgn = 1 if k0 > 0 else -1
    mag = abs(k0)
    out, c = [], mp.mpf(1)
    for j in range(order):
        out.append(c * mag ** (p - j) * sgn**j)
        c = c * (p - j) / (j + 1)
    return out


def _jexp(g: list) -> list:
    f = [mp.exp(g[0])] + [mp.mpf(0)] * (len(g) - 1)
    for j in range(1, len(g)):
        f[j] = mp.fsum(i * g[i] * f[j - i] for i in range(1, j + 1)) / j
    return f


def hermite_jet(n: int, alpha: Fraction, k0: mp.mpf, order: int) -> list:
    """First ``order - n`` Taylor coefficients of H_n about k0, by the ladder on jets."""
    a = mpq(alpha)
    sgn = 1 if k0 > 0 else -1
    s = [sgn * v for v in _jabs_pow(k0, a / 2, order)]
    h = [mp.mpf(1)] + [mp.mpf(0)] * (order - 1)
    for _ in range(n):
        dh = [(j + 1) * h[j + 1] for j in range(order - 1)] + [mp.mpf(0)]
        h = [2 * u - v for u, v in zip(_jmul(s, h), dh)]
    return h


_I_POW = (1, 1j, -1, -1j)


def state_k(n: int, alpha: Fraction, k: float) -> complex:
    """phi_n(k) = i**n H_n(k) exp(-|k|**e / e), e = a/2 + 1; k = 0 only at a = 2."""
    with mp.workdps(DPS):
        km = mp.mpf(k)
        if alpha == 2:
            amp = mp.hermite(n, km) * mp.exp(-km * km / 2)
        else:
            if km == 0:
                raise ValueError("jet reference needs k != 0 below index 2")
            e = mpq(alpha) / 2 + 1
            amp = hermite_jet(n, alpha, km, n + 1)[0] * mp.exp(-abs(km) ** e / e)
        return complex(amp) * _I_POW[n % 4]


def eigenvalue_k(n: int, alpha: Fraction, theta: Fraction, k: float) -> complex:
    """Local eigenvalue (S_theta phi - phi'') / (a phi) at k != 0."""
    with mp.workdps(DPS):
        km = mp.mpf(k)
        sgn = 1 if km > 0 else -1
        a = mpq(alpha)
        skew = mp.expj(sgn * mpq(theta) * mp.pi / 2)
        if alpha == 2:
            return complex(n + mp.mpf(1) / 2 + (skew - 1) * km * km / 2)
        e = a / 2 + 1
        h = hermite_jet(n, alpha, km, n + 3)[:3]
        ground = _jexp([-v / e for v in _jabs_pow(km, e, 3)])
        phi = _jmul(h, ground)
        lam = (abs(km) ** a * skew * phi[0] - 2 * phi[2]) / (a * phi[0])
        return complex(lam)


def nongauss_k(alpha: Fraction, k: float) -> float:
    with mp.workdps(DPS):
        km = mp.mpf(k)
        e = mpq(alpha) / 2 + 1
        return float(1 - mp.exp(km * km / 2 - abs(km) ** e / e))


# ---------------------------------------------------------------------------
# x space

def _h_terms(n: int, a: mp.mpf) -> list[tuple[mp.mpf, mp.mpf]]:
    """H_n on k > 0 as (coefficient, power) pairs, hand-derived for n <= 3.

    With s = k**(a/2): H_1 = 2s, H_2 = 4s**2 - 2s', H_3 = 8s**3 - 12 s s' + 2s''.
    """
    table = {
        0: [(1, 0)],
        1: [(2, a / 2)],
        2: [(4, a), (-a, a / 2 - 1)],
        3: [(8, 3 * a / 2), (-6 * a, a - 1), (a * (a / 2 - 1), a / 2 - 2)],
    }
    return [(mp.mpf(c), mp.mpf(q)) for c, q in table[n] if c != 0]


def _moment(q: mp.mpf, e: mp.mpf) -> mp.mpf:
    """integral_0^inf k**q exp(-k**e / e) dk = e**((q+1)/e - 1) Gamma((q+1)/e)."""
    return mp.power(e, (q + 1) / e - 1) * mp.gamma((q + 1) / e)


def state_x(n: int, alpha: Fraction, x: float) -> tuple[float, float]:
    """(psi_n(x), scale) with psi_n(x) = integral phi_n(k) exp(ikx) dk, n <= 3.

    ``scale`` bounds |psi_n| by the absolute moments of the integrand and
    sets the tolerance of a check.  Odd states pair the kernel sin(kx);
    a power k**q with q <= -1 is first integrated by parts once, which
    turns it into k**(q+e) and x k**(q+1) terms that converge at 0.
    """
    with mp.workdps(DPS):
        a = mpq(alpha)
        e = a / 2 + 1
        xm = mp.mpf(x)
        flip = 1
        if xm < 0:
            xm, flip = -xm, (-1) ** n
        terms = []
        for c, q in _h_terms(n, a):
            if q > -1:
                terms.append((c, q))
            else:
                terms.append((c / (q + 1), q + e))
                terms.append((-1j * c * xm / (q + 1), q + 1))
        scale = 2 * mp.fsum(abs(c) * _moment(q, e) for c, q in terms)
        phase = (-1) ** (n // 2) if n % 2 == 0 else (-1) ** ((n + 1) // 2)
        if xm == 0:
            if n % 2:
                return 0.0, float(scale)
            value = 2 * mp.fsum(c * _moment(q, e) for c, q in terms)
            return float(flip * phase * value), float(scale)
        theta = mp.pi / (4 * e)
        rot = mp.expj(theta)
        m = int(mp.ceil(1 / (min(q for _, q in terms) + 1)))

        def integrand(u):
            # k = t e^{i theta}, t = u**m removes the algebraic singularity at 0
            lu = mp.log(u)
            lk = m * lu + 1j * theta
            amp = mp.fsum(c * mp.exp(q * lk + (m - 1) * lu) for c, q in terms)
            return m * amp * mp.exp(1j * mp.exp(m * lu) * rot * xm - mp.exp(e * lk) / e)

        top = min((100 * e / mp.cos(e * theta)) ** (1 / e), 100 / (xm * mp.sin(theta)))
        cuts, b = [mp.mpf(0)], min(mp.mpf(1) / 2, 1 / xm)
        while b < top:
            cuts.append(b)
            b *= 4
        cuts.append(top)
        total = mp.quad(integrand, [c ** (mp.mpf(1) / m) for c in cuts]) * rot
        value = 2 * (total.real if n % 2 == 0 else total.imag)
        return float(flip * phase * value), float(scale)


#: psi0 at index 2 is sqrt(2 pi) exp(-x**2/2); below this share of its peak
#: the program reports nan for the non-Gaussianity ratio
NAN_SHARE = 1e-12


def gauss_x(x: float) -> float:
    with mp.workdps(DPS):
        return float(mp.sqrt(2 * mp.pi) * mp.exp(-mp.mpf(x) ** 2 / 2))


# ---------------------------------------------------------------------------
# exact algebra

def classical_hermite(n: int) -> list[int]:
    """Coefficients of the physicists' H_n, lowest power first: H_{m+1} = 2k H_m - H_m'."""
    h = [1]
    for _ in range(n):
        nxt = [0] * (len(h) + 1)
        for p, c in enumerate(h):
            nxt[p + 1] += 2 * c
            if p:
                nxt[p - 1] -= p * c
        h = nxt
    return h


def substitute(terms: list[tuple[tuple[Fraction, ...], int, int, int]], alpha: Fraction) -> dict:
    """{(exponent, parity): coefficient} of sum c(a) sgn**p |k|**(j a/2 + m) at a = alpha."""
    out: dict[tuple[Fraction, int], Fraction] = {}
    for coeffs, parity, j, m in terms:
        c = sum((ci * alpha**d for d, ci in enumerate(coeffs)), Fraction(0))
        key = (Fraction(j) * alpha / 2 + m, parity)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def reduces_to_classical(terms, n: int) -> bool:
    """At a = 2 the member must equal the classical H_n, sgn(k)**p |k|**q read as k**q."""
    powers: dict[int, Fraction] = {}
    for (q, parity), c in substitute(terms, Fraction(2)).items():
        if q.denominator != 1 or q < 0 or parity != q % 2:
            return False
        powers[int(q)] = powers.get(int(q), Fraction(0)) + c
    expected = {p: Fraction(c) for p, c in enumerate(classical_hermite(n)) if c}
    return {p: c for p, c in powers.items() if c} == expected


def eval_terms(terms, alpha: Fraction, k: float) -> mp.mpf:
    """sum c(alpha) sgn(k)**p |k|**(j alpha/2 + m) in mpmath, k != 0."""
    with mp.workdps(DPS):
        km = mp.mpf(k)
        sgn = 1 if km > 0 else -1
        return mp.fsum(
            mpq(c) * sgn**p * abs(km) ** mpq(q)
            for (q, p), c in substitute(terms, alpha).items()
        )


def factorize_x(delta: Fraction, gamma: Fraction) -> dict[str, dict]:
    """Remainder words {(xpow, dorder): coeff} from D**b x = x D**b + b D**(b-1).

    (-D**(g/2) + x)(D**(d/2) + x) = -D**((g+d)/2) - x D**(g/2) - (g/2) D**(g/2-1)
    + x D**(d/2) + x**2, so H - raising*lowering = (g/2) D**(g/2-1) + x D**(g/2)
    - x D**(d/2); the reverted product swaps the roles of d and g.
    """
    def remainder(p: Fraction, r: Fraction) -> dict:
        words: dict[tuple[int, Fraction], Fraction] = {}
        for key, c in (((0, p / 2 - 1), p / 2), ((1, p / 2), Fraction(1)), ((1, r / 2), Fraction(-1))):
            words[key] = words.get(key, Fraction(0)) + c
        return {k: v for k, v in words.items() if v != 0}

    out = {"forward": remainder(gamma, delta), "reverted": remainder(delta, gamma)}
    if delta == gamma:
        out["scaled"] = {(0, delta / 2 - 1): Fraction(1, 2)}
    return out


def factorize_k(gamma: Fraction, delta: Fraction, theta: int, k: float) -> tuple[complex, complex]:
    """(c0, c1) of the k-space forward remainder, S_q = |k|**q exp(i sgn(k) theta pi/2).

    c0 = -(g/2) S_{g/2-1} + i [(g/2) sgn S_{g/2-1} - (d/2) sgn S_{d/2-1}],
    c1 = i [S_{g/2} - S_{d/2}].
    """
    with mp.workdps(DPS):
        km = mp.mpf(k)
        sgn = 1 if km > 0 else -1
        skew = mp.expj(sgn * theta * mp.pi / 2)
        g, d = mpq(gamma), mpq(delta)

        def sym(q):
            return abs(km) ** q * skew

        c0 = -(g / 2) * sym(g / 2 - 1) + 1j * sgn * ((g / 2) * sym(g / 2 - 1) - (d / 2) * sym(d / 2 - 1))
        c1 = 1j * (sym(g / 2) - sym(d / 2))
        return complex(c0), complex(c1)
