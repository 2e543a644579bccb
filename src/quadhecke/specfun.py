"""Dedekind zeta of Q(i) and companion special functions.

zeta_K(s) = zeta(s) L(s, chi_-4) with L(s, chi_-4) = 4^-s (zeta(s,1/4) -
zeta(s,3/4)); both factors come from one Euler-Maclaurin Hurwitz-zeta core
that returns value and s-derivative together, with a shift that grows with
|Im s|.  Along the lines 1+2it and 2+2it the core's head sums are phase
sums sum w exp(-it mu), one four-column sum per Hurwitz parameter
(zeta_K_axis), and so are the prime sums of A_alpha(it, it); the caller
supplies the phase sum, in the ratios route the NUFFT _numerics.phase_sum
on its panel grid.  default_context() computes the zeta_K constants once
and checks them.

_axis_profile holds Re of the combined prime term and the dual factor Psi
on a panel grid of r = it; routes 2 and 3 both read it.

gamma_K = gamma pi/4 + L'(1, chi_-4), the L'-value summed as an accelerated
alternating series.  Euler products A(alpha, beta) and the diagonal
derivative A_alpha run over primary primes (conjugates separately) up to
the norm cutoff _EULER_CUTOFF with logarithmic tail corrections.

scipy.special (log Gamma, psi, E1) is imported inside the functions that
call it: route 1 calls none of them, and the import would double a
density run's start-up.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import zint
from ._numerics import alternating_sum, panel_nodes, phase_sum, read_only

_EM_ORDER = 12  # Bernoulli pairs
_EM_SHIFT = 20
_EM_REL = (2.0 * math.pi * 0.55) ** -24  # hurwitz's (|s|/2 pi K)^24 at K = 0.55 |Im s|
_POLE_GUARD = 1e-4
_EULER_CUTOFF = 10 ** 6   # prime norm bound of the Euler products
# B_2, B_4, ..., B_24, each the correctly rounded float of its exact rational
_B2J = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                 -236364091 / 2730])
_C2J = _B2J / np.array([math.factorial(2 * j) for j in range(1, _EM_ORDER + 1)])

EULER_GAMMA = float(np.euler_gamma)
_PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)   # digamma(1/2)
_LOG_32_PI2 = math.log(32.0 / math.pi ** 2)
_LOG4 = math.log(4.0)


def log_conductor(norm):
    """log(32 N/pi^2), the log-conductor of a member of norm N; scalar or array."""
    return np.log(32.0 * norm / math.pi ** 2)


def hurwitz(s, a: float):
    """Hurwitz zeta(s, a) and its s-derivative for complex s (scalar or
    array), 0 < a <= 1.

    Euler-Maclaurin with shift max(20, 0.55 |Im s|); relative error around
    (|s| / 2 pi K)^24, i.e. ~1e-13 (_EM_REL) throughout the strips used here.
    Returns (value, d/ds value).
    """
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    K = _em_shift(s)
    n = np.arange(K, dtype=float) + a
    ln = np.log(n)
    pw = np.exp(-np.multiply.outer(s, ln))
    tail, dtail = _em_tail(s, K + a)
    val = pw.sum(axis=-1) + tail
    dval = -(pw * ln).sum(axis=-1) + dtail
    if scalar:
        return complex(val[0]), complex(dval[0])
    return val, dval


def _em_shift(s) -> int:
    """Euler-Maclaurin shift K for the points s: the head sum runs n < K."""
    return int(max(_EM_SHIFT, math.ceil(0.55 * float(np.max(np.abs(s.imag))))))


def _em_tail(s, Ka: float):
    """Remainder of zeta(s, a) past the head sum over n < K, for complex
    array s and Ka = K + a: the integral term, the half endpoint term and
    the Bernoulli corrections.  Returns (remainder, d/ds remainder)."""
    lK = math.log(Ka)
    em = np.exp(-s * lK)  # Ka^-s
    sm1 = s - 1.0
    val = em * Ka / sm1 + 0.5 * em
    dval = em * Ka * (-lK / sm1 - 1.0 / (sm1 * sm1)) - 0.5 * lK * em
    rise = s.copy()                      # (s)_1
    drise = np.ones_like(s)              # d/ds (s)_1
    for j in range(1, _EM_ORDER + 1):
        if j > 1:
            f1 = s + (2 * j - 3)
            f2 = s + (2 * j - 2)
            drise = drise * f1 * f2 + rise * (f1 + f2)
            rise = rise * f1 * f2
        pw_j = em * Ka ** -(2 * j - 1)   # Ka^-(s + 2j - 1)
        val = val + _C2J[j - 1] * rise * pw_j
        dval = dval + _C2J[j - 1] * (drise - rise * lK) * pw_j
    return val, dval


def _pole_guard(s, name: str) -> None:
    """Raise ValueError for a point s within _POLE_GUARD of zeta_K's pole."""
    if np.any(np.abs(np.asarray(s) - 1.0) < _POLE_GUARD):
        raise ValueError(f"{name} within pole guard of s = 1")


def _zeta_K_parts(s, hz=None):
    """zeta_K(s), zeta_K'/zeta_K(s) = zeta'/zeta + L'/L(s, chi_-4) and zeta_K'(s),
    from hz, the Hurwitz values and s-derivatives at a = 1, 1/4, 3/4 (three
    hurwitz calls when None); L(s, chi_-4) = 4^-s (zeta(s,1/4) - zeta(s,3/4))."""
    (z, dz), (za, dza), (zb, dzb) = hz or [hurwitz(s, a) for a in (1.0, 0.25, 0.75)]
    f = np.exp(-s * _LOG4)
    l4 = f * (za - zb)
    dl4 = -_LOG4 * l4 + f * (dza - dzb)
    return z * l4, dz / z + dl4 / l4, dz * l4 + z * dl4


def zeta_K(s):
    """Dedekind zeta of Q(i); scalar or array, Re(s) > -1/2, away from s=1."""
    _pole_guard(s, "zeta_K")
    if np.any(np.real(s) < -0.5):
        raise ValueError("zeta_K outside implemented strip Re(s) > -1/2")
    return _zeta_K_parts(s)[0]


def zeta_K_log_deriv(s):
    """zeta_K'/zeta_K(s) = zeta'/zeta(s) + L'/L(s, chi_-4)."""
    _pole_guard(s, "zeta_K_log_deriv")
    return _zeta_K_parts(s)[1]


def _hurwitz_axis(s1, K: int, a: float, sums):
    """zeta(s, a) and d/ds zeta(s, a) at s1 = 1+2it and at s1 + 1.  The head
    sums over n < K are one phase sum with sources mu = 2 log(n+a) and the
    four amplitude columns (n+a)^-sigma and log(n+a) (n+a)^-sigma, sigma =
    1, 2; the Euler-Maclaurin tails are closed form."""
    ln = np.log(np.arange(K, dtype=float) + a)
    inv = np.exp(-ln)
    head = sums(2.0 * ln, np.stack([inv, ln * inv, inv * inv, ln * inv * inv], axis=1))
    v1, d1 = _em_tail(s1, K + a)
    v2, d2 = _em_tail(s1 + 1.0, K + a)
    return head[:, 0] + v1, d1 - head[:, 1], head[:, 2] + v2, d2 - head[:, 3]


def zeta_K_axis(t, sums):
    """zeta_K and zeta_K'/zeta_K at 1+2it and at 2+2it for a real array t.

    Returns (zeta_K(1+2it), log-derivative there, zeta_K(2+2it), log
    derivative there); the values at 1-2it and 2-2it are their complex
    conjugates.  Both lines share Im s = 2t and so one Euler-Maclaurin
    shift K, and per Hurwitz parameter a the heads of both lines are one
    four-column phase sum (_hurwitz_axis).  sums(mu, w) returns
    sum_n w_n exp(-i t mu_n) at every t, for a weight vector or an (n, c)
    matrix (the axis profile's NUFFT on its panel grid).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s1 = 1.0 + 2j * t
    _pole_guard(s1, "zeta_K_axis")
    K = _em_shift(s1)
    parts = [_hurwitz_axis(s1, K, a, sums) for a in (1.0, 0.25, 0.75)]
    return (*_zeta_K_parts(s1, [(p[0], p[1]) for p in parts])[:2],
            *_zeta_K_parts(s1 + 1.0, [(p[2], p[3]) for p in parts])[:2])


def gamma_K() -> float:
    """Constant term of zeta_K at s=1: gamma pi/4 + L'(1, chi_-4), the
    L'-value by the accelerated alternating series."""
    return EULER_GAMMA * math.pi / 4.0 - alternating_sum(
        lambda k: math.log(2 * k + 1) / (2 * k + 1))


def digamma(s):
    """psi(s), complex scalar or array (scipy.special.psi); raises
    ValueError at the poles s = 0, -1, -2, ..., where scipy returns NaN."""
    from scipy.special import psi
    arr = np.asarray(s, dtype=complex)
    if np.any((arr.real <= 0) & (np.abs(arr - np.round(arr.real)) < 1e-12)):
        raise ValueError("digamma pole")
    out = psi(arr)
    return complex(out) if out.ndim == 0 else out


def X_c(s, norm_c: int):
    """Gamma(1-s)/Gamma(s) (pi^2/(32 N(c)))^(s-1/2)."""
    from scipy.special import loggamma
    s = np.asarray(s, dtype=complex)
    out = np.exp(loggamma(1.0 - s) - loggamma(s) - (s - 0.5) * log_conductor(norm_c))
    return complex(out) if out.ndim == 0 else out


# --- Euler products -------------------------------------------------------------

def _a_factors_log(alpha, beta, norms: np.ndarray):
    la = np.log(norms.astype(float))
    ni = 1.0 / (norms + 1.0)
    x = np.exp(-(1.0 + alpha + beta) * la)
    u = np.exp(-(1.0 + 2.0 * alpha) * la) * ni
    v = np.exp(-(alpha + beta) * la) * ni
    return -np.log(1.0 - x) + np.log(1.0 - u - v)


def A_euler(alpha: complex, beta: complex) -> complex:
    """A(alpha, beta): prefactor times product over primary primes, truncated
    at _EULER_CUTOFF with an exponential-integral tail added."""
    from scipy.special import exp1
    if np.real(alpha) <= -0.25 + 1e-9 or np.real(beta) <= -0.25 + 1e-9:
        raise ValueError("A_euler needs Re(alpha), Re(beta) > -1/4")
    B = _EULER_CUTOFF
    norms = zint.prime_norms_up_to(B)
    logs = _a_factors_log(alpha, beta, norms)
    lb = math.log(B)
    e1a = exp1((1.0 + alpha + beta) * lb)
    e1b = exp1((1.0 + 2.0 * alpha) * lb)
    two = 2.0 ** (1.0 + alpha + beta)
    pref = (two - 2.0 ** (beta - alpha)) / (two - 1.0)
    return complex(pref * np.exp(np.sum(logs) + e1a - e1b))


def A_closed_mr(r, zeta_2m2r=None):
    """Closed form A(-r, r) = 3(2-2^{2r})/(4-2^{2r}) zeta_K(2)/zeta_K(2-2r).

    zeta_2m2r, when given, supplies zeta_K(2-2r) for every r.
    """
    r = np.asarray(r, dtype=complex)
    num = 3.0 * (2.0 - 2.0 ** (2.0 * r)) / (4.0 - 2.0 ** (2.0 * r))
    if zeta_2m2r is None:
        zeta_2m2r = zeta_K(2.0 - 2.0 * r)
    out = num * default_context().zetaK2 / zeta_2m2r
    return complex(out) if out.ndim == 0 else out


def a_alpha_outside(r, cutoff: int):
    """The parts of A_alpha(r, r) outside its odd prime sum to norm cutoff
    B: the term log2/(2^{1+2r}-1) of the prime 1+i and the integral tail
    B^(-1-2r)/(1+2r) past B; complex scalar or array r."""
    z = 1.0 + 2.0 * np.asarray(r, dtype=complex)
    return math.log(2.0) / (2.0 ** z - 1.0) + float(cutoff) ** -z / z


def A_alpha_series(r):
    """A_alpha(r, r) = log2/(2^{1+2r}-1) + sum logN/((N+1)(N^{1+2r}-1)),
    truncated with integral tail; needs Re(r) > -1/2."""
    r = complex(r)
    norms = zint.prime_norms_up_to(_EULER_CUTOFF).astype(float)
    la = np.log(norms)
    terms = la / ((norms + 1.0) * (np.exp((1.0 + 2.0 * r) * la) - 1.0))
    return complex(a_alpha_outside(r, _EULER_CUTOFF) + np.sum(terms))


_PP_CUT = 1000
_AIT_CUT = 10 ** 4
_AIT_TERM_CUT = 1e-18  # each source series stops below this share of its largest term


def _geometric_phases(coef, la, power: float, k_min: int):
    """(mu, w) of sum_N sum_{k >= k_min} coef_N N^(-power k) exp(-2itk log N):
    mu = 2k log N, cut below _AIT_TERM_CUT of the largest term."""
    k_max = k_min + math.ceil(-math.log(_AIT_TERM_CUT) / (power * la.min()))
    kl = np.multiply.outer(la, np.arange(k_min, k_max + 1))
    w = coef[:, None] * np.exp(-power * kl)
    keep = np.abs(w) >= _AIT_TERM_CUT * np.abs(w).max()
    return 2.0 * kl[keep], w[keep]


@functools.cache
def _a_alpha_phases():
    """Sources (mu, w) of the prime sums in A_alpha(it, it) as one phase sum
    sum w exp(-it mu), each distinct norm once with its multiplicity
    (a split norm is shared by two conjugate primes):

      direct term sum_{N <= 1e4} w_N N^-z/(1 - N^-z), w_N = logN/(N+1),
        expanded geometrically: w_N N^-k at mu = 2k log N, k >= 1
      minus its head sum_{N <= 1e4} logN N^(-z-1): logN/N^2 at k = 1
      minus the k >= 2 prime powers of sum_{N <= 1000} logN N^-k(z+1):
        logN N^-2k at mu = 2k log N

    with z = 1+2it; read-only."""
    norms, mult = np.unique(zint.prime_norms_up_to(_AIT_CUT), return_counts=True)
    norms = norms.astype(float)
    la = np.log(norms)
    pp = norms <= _PP_CUT
    parts = [_geometric_phases(mult * la / (norms + 1.0), la, 1.0, 1),
             (2.0 * la, -mult * la / norms ** 2),
             _geometric_phases(-mult[pp] * la[pp], la[pp], 2.0, 2)]
    return read_only(*(np.concatenate(col) for col in zip(*parts)))


def A_alpha_diag_it(t, log_deriv_2, sums):
    """A_alpha(it, it) vectorized along real t for oscillatory integrals.

    A_alpha(r, r) = log2/(2^z - 1) + sum w_N N^-z/(1 - N^-z), z = 1+2r,
    over odd primary primes.  The series runs directly to N <= 1e4; the
    remaining tail's leading part sum log N N^(-z-1) is restored exactly as
    the odd prime part of -zeta_K'/zeta_K(z+1) less its prime powers k >= 2
    (those to N <= 1000), leaving ~1e-8 absolute error.  The three prime
    sums are one phase sum over _a_alpha_phases; sums(mu, w) returns
    sum_n w_n exp(-i t mu_n) at every t, and log_deriv_2 is
    zeta_K'/zeta_K(2+2it) at every t (both from zeta_K_axis's caller).
    """
    z = 1.0 + 2j * np.asarray(t, dtype=float)
    lg2 = math.log(2.0)
    return (lg2 / (np.exp(z * lg2) - 1.0) - lg2 / (np.exp((z + 1.0) * lg2) - 1.0)
            - log_deriv_2 + sums(*_a_alpha_phases()))


def dual_term(r, norm_c: int):
    """-(8/pi) X_c(1/2+r) zeta_K(1-2r) A(-r,r), the swapped-equation term,
    at a complex scalar or array r.  Simple pole at r = 0 with residue +1,
    cancelling the combined prime term's -1; the pole guard raises there."""
    r = np.asarray(r, dtype=complex)
    out = -(8.0 / math.pi) * X_c(0.5 + r, norm_c) * zeta_K(1.0 - 2.0 * r) * A_closed_mr(r)
    return complex(out) if np.ndim(out) == 0 else out


# --- the bracket on the axis -------------------------------------------------------

def _bracket_parts(t: np.ndarray, sums):
    """Conductor-independent bracket data at nodes t > 0:
    (Re combined(it), Psi(it)), where the dual term is Psi(it) exp(-it mu(N)).
    sums(mu, w) returns sum_n w_n exp(-i t mu_n) at every node (the
    profile's NUFFT) for the Hurwitz heads and prime sums."""
    from scipy.special import loggamma
    z1, ld1, z2, ld2 = zeta_K_axis(t, sums)
    rc = (2.0 * ld1 + 2.0 * A_alpha_diag_it(t, ld2, sums)).real
    g = np.exp(loggamma(0.5 - 1j * t) - loggamma(0.5 + 1j * t))
    # zeta_K at 1-2it and 2-2it by Schwarz reflection
    pv = -(8.0 / math.pi) * g * np.conj(z1) * A_closed_mr(1j * t, np.conj(z2))
    return rc, pv


@functools.lru_cache(maxsize=8)
def _axis_profile(T: float, h: float):
    """Conductor-independent integrand data on the [0, T] panel grid:
    (nodes, weights, Re combined(it), Psi(it)), read-only.
    The bracket's Hurwitz heads and prime sums are phase sums on the same
    grid (_numerics.phase_sum); everything else is closed form per node."""
    nodes, wts = panel_nodes(0.0, float(T), float(h), 12)
    parts = _bracket_parts(nodes, functools.partial(phase_sum, T, h))
    return read_only(nodes, wts, *parts)


# --- constants -------------------------------------------------------------------

class ZetaKConstants(NamedTuple):
    """The zeta_K constants, as default_context() computes and checks them."""

    gamma_K: float
    zetaK2: float
    zetaK_logderiv_2: float
    zetaK0: float
    zetaK0_prime: float
    residue: float


@functools.cache
def default_context() -> ZetaKConstants:
    """The zeta_K constants, computed once per process and checked against
    zeta_K(0) = -1/4, the residue pi/4 at s = 1 and the functional
    equation's value of zeta_K'(0); a failed check raises ArithmeticError."""
    z0, _, dz0 = _zeta_K_parts(0.0)
    z2, ld2, _ = _zeta_K_parts(2.0)
    s = 1.0 + 1e-6
    ctx = ZetaKConstants(
        gamma_K=gamma_K(),
        zetaK2=float(np.real(z2)),
        zetaK_logderiv_2=float(np.real(ld2)),
        zetaK0=float(np.real(z0)),
        zetaK0_prime=float(np.real(dz0)),
        residue=float(np.real((s - 1.0) * _zeta_K_parts(s)[0])))
    if abs(ctx.zetaK0 + 0.25) > 1e-8:
        raise ArithmeticError(f"zeta_K(0) = {ctx.zetaK0}, expected -1/4")
    if abs(ctx.residue - math.pi / 4.0) > 1e-5:
        raise ArithmeticError(f"residue {ctx.residue} != pi/4")
    want = zeta_K_prime_0(ctx.gamma_K)
    if abs(ctx.zetaK0_prime - want) > 1e-6:
        raise ArithmeticError(f"zeta_K'(0) loop failed: {ctx.zetaK0_prime} vs {want}")
    return ctx


def zeta_K_prime_0(gamma_k: float) -> float:
    """zeta_K'(0) = gamma_K/pi - (log pi + gamma)/2, the functional equation."""
    return gamma_k / math.pi - (math.log(math.pi) + EULER_GAMMA) / 2.0


def constants_dict() -> dict[str, float]:
    return {"gamma": EULER_GAMMA, **default_context()._asdict()}
