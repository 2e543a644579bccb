"""Dedekind zeta of Q(i) and companion special functions.

zeta_K(s) = zeta(s) L(s, chi_-4) with L(s, chi_-4) = 4^-s (zeta(s,1/4) -
zeta(s,3/4)); both factors come from one Euler-Maclaurin Hurwitz-zeta core
whose shift grows with |Im s|; along the lines 1+2it and 2+2it that core
runs on one shared phase table per Hurwitz parameter (zeta_K_axis).
Around s = 1 the regular part
Z(s) = (s-1) zeta_K(s) is carried as a Taylor series obtained from Cauchy
integrals, so Z(1) = pi/4 and Z'(1) = gamma_K double as self-tests.

gamma_K = gamma pi/4 + L'(1, chi_-4), the L'-value summed as an accelerated
alternating series.  Euler products A(alpha, beta) and the diagonal
derivative A_alpha run over primary primes (conjugates separately) up to a
configurable norm cutoff with logarithmic tail corrections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bernoulli as _bernoulli
from scipy.special import exp1 as _exp1
from scipy.special import loggamma as _loggamma
from scipy.special import psi as _psi

from . import zint
from ._numerics import alternating_sum, read_only

_EM_ORDER = 12  # Bernoulli pairs
_EM_SHIFT = 20
_POLE_GUARD = 1e-4
_B2J = _bernoulli(2 * _EM_ORDER)[2::2]  # B_2, B_4, ..., B_24
_C2J = _B2J / np.array([math.factorial(2 * j) for j in range(1, _EM_ORDER + 1)])

EULER_GAMMA = float(np.euler_gamma)
_PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)   # digamma(1/2)
_LOG_32_PI2 = math.log(32.0 / math.pi ** 2)
_LOG4 = math.log(4.0)


def hurwitz(s, a: float, deriv: bool = False):
    """Hurwitz zeta(s, a) for complex s (scalar or array), 0 < a <= 1.

    Euler-Maclaurin with shift max(20, 0.55 |Im s|); relative error around
    (|s| / 2 pi K)^24, i.e. ~1e-13 throughout the strips used here.
    Returns value or (value, d/ds value).
    """
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    K = _em_shift(s)
    n = np.arange(K, dtype=float) + a
    ln = np.log(n)
    pw = np.exp(-np.multiply.outer(s, ln))
    head = pw.sum(axis=-1)
    if deriv:
        tail, dtail = _em_tail(s, K + a, True)
        val = head + tail
        dval = -(pw * ln).sum(axis=-1) + dtail
        if scalar:
            return complex(val[0]), complex(dval[0])
        return val, dval
    val = head + _em_tail(s, K + a)
    return complex(val[0]) if scalar else val


def _em_shift(s) -> int:
    """Euler-Maclaurin shift K for the points s: the head sum runs n < K."""
    return int(max(_EM_SHIFT, math.ceil(0.55 * float(np.max(np.abs(s.imag))))))


def _em_tail(s, Ka: float, deriv: bool = False):
    """Remainder of zeta(s, a) past the head sum over n < K, for complex
    array s and Ka = K + a: the integral term, the half endpoint term and
    the Bernoulli corrections.  Returns the remainder, or (remainder,
    d/ds remainder)."""
    lK = math.log(Ka)
    em = np.exp(-s * lK)  # Ka^-s
    sm1 = s - 1.0
    val = em * Ka / sm1 + 0.5 * em
    if deriv:
        dval = em * Ka * (-lK / sm1 - 1.0 / (sm1 * sm1)) - 0.5 * lK * em
    rise = s.copy()                      # (s)_1
    drise = np.ones_like(s)              # d/ds (s)_1
    for j in range(1, _EM_ORDER + 1):
        if j > 1:
            f1 = s + (2 * j - 3)
            f2 = s + (2 * j - 2)
            drise = drise * f1 * f2 + rise * (f1 + f2)
            rise = rise * f1 * f2
        pw_j = np.exp(-(s + (2 * j - 1)) * lK)
        val = val + _C2J[j - 1] * rise * pw_j
        if deriv:
            dval = dval + _C2J[j - 1] * (drise - rise * lK) * pw_j
    return (val, dval) if deriv else val


def _l4_with_deriv(s, za, dza, zb, dzb):
    """L(s, chi_-4) = 4^-s (zeta(s,1/4) - zeta(s,3/4)) and its s-derivative
    from the two Hurwitz values and derivatives."""
    f = np.exp(-s * _LOG4)
    val = f * (za - zb)
    return val, -_LOG4 * val + f * (dza - dzb)


def _l4(s, deriv: bool = False):
    if deriv:
        za, dza = hurwitz(s, 0.25, True)
        zb, dzb = hurwitz(s, 0.75, True)
        return _l4_with_deriv(s, za, dza, zb, dzb)
    return np.exp(-s * _LOG4) * (hurwitz(s, 0.25) - hurwitz(s, 0.75))


def zeta_K(s):
    """Dedekind zeta of Q(i); scalar or array, Re(s) > -1/2, away from s=1."""
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(np.abs(arr - 1.0) < _POLE_GUARD):
        raise ValueError("zeta_K within pole guard of s = 1")
    if np.any(arr.real < -0.5):
        raise ValueError("zeta_K outside implemented strip Re(s) > -1/2")
    out = hurwitz(s, 1.0) * _l4(s)
    return out


def zeta_K_log_deriv(s):
    """zeta_K'/zeta_K(s) = zeta'/zeta(s) + L'/L(s, chi_-4)."""
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(np.abs(arr - 1.0) < _POLE_GUARD):
        raise ValueError("zeta_K_log_deriv within pole guard of s = 1")
    z, dz = hurwitz(s, 1.0, True)
    l4, dl4 = _l4(s, True)
    return dz / z + dl4 / l4


def zeta_K_axis(t):
    """zeta_K and zeta_K'/zeta_K at 1+2it and at 2+2it for a real array t.

    Returns (zeta_K(1+2it), log-derivative there, zeta_K(2+2it), log
    derivative there); the values at 1-2it and 2-2it are their complex
    conjugates.  Both lines share Im s = 2t and so one Euler-Maclaurin
    shift K: per Hurwitz parameter a, one phase table cos/sin(2t log(n+a))
    gives the head sums and their derivatives at sigma = 1 and 2 as matrix
    products against the amplitudes (n+a)^-sigma and log(n+a) (n+a)^-sigma.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s1 = 1.0 + 2j * t
    if np.any(np.abs(s1 - 1.0) < _POLE_GUARD):
        raise ValueError("zeta_K_axis within pole guard of s = 1")
    s2 = s1 + 1.0
    K = _em_shift(s1)
    parts = []
    for a in (1.0, 0.25, 0.75):
        ln = np.log(np.arange(K, dtype=float) + a)
        ph = np.multiply.outer(2.0 * t, ln)
        inv = np.exp(-ln)
        amp = np.stack([inv, ln * inv, inv * inv, ln * inv * inv], axis=1)
        head = np.cos(ph) @ amp - 1j * (np.sin(ph) @ amp)
        v1, d1 = _em_tail(s1, K + a, True)
        v2, d2 = _em_tail(s2, K + a, True)
        parts.append((head[:, 0] + v1, d1 - head[:, 1],
                      head[:, 2] + v2, d2 - head[:, 3]))
    out = []
    for k, s in ((0, s1), (2, s2)):
        (z, dz), (za, dza), (zb, dzb) = ((p[k], p[k + 1]) for p in parts)
        l4, dl4 = _l4_with_deriv(s, za, dza, zb, dzb)
        out += [z * l4, dz / z + dl4 / l4]
    return tuple(out)


def _l4_deriv_at_1_series(n: int = 40) -> float:
    """L'(1, chi_-4) by the accelerated alternating series."""
    return -alternating_sum(lambda k: math.log(2 * k + 1) / (2 * k + 1), n)


def gamma_K(n: int = 40) -> float:
    """Constant term of zeta_K at s=1: gamma pi/4 + L'(1, chi_-4)."""
    return EULER_GAMMA * math.pi / 4.0 + _l4_deriv_at_1_series(n)


def digamma(s):
    """psi(s), complex scalar or array (scipy.special.psi); raises
    ValueError at the poles s = 0, -1, -2, ..., where scipy returns NaN."""
    arr = np.asarray(s, dtype=complex)
    if np.any((arr.real <= 0) & (np.abs(arr - np.round(arr.real)) < 1e-12)):
        raise ValueError("digamma pole")
    out = _psi(arr)
    return complex(out) if out.ndim == 0 else out


def X_c(s, norm_c: int):
    """Gamma(1-s)/Gamma(s) (pi^2/(32 N(c)))^(s-1/2)."""
    s = np.asarray(s, dtype=complex)
    lam = math.log(math.pi ** 2 / (32.0 * norm_c))
    out = np.exp(_loggamma(1.0 - s) - _loggamma(s) + (s - 0.5) * lam)
    return complex(out) if out.ndim == 0 else out


# --- Euler products -------------------------------------------------------------

def _a_factors_log(alpha, beta, norms: np.ndarray):
    la = np.log(norms.astype(float))
    ni = 1.0 / (norms + 1.0)
    x = np.exp(-(1.0 + alpha + beta) * la)
    u = np.exp(-(1.0 + 2.0 * alpha) * la) * ni
    v = np.exp(-(alpha + beta) * la) * ni
    return -np.log(1.0 - x) + np.log(1.0 - u - v)


def A_euler_with_error(alpha: complex, beta: complex,
                       ctx: "ZetaKContext | None" = None) -> tuple[complex, float]:
    """A(alpha, beta): prefactor times product over primary primes, truncated
    at euler_cutoff with an exponential-integral tail added; returns
    (value, tail-size error estimate)."""
    ctx = ctx or default_context()
    if np.real(alpha) <= -0.25 + 1e-9 or np.real(beta) <= -0.25 + 1e-9:
        raise ValueError("A_euler needs Re(alpha), Re(beta) > -1/4")
    B = ctx.euler_cutoff
    norms = zint.prime_norms_up_to(B)
    logs = _a_factors_log(alpha, beta, norms)
    lb = math.log(B)
    e1a = _exp1((1.0 + alpha + beta) * lb)
    e1b = _exp1((1.0 + 2.0 * alpha) * lb)
    two = 2.0 ** (1.0 + alpha + beta)
    pref = (two - 2.0 ** (beta - alpha)) / (two - 1.0)
    val = pref * np.exp(np.sum(logs) + e1a - e1b)
    err = float(abs(val)) * (0.5 * (abs(e1a) + abs(e1b)) + 1e-14)
    return complex(val), err


def A_euler(alpha: complex, beta: complex, ctx: "ZetaKContext | None" = None) -> complex:
    return A_euler_with_error(alpha, beta, ctx)[0]


def A_closed_mr(r, ctx: "ZetaKContext | None" = None, zeta_2m2r=None):
    """Closed form A(-r, r) = 3(2-2^{2r})/(4-2^{2r}) zeta_K(2)/zeta_K(2-2r).

    zeta_2m2r, when given, supplies zeta_K(2-2r) for every r.
    """
    ctx = ctx or default_context()
    r = np.asarray(r, dtype=complex)
    num = 3.0 * (2.0 - 2.0 ** (2.0 * r)) / (4.0 - 2.0 ** (2.0 * r))
    if zeta_2m2r is None:
        zeta_2m2r = zeta_K(2.0 - 2.0 * r)
    out = num * ctx.zetaK2 / zeta_2m2r
    return complex(out) if out.ndim == 0 else out


def A_alpha_series(r, ctx: "ZetaKContext | None" = None):
    """A_alpha(r, r) = log2/(2^{1+2r}-1) + sum logN/((N+1)(N^{1+2r}-1)),
    truncated with integral tail; needs Re(r) > -1/2."""
    ctx = ctx or default_context()
    r = complex(r)
    B = ctx.euler_cutoff
    norms = zint.prime_norms_up_to(B).astype(float)
    la = np.log(norms)
    terms = la / ((norms + 1.0) * (np.exp((1.0 + 2.0 * r) * la) - 1.0))
    tail = B ** (-1.0 - 2.0 * r) / (1.0 + 2.0 * r)
    return math.log(2.0) / (2.0 ** (1.0 + 2.0 * r) - 1.0) + complex(np.sum(terms)) + tail


def A_alpha_diag(r, ctx: "ZetaKContext | None" = None, check: bool = True) -> complex:
    """d/d alpha A(alpha, beta) at alpha = beta = r, two ways.

    (a) complex-step (real r) or central difference of A_euler in alpha;
    (b) the prime-sum identity through zeta_K'/zeta_K(1+2r).
    Disagreement beyond 10x the tail estimates raises.
    """
    ctx = ctx or default_context()
    r = complex(r)
    series = A_alpha_series(r, ctx)
    if check:
        if r.imag == 0.0:
            h = 1e-20
            d = A_euler(r + 1j * h, r, ctx).imag / h
        else:
            h = 1e-5
            d = (A_euler(r + h, r, ctx) - A_euler(r - h, r, ctx)) / (2 * h)
        if abs(d - series) > 1e-4:
            raise ArithmeticError(
                f"A_alpha methods disagree at r={r}: {d} vs {series}")
    return complex(series)


_PP_CUT = 1000
_AIT_CUT = 10 ** 4
_AIT_CHUNK = 512


def odd_prime_power_sum(w, log_deriv=None):
    """PS(w) = sum over odd primary primes of log N * N^-w, Re w >= 2.

    Extracted from -zeta_K'/zeta_K(w) (or the supplied log_deriv at every
    w) by removing the (1+i) column and the k >= 2 prime powers (the latter
    summed directly to N <= 1000; the leftover tail is ~ (Re w - fixed)
    3e-10 at Re w = 2).
    """
    w = np.asarray(w, dtype=complex)
    lam = -(zeta_K_log_deriv(w) if log_deriv is None else log_deriv)
    lam = lam - math.log(2.0) / (np.exp(w * math.log(2.0)) - 1.0)
    # each distinct norm once, weighted by its multiplicity
    norms, mult = np.unique(zint.prime_norms_up_to(_PP_CUT), return_counts=True)
    la = np.log(norms.astype(float))
    nw = np.exp(-np.multiply.outer(w, la))  # N^-w
    pp = (nw * nw / (1.0 - nw)) @ (mult * la)
    return lam - pp


def A_alpha_diag_it(t, ctx: "ZetaKContext | None" = None, log_deriv_2=None):
    """A_alpha(it, it) vectorized along real t for oscillatory integrals.

    Series summed directly to N <= 1e4, each distinct norm once with its
    multiplicity (a split norm is shared by two conjugate primes); the
    remaining tail's leading part sum log N * N^(-2-2it) is restored
    exactly through odd_prime_power_sum, leaving ~1e-8 absolute error.
    log_deriv_2, when given, supplies zeta_K'/zeta_K(2+2it) for every t.
    Chunks internally to cap the outer products.
    """
    ctx = ctx or default_context()
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if log_deriv_2 is not None:
        log_deriv_2 = np.atleast_1d(np.asarray(log_deriv_2, dtype=complex))
    norms, mult = np.unique(zint.prime_norms_up_to(_AIT_CUT), return_counts=True)
    norms = norms.astype(float)
    la = np.log(norms)
    w_direct = mult * la / (norms + 1.0)
    w_head = mult * la / norms
    out = np.empty(t.shape, dtype=complex)
    for i0 in range(0, t.size, _AIT_CHUNK):
        tc = t[i0:i0 + _AIT_CHUNK]
        z = 1.0 + 2j * tc
        nz = np.exp(-np.multiply.outer(z, la))         # N^-z
        direct = (nz / (1.0 - nz)) @ w_direct
        head = nz @ w_head                             # sum_{N<=cut} logN N^-z-1
        ld = None if log_deriv_2 is None else log_deriv_2[i0:i0 + _AIT_CHUNK]
        out[i0:i0 + _AIT_CHUNK] = (math.log(2.0) / (np.exp(z * math.log(2.0)) - 1.0)
                                   + direct + odd_prime_power_sum(z + 1.0, ld) - head)
    return complex(out[0]) if scalar else out


# --- context ---------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaKContext:
    """Immutable bundle of cached constants and the Z(s) Taylor series at 1.

    Contexts compare and hash on euler_cutoff, the one parameter; every
    other field is derived from it, so caches key on the context's value.
    """

    euler_cutoff: int = 10 ** 6
    gamma: float = field(init=False, compare=False)
    gamma_K: float = field(init=False, compare=False)
    zetaK2: float = field(init=False, compare=False)
    zetaK_logderiv_2: float = field(init=False, compare=False)
    zetaK0: float = field(init=False, compare=False)
    zetaK0_prime: float = field(init=False, compare=False)
    residue: float = field(init=False, compare=False)
    z_taylor: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        z, dz = hurwitz(0.0, 1.0, True)
        l4, dl4 = _l4(0.0, True)
        s = 1.0 + 1e-6
        derived = {
            "gamma": EULER_GAMMA,
            "gamma_K": gamma_K(),
            "zetaK2": float(np.real(zeta_K(2.0))),
            "zetaK_logderiv_2": float(np.real(zeta_K_log_deriv(2.0))),
            "zetaK0": float(np.real(z * l4)),
            "zetaK0_prime": float(np.real(dz * l4 + z * dl4)),
            "residue": float(np.real((s - 1.0) * hurwitz(s, 1.0) * _l4(s))),
            "z_taylor": read_only(_z_taylor_coeffs()),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        if abs(self.zetaK0 + 0.25) > 1e-8:
            raise ArithmeticError(f"zeta_K(0) = {self.zetaK0}, expected -1/4")
        if abs(self.residue - math.pi / 4.0) > 1e-5:
            raise ArithmeticError(f"residue {self.residue} != pi/4")
        lhs = -self.zetaK0_prime
        rhs = -self.gamma_K / math.pi + self.gamma / 2.0 + math.log(math.pi) / 2.0
        if abs(lhs - rhs) > 1e-6:
            raise ArithmeticError(f"zeta_K'(0) loop failed: {lhs} vs {rhs}")
        if abs(self.z_taylor[0] - math.pi / 4.0) > 1e-10:
            raise ArithmeticError("Z(1) != pi/4")
        if abs(self.z_taylor[1] - self.gamma_K) > 1e-8:
            raise ArithmeticError("Z'(1) != gamma_K")

    # Z(s) = (s-1) zeta_K(s) near s = 1
    def Z(self, s):
        d = np.asarray(s, dtype=complex) - 1.0
        out = np.zeros_like(d)
        for c in self.z_taylor[::-1]:
            out = out * d + c
        return out

    def Z_log_deriv(self, s):
        """H(s) = Z'/Z = zeta_K'/zeta_K(s) + 1/(s-1); Taylor branch |s-1|<=0.35."""
        d = np.asarray(s, dtype=complex) - 1.0
        if np.any(np.abs(d) > 0.35):
            raise ValueError("Z_log_deriv Taylor branch needs |s-1| <= 0.35")
        num = np.zeros_like(d)
        den = np.zeros_like(d)
        cs = self.z_taylor
        for k in range(len(cs) - 1, 0, -1):
            num = num * d + k * cs[k]
        for c in cs[::-1]:
            den = den * d + c
        return num / den


def _z_taylor_coeffs(nterms: int = 30, radius: float = 0.8, nodes: int = 128) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * th)
    s = 1.0 + ring
    vals = ring * hurwitz(s, 1.0) * _l4(s)
    coeffs = np.fft.fft(vals) / nodes
    k = np.arange(nterms)
    return np.real(coeffs[:nterms]) / radius ** k


@functools.cache
def default_context() -> ZetaKContext:
    return ZetaKContext()


def constants_dict(ctx: ZetaKContext | None = None) -> dict[str, float]:
    ctx = ctx or default_context()
    return {
        "gamma": ctx.gamma,
        "gamma_K": ctx.gamma_K,
        "zetaK2": ctx.zetaK2,
        "zetaK_logderiv_2": ctx.zetaK_logderiv_2,
        "zetaK0": ctx.zetaK0,
        "zetaK0_prime": ctx.zetaK0_prime,
        "residue": ctx.residue,
    }
