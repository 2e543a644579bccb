"""Descending powers of log X: kernel lattice sums and expansion coefficients.

The odd prime sum, after Poisson summation and Moebius inversion, reduces to
a tau-integral J(X) over two lattice sums of the nested weight transform g1,

  H1(y) = pref * sum_n r(n) sum_l mu(l)/N(l) (g1(2 n N(l) y) - g1(n N(l) y)),
  H2(y) = 1 + (pref/y) sum_n r(n) sum_l mu(l)/N(l) (g1(2 n N(l)/y) - g1(n N(l)/y)),

with pref = 3 zeta_K(2) / (pi w_hat(0)), r(n) = #{k in Z[i] : N(k) = n} and
l running over primary squarefree elements.  H2 is the lattice sum of the
kernel h2(x) = pref * sum_l mu(l)/N(l)^2 (g(x/(2N(l)))/2 - g(x/N(l))) after
swapping the two lattice sums through the radial Poisson identity
sum_k g(N(k) z) = (1/z) sum_j g1(N(j)/z).

Grouping the terms by m = n N(l) turns the double sum into one Dirichlet
convolution c = r * (mu/N), c(m) = sum_{N(l) | m} mu(l)/N(l) r(m/N(l)), and
the g1(2 m z) terms into d(m) = c(m/2) [2 | m] - c(m).  Since r(2n) = r(n)
and N(l) is odd, c(2m) = c(m): d(m) = -c(m) on odd m and 0 on even m.
r/4 = 1 * chi_{-4} and mu/N are multiplicative, so c/4 is too, with local
factors, for e >= 1,

  (e + 1) - 2e/p + (e - 1)/p^2   at p = 1 mod 4,
  [e even] (1 - 1/q^2)           at q = 3 mod 4,
  1                              at 2,

and d is one odd-norm sieve over them (zint.multiplicative_odd), so

  H1(y) = pref * sum_{m <= 112/y} d(m) g1(m y),
  H2(y) = 1 + (pref/y) sum_{m <= 112 y} d(m) g1(m/y):

one sum, taken at y and at 1/y.  g1's hard cutoff (below 1e-13 past 112)
makes both finite and exact.  d(m) is zero for 89% of m <= 112 y_cap at
y_cap = 3000, so the sum runs over its nonzero support only.
H2(y) decays like y^(-3/2), so the tau-integrals are cut at y_cap with a
fitted-envelope tail estimate reported as error.  Both kernels are
tabulated once per kernel table as profiles in tau = 2 log y on fixed GL-12
panels: e^(tau/2) H1 on [0, 2 log 112] and H2 on [0, 2 log y_cap].  J(X)
and the c_w moments read every panel from a profile except one that holds
a break of the weight, where phi_hat(1 -+ tau/L) ends its support or has
its kink at tau = L; that panel is summed afresh, split at the break.

The even prime sum expands into coefficients d_m built from four pieces:
prime powers j >= 2, the alternating-geometric constants C1, the boundary
value E(1) = -1 of E(t) = sum_{N <= t} log N - t, and the moments
M_E(n) = int_1^inf E(t) log^n(t) t^(-2) dt.  M_E comes two ways: exact
sieve integration below a cutoff with a zero-mean tail model bounded by the
measured |E|/sqrt(t) envelope, or analytically from
int_1^inf E(t) t^(-s-1) dt = -(1/s)(1 + H(s) + log2/(2^s-1) + PP(s))
differentiated at s = 1, where H(s) = zeta_K'/zeta_K(s) + 1/(s-1) is
zeta_K's log-derivative with the pole removed and PP collects prime powers
k >= 2 of the norms below the cutoff b, whose tail b^(1-2s)/(2s-1) joins
the smooth part.  The smooth part is differentiated on a Cauchy ring; PP's
derivatives at s = 1 are prime-power sums taken exactly, j by j, and
combined with 1/s by Leibniz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaincc, gammaln

from . import zint
from ._numerics import cauchy_derivs, dot, panel_layout, panel_nodes, read_only
from .specfun import (_EULER_CUTOFF, _LOG_32_PI2, _PSI_HALF, EULER_GAMMA,
                      default_context, hurwitz, zeta_K_log_deriv)
from .transforms import (TestFunction, WeightFunction, make_gaussian_weight)

_G1_CUT = 112.0          # g1(y) below 1e-13 beyond this


def prefactor(weight: WeightFunction) -> float:
    return 3.0 * default_context().zetaK2 / (math.pi * weight.w_hat0)


def phi_sf_partial(bound: int) -> float:
    """Phi(bound) = sum over primary squarefree N(l) <= bound of mu(l)/N(l)^2."""
    a = zint.mobius_by_norm(bound)
    n = np.flatnonzero(a)
    return float(np.sum(a[n] / n.astype(float) ** 2))


def phi_sf_limit() -> float:
    return 4.0 / (3.0 * default_context().zetaK2)


# --- full lattice sums ------------------------------------------------------------

def _c_local(p, e):
    """c/4 at p^e for an odd prime p and e >= 1 (module docstring)."""
    p = np.asarray(p, dtype=float)
    split = (e + 1) - 2.0 * e / p + (e - 1) / (p * p)
    inert = (np.asarray(e) % 2 == 0) * (1.0 - 1.0 / (p * p))
    return np.where(p % 4 == 1, split, inert)


class _Profile:
    """A kernel k(tau) tabulated on the GL-12 panels of [0, cap], width <= 0.25."""

    def __init__(self, kernel, cap: float):
        self.kernel, self.cap = kernel, cap
        tau, q = panel_nodes(0.0, cap, 0.25, 12)
        self.tau, self.q, self.f = read_only(tau, q, kernel(tau))

    def integral(self, weight, breaks: tuple[float, ...] = ()) -> float:
        """int_0^cap weight(tau) k(tau) dtau.  A panel holding a break of
        weight in (0, cap) is summed afresh, split there; the rest are read."""
        _, step = panel_layout(0.0, self.cap, 0.25)
        held = sorted({int(b / step) for b in breaks if 0.0 < b < self.cap})
        keep = ~np.isin(np.arange(self.tau.size) // 12, held)
        total = float(np.dot(self.q[keep], weight(self.tau[keep]) * self.f[keep]))
        for k in held:
            t, q = panel_nodes(k * step, (k + 1) * step, 0.25, 12, breaks)
            total += float(np.dot(q, weight(t) * self.kernel(t)))
        return total


class _KernelTables:
    """H1 and H2 for one (weight, y_cap), from the shared d(m) support.

    d(m) = -4 prod_{p^e || m} c_p(e) on odd m and 0 on even m, with c_p the
    local factors of c/4 (module docstring), is built for m up to
    112 y_cap, so H1 is defined for y >= 1/y_cap and H2 for 1 <= y <= y_cap.
    Only its nonzero terms are kept, as two read-only arrays m and d_m
    (36841 of the 336002 entries at y_cap = 3000: d vanishes on even m and
    wherever a q = 3 mod 4 divides m to an odd power); a lattice sum stops
    at m <= 112/x by one searchsorted and is one dot product over that
    prefix.

    h1_profile and h2_profile tabulate both kernels once at y = e^(tau/2)
    (module docstring), and h2_envelope fits the y^(-3/2) tail once; J_X
    and c_w_coefficients read them instead of summing the lattice again.
    """

    def __init__(self, weight: WeightFunction, y_cap: float):
        self.weight = weight
        self.y_cap = y_cap
        self.pref = prefactor(weight)
        c = zint.multiplicative_odd(int(_G1_CUT * y_cap) + 1, _c_local)
        m = np.flatnonzero(c)
        self.m, self.d_m = read_only(m.astype(float), -4.0 * c[m])

    def _g1_sum(self, x: float) -> float:
        """sum_{m <= 112/x} d(m) g1(m x): H1 at y = x, H2 at y = 1/x."""
        k = int(np.searchsorted(self.m, _G1_CUT / x, side="right"))
        return dot(self.d_m[:k], self.weight.g1(self.m[:k] * x))

    def H1(self, y: float) -> float:
        if not y * self.y_cap >= 1.0:
            raise ValueError("H1 needs y >= 1/y_cap")
        return self.pref * self._g1_sum(y)

    def H2(self, y: float) -> float:
        if not 1.0 <= y <= self.y_cap * (1.0 + 1e-12):
            raise ValueError("H2 tabulated for 1 <= y <= y_cap")
        return 1.0 + self.pref / y * self._g1_sum(1.0 / y)

    @cached_property
    def h1_profile(self) -> _Profile:
        """e^(tau/2) H1(e^(tau/2)) up to 2 log 112, past which H1 is 0."""
        return _Profile(lambda t: np.exp(0.5 * t) * np.array(
            [self.H1(math.exp(0.5 * x)) for x in t]), 2.0 * math.log(_G1_CUT))

    @cached_property
    def h2_profile(self) -> _Profile:
        """H2(e^(tau/2)) up to 2 log y_cap."""
        return _Profile(lambda t: np.array(
            [self.H2(math.exp(0.5 * x)) for x in t]), 2.0 * math.log(self.y_cap))

    @cached_property
    def h2_envelope(self) -> float:
        """Fitted constant C with |H2(y)| <= C y^(-3/2) near the cap."""
        ys = np.geomspace(self.y_cap / 8.0, self.y_cap, 12)
        return max(abs(self.H2(float(y))) * float(y) ** 1.5 for y in ys)


def kernel_tables(weight: WeightFunction | None = None,
                  ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                  y_cap: float = 3000.0) -> _KernelTables:
    """The kernel lattice sums for (weight, y_cap): the d(m) support and
    the H1 and H2 profiles are built once per value and J_X and
    c_w_coefficients read them."""
    return _kernel_tables(weight or make_gaussian_weight(), float(y_cap))


# keyed on the resolved values: kernel_tables(w) and
# kernel_tables(w, y_cap=3000) must hit one entry
_kernel_tables = lru_cache(maxsize=4)(_KernelTables)


# --- the tau-integral and its expansion ---------------------------------------------

def J_X(X: float, test: TestFunction, weight: WeightFunction | None = None,
        ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
        y_cap: float = 3000.0) -> tuple[float, float]:
    """Numeric J(X): value and an error estimate from the y_cap tail."""
    if not math.e < X < math.inf:
        raise ValueError("J_X needs finite X > e")
    tab = kernel_tables(weight, y_cap=y_cap)
    L = math.log(X)
    sigma = test.sigma
    # phi_hat(1 +- tau/L) is 0 past the ends of its support, the breaks
    # (sigma -+ 1) L, and phi_hat(1 - tau/L) has its kink at tau = L
    total = (tab.h1_profile.integral(lambda t: test.phi_hat(1.0 + t / L),
                                     ((sigma - 1.0) * L,))
             + tab.h2_profile.integral(lambda t: test.phi_hat(1.0 - t / L),
                                       ((1.0 - sigma) * L, L, (1.0 + sigma) * L)))
    top2 = min((1.0 + sigma) * L, tab.h2_profile.cap)
    tail = tab.h2_envelope * (4.0 / 3.0) * math.exp(-0.75 * top2)
    return total / L, (tail + 3e-6) / L


def c_w_coefficients(M: int,
                     weight: WeightFunction | None = None) -> list[tuple[float, float]]:
    """Tau-moment integrals of the two kernel lattice sums, orders 1..M."""
    if not 1 <= M <= 8:
        raise ValueError("order must be in 1..8")
    tab = kernel_tables(weight)
    h1, h2 = tab.h1_profile, tab.h2_profile
    out = []
    for m in range(1, M + 1):
        fact = math.gamma(m)
        i1 = h1.integral(lambda t: t ** (m - 1))
        i2 = h2.integral(lambda t: (-t) ** (m - 1))
        # tail of int tau^(m-1) C e^(-3 tau/4): (4/3)^m Gamma(m) Q(m, 3 cap/4)
        tail = (tab.h2_envelope * (4.0 / 3.0) ** m * fact
                * float(gammaincc(m, 0.75 * h2.cap)))
        out.append(((i1 + i2) / fact, (tail + 3e-6) / fact))
    return out


def c_w1_closed(weight: WeightFunction | None = None) -> float:
    """First-order constant in closed form."""
    w = weight or make_gaussian_weight()
    ctx = default_context()
    return (2.0 * EULER_GAMMA + math.log(math.pi ** 2 / 2.0 ** (7.0 / 3.0))
            + 2.0 * ctx.zetaK_logderiv_2 - 8.0 / math.pi * ctx.gamma_K
            - w.mw_prime_1 / w.Mw(1.0).real)


def J_first_order(X: float, test: TestFunction,
                  weight: WeightFunction | None = None,
                  ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                  ) -> float:
    if not math.e < X < math.inf:
        raise ValueError("J_first_order needs finite X > e")
    return float(test.phi_hat(1.0)) * c_w1_closed(weight) / math.log(X)


# --- even-sum coefficients d_m ------------------------------------------------------

def _prime_norm_logs(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    norms = zint.prime_norms_up_to(cutoff).astype(float)
    return norms, np.log(norms)


def t_a_sum(n: int, cutoff: int = _EULER_CUTOFF) -> tuple[float, float]:
    """sum over primary varpi, j >= 2 of logN (2j logN)^n N^-j / (1 + 1/N)."""
    norms, ln = _prime_norm_logs(cutoff)
    total = 0.0
    j = 2
    while True:
        terms = ln * (2.0 * j * ln) ** n * norms ** (-float(j)) / (1.0 + 1.0 / norms)
        s = float(np.sum(terms))
        total += s
        if s < 1e-18 * max(1.0, total) and j > 4:
            break
        j += 1
    lb = math.log(cutoff)
    tail = 4.0 ** n * math.exp(gammaln(n + 1)) * float(gammaincc(n + 1, lb))
    return total, tail


def c1_sum(n: int, cutoff: int = _EULER_CUTOFF) -> tuple[float, float]:
    """C1(n) = -sum over varpi of (2 logN)^(n+1) / (N (N+1))."""
    norms, ln = _prime_norm_logs(cutoff)
    total = -float(np.sum((2.0 * ln) ** (n + 1) / (norms * (norms + 1.0))))
    lb = math.log(cutoff)
    tail = 2.0 ** (n + 1) * math.exp(gammaln(n + 2)) * float(gammaincc(n + 2, lb))
    return total, tail


def m_e_moment_sieve(n: int, cutoff: int = _EULER_CUTOFF) -> tuple[float, float]:
    """int_1^cutoff E(t) log^n(t) t^-2 dt exactly from the sieve, zero tail model.

    The reported error bounds the dropped tail by the measured |E|/sqrt(t)
    envelope times int_cutoff^inf t^(-3/2) log^n t dt.
    """
    norms, ln = _prime_norm_logs(cutoff)
    ts = np.concatenate(([1.0], norms, [float(cutoff)]))
    cum = np.concatenate(([0.0], np.cumsum(ln)))   # sum logN on [t_k, t_{k+1})

    def anti_a(t: np.ndarray) -> np.ndarray:
        # int log^n t / t^2 dt = -(1/t) sum_{i<=n} (n!/i!) log^i t
        lt = np.log(t)
        s = np.zeros_like(t)
        for i in range(n, -1, -1):
            coef = math.factorial(n) / math.factorial(i)
            s += coef * lt ** i
        return -s / t

    def anti_b(t: np.ndarray) -> np.ndarray:
        return np.log(t) ** (n + 1) / (n + 1)

    da = anti_a(ts[1:]) - anti_a(ts[:-1])
    db = anti_b(ts[1:]) - anti_b(ts[:-1])
    val = dot(cum, da) - float(np.sum(db))
    sqs = np.sqrt(norms)
    resid = np.abs(np.cumsum(ln) - norms) / sqs
    lo = np.searchsorted(norms, cutoff ** 0.6)
    env = float(np.max(resid[lo:])) if lo < norms.size else 3.0
    lb = 0.5 * math.log(cutoff)
    tail = env * 2.0 ** (n + 1) * math.exp(gammaln(n + 1)) * float(gammaincc(n + 1, lb))
    return val, tail


def m_e_moment_analytic(max_n: int, cutoff: int = _EULER_CUTOFF) -> list[float]:
    """M_E(0..max_n) from the analytic continuation, differentiated at s = 1.

    The smooth part -(1 + H(s) + log2/(2^s-1) + b^(1-2s)/(2s-1))/s is
    differentiated on the Cauchy ring.  The prime powers -PP(s)/s, with
    PP(s) = sum_N logN N^(-2s)/(1 - N^(-s)) = sum_N logN sum_{j>=2} N^(-js),
    are differentiated exactly: PP^(i)(1) = (-1)^i A_i with
    A_i = sum_N logN sum_{j>=2} (j logN)^i N^(-j), and Leibniz with
    (1/s)^(k-i)(1) = (-1)^(k-i) (k-i)! gives (-1)^k times the k-th
    derivative of -PP(s)/s as -k! sum_{i<=k} A_i / i!.
    """
    b = float(cutoff)

    def smooth(s: np.ndarray) -> np.ndarray:
        h = zeta_K_log_deriv(s) + 1.0 / (s - 1.0)
        return -(1.0 + h + math.log(2.0) / (2.0 ** s - 1.0)
                 + b ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)) / s

    ders = cauchy_derivs(smooth, 1.0, 0.3, max_n)
    norms, ln = _prime_norm_logs(cutoff)
    a = np.zeros(max_n + 1)
    j = 2
    while ln.size:
        term = ln * norms ** (-float(j))
        jl = j * ln
        for i in range(max_n + 1):
            a[i] += float(np.sum(term))
            term = term * jl
        # drop a norm once its largest term is negligible: logN (j logN)^n
        # N^-j still rises with j only while j logN < n, where it exceeds 1
        keep = term / jl > 1e-20
        norms, ln = norms[keep], ln[keep]
        j += 1
    return [((-1.0) ** k * ders[k]).real
            - math.factorial(k) * sum(a[i] / math.factorial(i) for i in range(k + 1))
            for k in range(max_n + 1)]


def d_coefficients(M: int, cutoff: int = _EULER_CUTOFF,
                   route: str = "analytic") -> list[tuple[float, float]]:
    """d_1..d_M with per-entry error estimates.

    route "analytic" differentiates the continued E-integral (tight errors);
    route "sieve" integrates sieve data with a zero-mean tail model and
    GRH-envelope error bars.
    """
    if not 1 <= M <= 6:
        raise ValueError("order must be in 1..6")
    if route == "analytic":
        me = m_e_moment_analytic(M - 1, cutoff)
        me_err = [3e-6 * math.factorial(k) / 0.3 ** k for k in range(M)]
    elif route == "sieve":
        pairs = [m_e_moment_sieve(k, cutoff) for k in range(M)]
        me = [p[0] for p in pairs]
        me_err = [p[1] for p in pairs]
    else:
        raise ValueError(f"unknown route {route!r}")
    out = []
    for m in range(1, M + 1):
        fct = math.factorial(m - 1)
        ta, ta_err = t_a_sum(m - 1, cutoff)
        c1, c1_err = c1_sum(m - 1, cutoff)
        val = -2.0 * ta / fct - c1 / fct - 2.0 ** m * me[m - 1] / fct
        err = 2.0 * ta_err / fct + c1_err / fct + 2.0 ** m * me_err[m - 1] / fct
        if m == 1:
            val -= 2.0
        if m >= 2:
            f2 = math.factorial(m - 2)
            val += 2.0 ** m * me[m - 2] / f2
            err += 2.0 ** m * me_err[m - 2] / f2
        out.append((val, err))
    return out


# --- assembly ---------------------------------------------------------------------

def digamma_moment(m: int) -> float:
    """int_0^inf e^(-x/2) x^(m-1) / (1 - e^(-x)) dx = Gamma(m) (2^m - 1) zeta(m),
    the sum over exponents (k + 1/2)^-m; m >= 2."""
    if m < 2:
        raise ValueError("moment diverges for m < 2")
    z = hurwitz(float(m), 1.0)[0].real
    return math.gamma(m) * (2.0 ** m - 1.0) * z


@dataclass
class ExpansionCoefficients:
    M: int
    d: list[float]
    d_err: list[float]
    c_w: list[float]
    c_w_err: list[float]
    R_w: list[float]

    def as_rows(self) -> list[dict]:
        return [{"m": m + 1, "d_m": self.d[m], "c_wm": self.c_w[m],
                 "R_wm": self.R_w[m],
                 "error_m": self.d_err[m] + self.c_w_err[m]}
                for m in range(self.M)]


def expansion_coefficients(M: int, test: TestFunction,
                           weight: WeightFunction | None = None,
                           ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                           ) -> ExpansionCoefficients:
    w = weight or make_gaussian_weight()
    ds = d_coefficients(M)
    cs = c_w_coefficients(M, w)
    log_moment_term = 2.0 * w.mw_prime_1 / w.w_hat0
    r_w = []
    for m in range(1, M + 1):
        p0 = test.phi_hat_deriv(0.0, m - 1)
        p1 = test.phi_hat_deriv(1.0, m - 1)
        if m == 1:
            r = (p0 * (_LOG_32_PI2 + 2.0 * _PSI_HALF + log_moment_term
                       + ds[0][0]) + cs[0][0] * p1)
        else:
            r = (cs[m - 1][0] * p1 + ds[m - 1][0] * p0
                 - 2.0 * p0 / math.factorial(m - 1) * digamma_moment(m))
        r_w.append(r)
    return ExpansionCoefficients(
        M=M, d=[v for v, _ in ds], d_err=[e for _, e in ds],
        c_w=[v for v, _ in cs], c_w_err=[e for _, e in cs], R_w=r_w)


def thm_prediction(X: float, coeffs: ExpansionCoefficients,
                   test: TestFunction) -> float:
    """phi_hat(0) - int_0^1 phi_hat + sum_m R_wm / L^m."""
    L = math.log(X)
    total = float(test.phi_hat(0.0)) - test.phi_hat_integral(0.0, 1.0)
    for m in range(1, coeffs.M + 1):
        total += coeffs.R_w[m - 1] / L ** m
    return total
