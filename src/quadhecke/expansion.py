"""Descending powers of log X: J(X), the expansion coefficients, and the
Poisson-side kernel lattice sums kept as their reference.

J(X) and the c_wm are route 2's dual term on the smooth family, whose
average of exp(-r mu(N)) is (32X/pi^2)^(-r) M_w(1-r)/M_w(1).  With X^(-r)
taken out it is F(r) = Psi(r) (32/pi^2)^(-r) M_w(1-r)/M_w(1), Psi(r) =
-(8/pi) Gamma(1/2-r)/Gamma(1/2+r) zeta_K(1-2r) A(-r, r), and

  J(X) = int_0^1 phi_hat + (1/pi) int_0^inf phi(tL/2pi) Re[F(it) e^(-itL)] dt,
  c_wm = (-1)^(m-1) g_(m-1),  F(r) - 1/r = sum_k g_k r^k  (|r| < 1/2).

J reads Psi(it) off the axis profile (specfun._axis_profile); the g_k come
from a Cauchy ring.  That these equal the Poisson-side J and c_wm below is
a measurement, not a proof (tests/oracles.py).

The Poisson side.  The odd prime sum, after Poisson summation and Moebius
inversion, reduces to a tau-integral of two lattice sums of the nested
weight transform g1,

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
y_cap = 3000, so the sum runs over its nonzero support only.  With
tau = 2 log y, J(X) L = int e^(tau/2) H1 phi_hat(1 + tau/L) + H2
phi_hat(1 - tau/L) dtau and (m-1)! c_wm = int tau^(m-1) e^(tau/2) H1 +
(-tau)^(m-1) H2 dtau.  No route reads them: they are the independent
reference that the tests integrate and the benchmark times, since routes
2 and 3 share zeta_K, A(-r, r) and Psi.

The even prime sum expands into coefficients d_m that are the Taylor
coefficients at r = 0 of route 2's combined prime term with its pole
removed, G(r) = 2 zeta_K'/zeta_K(1+2r) + 2 A_alpha(r, r) + 1/r:
G(r) = sum_k g_k r^k and d_m = (-1)^(m-1) g_(m-1).  G is regular for
|r| < 1/2.  A_alpha's prime sum is cut at the Euler-product cutoff with
its integral tail in closed form (specfun.a_alpha_outside), so each d_m's
error is refinement: its change when the cutoff drops tenfold plus its
change when the Cauchy ring shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import zint
from ._numerics import cauchy_derivs, dot, read_only
from .specfun import (_EM_REL, _EULER_CUTOFF, _LOG_32_PI2, _PSI_HALF, EULER_GAMMA,
                      _axis_profile, a_alpha_outside, default_context, dual_term, hurwitz,
                      zeta_K_log_deriv)
from .transforms import (TestFunction, WeightFunction, make_gaussian_weight)

_G1_CUT = 112.0          # g1(y) below 1e-13 beyond this
_J_PANEL_H = 0.25        # GL-12 panel width of J's t-integral
_MW_CUT = 1e-15          # J's t-range ends where |M_w(1-it)/M_w(1)| falls below this


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
    """

    def __init__(self, weight: WeightFunction, y_cap: float):
        self.weight = weight
        self.y_cap = y_cap
        self.pref = prefactor(weight)
        c = zint.multiplicative_odd(int(_G1_CUT * y_cap) + 1, _c_local)
        m = np.flatnonzero(c)
        self.m, self.d_m = read_only(m.astype(float), -4.0 * c[m])

    def _g1_sum(self, x):
        """sum_{m <= 112/x} d(m) g1(m x) at each x of a float or an array:
        H1 at y = x, H2 at y = 1/x, one dot over each x's prefix of d."""
        x = np.asarray(x, dtype=float)
        k = np.searchsorted(self.m, _G1_CUT / x.ravel(), side="right")
        return np.array([dot(self.d_m[:n], self.weight.g1(self.m[:n] * v))
                         for n, v in zip(k, x.ravel().tolist())]).reshape(x.shape)

    def H1(self, y):
        """H1 at a float or an array of y."""
        if not np.all(np.asarray(y) * self.y_cap >= 1.0):
            raise ValueError("H1 needs y >= 1/y_cap")
        return self.pref * self._g1_sum(y)

    def H2(self, y):
        """H2 at a float or an array of y."""
        y = np.asarray(y, dtype=float)
        if not np.all((1.0 <= y) & (y <= self.y_cap * (1.0 + 1e-12))):
            raise ValueError("H2 tabulated for 1 <= y <= y_cap")
        return 1.0 + self.pref / y * self._g1_sum(1.0 / y)


def kernel_tables(weight: WeightFunction | None = None,
                  ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                  y_cap: float = 3000.0) -> _KernelTables:
    """The kernel lattice sums for (weight, y_cap), built once per value:
    the Poisson-side reference of J and the c_wm (module docstring)."""
    return _kernel_tables(weight or make_gaussian_weight(), float(y_cap))


# keyed on the resolved values: kernel_tables(w) and
# kernel_tables(w, y_cap=3000) must hit one entry
_kernel_tables = lru_cache(maxsize=4)(_KernelTables)


# --- the smooth dual term: J(X) and the c_wm ---------------------------------------

def _smooth_dual(r, weight: WeightFunction, psi=None):
    """F(r) (module docstring) at a complex array r: route 2's dual term at
    norm 1, whose conductor is 32/pi^2, times M_w(1-r)/M_w(1); psi, when
    given, supplies Psi at every r."""
    dual = dual_term(r, 1) if psi is None else psi * np.exp(-r * _LOG_32_PI2)
    return dual * weight.Mw(1.0 - r) / weight.Mw(1.0)


@lru_cache(maxsize=4)
def _mw_cut(weight: WeightFunction) -> tuple[float, float]:
    """(T, ell): the first panel end T with |M_w(1-iT)/M_w(1)| <= _MW_CUT,
    and M_w's decay length there, from its fall over the last panel."""
    def ratio(t):
        return abs(weight.Mw(1.0 - 1j * t) / weight.Mw(1.0))
    T = _J_PANEL_H
    while ratio(T) > _MW_CUT:
        if T > 1000.0:
            raise ValueError(f"|M_w(1 - it)| stays above {_MW_CUT:.0e} past t = 1000")
        T += _J_PANEL_H
    return T, _J_PANEL_H / math.log(ratio(T - _J_PANEL_H) / ratio(T))


@lru_cache(maxsize=4)
def _dual_axis(weight: WeightFunction, T: float, h: float):
    """Nodes, weights and F(it) on the axis profile's [0, T] grid, read-only."""
    nodes, wts, _, psi = _axis_profile(T, h)
    return read_only(nodes, wts, _smooth_dual(1j * nodes, weight, psi))


def _dual_integral(X: float, test: TestFunction, weight: WeightFunction,
                   T: float, h: float) -> tuple[float, float]:
    """J(X) on the [0, T] grid of panel width h, and (1/pi) int |phi F| dt."""
    L = math.log(X)
    t, wts, f = _dual_axis(weight, T, h)
    phi = wts * test.phi(t * L / (2.0 * math.pi))
    value = dot(phi, (f * np.exp(-1j * L * t)).real) / math.pi
    return test.phi_hat_integral(0.0, 1.0) + value, dot(np.abs(phi), np.abs(f)) / math.pi


def J_X(X: float, test: TestFunction, weight: WeightFunction | None = None,
        ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
        ) -> tuple[float, float]:
    """J(X) from the smooth dual term and its error: the change when the
    panel width halves, the M_w tail past the cut, and zeta_K's relative
    error twice (Psi holds zeta_K(1-2it)/zeta_K(2-2it)) on |phi F|."""
    if not math.e < X < math.inf:
        raise ValueError("J_X needs finite X > e")
    w = weight or make_gaussian_weight()
    T, ell = _mw_cut(w)
    value, modulus = _dual_integral(X, test, w, T, _J_PANEL_H)
    fine, _ = _dual_integral(X, test, w, T, 0.5 * _J_PANEL_H)
    # |phi| <= phi(0) as phi_hat >= 0, and |F(it)| falls past T like M_w
    tail = float(test.phi(0.0) * abs(_dual_axis(w, T, _J_PANEL_H)[2][-1])) * ell / math.pi
    return value, abs(fine - value) + tail + 2.0 * _EM_REL * modulus


def _ring_taylor(M: int, weight: WeightFunction, radius: float) -> np.ndarray:
    """g_0..g_(M-1) of F(r) - 1/r from the Cauchy ring of the given radius."""
    ring = cauchy_derivs(lambda r: _smooth_dual(r, weight) - 1.0 / r, 0.0, radius, M - 1)
    return ring.real / np.array([math.factorial(k) for k in range(M)], dtype=float)


def c_w_coefficients(M: int,
                     weight: WeightFunction | None = None) -> list[tuple[float, float]]:
    """c_w1..c_wM, c_wm = (-1)^(m-1) g_(m-1) (module docstring), each with
    its change when the ring radius drops from 0.2 to 0.1 as its error."""
    if not 1 <= M <= 8:
        raise ValueError("order must be in 1..8")
    w = weight or make_gaussian_weight()
    g = _ring_taylor(M, w, 0.2)
    err = np.abs(g - _ring_taylor(M, w, 0.1))
    return [(float((-1) ** k * g[k]), float(err[k])) for k in range(M)]


def c_w1_closed(weight: WeightFunction | None = None) -> float:
    """First-order constant in closed form."""
    w = weight or make_gaussian_weight()
    ctx = default_context()
    return (2.0 * EULER_GAMMA + math.log(math.pi ** 2 / 2.0 ** (7.0 / 3.0))
            + 2.0 * ctx.zetaK_logderiv_2 - 8.0 / math.pi * ctx.gamma_K
            - w.mw_prime_1 / w.mw_1)


def J_first_order(X: float, test: TestFunction,
                  weight: WeightFunction | None = None,
                  ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                  ) -> float:
    """phi_hat(1) c_w1/L, J(X)'s first-order term and ratios_first_order's
    phi_hat(1) term, so any finite X > 1, as DensityConfig admits."""
    if not 1.0 < X < math.inf:
        raise ValueError("J_first_order needs finite X > 1")
    return float(test.phi_hat(1.0)) * c_w1_closed(weight) / math.log(X)


# --- even-sum coefficients d_m ------------------------------------------------------

def _g_taylor(M: int, cutoff: int, radius: float) -> np.ndarray:
    """Taylor coefficients g_0..g_(M-1) of G at r = 0 (module docstring),
    with A_alpha's odd prime sum cut at norm cutoff.

    The smooth part 2 zeta_K'/zeta_K(1+2r) + 1/r + 2 a_alpha_outside goes
    on the Cauchy ring of the given radius; G's nearest singularity is at
    |r| = 1/2.  The prime sum 2 sum_N a_N sum_j N^-j e^(-2jr logN),
    a_N = logN/(N+1), is taken exactly: its r^k coefficient is
    2 sum_N a_N ((-2 logN)^k/k!) Li_(-k)(1/N), with
    Li_(-k)(z) = P_k(z)/(1-z)^(k+1), P_0 = z and
    P_(k+1) = z (P_k' (1-z) + (k+1) P_k).
    """
    fact = np.array([math.factorial(k) for k in range(M)], dtype=float)
    ring = cauchy_derivs(lambda r: 2.0 * zeta_K_log_deriv(1.0 + 2.0 * r) + 1.0 / r
                         + 2.0 * a_alpha_outside(r, cutoff), 0.0, radius, M - 1)
    norms = zint.prime_norms_up_to(cutoff).astype(float)
    ln, z = np.log(norms), 1.0 / norms
    term = 2.0 * ln / (norms + 1.0)
    p = np.array([0.0, 1.0])              # P_0, lowest order first
    out = ring.real / fact
    for k in range(M):
        out[k] += np.sum(term * npoly.polyval(z, p) / (1.0 - z) ** (k + 1)) / fact[k]
        term = term * (-2.0 * ln)
        p = npoly.polymulx(npoly.polyadd(npoly.polymul(npoly.polyder(p), [1.0, -1.0]),
                                         (k + 1) * p))
    return out


def d_coefficients(M: int) -> list[tuple[float, float]]:
    """d_1..d_M, d_m = (-1)^(m-1) g_(m-1) (module docstring), each with an
    error from refinement: its change when the prime cutoff drops tenfold
    plus its change when the ring radius drops from 0.2 to 0.15."""
    if not 1 <= M <= 6:
        raise ValueError("order must be in 1..6")
    g = _g_taylor(M, _EULER_CUTOFF, 0.2)
    err = (np.abs(g - _g_taylor(M, _EULER_CUTOFF // 10, 0.2))
           + np.abs(g - _g_taylor(M, _EULER_CUTOFF, 0.15)))
    return [(float((-1) ** k * g[k]), float(err[k])) for k in range(M)]


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
    r_w = []
    for m in range(1, M + 1):
        p0 = test.phi_hat_deriv(0.0, m - 1)
        p1 = test.phi_hat_deriv(1.0, m - 1)
        if m == 1:
            r = (p0 * (_LOG_32_PI2 + 2.0 * _PSI_HALF + w.mean_log + ds[0][0])
                 + cs[0][0] * p1)
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
