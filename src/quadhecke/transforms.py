"""Test-function pair (phi, w) and every transform the density formulas use.

phi comes in two kinds: fejer (phi_hat a triangle of support sigma, phi a
squared sinc, cheap and closed-form) and bump (phi_hat a C^inf bump, phi by
cached inverse-Fourier quadrature).  w is the gaussian exp(-pi x^2) with
closed-form Mellin data.

The 2-D radial transform is
    w~(t) = 2 pi int_0^inf w(r^2) J0(2 pi t r) r dr,
the Fourier transform over Z[i] of w(N(x+iy)) evaluated radially, with J0
from scipy.special.j0 (through bessel_j0).  Derived
kernels: g(y) = w~(sqrt2 y), g1(y) = g~(sqrt y) with g~ the same transform
applied to g.  Both w~ and g~ are functions of t^2, so the interpolation
tables are uniform in v = t^2, which keeps them accurate at 0 without a
geometric mesh.  Empirically |w~(t)| < 1e-13 past t = 10 and |g~(t)| < 1e-13
past t = 10.6 for the gaussian weight; tables stop there and clamp to 0.
Both transforms are entire functions of v, so each quadrature rule runs at
160 Chebyshev points in v only, and the interpolant fills the table grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0 as _j0
from scipy.special import loggamma as _loggamma

from . import specfun, zint
from ._numerics import (CubicTable, cauchy_derivs, chebyshev_fill, gl_nodes, panel_nodes,
                        read_only)

M_MAX = 8


# --- Bessel J0 -------------------------------------------------------------------

def bessel_j0(x):
    """J0 on real arrays (scipy.special.j0); every J0 call in the package
    goes through this name."""
    return _j0(x)


# --- test functions --------------------------------------------------------------

@dataclass
class TestFunction:
    """Even phi with compactly supported phi_hat; support radius sigma < 2."""

    kind: str
    sigma: float

    def phi_hat(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if self.kind == "fejer":
            out = np.maximum(0.0, 1.0 - u / self.sigma)
        else:
            out = np.zeros_like(u)
            inside = u < self.sigma
            s2 = (u[inside] / self.sigma) ** 2
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2))
        return float(out[0]) if scalar else out

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "fejer":
            out = self.sigma * np.sinc(self.sigma * x) ** 2
        else:
            # the panel rule resolves the phase 2 pi x u up to sigma|x| ~ 240;
            # past sigma|x| = 150 the true transform is below 2e-15 while the
            # unresolved sum would return node noise, so zero is the honest value
            un, uw = self._bump_nodes
            vals = np.exp(1.0 - 1.0 / (1.0 - (un / self.sigma) ** 2))
            wv = uw * vals
            out = np.zeros_like(x)
            live = self.sigma * np.abs(x) <= 150.0
            xl = x[live]
            acc = np.empty(xl.size)
            for i0 in range(0, xl.size, 4096):
                blk = xl[i0:i0 + 4096]
                acc[i0:i0 + 4096] = \
                    2.0 * np.cos(2.0 * math.pi * np.multiply.outer(blk, un)) @ wv
            out[live] = acc
        return float(out[0]) if scalar else out

    @functools.cached_property
    def _bump_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        # endpoint factors vanish to all orders, so plain GL panels suffice;
        # the count is set by the largest resolved phase, not by the integrand
        return read_only(*panel_nodes(0.0, self.sigma, self.sigma / 128.0, 12))

    def phi_hat_deriv0(self, m: int) -> float:
        """d^m/du^m phi_hat at u = 0+, m <= M_MAX (right-sided for fejer)."""
        if not 0 <= m <= M_MAX:
            raise ValueError("derivative order out of range")
        if self.kind == "fejer":
            return (1.0, -1.0 / self.sigma)[m] if m <= 1 else 0.0
        d = cauchy_derivs(self._bump_analytic, 0.0 + 0.0j, 0.45 * self.sigma, m)
        return float(np.real(d[m]))

    def phi_hat_deriv1(self, m: int) -> float:
        """d^m/du^m phi_hat at u = 1 (left-sided; 0 when sigma < 1)."""
        if not 0 <= m <= M_MAX:
            raise ValueError("derivative order out of range")
        if self.sigma < 1.0:
            return 0.0
        if self.kind == "fejer":
            if m == 0:
                return 1.0 - 1.0 / self.sigma
            return -1.0 / self.sigma if m == 1 else 0.0
        if self.sigma == 1.0:
            return 0.0
        r = 0.45 * min(self.sigma - 1.0, 1.0)
        d = cauchy_derivs(self._bump_analytic, 1.0 + 0.0j, r, m)
        return float(np.real(d[m]))

    def _bump_analytic(self, z):
        return np.exp(1.0 - 1.0 / (1.0 - (z / self.sigma) ** 2))

    def phi_hat_tail_integral(self) -> float:
        """int_1^inf phi_hat(u) du."""
        if self.sigma <= 1.0:
            return 0.0
        if self.kind == "fejer":
            return (self.sigma - 1.0) ** 2 / (2.0 * self.sigma)
        # dedicated panels: the cut at u = 1 is not a node boundary of the
        # shared phi rule, and a straddled panel costs ~2e-4
        un, uw = panel_nodes(1.0, self.sigma, (self.sigma - 1.0) / 16.0, 12)
        vals = np.exp(1.0 - 1.0 / (1.0 - (un / self.sigma) ** 2))
        return float(np.dot(uw, vals))


def make_fejer(sigma: float) -> TestFunction:
    if not 0.0 < sigma < 2.0:
        raise ValueError("fejer support radius must lie in (0, 2)")
    return TestFunction("fejer", float(sigma))


def make_bump(sigma: float) -> TestFunction:
    if not 0.0 < sigma < 2.0:
        raise ValueError("bump support radius must lie in (0, 2)")
    return TestFunction("bump", float(sigma))


# --- gaussian weight -------------------------------------------------------------

_WT_VMAX = 110.0    # v = t^2; |w~| < 1e-13 past t = 10
_GT_VMAX = 112.0    # |g~| < 1e-13 past t = 10.6
_G_RMAX = 2.72      # g(r^2) support for the nested transform
_R_SUPPORT = 2.2    # w(r^2) = exp(-pi r^4) < 2e-32 beyond
# Chebyshev samples in v per table: both rules' coefficients fall from 1 to
# 3e-12 (w~) and 1e-9 (g~) of the largest by k = 60-69 and reach their
# rounding floor, about 1e-16 absolute, by k = 80; n = 160 doubles that
_CHEB_SAMPLES = 160


class WeightFunction:
    """Gaussian weight w(x) = exp(-pi x^2) and its transform tables.

    Weights compare and hash on `name`, so caches key on the weight's value.
    """

    name = "gaussian"
    w_hat0 = 1.0

    def __eq__(self, other):
        return isinstance(other, WeightFunction) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    @staticmethod
    def w(x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-math.pi * x * x)
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def Mw(s):
        """Mellin transform Gamma(s/2) / (2 pi^{s/2}), Re s > 0."""
        s = np.asarray(s, dtype=complex)
        out = 0.5 * np.exp(_loggamma(0.5 * s) - 0.5 * s * math.log(math.pi))
        return complex(out) if out.ndim == 0 else out

    # Mw'(1), also the log moment int_0^inf w log x dx
    mw_prime_1 = -0.25 * (specfun.EULER_GAMMA + math.log(4.0 * math.pi))

    def w_tilde(self, t, refine: int = 1):
        """2 pi int_0^inf w(r^2) J0(2 pi t r) r dr, vectorized over t.

        Panel width tracks the fastest oscillation in the batch; refine=2
        halves it (the grid-refinement oracle).
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        tmax = float(np.max(np.abs(t))) if t.size else 0.0
        h = 1.0 / ((2.0 * tmax + 6.0) * refine)
        r, wq = panel_nodes(0.0, _R_SUPPORT, h, 12)
        prof = wq * np.exp(-math.pi * r ** 4) * r
        out = np.empty(t.shape)
        for i0 in range(0, t.size, 1024):
            tc = t[i0:i0 + 1024]
            out[i0:i0 + 1024] = bessel_j0(
                2.0 * math.pi * np.multiply.outer(tc, r)) @ prof
        out *= 2.0 * math.pi
        return float(out[0]) if scalar else out

    # -- tables --

    @functools.cached_property
    def _wt_table(self) -> CubicTable:
        vals, _ = chebyshev_fill(self._wt_rule, 0.0, _WT_VMAX, _CHEB_SAMPLES, 11001)
        return CubicTable(0.0, _WT_VMAX, read_only(vals))

    @functools.cached_property
    def _gt_table(self) -> CubicTable:
        vals, _ = chebyshev_fill(self._gt_rule, 0.0, _GT_VMAX, _CHEB_SAMPLES, 11201)
        return CubicTable(0.0, _GT_VMAX, read_only(vals))

    def _wt_rule(self, v):
        """w~(sqrt v) by the w_tilde rule."""
        return self.w_tilde(np.sqrt(v))

    def _gt_rule(self, v):
        """g~(sqrt v) by the nested rule: 2 pi int g(r^2) J0(2 pi sqrt(v) r) r dr
        on GL-12 panels over [0, _G_RMAX], g(r^2) = w~(sqrt2 r^2) read from
        the w~ table."""
        h = 1.0 / (2.0 * math.sqrt(_GT_VMAX) + 6.0)
        r, wq = panel_nodes(0.0, _G_RMAX, h, 12)
        prof = wq * self._wt_table(2.0 * r ** 4) * r
        t = np.sqrt(np.asarray(v, dtype=float))
        return 2.0 * math.pi * (bessel_j0(2.0 * math.pi * np.multiply.outer(t, r)) @ prof)

    def g(self, y):
        """g(y) = w~(sqrt2 y); table-backed, 0 past the decay cutoff."""
        y = np.asarray(y, dtype=float)
        return self._wt_table(2.0 * y * y)

    def g1(self, y):
        """g1(y) = g~(sqrt y); table-backed, 0 past the decay cutoff."""
        y = np.asarray(y, dtype=float)
        return self._gt_table(np.abs(y))

    @property
    def g0(self) -> float:
        return 0.5 * math.pi * self.w_hat0      # w~(0)

    @property
    def g_tilde0(self) -> float:
        return float(self._gt_table(0.0))


@functools.cache
def make_gaussian_weight() -> WeightFunction:
    """Shared instance; transform tables are built once per process."""
    return WeightFunction()


# --- numerical Mellin transform ----------------------------------------------------

_MELLIN_TOL = 1e-11
_MELLIN_OCTAVES = 60


def mellin_num(f, s: complex) -> complex:
    """int_0^inf f(t) t^s dt/t by octave panels around t = 1.

    Caller asserts convergence at s (Re s > 0 and f decaying); raises
    RuntimeError when no octave sum within 60 falls below 1e-11 relative.
    """
    s = complex(s)
    total = 0.0 + 0.0j

    def octave(a: float, b: float) -> complex:
        x, wq = gl_nodes(a, b, 24)
        return complex(np.sum(wq * np.asarray(f(x), dtype=complex)
                              * np.exp((s - 1.0) * np.log(x))))

    for k in range(_MELLIN_OCTAVES):
        c = octave(2.0 ** (-k - 1), 2.0 ** (-k))
        total += c
        if abs(c) < _MELLIN_TOL * max(1.0, abs(total)) and k >= 4:
            break
    else:
        raise RuntimeError("mellin_num: no convergence at 0")
    for k in range(_MELLIN_OCTAVES):
        c = octave(2.0 ** k, 2.0 ** (k + 1))
        total += c
        if abs(c) < _MELLIN_TOL * max(1.0, abs(total)) and k >= 4:
            break
    else:
        raise RuntimeError("mellin_num: no convergence at infinity")
    return total


# --- Mellin identity check ---------------------------------------------------------

def mellin_identity_check(w: WeightFunction, z: complex) -> float:
    """|zeta_K(z+1) M g1(z+1) - lattice-sum continuation| at z.

    The left side integrates the nested-transform kernel g1 directly; the
    right side rebuilds the same analytic object from lattice sums of g and
    g~ over [1, inf) plus the two rational terms, so the residual measures
    the internal consistency of the whole transform chain.  Needs Re z > -1
    (direct integral) and z away from 0, -1.
    """
    z = complex(z)
    if abs(z) < 1e-9 or abs(z + 1.0) < 1e-9:
        raise ValueError("identity check undefined at z = 0, -1")
    if z.real <= -1.0:
        raise ValueError("direct route needs Re z > -1")
    lhs = specfun.zeta_K(z + 1.0) * mellin_num(w.g1, z + 1.0)

    counts = zint.lattice_norm_counts(128)
    ns = np.nonzero(counts[1:])[0] + 1.0
    rs = counts[ns.astype(int)].astype(float)

    x1, q1 = panel_nodes(1.0, 8.0, 0.25, 12)
    gsum = (np.asarray(w.g(np.multiply.outer(x1, ns))) * rs).sum(axis=1)
    i1 = np.sum(q1 * gsum * np.exp((-z - 1.0) * np.log(x1)))

    x2, q2 = panel_nodes(1.0, 113.0, 0.5, 12)
    gtsum = (w._gt_table(np.multiply.outer(x2, ns)) * rs).sum(axis=1)
    i2 = np.sum(q2 * gtsum * np.exp(z * np.log(x2)))

    rhs = (w.g0 / z - w.g_tilde0 / (z + 1.0) + i1 + i2) / 4.0
    return abs(complex(lhs) - complex(rhs))


# --- CLI spec strings --------------------------------------------------------------

def parse_test_function(spec: str) -> TestFunction:
    """`fejer:1.5` or `bump:1.2`."""
    kind, _, rest = spec.partition(":")
    if kind not in ("fejer", "bump") or not rest:
        raise ValueError(f"bad test-function spec {spec!r}")
    sigma = float(rest)
    return make_fejer(sigma) if kind == "fejer" else make_bump(sigma)


def parse_weight(spec: str) -> WeightFunction:
    if spec != "gaussian":
        raise ValueError(f"bad weight spec {spec!r}")
    return make_gaussian_weight()
