"""Shared numerical helpers: panel quadrature, phase sums on the panel
grid by non-uniform FFT, Chebyshev table fills, table interpolation,
BLAS-free dot products, alternating-series acceleration.

Nothing here knows about number fields; keep it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def read_only(*arrays):
    """Mark arrays read-only, so a caller that writes into memoized data
    fails loudly; returns the one array, or the tuple of them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_k a_k b_k outside BLAS: a threaded BLAS dot splits long vectors by
    its thread count, so its rounding would depend on that setting."""
    return float(np.einsum("i,i->", a, b))


@lru_cache(maxsize=16)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return read_only(*np.polynomial.legendre.leggauss(n))


def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_nodes(a: float, b: float, h: float, n: int = 12,
                breaks: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """GL-n panels of width <= h covering [a, b], split at interior breaks.

    Panel layout depends only on (a, b, h, n, breaks), so repeated runs
    reduce in identical order.
    """
    edges = [a]
    for c in sorted(set(breaks)):
        if a < c < b:
            edges.append(c)
    edges.append(b)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m, step = panel_layout(lo, hi, h)
        for k in range(m):
            x, w = gl_nodes(lo + k * step, lo + (k + 1) * step, n)
            xs.append(x)
            ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def panel_layout(a: float, b: float, h: float) -> tuple[int, float]:
    """(m, step): panel_nodes covers [a, b] (no breaks) with m panels of
    width step <= h; panel k starts at a + k * step."""
    m = max(1, math.ceil((b - a) / h))
    return m, (b - a) / m


_NUFFT_OVERSAMPLE = 3   # spread grid points per panel
_NUFFT_HALF_WIDTH = 12  # Gaussian taps each side of a source: 2e-14 cut
_NUFFT_CHUNK = 8192     # sources x columns per spread chunk: bounds its arrays


def phase_sum(T: float, h: float, mu: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n weights_n exp(-i t mu_n) at every node t of the [0, T] GL-12
    panel grid, in panel_nodes order.

    weights is a vector, or an (n, c) matrix whose c columns are summed
    against the same sources; the result is (n_nodes,) or (n_nodes, c).
    Node j of panel k sits at t = k step + c_j, so for each offset c_j the
    sum over k is a type-1 non-uniform FFT with sources x_n = step mu_n
    (mod 2 pi) and strengths weights_n exp(-i c_j mu_n).  All 12 c of them
    share one Gaussian spread (Greengard & Lee, SIAM Rev. 46, 2004) onto a
    periodic grid _NUFFT_OVERSAMPLE times the panel count, one FFT down
    the (grid, 12 c) array and the closed-form deconvolution
    sqrt(pi/tau) exp(kappa^2 tau).  Modes are centred on panel k0 = m//2,
    whose phase the strengths carry, so |kappa| <= m/2.
    """
    w = np.asarray(weights, dtype=float)
    c = w.shape[1] if w.ndim == 2 else 1
    m, step = panel_layout(0.0, float(T), float(h))
    offsets, _ = gl_nodes(0.0, step, 12)
    k0 = m // 2
    grid = _NUFFT_OVERSAMPLE * m
    # balances the Gaussian's cut past w = _NUFFT_HALF_WIDTH grid points,
    # exp(-pi w (1 - 1/2R)), against aliasing of the outermost mode,
    # exp(-pi w (R - 1)/(R - 1/2)): 2e-14 and 8e-14 at R = 3, w = 12
    tau = math.pi * _NUFFT_HALF_WIDTH / (grid * (grid - 0.5 * m))
    # the spread is a temporary, freed as soon as the FFT returns
    modes = np.fft.fft(_gaussian_spread(np.asarray(mu, dtype=float), w.reshape(-1, c),
                                        step, k0 * step + offsets, grid, tau), axis=0)
    kappa = np.arange(m) - k0
    deconv = math.sqrt(math.pi / tau) / grid * np.exp(kappa * kappa * tau)
    out = (modes[kappa % grid] * deconv[:, None]).reshape(12 * m, c)
    return out.reshape(12 * m) if w.ndim == 1 else out


def _gaussian_spread(mu, w, step: float, phase0, grid: int, tau: float) -> np.ndarray:
    """The strengths w_n exp(-i phase0 mu_n), one column per phase0 entry
    and column of w, spread by the Gaussian exp(-d^2/4 tau) onto the
    periodic grid at x_n = step mu_n: a (grid, len(phase0) c) array.  Each
    float column is one bincount over the sources' tap rows, so memory
    stays at the spread and one chunk of sources."""
    hg = 2.0 * math.pi / grid
    taps = np.arange(1 - _NUFFT_HALF_WIDTH, _NUFFT_HALF_WIDTH + 1)
    chunk = max(1, _NUFFT_CHUNK // w.shape[1])
    # re and im side by side: the taps are real
    spread = np.zeros((grid, 2 * phase0.size * w.shape[1]))
    for n0 in range(0, mu.size, chunk):
        mu_c = mu[n0:n0 + chunk]
        phase = np.exp(-1j * np.multiply.outer(mu_c, phase0))
        strength = (phase[:, :, None] * w[n0:n0 + chunk, None, :]).reshape(mu_c.size, -1)
        x = step * mu_c
        near = np.floor(x / hg).astype(np.int64)[:, None] + taps
        kern = np.exp(-(near * hg - x[:, None]) ** 2 / (4.0 * tau))
        rows = (near % grid).ravel()
        for q, col in enumerate(strength.view(float).T):
            spread[:, q] += np.bincount(rows, (kern * col[:, None]).ravel(), grid)
    return spread.view(complex)


def chebyshev_fill(f, x0: float, x1: float, n: int,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, coefficients) of the degree n - 1 Chebyshev interpolant of f
    at the n Chebyshev-Lobatto points of [x0, x1]: its values on the uniform
    size-point grid over [x0, x1] and its Chebyshev coefficients.

    f is called once, on the n points.  The coefficients are one real FFT of
    the evenly extended samples (a DCT-I; a cosine matrix would lose ~1e-14
    to the rounding of k theta_j), and Clenshaw's recurrence sums them on
    the grid, so no (size, n) array is formed.  For f entire on [x0, x1]
    the coefficients decay faster than geometrically, and n only needs to
    reach their rounding floor (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 8 and 19).
    """
    theta = np.pi * np.arange(n) / (n - 1)
    fx = np.asarray(f(x0 + 0.5 * (x1 - x0) * (1.0 + np.cos(theta))), dtype=float)
    coefs = np.fft.rfft(np.concatenate([fx, fx[-2:0:-1]])).real / (n - 1)
    coefs[[0, -1]] *= 0.5
    return np.polynomial.chebyshev.chebval(np.linspace(-1.0, 1.0, size), coefs), coefs


@dataclass(frozen=True)
class CubicTable:
    """Cubic Lagrange interpolation on a uniform grid over [x0, x1].

    Values outside [x0, x1] are 0 (no extrapolation).  Interval i of the
    grid reads the cubic through values i-1 .. i+2 (the end intervals read
    the first and last such cubic), kept as power-basis coefficients in the
    offset t from node i and summed by Horner's rule.
    """

    x0: float
    x1: float
    values: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        inside = (x >= self.x0) & (x <= self.x1)
        if inside.all():
            out = self._eval(x)
        else:
            out = np.zeros(x.shape)
            out[inside] = self._eval(x[inside])
        return float(out[0]) if scalar else out

    @cached_property
    def _coefs(self) -> tuple[np.ndarray, ...]:
        """c0..c3 of the cubic through v[i-1..i+2] at t = -1, 0, 1, 2, for
        i = 1 .. n-3 (entry i-1)."""
        v = self.values
        v0, v1, v2, v3 = v[:-3], v[1:-2], v[2:-1], v[3:]
        return read_only(v1, v2 - 0.5 * v1 - v0 / 3.0 - v3 / 6.0,
                         0.5 * (v0 + v2) - v1, (v3 - v0) / 6.0 + 0.5 * (v1 - v2))

    def _eval(self, x: np.ndarray) -> np.ndarray:
        n = self.values.size
        u = (x - self.x0) * ((n - 1) / (self.x1 - self.x0))
        i = np.clip(u, 1.0, n - 3.0).astype(np.int64)
        t = u - i
        i -= 1
        c0, c1, c2, c3 = (c[i] for c in self._coefs)
        return ((c3 * t + c2) * t + c1) * t + c0


def alternating_sum(a) -> float:
    """Sum_{k>=0} (-1)^k a(k) accelerated (Cohen-Villegas-Zagier).

    Error ~ 5.83^-n for coefficient sequences that are moments of a (signed)
    measure on [0, 1]; n = 40 terms is far past double precision for our series.
    """
    n = 40
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * a(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def cauchy_derivs(f, center: complex, radius: float, mmax: int) -> np.ndarray:
    """f^(m)(center) for m = 0..mmax of an analytic f, by FFT on a circle
    through 64 nodes.

    f must accept a complex ndarray.  Accuracy degrades once radius nears
    the distance to f's closest singularity; callers pick radius with slack.
    """
    nodes = 64
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * th)
    coeffs = np.fft.fft(np.asarray(f(center + ring), dtype=complex)) / nodes
    m = np.arange(mmax + 1)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    return coeffs[: mmax + 1] * fact / radius ** m
