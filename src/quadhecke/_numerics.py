"""Shared numerical helpers: panel quadrature, table interpolation,
alternating-series acceleration.

Nothing here knows about number fields; keep it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def read_only(*arrays):
    """Mark arrays read-only, so a caller that writes into memoized data
    fails loudly; returns the one array, or the tuple of them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


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


@dataclass(frozen=True)
class CubicTable:
    """Cubic Lagrange interpolation on a uniform grid over [x0, x1].

    Values outside [x0, x1] are 0 (no extrapolation).
    """

    x0: float
    x1: float
    values: np.ndarray

    @staticmethod
    def build(f, x0: float, x1: float, n: int) -> "CubicTable":
        grid = np.linspace(x0, x1, n)
        return CubicTable(x0, x1, np.asarray(f(grid), dtype=float))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros(x.shape)
        inside = (x >= self.x0) & (x <= self.x1)
        if np.any(inside):
            out[inside] = self._eval(x[inside])
        return float(out[0]) if scalar else out

    def _eval(self, x: np.ndarray) -> np.ndarray:
        v = self.values
        n = v.size
        u = x - self.x0
        h = (self.x1 - self.x0) / (n - 1)
        # enclosing interval [i, i+1] with stencil {i-1, i, i+1, i+2}
        i = np.clip((u / h).astype(np.int64), 1, n - 3)
        t = u / h - i
        tm = t - 1.0
        tp = t + 1.0
        t2 = t - 2.0
        w0 = -t * tm * t2 / 6.0
        w1 = tp * tm * t2 / 2.0
        w2 = -t * tp * t2 / 2.0
        w3 = t * tp * tm / 6.0
        return w0 * v[i - 1] + w1 * v[i] + w2 * v[i + 1] + w3 * v[i + 2]


def alternating_sum(a, n: int = 40) -> float:
    """Sum_{k>=0} (-1)^k a(k) accelerated (Cohen-Villegas-Zagier).

    Error ~ 5.83^-n for coefficient sequences that are moments of a (signed)
    measure on [0, 1]; n=40 is far past double precision for our series.
    """
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


def cauchy_derivs(f, center: complex, radius: float, mmax: int,
                  nodes: int = 64) -> np.ndarray:
    """f^(m)(center) for m = 0..mmax of an analytic f, by FFT on a circle.

    f must accept a complex ndarray.  Accuracy degrades once radius nears
    the distance to f's closest singularity; callers pick radius with slack.
    """
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * th)
    coeffs = np.fft.fft(np.asarray(f(center + ring), dtype=complex)) / nodes
    m = np.arange(mmax + 1)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    return coeffs[: mmax + 1] * fact / radius ** m
