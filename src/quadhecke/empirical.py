"""One-level density by the explicit formula, summed over the actual family.

D(phi; w, X) assembles five pieces: the family mean of log(32 N(c)/pi^2)
off the weight by norm (the ratios route's conductor average), psi(1/2),
the digamma integral, and the prime sums split by parity of the power j.
The prime sums are exact finite sums (phi_hat's compact support truncates
them); the only approximations anywhere are the weight tail beyond
N(c) > R X and quadrature in the integral term.

The family runs over all four unit multiples of each primary squarefree c0,
since chi_{i(1+i)^5 c} genuinely depends on the unit.  Summing a symbol over
the four associates gives 2(1 + (i/varpi)), which kills split primes with
p = 5 mod 8 in the odd-power sums and leaves a factor 4 elsewhere; odd sums
therefore loop over rational p = 1 mod 8 (handling conjugate primes
together through Legendre symbols at a fixed square root of -1 mod p) plus
inert q.  Every odd j shares one family sum of symbols per prime.  Primes
up to the family norm bound R X take that sum prime by prime, reading the
family in rows of fixed Im c off contiguous windows of the Legendre table
mod p.  Larger primes divide no member, and reciprocity (c/varpi) =
(varpi/c) turns their symbols into products over the prime factors of c,
summed member by member as rows of packed sign bits (members.py).  Even j
need only which members a prime divides, and for a squarefree c that is
a function of N(c): [varpi | c] + [conj(varpi) | c] = v_p(N(c)) for a
split p and [q | c] = [q^2 | N(c)] for an inert q, so each divisor sum is
a strided sum over the multiples of p and p^2 (or q^2) in the family's
weight by norm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import zint
from ._numerics import _run_jobs, dot, panel_nodes, phase_sum, read_only
from .members import _member_sums
from .specfun import _PSI_HALF, log_conductor
from .transforms import TestFunction, WeightFunction


@dataclass
class DensityConfig:
    X: float
    test: TestFunction
    weight: WeightFunction
    R: float = 4.0
    threads: int = 1

    def __post_init__(self):
        if not self.X > 1.0:
            raise ValueError("X must exceed 1")
        if not (math.isfinite(self.R) and self.R * self.X >= 1.0):
            # the family runs over N(c) <= R X; below 1 it is empty
            raise ValueError(f"R must be finite with R X >= 1, got R = {self.R}")
        if type(self.threads) is not int or self.threads < 1:
            raise ValueError(f"threads must be an int >= 1, got {self.threads!r}")
        if self.prime_cutoff >= 2 ** 31:
            # the prime sieve takes one byte per integer up to the cutoff
            raise ValueError(f"prime cutoff X^sigma = {self.prime_cutoff:.4g} "
                             "must stay below 2^31")

    @property
    def L(self) -> float:
        return math.log(self.X)

    @property
    def prime_cutoff(self) -> float:
        return self.X ** self.test.sigma


@dataclass
class DensityReport:
    X: float
    sigma: float
    W_X: float
    term_log_conductor: float
    term_gamma_const: float
    term_integral: float
    S_even: float
    S_odd: float
    D_total: float
    family_size: int
    primes_odd: int
    primes_even: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Family:
    re: np.ndarray
    im: np.ndarray
    norm: np.ndarray
    w0: np.ndarray          # weight of one associate; each c0 stands for 4
    W: float                # total family weight, all associates
    # s_odd's test-function-free family sum per rational prime on the prime
    # side: split p = 1 mod 8 up to R X and inert q, see s_odd
    prime_sums: dict[int, float] = field(default_factory=dict, repr=False)
    # ratios_density's dual phase sum on one [0, T] panel grid: ((T, h), sums)
    dual_sums: tuple = field(default=(), repr=False)

    @property
    def size(self) -> int:
        return 4 * self.re.size

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid, b, a0), grid[r, k] = w0(c) at c = a0_r + 4k + b[0, r] i (primary:
        a = 1 - b mod 4), 0 off the family.  Rows b >= 0 stand also for their
        conjugates b[1] = -b[0]; grid[0], the real axis, holds half its weight."""
        a_lo, b_lo = int(self.re.min()), int(self.im.min())
        grid = np.zeros((1 - b_lo, int(self.re.max() - a_lo) // 4 + 1))
        grid[(self.im - b_lo) // 2, (self.re - a_lo) // 4] = self.w0
        if not np.array_equal(grid, grid[::-1]):
            raise AssertionError("family not closed under conjugation")
        grid = grid[-b_lo // 2:].copy()
        grid[0] *= 0.5
        b = np.arange(0, 1 - b_lo, 2)
        return read_only(grid), np.stack((b, -b)), a_lo + (1 - b - a_lo) % 4

    @cached_property
    def by_norm(self) -> tuple[np.ndarray, np.ndarray]:
        """(w4, occupied): w4[j] = sum of w0(c) over the members with
        N(c) = 4j + 1, and whether any member has that norm, so a norm whose
        weight underflows to 0 is still occupied."""
        if np.any(self.norm & 3 != 1):
            raise ValueError("a primary squarefree norm is 1 mod 4")
        j = self.norm >> 2
        occupied = np.zeros(j.max() + 1, dtype=bool)
        occupied[j] = True
        return read_only(np.bincount(j, weights=self.w0), occupied)

    @cached_property
    def conductors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The conductor view both routes read: (mu, share, m1), the
        log-conductor at each distinct norm, its folded weight 4 sum w0 over
        W, and their mean."""
        w4, occupied = self.by_norm
        j = np.flatnonzero(occupied)
        wn = 4.0 * w4[j]
        mu = log_conductor(4 * j + 1)
        m1 = math.fsum(wn * mu) / self.W
        return *read_only(mu, wn / self.W), m1

    def dual_phase_sum(self, T: float, h: float) -> np.ndarray:
        """sum over the distinct norms of share exp(-i t mu) at every node of
        the [0, T] GL-12 panel grid of width h (_numerics.phase_sum over
        conductors), read-only.  It depends on the family and the grid
        alone, so it is kept for the exact (T, h) of the last call: a later
        call on that grid, at any test function, computes nothing, and a
        call on another grid replaces it, so the family holds one grid."""
        key = (float(T), float(h))
        if not self.dual_sums or self.dual_sums[0] != key:
            mu, share, _ = self.conductors
            self.dual_sums = key, read_only(phase_sum(*key, mu, share))
        return self.dual_sums[1]


def _family(cfg: DensityConfig) -> _Family:
    """The family of cfg, built once per (X, R, weight): the fields that
    select it.  Its w0 and rows grid are read-only."""
    return _family_of(cfg.X, cfg.R, cfg.weight)


@lru_cache(maxsize=2)
def _family_of(X: float, R: float, weight: WeightFunction) -> _Family:
    re, im, norm = zint.primary_squarefree_arrays(int(R * X))
    w0 = read_only(weight.w(norm.astype(float) / X))
    return _Family(re, im, norm, w0, 4.0 * float(math.fsum(w0)))


# --- elementary terms -------------------------------------------------------------

def digamma_integral_term(test: TestFunction, L: float, refine: int = 1) -> float:
    """(2/L) int_0^inf e^{-t/2}/(1-e^{-t}) (phi_hat(0) - phi_hat(t/L)) dt."""
    if L <= 0.0:
        raise ValueError("L must be positive")
    p0 = test.phi_hat(0.0)
    top = max(test.sigma * L + 5.0, 60.0)
    t, q = panel_nodes(1e-12, top, 0.5 / refine, 12, breaks=(test.sigma * L,))
    kern = np.exp(-t / 2.0) / (-np.expm1(-t))
    val = float(np.dot(q, kern * (p0 - test.phi_hat(t / L))))
    # beyond top the phi_hat difference is constant p0
    val += 2.0 * p0 * math.exp(-top / 2.0)
    return 2.0 * val / L


# --- prime sums -------------------------------------------------------------------

def _sj_coefs(norms: np.ndarray, L: float, test: TestFunction,
              first_j: int) -> np.ndarray:
    """sum over j = first_j, first_j+2, ... of logN N^{-j/2} phi_hat(j logN / L)."""
    norms = np.asarray(norms, dtype=float)
    ln = np.log(norms)
    out = np.zeros_like(ln)
    j = first_j
    while True:
        mask = j * ln < test.sigma * L
        if not mask.any():
            break
        u = j * ln[mask] / L
        out[mask] += ln[mask] * norms[mask] ** (-0.5 * j) * test.phi_hat(u)
        j += 2
    return out


def _row_sum(rows, table: np.ndarray, s: int) -> float:
    """sum_c w0(c) table[(a + b s) / 4 mod q] over the members c = a + bi in
    the rows of fam.rows and their conjugates, for a table mod q: row b
    reads the repeated table's window at (a0 + b s) / 4, as a = a0 + 4k."""
    grid, b, a0 = rows
    q, K = table.size, grid.shape[1]
    c = (a0 + s * b % q) * pow(4, -1, q) % q
    tiled = np.resize(table, q + K)
    windows = np.ndarray((q, K), tiled.dtype, tiled, strides=tiled.strides * 2)
    lo, hi = windows[c]
    return dot(grid.ravel(), (lo + hi).ravel())


def s_odd(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Odd-j prime-power aggregate and the count of primes that survive.

    Each split p = 1 mod 8 enters through T_p = sum_c w0 (c/varpi_p), varpi_p
    the primary prime above p with i -> s_p, and each inert q through the
    family sum of (N(c)/q), taken over the norms in fam.by_norm.  Primes
    up to the family norm bound read T_p off windows of the Legendre table
    mod p along the rows of fam.rows, see _row_sum.  Larger p divide no
    member, so those T_p are summed member by member through reciprocity,
    see _member_sums.  The prime side's sums depend on the family alone:
    they are kept in fam.prime_sums, so a later call on the same family, at
    any test function, computes only the primes it does not yet hold.
    """
    fam = fam or _family(cfg)
    L = cfg.L
    cut = int(cfg.prime_cutoff)
    bound = int(cfg.R * cfg.X)

    # p = 1 mod 8 with the primary prime varpi = A + Bi above it, i -> S
    P = zint._sieve(cut)
    P = P[P % 8 == 1]
    S, A, B = zint.primes_above(P)
    # the twist symbols at varpi and its conjugate, ((1 - s)/p) and
    # ((1 + s)/p), are equal: (1 - s)(1 + s) = 2 and (2/p) = 1 for p = 1 mod 8.
    # ((1 + s)/p) = ((1 + i)/varpi) = (-1)^((A + B - 1)/4), the supplement
    # law for 1 + i at the primary varpi
    f = 2.0 * (1 - 2 * (((A + B - 1) // 4) & 1))
    inert = [q for q in zint._sieve(math.isqrt(cut)).tolist() if q % 4 == 3]

    coefs_p = _sj_coefs(P.astype(float), L, cfg.test, 1)
    coefs_q = _sj_coefs(np.array(inert, dtype=float) ** 2, L, cfg.test, 1)
    g = coefs_p * 4.0 * f

    # prime side: every p <= bound and every inert q, each through its sum
    # in fam.prime_sums, filled here for the primes it lacks
    n_small = int(np.count_nonzero(P <= bound))
    keys = P[:n_small].tolist() + inert
    sums = fam.prime_sums
    todo = [k for k, p in enumerate(keys) if p not in sums]
    new = np.zeros(len(todo))
    rows = fam.rows
    if any(k >= n_small for k in todo):
        w4, occupied = fam.by_norm
        j = np.flatnonzero(occupied)
        w_occ, norms = w4[j], 4 * j + 1

    def worker(i0: int, i1: int) -> None:
        for j in range(i0, i1):
            k = todo[j]
            table = zint.legendre_table(keys[k])
            if k < n_small:
                new[j] = _row_sum(rows, table, int(S[k]))
            else:
                q = keys[k]
                new[j] = table[32 % q] * dot(w_occ, table[norms % q])

    _run_jobs(len(todo), worker, cfg.threads)
    sums.update(zip((keys[k] for k in todo), new.tolist()))
    contrib = np.concatenate((g[:n_small], coefs_q * 4.0)) \
        * np.array([sums[p] for p in keys])
    parts = [contrib]
    if n_small < P.size:
        parts.append(_member_sums(fam, bound, P[n_small:], A[n_small:], B[n_small:],
                                  g[n_small:], cfg.threads))
    total = -2.0 / (L * fam.W) * math.fsum(np.concatenate(parts))
    return total, P.size + len(inert)


def s_even(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Even-j aggregate: (W - 4 sum_{varpi | c0} w0) per prime ideal.

    For squarefree c, [varpi | c] + [conj(varpi) | c] = v_p(N(c)) at a split
    p and [q | c] = [q^2 | N(c)] at an inert q, so the divisor sums read the
    family's weight by norm, w4[j] at N = 4j + 1 (fam.by_norm): the norms
    divisible by an n = 1 mod 4 are n (1 + 4k), at j = (n - 1)/4 + n k.  The
    two primes above p share one sum, half the strided sums at p and p^2.
    """
    fam = fam or _family(cfg)
    bound = int(cfg.prime_cutoff ** 0.5)
    ps = zint._sieve(bound)
    split = ps[ps % 4 == 1]
    inert = ps[(ps % 4 == 3) & (ps * ps <= bound)]
    if not split.size + inert.size:
        return 0.0, 0
    P = np.concatenate((split, inert))
    coefs = _sj_coefs(np.concatenate((split, inert * inert)).astype(float), cfg.L,
                      cfg.test, 2)
    w4 = fam.by_norm[0]

    def over(n: int) -> float:
        """sum of w0(c) over the members with n | N(c), for n = 1 mod 4"""
        return w4[(n - 1) // 4::n].sum()

    contrib = np.zeros(P.size)
    for k in range(P.size):
        q = int(P[k])
        if k < split.size:      # varpi and its conjugate
            wdiv, n_ideals = 0.5 * (over(q) + over(q * q)), 2.0
        else:                   # inert q
            wdiv, n_ideals = over(q * q), 1.0
        contrib[k] = n_ideals * coefs[k] * (fam.W - 4.0 * wdiv)
    total = -2.0 / (cfg.L * fam.W) * math.fsum(contrib)
    return total, 2 * split.size + inert.size


def s_even_main_form(cfg: DensityConfig) -> float:
    """The c-independent form -(2/L) sum logN/N^j (1+1/N)^-1 phi_hat(2j logN/L)."""
    bound = int(cfg.prime_cutoff ** 0.5)
    if bound < 5:
        return 0.0
    norms = zint.prime_norms_up_to(bound).astype(float)
    coefs = _sj_coefs(norms, cfg.L, cfg.test, 2)
    return -2.0 * math.fsum(coefs / (1.0 + 1.0 / norms)) / cfg.L


# --- assembly ---------------------------------------------------------------------

def one_level_density(cfg: DensityConfig) -> DensityReport:
    fam = _family(cfg)
    L = cfg.L
    p0 = float(cfg.test.phi_hat(0.0))
    # booked as ratios_density's conductor_average and digamma_closed
    cond = fam.conductors[2] * p0 / L
    gconst = 2.0 * _PSI_HALF * p0 / L
    integ = digamma_integral_term(cfg.test, L)
    sev, n_even = s_even(cfg, fam)
    sod, n_odd = s_odd(cfg, fam)
    total = cond + gconst + integ + sev + sod
    return DensityReport(
        X=cfg.X, sigma=cfg.test.sigma, W_X=fam.W,
        term_log_conductor=cond, term_gamma_const=gconst, term_integral=integ,
        S_even=sev, S_odd=sod, D_total=total,
        family_size=fam.size, primes_odd=n_odd, primes_even=n_even)


# --- diagnostics ------------------------------------------------------------------

def poisson_pair(w: WeightFunction, X: float, n: zint.GInt | None = None):
    """(lhs, rhs) of the Poisson summation identity at scale X.

    n None: plain lattice form, sum_m W(N(m)/X) = X sum_k W~(sqrt(N(k) X)).
    n primary: twisted by the quadratic symbol mod n with Gauss-sum dual.
    """
    if n is None:
        cut = int(4.0 * X) + 2
        counts = zint.lattice_norm_counts(cut)
        ns = np.arange(cut + 1, dtype=float)
        lhs = float(np.dot(counts, w.w(ns / X)))
        kmax = int(90.0 / X) + 1
        kc = zint.lattice_norm_counts(kmax)
        rhs = X * float(np.dot(kc, w.w_tilde(np.sqrt(np.arange(kmax + 1) * X))))
        return lhs, rhs
    nn = n.norm()
    # (0/n) = 0, so m = 0 adds nothing on the left
    a, b, nm = zint.lattice_points(int(4.0 * X) + 2)
    chi = np.array([zint.quad_symbol(zint.GInt(x, y), n)
                    for x, y in zip(a.tolist(), b.tolist())], dtype=float)
    lhs = dot(chi, w.w(nm / X))
    a, b, nm = zint.lattice_points(int(90.0 * nn / X) + 1)
    gs = np.array([zint.gauss_sum(zint.GInt(x, y), n)
                   for x, y in zip(a.tolist(), b.tolist())])
    rhs = X / nn * complex(np.sum(gs * w.w_tilde(np.sqrt(nm * X / nn))))
    return lhs, rhs
