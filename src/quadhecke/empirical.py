"""One-level density by the explicit formula, summed over the actual family.

D(phi; w, X) assembles five pieces: the weighted log-conductor sum, the
closed-form Gamma constant, the digamma integral, and the prime sums split
by parity of the power j.  The prime sums are exact finite sums (phi_hat's
compact support truncates them); the only approximations anywhere are the
weight tail beyond N(c) > R X and quadrature in the integral term.

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
(varpi/c) turns their symbols into products of lookups in tables mod the
prime factors of c, summed member by member.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import zint
from ._numerics import dot, panel_nodes
from .specfun import _LOG_32_PI2, _PSI_HALF
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
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
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
        return grid, np.stack((b, -b)), a_lo + (1 - b - a_lo) % 4


def _family(cfg: DensityConfig) -> _Family:
    bound = int(cfg.R * cfg.X)
    re, im, norm = zint.primary_squarefree_arrays(bound)
    w0 = cfg.weight.w(norm.astype(float) / cfg.X)
    return _Family(re, im, norm, w0, 4.0 * float(math.fsum(w0)))


def total_weight(cfg: DensityConfig) -> float:
    return _family(cfg).W


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

def _sj_coefs(norms: np.ndarray, L: float, sigma: float, test: TestFunction,
              first_j: int) -> np.ndarray:
    """sum over j = first_j, first_j+2, ... of logN N^{-j/2} phi_hat(j logN / L)."""
    norms = np.asarray(norms, dtype=float)
    ln = np.log(norms)
    out = np.zeros_like(ln)
    j = first_j
    while True:
        mask = j * ln < sigma * L
        if not mask.any():
            break
        u = j * ln[mask] / L
        out[mask] += ln[mask] * norms[mask] ** (-0.5 * j) * test.phi_hat(u)
        j += 2
    return out


class _Pairs:
    """Legendre symbols ((x + y t)/p) over the primes x + yi of the member
    side, for many (t, p): y t is reduced mod p once per distinct y, and the
    table mod p is tiled over the range of x + (y t mod p), so no division
    runs per pair."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x_lo, self.y_lo = int(x.min()), int(y.min())
        self.x = x - self.x_lo
        self.y = y - self.y_lo
        self.x_span = int(self.x.max()) + 1
        self.y_vals = np.arange(self.y_lo, int(y.max()) + 1, dtype=np.int64)

    def tiled(self, table: np.ndarray) -> np.ndarray:
        """A Legendre table mod p repeated over the range x + (y t mod p) covers."""
        p = table.size
        reps = -(-(self.x_span + 2 * p) // p)
        lo = self.x_lo % p
        return np.tile(table, reps)[lo:lo + self.x_span + p]

    def symbols(self, tiled: np.ndarray, t: int, p: int) -> np.ndarray:
        """((x + y t)/p) read from tiled, the tiling of the table mod p."""
        return tiled[self.x + (self.y_vals * t % p)[self.y]]


class _KeyVectors:
    """The vector ((a + b t)/q), or (p/q) for t None, over primes p = a^2 + b^2
    for each key (q, t), with keys taken in q order: the Legendre table mod q
    and its tiling are built once per q, and only the current q's are kept."""

    def __init__(self, pairs: _Pairs, P: np.ndarray):
        self.pairs, self.P = pairs, P
        self.q = self.table = self.tiled = None

    def __call__(self, key: tuple[int, int | None]) -> np.ndarray:
        q, t = key
        if q != self.q:
            self.q, self.table, self.tiled = q, zint.legendre_table(q), None
        if t is None:
            return self.table[self.P % q]
        if self.tiled is None:
            self.tiled = self.pairs.tiled(self.table)
        return self.pairs.symbols(self.tiled, t, q)


def _by_q(key: tuple[int, int | None] | None) -> int:
    """Sort key putting member keys (q, t) in q order, None first."""
    return 0 if key is None else key[0]


def _run_jobs(n: int, worker, threads: int) -> None:
    if threads <= 1 or n < 8:
        worker(0, n)
        return
    step = -(-n // threads)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(worker, i, min(i + step, n)) for i in range(0, n, step)]
        for f in futs:
            f.result()


def _row_sum(rows, table: np.ndarray, s: int, on=slice(None)) -> float:
    """sum_c w0(c) table[(a + b s) / 4 mod q] over the members c = a + bi in
    the rows `on` of fam.rows and their conjugates, for a table mod q: row b
    reads the repeated table's window at (a0 + b s) / 4, as a = a0 + 4k."""
    grid, b, a0 = rows
    q, K = table.size, grid.shape[1]
    c = (a0 + s * b % q) * pow(4, -1, q) % q
    tiled = np.concatenate((table,) * (K // q + 2))
    windows = np.ndarray((q, K), tiled.dtype, tiled, strides=tiled.strides * 2)
    lo, hi = windows[c[:, on]]
    return dot(grid[on].ravel(), (lo + hi).ravel())


def s_odd(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Odd-j prime-power aggregate and the count of primes that survive.

    Each split p = 1 mod 8 enters through T_p = sum_c w0 (c/varpi_p), varpi_p
    the primary prime above p with i -> s_p, and each inert q through the
    family sum of (N(c)/q).  Primes up to the family norm bound read T_p
    off windows of the Legendre table mod p along the rows of fam.rows, see
    _row_sum.  Larger p divide no member, so those T_p are summed member by
    member through reciprocity, see _member_sums.
    """
    fam = fam or _family(cfg)
    L, sigma = cfg.L, cfg.test.sigma
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

    coefs_p = _sj_coefs(P.astype(float), L, sigma, cfg.test, 1)
    coefs_q = _sj_coefs(np.array(inert, dtype=float) ** 2, L, sigma, cfg.test, 1)
    g = coefs_p * 4.0 * f

    # prime side: every p <= bound and every inert q
    n_small = int(np.count_nonzero(P <= bound))
    contrib = np.zeros(n_small + len(inert))
    rows = fam.rows

    def worker(i0: int, i1: int) -> None:
        for k in range(i0, i1):
            if k < n_small:
                table = zint.legendre_table(int(P[k]))
                contrib[k] = g[k] * _row_sum(rows, table, int(S[k]))
            else:
                q = inert[k - n_small]
                table = zint.legendre_table(q)
                contrib[k] = coefs_q[k - n_small] * 4.0 * table[32 % q] \
                    * dot(fam.w0, table[fam.norm % q])

    _run_jobs(contrib.size, worker, cfg.threads)
    parts = [contrib]
    if n_small < P.size:
        parts.append(_member_sums(fam, bound, P[n_small:], A[n_small:], B[n_small:],
                                  g[n_small:], cfg.threads))
    total = -2.0 / (L * fam.W) * math.fsum(np.concatenate(parts))
    return total, P.size + len(inert)


def _member_sums(fam: _Family, bound: int, P: np.ndarray, A: np.ndarray,
                 B: np.ndarray, g: np.ndarray, threads: int) -> np.ndarray:
    """w0_c sum_k g_k (c/varpi_k) for every member c, with varpi_k = A_k + B_k i
    the primary prime above P_k > bound.

    Reciprocity for primary elements gives (c/varpi) = (varpi/c), a product
    over the prime factors of c.  A split factor pi of norm q, with i -> t
    in Z[i]/(pi) = F_q, gives ((a + b t)/q) for varpi = a + bi; a rational
    factor q (inert, or both primes above a split q) gives (p/q).  Either
    way the factor's vector over the p_k depends only on (q, t), with t None
    for rational q.  A member has at most one factor with q^2 > bound and
    it has the largest q, so members are grouped by their largest factor:
    its vector is built once per group, the smaller ones are shared.
    """
    pairs = _Pairs(A, B)
    spf = zint._smallest_prime_factors(bound).tolist()
    groups: dict[tuple[int, int | None] | None, list] = {}
    for i, (c_re, c_im, n) in enumerate(zip(fam.re.tolist(), fam.im.tolist(),
                                            fam.norm.tolist())):
        keys = []
        while n > 1:
            q = spf[n]
            n //= q
            if n % q:
                keys.append((q, -c_re * pow(c_im, -1, q) % q))
            else:
                n //= q
                keys.append((q, None))
        groups.setdefault(keys[-1] if keys else None, []).append((i, keys[:-1]))

    rests = {key for members in groups.values() for _, rest in members
             for key in rest}
    vector = _KeyVectors(pairs, P)
    shared = {key: vector(key) for key in sorted(rests, key=_by_q)}
    items = sorted(groups.items(), key=lambda item: _by_q(item[0]))
    out = np.zeros(fam.re.size)
    w0 = fam.w0

    def worker(i0: int, i1: int) -> None:
        vector = _KeyVectors(pairs, P)
        for key, members in items[i0:i1]:
            if key is None:
                h = g
            else:
                h = g * (shared[key] if key in shared else vector(key))
            for i, rest in members:
                if not rest:
                    out[i] = w0[i] * float(h.sum())
                    continue
                chi = shared[rest[0]]
                for key2 in rest[1:]:
                    chi = chi * shared[key2]
                out[i] = w0[i] * dot(h, chi)

    _run_jobs(len(items), worker, threads)
    return out


def s_even(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Even-j aggregate: (W - 4 sum_{varpi | c0} w0) per prime ideal, with
    varpi | c exactly when a + b s = 0 mod N(varpi), for a split varpi with
    i -> s, or q | b and q | a, for an inert q: a strided sum along fam.rows."""
    fam = fam or _family(cfg)
    L, sigma = cfg.L, cfg.test.sigma
    bound = int(cfg.prime_cutoff ** 0.5)
    primes = zint.primary_primes_up_to(bound) if bound >= 5 else []
    if not primes:
        return 0.0, 0
    coefs = _sj_coefs(np.array([pp.norm for pp in primes], dtype=float), L, sigma,
                      cfg.test, 2)
    rows = fam.rows
    contrib = np.zeros(len(primes))

    def worker(i0: int, i1: int) -> None:
        for k in range(i0, i1):
            v, n = primes[k].value, primes[k].norm
            zero = (np.arange(n if v.im else -v.re) == 0).astype(np.int8)
            if v.im:        # split, with i -> s = -re / im mod n
                wdiv = _row_sum(rows, zero, -v.re * pow(v.im, -1, n) % n)
            else:           # inert q = -re, in the rows q | b
                wdiv = _row_sum(rows, zero, 0, rows[1][0] % v.re == 0)
            contrib[k] = coefs[k] * (fam.W - 4.0 * wdiv)

    _run_jobs(len(primes), worker, cfg.threads)
    total = -2.0 / (L * fam.W) * math.fsum(contrib)
    return total, len(primes)


def s_even_main_form(cfg: DensityConfig) -> float:
    """The c-independent form -(2/L) sum logN/N^j (1+1/N)^-1 phi_hat(2j logN/L)."""
    bound = int(cfg.prime_cutoff ** 0.5)
    if bound < 5:
        return 0.0
    norms = zint.prime_norms_up_to(bound).astype(float)
    coefs = _sj_coefs(norms, cfg.L, cfg.test.sigma, cfg.test, 2)
    return -2.0 * math.fsum(coefs / (1.0 + 1.0 / norms)) / cfg.L


# --- assembly ---------------------------------------------------------------------

def one_level_density(cfg: DensityConfig) -> DensityReport:
    fam = _family(cfg)
    L = cfg.L
    p0 = float(cfg.test.phi_hat(0.0))
    cond = p0 / (L * fam.W) * 4.0 * math.fsum(fam.w0 * np.log(fam.norm.astype(float)))
    gconst = p0 / L * (_LOG_32_PI2 + 2.0 * _PSI_HALF)
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
    a, b, nm = _disc(int(4.0 * X) + 2)
    chi = np.array([zint.quad_symbol(zint.GInt(x, y), n)
                    for x, y in zip(a.tolist(), b.tolist())], dtype=float)
    lhs = dot(chi, w.w(nm / X))
    a, b, nm = _disc(int(90.0 * nn / X) + 1)
    gs = np.array([zint.gauss_sum(zint.GInt(x, y), n)
                   for x, y in zip(a.tolist(), b.tolist())])
    rhs = X / nn * complex(np.sum(gs * w.w_tilde(np.sqrt(nm * X / nn))))
    return lhs, rhs


def _disc(bound: int):
    """(Re k, Im k, N(k)) as arrays over the k in Z[i] with N(k) <= bound,
    in lexicographic order."""
    m = math.isqrt(bound)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1),
                                            indexing="ij"))
    nm = a * a + b * b
    keep = nm <= bound
    return a[keep], b[keep], nm[keep]
