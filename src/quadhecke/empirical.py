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
up to the family norm bound R X take that sum prime by prime, as lookups in
a Legendre table mod p gathered over the family.  Larger primes divide no
member, and reciprocity (c/varpi) = (varpi/c) turns their symbols into
products of lookups in tables mod the prime factors of c, summed member
by member.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import zint
from ._numerics import panel_nodes
from .specfun import EULER_GAMMA
from .transforms import TestFunction, WeightFunction

_LOG_32_PI2 = math.log(32.0 / math.pi ** 2)
_PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)


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
    elapsed_s: float

    def as_dict(self) -> dict:
        return {
            "X": self.X,
            "sigma": self.sigma,
            "W_X": self.W_X,
            "term_log_conductor": self.term_log_conductor,
            "term_gamma_const": self.term_gamma_const,
            "term_integral": self.term_integral,
            "S_even": self.S_even,
            "S_odd": self.S_odd,
            "D_total": self.D_total,
            "family_size": self.family_size,
            "primes_odd": self.primes_odd,
            "primes_even": self.primes_even,
            "elapsed_s": self.elapsed_s,
        }


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
    """Legendre symbols ((x + y t)/p) over fixed integer arrays x, y, for many (t, p).

    y t is reduced mod p once per distinct y, and the table mod p is repeated
    over the range that x + (y t mod p) covers, so no division runs per pair.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x_lo, self.y_lo = int(x.min()), int(y.min())
        self.x = x - self.x_lo
        self.y = y - self.y_lo
        self.x_span = int(self.x.max()) + 1
        self.y_vals = np.arange(self.y_lo, int(y.max()) + 1, dtype=np.int64)

    def symbols(self, t: int, p: int) -> np.ndarray:
        reps = -(-(self.x_span + 2 * p) // p)
        lo = self.x_lo % p
        tab = np.tile(zint.legendre_table(p), reps)[lo:lo + self.x_span + p]
        return tab[self.x + (self.y_vals * t % p)[self.y]]


def _run_jobs(n: int, worker, threads: int) -> None:
    if threads <= 1 or n < 8:
        worker(0, n)
        return
    step = -(-n // threads)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(worker, i, min(i + step, n)) for i in range(0, n, step)]
        for f in futs:
            f.result()


def s_odd(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Odd-j prime-power aggregate and the count of primes that survive.

    Each split p = 1 mod 8 enters through T_p = sum_c w0 (c/varpi_p), varpi_p
    the primary prime above p with i -> s_p, and each inert q through the
    family sum of (N(c)/q).  Primes up to the family norm bound are summed
    prime by prime, one Legendre table gathered over the family.  Larger p
    divide no member, so those T_p are summed member by member through
    reciprocity, see _member_sums.
    """
    fam = fam or _family(cfg)
    L, sigma = cfg.L, cfg.test.sigma
    cut = int(cfg.prime_cutoff)
    bound = int(cfg.R * cfg.X)

    jobs: list[tuple[int, int, int]] = []   # (p, sqrt(-1) mod p, symbol factor)
    if cut >= 17:
        for p in zint._sieve(cut):
            p = int(p)
            if p % 8 != 1:
                continue
            s = zint._sqrt_minus_one(p)
            f = zint._legendre(1 - s, p) + zint._legendre(1 + s, p)
            if f:
                jobs.append((p, s, f))
    qmax = math.isqrt(cut)
    inert = [int(q) for q in zint._sieve(qmax)] if qmax >= 3 else []
    inert = [q for q in inert if q % 4 == 3]

    coefs_p = _sj_coefs(np.array([p for p, _, _ in jobs], dtype=float), L, sigma,
                        cfg.test, 1) if jobs else np.empty(0)
    coefs_q = _sj_coefs(np.array(inert, dtype=float) ** 2, L, sigma,
                        cfg.test, 1) if inert else np.empty(0)
    g = coefs_p * 4.0 * np.array([f for _, _, f in jobs], dtype=float)

    # prime side: every p <= bound and every inert q
    n_small = sum(1 for p, _, _ in jobs if p <= bound)
    n_prime_side = n_small + len(inert)
    contrib = np.zeros(n_prime_side)
    pairs = _Pairs(fam.re, fam.im)
    nrm, w0 = fam.norm, fam.w0

    def worker(i0: int, i1: int) -> None:
        for k in range(i0, i1):
            if k < n_small:
                p, s, _ = jobs[k]
                contrib[k] = g[k] * float(np.dot(w0, pairs.symbols(s, p)))
            else:
                q = inert[k - n_small]
                ft = zint._legendre(32, q)
                sym = zint.legendre_table(q)[nrm % q]
                contrib[k] = (coefs_q[k - n_small] * 4.0 * ft
                              * float(np.dot(w0, sym)))

    _run_jobs(n_prime_side, worker, cfg.threads)
    parts = [contrib]
    if n_small < len(jobs):
        big = jobs[n_small:]
        parts.append(_member_sums(fam, bound, [p for p, _, _ in big],
                                  [s for _, s, _ in big], g[n_small:], cfg.threads))
    total = -2.0 / (L * fam.W) * math.fsum(np.concatenate(parts))
    return total, len(jobs) + len(inert)


def _member_sums(fam: _Family, bound: int, ps: list[int], ss: list[int],
                 g: np.ndarray, threads: int) -> np.ndarray:
    """w0_c sum_k g_k (c/varpi_k) for every member c, all p_k > bound.

    Reciprocity for primary elements gives (c/varpi) = (varpi/c), a product
    over the prime factors of c.  A split factor pi of norm q, with i -> t
    in Z[i]/(pi) = F_q, gives ((a + b t)/q) for varpi = a + bi; a rational
    factor q (inert, or both primes above a split q) gives (p/q).  Either
    way the factor's vector over the p_k depends only on (q, t), with t None
    for rational q.  A member has at most one factor with q^2 > bound and
    it has the largest q, so members are grouped by their largest factor:
    its vector is built once per group, the smaller ones are shared.
    """
    P = np.array(ps, dtype=np.int64)
    A = np.empty_like(P)
    B = np.empty_like(P)
    for k, (p, s) in enumerate(zip(ps, ss)):
        a, b = zint._cornacchia(p, s)
        if (a + b * s) % p:
            b = -b
        v = zint.primary_associate(zint.GInt(a, b))[1]
        A[k], B[k] = v.re, v.im
    pairs = _Pairs(A, B)

    def vector(key: tuple[int, int | None]) -> np.ndarray:
        q, t = key
        return zint.legendre_table(q)[P % q] if t is None else pairs.symbols(t, q)

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
    shared = {key: vector(key) for key in rests}
    items = list(groups.items())
    out = np.zeros(fam.re.size)
    w0 = fam.w0

    def worker(i0: int, i1: int) -> None:
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
                out[i] = w0[i] * float(np.dot(h, chi))

    _run_jobs(len(items), worker, threads)
    return out


def s_even(cfg: DensityConfig, fam: _Family | None = None) -> tuple[float, int]:
    """Even-j aggregate: (W - 4 sum_{varpi | c0} w0) per prime ideal."""
    fam = fam or _family(cfg)
    L, sigma = cfg.L, cfg.test.sigma
    bound = int(cfg.prime_cutoff ** 0.5)
    primes = zint.primary_primes_up_to(bound) if bound >= 5 else []
    if not primes:
        return 0.0, 0
    coefs = _sj_coefs(np.array([pp.norm for pp in primes], dtype=float), L, sigma,
                      cfg.test, 2)
    re, im, w0 = fam.re, fam.im, fam.w0
    contrib = np.zeros(len(primes))

    def worker(i0: int, i1: int) -> None:
        for k in range(i0, i1):
            pp = primes[k]
            a, b, n = pp.value.re, pp.value.im, pp.norm
            tr = re * a + im * b
            ti = im * a - re * b
            mask = (tr % n == 0) & (ti % n == 0)
            wdiv = float(np.dot(w0, mask))
            contrib[k] = coefs[k] * (fam.W - 4.0 * wdiv)

    _run_jobs(len(primes), worker, cfg.threads)
    total = -2.0 / (L * fam.W) * math.fsum(contrib)
    return total, len(primes)


def s_even_main_form(cfg: DensityConfig) -> float:
    """The c-independent form -(2/L) sum logN/N^j (1+1/N)^-1 phi_hat(2j logN/L)."""
    L, sigma = cfg.L, cfg.test.sigma
    bound = int(cfg.prime_cutoff ** 0.5)
    if bound < 5:
        return 0.0
    norms = zint.prime_norms_up_to(bound).astype(float)
    ln = np.log(norms)
    total = 0.0
    j = 1
    while True:
        mask = 2.0 * j * ln < sigma * L
        if not mask.any():
            break
        u = 2.0 * j * ln[mask] / L
        total += float(np.dot(ln[mask] * norms[mask] ** (-float(j)),
                              cfg.test.phi_hat(u) / (1.0 + 1.0 / norms[mask])))
        j += 1
    return -2.0 * total / L


def s_j_sum(c: zint.GInt, j: int, cfg: DensityConfig) -> float:
    """S_j for one character, by direct symbol evaluation (oracle-grade)."""
    L, sigma = cfg.L, cfg.test.sigma
    bound = int(cfg.prime_cutoff ** (1.0 / j))
    tw = zint.FAMILY_TWIST * c
    total = 0.0
    for pp in zint.primary_primes_up_to(bound) if bound >= 5 else []:
        n = pp.norm
        u = j * math.log(n) / L
        if u >= sigma:
            continue
        chi = zint.quad_symbol(tw, pp.value) ** j
        if chi:
            total += math.log(n) / n ** (0.5 * j) * chi * float(cfg.test.phi_hat(u))
    return total


def s_total_family_outer(cfg: DensityConfig) -> float:
    """-(2/LW) sum_c w sum_j S_j by the naive loop order; small X only."""
    fam = _family(cfg)
    jmax = int(math.log(cfg.prime_cutoff) / math.log(5.0)) + 1
    acc = []
    for re, im, w0 in zip(fam.re, fam.im, fam.w0):
        c0 = zint.GInt(int(re), int(im))
        for unit in zint.UNITS:
            s = 0.0
            for j in range(1, jmax + 1):
                s += s_j_sum(c0 * unit, j, cfg)
            acc.append(w0 * s)
    return -2.0 / (cfg.L * fam.W) * math.fsum(acc)


# --- assembly ---------------------------------------------------------------------

def one_level_density(cfg: DensityConfig) -> DensityReport:
    t0 = time.perf_counter()
    fam = _family(cfg)
    L = cfg.L
    p0 = float(cfg.test.phi_hat(0.0))
    cond = p0 / (L * fam.W) * 4.0 * float(
        np.dot(fam.w0, np.log(fam.norm.astype(float))))
    gconst = p0 / L * (_LOG_32_PI2 + 2.0 * _PSI_HALF)
    integ = digamma_integral_term(cfg.test, L)
    sev, n_even = s_even(cfg, fam)
    sod, n_odd = s_odd(cfg, fam)
    total = cond + gconst + integ + sev + sod
    return DensityReport(
        X=cfg.X, sigma=cfg.test.sigma, W_X=fam.W,
        term_log_conductor=cond, term_gamma_const=gconst, term_integral=integ,
        S_even=sev, S_odd=sod, D_total=total,
        family_size=fam.size, primes_odd=n_odd, primes_even=n_even,
        elapsed_s=time.perf_counter() - t0)


# --- diagnostics ------------------------------------------------------------------

def prime_sum_check(B: int, modulus: zint.GInt | None = None) -> dict[str, float]:
    """Residuals of the prime-counting and Mertens sums over norms <= B.

    principal: (sum logN - B) / (sqrt(B) log^2(2B)); mertens: sum logN/N - log B.
    With a modulus m, also the twisted sum_{varpi} (m/varpi) logN normalized
    the same way.
    """
    norms = zint.prime_norms_up_to(B).astype(float)
    ln = np.log(norms)
    scale = math.sqrt(B) * math.log(2.0 * B) ** 2
    out = {
        "principal_normalized": (float(np.sum(ln)) - B) / scale,
        "mertens": float(np.sum(ln / norms)) - math.log(B),
    }
    if modulus is not None:
        acc = 0.0
        for pp in zint.primary_primes_up_to(B):
            acc += zint._symbol_prime_fast(modulus, pp) * math.log(pp.norm)
        out["character_normalized"] = acc / scale
    return out


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
    cut = int(4.0 * X) + 2
    m = math.isqrt(cut)
    lhs = 0.0
    for a in range(-m - 1, m + 2):
        for b in range(-m - 1, m + 2):
            nm = a * a + b * b
            if 0 < nm <= cut:
                chi = zint.quad_symbol(zint.GInt(a, b), n)
                if chi:
                    lhs += chi * float(w.w(nm / X))
    kmax = int(90.0 * nn / X) + 1
    km = math.isqrt(kmax)
    rhs = 0.0 + 0.0j
    for a in range(-km - 1, km + 2):
        for b in range(-km - 1, km + 2):
            nm = a * a + b * b
            if nm <= kmax:
                gs = zint.gauss_sum(zint.GInt(a, b), n)
                if gs != 0:
                    rhs += gs * float(w.w_tilde(math.sqrt(nm * X / nn)))
    rhs *= X / nn
    return lhs, rhs


def character_average(cfg: DensityConfig, pp: zint.PrimaryPrime) -> float:
    """(1/W) sum_c w(N(c)/X) chi_{i(1+i)^5 c}(varpi); decays for growing X."""
    fam = _family(cfg)
    ft = zint._symbol_prime_fast(zint.FAMILY_TWIST, pp)
    eye = 1 if (pp.norm - 1) % 8 == 0 else -1 if pp.kind == "split" else 1
    if pp.kind == "split":
        p = pp.norm
        idx = fam.re + fam.im * zint.split_i_image(pp)
    else:
        p = pp.rational()
        idx = fam.norm
    sym = zint.legendre_table(p)[idx % p]
    return ft * 2.0 * (1 + eye) * float(np.dot(fam.w0, sym)) / fam.W
