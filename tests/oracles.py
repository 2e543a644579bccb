"""Test-only references that the suite compares production code against.

Each is a slower or more literal form of something src/quadhecke computes
another way: the family sieve by one remainder pass per prime, the
per-character prime sums, S_even's divisor weights by a divisibility mask
over the members, S_odd's member side by float products of +-1 symbol
vectors, Legendre symbols by Euler's criterion, A_alpha by
differencing the Euler product, the Moebius function read off
checks.primary_products, the primary associate, the pointwise ratios
integrand, the outer-product phase sum, the even-sum coefficients d_m
from four prime sums cut at a norm bound, J(X) and the c_wm from the
Poisson-side kernel lattice sums, route 2 on the smooth family (D_sm), GL
panels one gl_nodes call at a time, and the NUFFT's Gaussian spread one
bincount per float column.
Test files import from here; pytest does not collect it.
"""

import cmath
import functools
import math

import numpy as np

from scipy.special import gammaincc, gammaln

from quadhecke import expansion, zint
from quadhecke._numerics import (_NUFFT_CHUNK, _NUFFT_HALF_WIDTH, cauchy_derivs, dot,
                                 gl_nodes, panel_layout, panel_nodes, read_only)
from quadhecke.checks import primary_products
from quadhecke.empirical import DensityConfig, _family, _sj_coefs, digamma_integral_term
from quadhecke.specfun import (_LOG_32_PI2, _PSI_HALF, A_alpha_series, A_euler,
                               _axis_profile, _bracket_parts, digamma, log_conductor,
                               zeta_K_log_deriv)
from quadhecke.transforms import TestFunction
from quadhecke.zint import GInt

UNITS = (GInt(1, 0), GInt(0, 1), GInt(-1, 0), GInt(0, -1))
# i(1+i)^5 = 4 - 4i, the fixed even part of every family discriminant
FAMILY_TWIST = GInt(4, -4)
_UNIT_INV = {GInt(1, 0): GInt(1, 0), GInt(0, 1): GInt(0, -1),
             GInt(-1, 0): GInt(-1, 0), GInt(0, -1): GInt(0, 1)}


def outer_phase_sum(t):
    """sums(mu, w) = sum_n w_n exp(-i t mu_n) at every t by the outer product."""
    return lambda mu, w: np.exp(-1j * np.multiply.outer(t, mu)) @ w


def panel_nodes_by_panel(a, b, h, n, breaks):
    """_numerics.panel_nodes one gl_nodes call per panel."""
    edges = [a] + [c for c in sorted(set(breaks)) if a < c < b] + [b]
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m, step = panel_layout(lo, hi, h)
        for k in range(m):
            x, w = gl_nodes(lo + k * step, lo + (k + 1) * step, n)
            xs.append(x)
            ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def gaussian_spread_columns(mu, w, step, phase0, grid, tau):
    """_numerics._gaussian_spread one bincount over the tap rows per float
    column of the strengths, in the same chunks of sources."""
    hg = 2.0 * math.pi / grid
    taps = np.arange(1 - _NUFFT_HALF_WIDTH, _NUFFT_HALF_WIDTH + 1)
    spread = np.zeros((grid, 2 * phase0.size))
    for n0 in range(0, mu.size, _NUFFT_CHUNK):
        mu_c = mu[n0:n0 + _NUFFT_CHUNK]
        strength = np.exp(-1j * np.multiply.outer(mu_c, phase0)) * w[n0:n0 + _NUFFT_CHUNK, None]
        x = step * mu_c
        near = np.floor(x / hg).astype(np.int64)[:, None] + taps
        kern = np.exp(-(near * hg - x[:, None]) ** 2 / (4.0 * tau))
        rows = (near % grid).ravel()
        for q, col in enumerate(strength.view(float).T):
            spread[:, q] += np.bincount(rows, (kern * col[:, None]).ravel(), grid)
    return spread.view(complex)


# --- Z[i] --------------------------------------------------------------------------

def primary_associate(z: GInt) -> tuple[GInt, GInt]:
    """Unique (u, p) with z = u*p, u a unit, p primary.  Requires z odd."""
    if not z.is_odd():
        raise ValueError(f"{z!r} is not odd")
    # u z is primary when its real part is odd and re + im = 1 mod 4:
    # u = +-1 keeps an odd real part, u = +-i (i z = -im + i re) swaps it in
    if z.re % 2:
        u = zint.ONE if (z.re + z.im) % 4 == 1 else -zint.ONE
    else:
        u = zint.I if (z.re - z.im) % 4 == 1 else -zint.I
    return _UNIT_INV[u], u * z


def moebius(bound: int) -> dict[GInt, int]:
    """{n: mu(n)} over the primary n with N(n) <= bound, 1 included: a
    product of k distinct primes gives (-1)^k, any other product 0."""
    out = {zint.ONE: 1}
    for n, entries in primary_products(bound).items():
        out[n] = (-1) ** len(entries) if all(e == 1 for _, e in entries) else 0
    return out


def squarefree_arrays_by_remainders(bound: int):
    """zint.primary_squarefree_arrays over the full square of side 2 sqrt(bound),
    with squarefreeness read off the rational factorization of the norm:
    p = 3 mod 4 must not have p^4 | N; p = 1 mod 4 allows v_p <= 1, or
    v_p = 2 exactly when p divides both coordinates (then varpi varpi-bar || c).
    One remainder pass per prime over every candidate."""
    m = math.isqrt(int(bound))
    res = np.arange(-m - 1, m + 2, dtype=np.int64)
    res = res[res % 2 != 0]
    ims = np.arange(-m - 2, m + 3, dtype=np.int64)
    ims = ims[ims % 2 == 0]
    R, M = np.meshgrid(res, ims, indexing="ij")
    R, M = R.ravel(), M.ravel()
    N = R * R + M * M
    keep = (N <= bound) & ((R + M) % 4 == 1)
    R, M, N = R[keep], M[keep], N[keep]

    keep = np.ones(R.size, dtype=bool)
    for p in zint._sieve(m if m >= 2 else 2):
        p = int(p)
        if p == 2:
            continue
        p2 = p * p
        if p % 4 == 3:
            if p2 * p2 <= bound:
                keep &= (N % (p2 * p2)) != 0
        else:
            m2 = (N % p2) == 0
            if m2.any():
                m3 = (N % (p2 * p)) == 0
                pc = ((R % p) == 0) & ((M % p) == 0)
                keep &= ~(m3 | (m2 & ~pc))
    R, M, N = R[keep], M[keep], N[keep]
    order = np.lexsort((M, R, N))
    return R[order], M[order], N[order]


def legendre_euler(a, p: int):
    """(a/p) for an odd prime p < 2^31 by Euler's criterion: a^((p-1)/2) mod
    p by binary powering on int64, read as 0 or +-1, elementwise over an
    int array or for one int."""
    base = np.asarray(a, dtype=np.int64) % p
    out = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    out = np.where(out == p - 1, -1, out)
    return out if out.ndim else int(out)


def i_images(primes) -> dict[GInt, int]:
    """{varpi: s} over the split primes among `primes` (those whose norm is
    not a square), with i -> s mod N(varpi): zint.primes_above's s at the
    prime it returns, p - s at the conjugate."""
    split = sorted({w.norm() for w in primes if math.isqrt(w.norm()) ** 2 != w.norm()})
    s, re, im = zint.primes_above(np.array(split, dtype=np.int64))
    out = {}
    for p, t, a, b in zip(split, s.tolist(), re.tolist(), im.tolist()):
        out[GInt(a, b)] = t
        out[GInt(a, -b)] = p - t
    return out


# --- explicit-formula prime sums -----------------------------------------------------

def s_total_family_outer(cfg: DensityConfig) -> float:
    """-(2/LW) sum_c w sum_j S_j by the naive loop order, each S_j for one
    character by direct symbol evaluation; small X only."""

    def s_j_sum(c: GInt, j: int) -> float:
        L, sigma = cfg.L, cfg.test.sigma
        bound = int(cfg.prime_cutoff ** (1.0 / j))
        tw = FAMILY_TWIST * c
        total = 0.0
        for w in zint.primary_primes_up_to(bound) if bound >= 5 else []:
            n = w.norm()
            u = j * math.log(n) / L
            if u >= sigma:
                continue
            chi = zint.quad_symbol(tw, w) ** j
            if chi:
                total += math.log(n) / n ** (0.5 * j) * chi * float(cfg.test.phi_hat(u))
        return total

    fam = _family(cfg)
    jmax = int(math.log(cfg.prime_cutoff) / math.log(5.0)) + 1
    acc = []
    for re, im, w0 in zip(fam.re, fam.im, fam.w0):
        c0 = GInt(int(re), int(im))
        for unit in UNITS:
            s = 0.0
            for j in range(1, jmax + 1):
                s += s_j_sum(c0 * unit, j)
            acc.append(w0 * s)
    return -2.0 / (cfg.L * fam.W) * math.fsum(acc)


def member_sums_float(fam, bound: int, P: np.ndarray, A: np.ndarray, B: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """members._member_sums by float products: members grouped by their
    largest key (q, t), each group's int8 symbol vector over the primes
    times g, times the product of the member's smaller keys' vectors, in
    one dot per member."""
    def by_q(key):
        return 0 if key is None else key[0]

    spf = zint._smallest_prime_factors(bound).tolist()
    groups: dict = {}
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
    def vector(key):
        """((a + b t)/q) over the primes a + bi, or (p/q) for t None"""
        q, t = key
        table = zint.legendre_table(q)
        return table[P % q] if t is None else table[(A + B * t) % q]

    rests = {key for members in groups.values() for _, rest in members for key in rest}
    shared = {key: vector(key) for key in sorted(rests, key=by_q)}
    out = np.zeros(fam.re.size)
    for key, members in sorted(groups.items(), key=lambda item: by_q(item[0])):
        h = g if key is None else g * (shared[key] if key in shared else vector(key))
        for i, rest in members:
            chi = np.ones(P.size)
            for key2 in rest:
                chi = chi * shared[key2]
            out[i] = fam.w0[i] * dot(h, chi)
    return out


def s_even_members(cfg: DensityConfig) -> tuple[float, int]:
    """S_even and its prime count with each divisor weight sum_{varpi | c0} w0
    taken as a mask over the members: varpi = a + bi of norm n divides c
    exactly when n divides both coordinates of c conj(varpi)."""
    fam = _family(cfg)
    bound = int(cfg.prime_cutoff ** 0.5)
    primes = zint.primary_primes_up_to(bound) if bound >= 5 else []
    if not primes:
        return 0.0, 0
    coefs = _sj_coefs(np.array([w.norm() for w in primes], dtype=float), cfg.L,
                      cfg.test, 2)
    contrib = []
    for w, coef in zip(primes, coefs):
        a, b, n = w.re, w.im, w.norm()
        tr = fam.re * a + fam.im * b
        ti = fam.im * a - fam.re * b
        mask = (tr % n == 0) & (ti % n == 0)
        contrib.append(coef * (fam.W - 4.0 * math.fsum(fam.w0[mask])))
    return -2.0 / (cfg.L * fam.W) * math.fsum(contrib), len(primes)


# --- the ratios bracket ------------------------------------------------------------

def A_alpha_diag(r) -> complex:
    """d/d alpha A(alpha, beta) at alpha = beta = r, two ways.

    (a) complex-step (real r) or central difference of A_euler in alpha;
    (b) the prime-sum identity through zeta_K'/zeta_K(1+2r).
    Disagreement beyond 1e-4 raises ArithmeticError.
    """
    r = complex(r)
    series = A_alpha_series(r)
    if r.imag == 0.0:
        h = 1e-20
        d = A_euler(r + 1j * h, r).imag / h
    else:
        h = 1e-5
        d = (A_euler(r + h, r) - A_euler(r - h, r)) / (2 * h)
    if abs(d - series) > 1e-4:
        raise ArithmeticError(
            f"A_alpha methods disagree at r={r}: {d} vs {series}")
    return complex(series)


def ratios_integrand(t: float, norm_c: int, test: TestFunction, L: float) -> float:
    """Bracket at r = it, real part, times phi(tL/2pi).

    Only the real part enters: the bracket satisfies conj(B(t)) = B(-t), so
    the imaginary part is odd and drops from the even integral.  The value
    is the profile's per-node bracket at |t|, its phase sums taken as outer
    products, plus the gamma pair 2 Re psi(1/2+it); t = 0 is the pole of
    Psi(it) and raises.
    """
    t = abs(float(t))
    mu = log_conductor(norm_c)
    nodes = np.array([t])
    (rc,), (pv,) = _bracket_parts(nodes, outer_phase_sum(nodes))
    two_psi = 2.0 * digamma(0.5 + 1j * t).real
    bracket = rc + (pv * cmath.exp(-1j * t * mu)).real + mu + two_psi
    return bracket * float(test.phi(t * L / (2.0 * math.pi)))


# --- the even-sum coefficients -------------------------------------------------------

def d_four_pieces(M: int) -> list[tuple[float, float]]:
    """d_1..d_M with error bars, from four pieces over the prime norms N <=
    B = 10^6: the prime powers j >= 2, T(n) = sum logN (2j logN)^n N^-j /
    (1 + 1/N); the constants C1(n) = -sum (2 logN)^(n+1) / (N(N+1)); the
    boundary value E(1) = -1 of E(t) = sum_{N <= t} logN - t; and the
    moments M_E(n) = int_1^inf E(t) log^n(t) t^-2 dt.  M_E comes from the
    continuation int_1^inf E(t) t^(-s-1) dt = -(1 + H(s) + log2/(2^s-1) +
    PP(s))/s at s = 1, H(s) = zeta_K'/zeta_K(s) + 1/(s-1) and PP(s) =
    sum logN sum_{j>=2} N^-js: the smooth part, with PP's tail
    B^(1-2s)/(2s-1), on a Cauchy ring, PP's derivatives exactly by
    Leibniz.  T and C1 carry integral tail bounds, M_E a fixed
    3e-6 k!/0.3^k."""
    b = 1e6
    norms = zint.prime_norms_up_to(int(b)).astype(float)
    ln, lb = np.log(norms), math.log(b)

    def t_a(n):
        total, j = 0.0, 2
        while True:
            s = float(np.sum(ln * (2.0 * j * ln) ** n * norms ** (-float(j))
                             / (1.0 + 1.0 / norms)))
            total += s
            if s < 1e-18 * max(1.0, total) and j > 4:
                break
            j += 1
        return total, 4.0 ** n * math.exp(gammaln(n + 1)) * float(gammaincc(n + 1, lb))

    def c1(n):
        total = -float(np.sum((2.0 * ln) ** (n + 1) / (norms * (norms + 1.0))))
        return total, 2.0 ** (n + 1) * math.exp(gammaln(n + 2)) * float(gammaincc(n + 2, lb))

    def smooth(s):
        h = zeta_K_log_deriv(s) + 1.0 / (s - 1.0)
        return -(1.0 + h + math.log(2.0) / (2.0 ** s - 1.0)
                 + b ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)) / s

    # PP^(i)(1) = (-1)^i A_i, A_i = sum logN sum_{j>=2} (j logN)^i N^-j
    ders = cauchy_derivs(smooth, 1.0, 0.3, M - 1)
    a = np.zeros(M)
    nn, ll, j = norms, ln, 2
    while ll.size:
        term, jl = ll * nn ** (-float(j)), j * ll
        for i in range(M):
            a[i] += float(np.sum(term))
            term = term * jl
        keep = term / jl > 1e-20
        nn, ll, j = nn[keep], ll[keep], j + 1
    me = [((-1.0) ** k * ders[k]).real
          - math.factorial(k) * sum(a[i] / math.factorial(i) for i in range(k + 1))
          for k in range(M)]
    me_err = [3e-6 * math.factorial(k) / 0.3 ** k for k in range(M)]

    out = []
    for m in range(1, M + 1):
        fct = math.factorial(m - 1)
        (ta, ta_err), (cc, cc_err) = t_a(m - 1), c1(m - 1)
        val = -2.0 * ta / fct - cc / fct - 2.0 ** m * me[m - 1] / fct
        err = 2.0 * ta_err / fct + cc_err / fct + 2.0 ** m * me_err[m - 1] / fct
        if m == 1:
            val -= 2.0
        else:
            f2 = math.factorial(m - 2)
            val += 2.0 ** m * me[m - 2] / f2
            err += 2.0 ** m * me_err[m - 2] / f2
        out.append((val, err))
    return out


# --- route 3 on the Poisson side ----------------------------------------------------

class KernelProfile:
    """A kernel k(tau) tabulated on the GL-12 panels of [0, cap], width <= 0.25."""

    def __init__(self, kernel, cap: float):
        self.kernel, self.cap = kernel, cap
        tau, q = panel_nodes(0.0, cap, 0.25, 12)
        self.tau, self.q, self.f = read_only(tau, q, kernel(tau))

    def integral(self, weight, breaks=()) -> float:
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


@functools.lru_cache(maxsize=2)
def kernel_profiles(weight, y_cap: float = 3000.0):
    """(h1, h2, C): e^(tau/2) H1(e^(tau/2)) up to 2 log 112, past which H1
    is 0, H2(e^(tau/2)) up to 2 log y_cap, and the fitted constant C with
    |H2(y)| <= C y^(-3/2) near the cap."""
    tab = expansion.kernel_tables(weight, y_cap=y_cap)

    def y_of(tau):
        # by math.exp: np.exp differs from it in the last bit at some nodes
        return np.array([math.exp(0.5 * t) for t in tau.tolist()])
    h1 = KernelProfile(lambda t: np.exp(0.5 * t) * tab.H1(y_of(t)), 2.0 * math.log(112.0))
    h2 = KernelProfile(lambda t: tab.H2(y_of(t)), 2.0 * math.log(y_cap))
    ys = np.geomspace(y_cap / 8.0, y_cap, 12)
    env = max(abs(h) * y ** 1.5 for h, y in zip(tab.H2(ys).tolist(), ys.tolist()))
    return h1, h2, env


def J_lattice(X: float, test: TestFunction, weight, y_cap: float = 3000.0):
    """J(X) from the kernel lattice sums, (tau-integral)/L: value and its
    error, the y_cap tail estimate plus a fixed 3e-6, over L."""
    h1, h2, env = kernel_profiles(weight, y_cap)
    L = math.log(X)
    sigma = test.sigma
    # phi_hat(1 +- tau/L) is 0 past the ends of its support, the breaks
    # (sigma -+ 1) L, and phi_hat(1 - tau/L) has its kink at tau = L
    total = (h1.integral(lambda t: test.phi_hat(1.0 + t / L), ((sigma - 1.0) * L,))
             + h2.integral(lambda t: test.phi_hat(1.0 - t / L),
                           ((1.0 - sigma) * L, L, (1.0 + sigma) * L)))
    top2 = min((1.0 + sigma) * L, h2.cap)
    tail = env * (4.0 / 3.0) * math.exp(-0.75 * top2)
    return total / L, (tail + 3e-6) / L


def c_w_lattice(M: int, weight, y_cap: float = 3000.0):
    """c_w1..c_wM as tau-moments of the kernel lattice sums, each with its
    y_cap tail estimate; the lattice code added a fixed 3e-6/(m-1)! to
    each as its error."""
    h1, h2, env = kernel_profiles(weight, y_cap)
    out = []
    for m in range(1, M + 1):
        fact = math.gamma(m)
        i1 = h1.integral(lambda t: t ** (m - 1))
        i2 = h2.integral(lambda t: (-t) ** (m - 1))
        # tail of int tau^(m-1) C e^(-3 tau/4): (4/3)^m Gamma(m) Q(m, 3 cap/4)
        tail = env * (4.0 / 3.0) ** m * fact * float(gammaincc(m, 0.75 * h2.cap))
        out.append(((i1 + i2) / fact, tail / fact))
    return out


def smooth_route_two(X: float, test: TestFunction, weight) -> float:
    """D_sm: route 2's integral on _axis_profile(600, 0.25) with the family
    replaced by its smooth density, so the conductor mean is m1_sm =
    L + log(32/pi^2) + 2 M_w'(1)/w_hat(0) and the dual phase sum is
    e^(-it(L + log(32/pi^2))) M_w(1 - it)/M_w(1)."""
    L = math.log(X)
    p0 = float(test.phi_hat(0.0))
    nodes, wts, re_comb, psi = _axis_profile(600.0, 0.25)
    phase = (np.exp(-1j * nodes * (L + _LOG_32_PI2))
             * weight.Mw(1.0 - 1j * nodes) / weight.Mw(1.0))
    phi = wts * test.phi(nodes * L / (2.0 * math.pi))
    integral = dot(phi, re_comb + (psi * phase).real) / math.pi
    m1 = L + _LOG_32_PI2 + 2.0 * weight.mw_prime_1 / weight.w_hat0
    return (m1 * p0 / L + 2.0 * _PSI_HALF * p0 / L + digamma_integral_term(test, L)
            + integral)
