"""Test-only references that the suite compares production code against.

Each is a slower or more literal form of something src/quadhecke computes
another way: the per-character prime sums, S_even's divisor weights by a
divisibility mask over the members, A_alpha by differencing the
Euler product, the Moebius function from a factorization, the primary
associate, the pointwise ratios integrand and the outer-product phase sum.
Test files import from here; pytest does not collect it.
"""

import cmath
import math

import numpy as np

from quadhecke import ratios, zint
from quadhecke.empirical import DensityConfig, _family, _sj_coefs
from quadhecke.specfun import A_alpha_series, A_euler, ZetaKContext
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


def moebius(z: GInt) -> int:
    if z.is_zero():
        raise ValueError("moebius(0) undefined")
    _, e2, entries = zint.factor(z)
    if e2 >= 2 or any(e >= 2 for _, e in entries):
        return 0
    return -1 if (e2 + len(entries)) % 2 else 1


def i_images(primes) -> dict[GInt, int]:
    """{varpi: s} over the split primes among `primes` (those whose norm is
    not a square), with i -> s mod N(varpi): zint.primes_above's s at the
    prime it returns, p - s at the conjugate."""
    split = sorted({pp.norm for pp in primes if math.isqrt(pp.norm) ** 2 != pp.norm})
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
        for pp in zint.primary_primes_up_to(bound) if bound >= 5 else []:
            n = pp.norm
            u = j * math.log(n) / L
            if u >= sigma:
                continue
            chi = zint.quad_symbol(tw, pp.value) ** j
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


def s_even_members(cfg: DensityConfig) -> tuple[float, int]:
    """S_even and its prime count with each divisor weight sum_{varpi | c0} w0
    taken as a mask over the members: varpi = a + bi of norm n divides c
    exactly when n divides both coordinates of c conj(varpi)."""
    fam = _family(cfg)
    bound = int(cfg.prime_cutoff ** 0.5)
    primes = zint.primary_primes_up_to(bound) if bound >= 5 else []
    if not primes:
        return 0.0, 0
    coefs = _sj_coefs(np.array([pp.norm for pp in primes], dtype=float), cfg.L,
                      cfg.test.sigma, cfg.test, 2)
    contrib = []
    for pp, coef in zip(primes, coefs):
        a, b, n = pp.value.re, pp.value.im, pp.norm
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


def ratios_integrand(t: float, norm_c: int, test: TestFunction, L: float,
                     ctx: ZetaKContext) -> float:
    """Bracket at r = it, real part, times phi(tL/2pi).

    Only the real part enters: the bracket satisfies conj(B(t)) = B(-t), so
    the imaginary part is odd and drops from the even integral.  The value
    is the profile's per-node bracket at |t|, its phase sums taken as outer
    products; t = 0 is the pole of Psi(it) and raises.
    """
    t = abs(float(t))
    mu = ratios._mu_of(norm_c)
    nodes = np.array([t])
    (rc,), (two_psi,), (pv,) = ratios._bracket_parts(nodes, ctx, outer_phase_sum(nodes))
    bracket = rc + (pv * cmath.exp(-1j * t * mu)).real + mu + two_psi
    return bracket * float(test.phi(t * L / (2.0 * math.pi)))
