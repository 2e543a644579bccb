"""Family enumeration, prime sums, and the assembled empirical density."""

import math

import mpmath as mp
import numpy as np
import pytest

from quadhecke import empirical, zint
from quadhecke.empirical import DensityConfig, one_level_density
from quadhecke.transforms import make_bump, make_fejer, make_gaussian_weight
from quadhecke.zint import GInt


def test_config_validation():
    w = make_gaussian_weight()
    with pytest.raises(ValueError):
        DensityConfig(1.0, make_fejer(1.5), w)
    cfg = DensityConfig(100.0, make_fejer(1.5), w)
    assert cfg.L == math.log(100.0)
    assert cfg.prime_cutoff == 100.0 ** 1.5


@pytest.mark.parametrize("kwargs, match", [
    ({"R": 0.0}, "R must be finite"),
    ({"R": -1.0}, "R must be finite"),
    ({"R": 1e-9}, "R must be finite"),     # empty family, W = 0
    ({"R": float("inf")}, "R must be finite"),
    ({"R": float("nan")}, "R must be finite"),
    ({"X": float("nan")}, "X must exceed 1"),
    ({"threads": 0}, "threads"),
    ({"X": 1e5, "test": make_fejer(1.9)}, "2\\^31"),
])
def test_config_guards(kwargs, match):
    args = {"X": 100.0, "test": make_fejer(1.5), "weight": make_gaussian_weight()}
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        DensityConfig(**args)


def test_family_against_brute(weight):
    cfg = DensityConfig(40.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    want = []
    m = math.isqrt(bound)
    for a in range(-m - 1, m + 2):
        for b in range(-m - 1, m + 2):
            z = GInt(a, b)
            n = z.norm()
            if 0 < n <= bound and z.is_odd() and zint.is_primary(z):
                _, _, entries = zint.factor(z)
                if all(e == 1 for _, e in entries):
                    want.append((n, a, b))
    want.sort()
    got = list(zip(fam.norm.tolist(), fam.re.tolist(), fam.im.tolist()))
    assert got == want
    assert fam.size == 4 * len(want)
    direct_w = 4.0 * math.fsum(weight.w(n / cfg.X) for n, _, _ in want)
    assert abs(fam.W - direct_w) < 1e-12
    assert abs(empirical.total_weight(cfg) - fam.W) < 1e-15


def test_digamma_integral_term_oracle(fejer15):
    # (2/L) int_0^inf e^{-t/2}/(1-e^{-t}) (phi_hat(0) - phi_hat(t/L)) dt
    L = math.log(500.0)
    with mp.workdps(25):
        want = 2.0 / L * mp.quad(
            lambda t: mp.e ** (-t / 2) / (1 - mp.e ** (-t))
            * (1 - max(0, 1 - t / (L * 1.5))),
            [0, 1.5 * L, 1.5 * L + 40])
    got = empirical.digamma_integral_term(fejer15, L)
    assert abs(got - float(want)) < 1e-9


def test_digamma_integral_term_refine_stable(fejer15, bump15):
    L = math.log(2000.0)
    for test in (fejer15, bump15):
        a = empirical.digamma_integral_term(test, L, refine=1)
        b = empirical.digamma_integral_term(test, L, refine=2)
        assert abs(a - b) < 1e-10
    with pytest.raises(ValueError):
        empirical.digamma_integral_term(fejer15, 0.0)


def test_prime_split_inert_decomposition(weight):
    # the vectorized odd/even aggregates equal the naive per-character loop
    cfg = DensityConfig(30.0, make_fejer(1.5), weight)
    so, n_odd = empirical.s_odd(cfg)
    se, n_even = empirical.s_even(cfg)
    outer = empirical.s_total_family_outer(cfg)
    assert abs(outer - (so + se)) < 1e-12
    assert n_odd > 0


def test_s_even_close_to_main_form(weight):
    # even powers are c-independent except for varpi | c corrections, whose
    # family weight is O(sum 4 w0 / W); 1.7e-3 measured at X = 200
    cfg = DensityConfig(200.0, make_fejer(1.5), weight)
    se, _ = empirical.s_even(cfg)
    assert abs(se - empirical.s_even_main_form(cfg)) < 5e-3


# --- S_odd against the per-prime Euler-criterion ladder ---------------------------

def _legendre_ladder(a: np.ndarray, p: int) -> np.ndarray:
    """a^((p-1)/2) mod p by repeated squaring over the array, as +-1/0."""
    base = a % p
    out = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return np.where(out == p - 1, -1, out)


def _s_odd_ladder(cfg: DensityConfig) -> tuple[float, int]:
    """S_odd prime by prime, one ladder per prime over the whole family."""
    fam = empirical._family(cfg)
    L, sigma, cut = cfg.L, cfg.test.sigma, int(cfg.prime_cutoff)
    acc = []
    n = 0
    for p in zint._sieve(cut).tolist():
        if p % 8 == 1:
            s = zint._sqrt_minus_one(p)
            f = zint._legendre(1 - s, p) + zint._legendre(1 + s, p)
            sym = _legendre_ladder(fam.re + fam.im * s, p)
            coef = empirical._sj_coefs(np.array([p], float), L, sigma, cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * f * float(np.dot(fam.w0, sym)))
            n += 1
        elif p % 4 == 3 and p * p <= cut:
            sym = _legendre_ladder(fam.norm, p)
            coef = empirical._sj_coefs(np.array([p * p], float), L, sigma,
                                       cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * zint._legendre(32, p)
                       * float(np.dot(fam.w0, sym)))
            n += 1
    return -2.0 / (L * fam.W) * math.fsum(acc), n


@pytest.mark.parametrize("X, test, R", [
    (500.0, make_fejer(1.5), 4.0),      # p <= R X by table, larger p by members
    (2000.0, make_fejer(1.5), 4.0),
    (2000.0, make_fejer(0.8), 4.0),     # every prime below R X
    (2000.0, make_bump(0.8), 0.1),      # sigma < 1 with the member side running
])
def test_s_odd_against_ladder(weight, X, test, R):
    cfg = DensityConfig(X, test, weight, R=R)
    got, n_got = empirical.s_odd(cfg)
    want, n_want = _s_odd_ladder(cfg)
    assert n_got == n_want
    assert abs(got - want) <= 1e-12 * abs(want)


def test_member_sums_are_exact_symbols(weight):
    # one prime at a time, the member side must give w0 (c/varpi) exactly,
    # with varpi the primary prime above p at which i -> s
    cfg = DensityConfig(100.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    members = [GInt(int(a), int(b)) for a, b in zip(fam.re, fam.im)]
    assert any(c.norm() % 9 == 0 for c in members)                # inert 3 | c
    assert any(c.re % 5 == 0 and c.im % 5 == 0 for c in members)  # 5 | c
    assert any(c.norm() % 5 == 0 and c.im % 5 for c in members)   # 2 + i | c
    ps = [p for p in zint._sieve(1000).tolist() if p > bound and p % 8 == 1]
    ss = [zint._sqrt_minus_one(p) for p in ps]
    primes = zint.primary_primes_up_to(1000)
    for k, (p, s) in enumerate(zip(ps, ss)):
        varpi = [pp for pp in primes
                 if pp.norm == p and zint.split_i_image(pp) == s][0]
        g = np.zeros(len(ps))
        g[k] = 1.0
        got = empirical._member_sums(fam, bound, ps, ss, g, threads=1)
        want = [zint.quad_symbol(c, varpi.value) for c in members]
        assert np.array_equal(got, fam.w0 * np.array(want, dtype=float))


def test_s_odd_threads_bitwise_invariant(weight):
    cfg = DensityConfig(2000.0, make_fejer(1.5), weight, threads=1)
    assert cfg.R * cfg.X < cfg.prime_cutoff    # the member side runs
    want = empirical.s_odd(cfg)
    for threads in (2, 3):
        cfg = DensityConfig(2000.0, make_fejer(1.5), weight, threads=threads)
        assert empirical.s_odd(cfg) == want


def test_threads_bitwise_invariant(weight):
    f = make_fejer(1.5)
    r1 = one_level_density(DensityConfig(120.0, f, weight, threads=1))
    r3 = one_level_density(DensityConfig(120.0, f, weight, threads=3))
    assert r1.S_odd == r3.S_odd
    assert r1.S_even == r3.S_even
    assert r1.D_total == r3.D_total


def test_report_total_is_sum_of_parts(weight):
    rep = one_level_density(DensityConfig(90.0, make_fejer(1.2), weight))
    parts = (rep.term_log_conductor + rep.term_gamma_const
             + rep.term_integral + rep.S_even + rep.S_odd)
    assert abs(rep.D_total - parts) < 1e-14
    d = rep.as_dict()
    assert d["X"] == 90.0 and d["sigma"] == 1.2
    assert d["family_size"] == rep.family_size
    assert math.isfinite(d["elapsed_s"])


def test_poisson_pair_plain(weight):
    for X in (3.7, 12.0):
        lhs, rhs = empirical.poisson_pair(weight, X)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_poisson_pair_twisted(weight):
    pp = [p for p in zint.primary_primes_up_to(20) if p.norm == 17][0]
    lhs, rhs = empirical.poisson_pair(weight, 2.5, pp.value)
    assert abs(complex(rhs).imag) < 1e-10
    assert abs(lhs - complex(rhs).real) < 1e-10 * max(1.0, abs(lhs))


def test_prime_sum_check_bounds():
    out = empirical.prime_sum_check(200000, GInt(3, 2))
    assert abs(out["principal_normalized"]) < 0.5
    assert abs(out["character_normalized"]) < 0.5
    assert math.isfinite(out["mertens"])


def test_character_average_brute_and_decay(weight):
    f = make_fejer(1.5)
    pp = [p for p in zint.primary_primes_up_to(20) if p.norm == 17][0]
    cfg = DensityConfig(25.0, f, weight)
    fam = empirical._family(cfg)
    acc = 0.0
    for re, im, w0 in zip(fam.re, fam.im, fam.w0):
        for u in zint.UNITS:
            c = u * GInt(int(re), int(im))
            acc += w0 * zint.quad_symbol(zint.FAMILY_TWIST * c, pp.value)
    want = acc / fam.W
    got = empirical.character_average(cfg, pp)
    assert abs(got - want) < 1e-12
    # orthogonality: the average decays as the family grows
    vals = [abs(empirical.character_average(DensityConfig(X, f, weight), pp))
            for X in (50.0, 200.0, 800.0)]
    assert vals[2] < vals[0]
    assert vals[2] < 0.05
