"""Family enumeration, prime sums, and the assembled empirical density."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from quadhecke import empirical, zint
from quadhecke.empirical import DensityConfig, one_level_density
from quadhecke.transforms import make_bump, make_fejer, make_gaussian_weight
from quadhecke.zint import GInt

from oracles import s_even_members, s_total_family_outer


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
    # the vectorized odd/even aggregates equal the naive per-character loop,
    # down to the one-member, one-row family {1} at R X = 1
    for X, R in [
        (30.0, 4.0),
        (32.0, 1 / 32),
        (32.0, 1.2 / 32),
        (32.0, 9 / 32),     # 1, -1 +- 2i, -3: two rows
        (32.0, 30 / 32),    # 17 <= R X: a prime read off the rows
    ]:
        cfg = DensityConfig(X, make_fejer(1.5), weight, R=R)
        so, n_odd = empirical.s_odd(cfg)
        se, n_even = empirical.s_even(cfg)
        outer = s_total_family_outer(cfg)
        assert abs(outer - (so + se)) < 1e-12, (X, R)
        assert n_odd > 0 and n_even > 0


@pytest.mark.parametrize("X, test", [
    (2000.0, make_fejer(1.5)),
    (32000.0, make_fejer(0.8)),
])
def test_s_even_against_member_mask(weight, X, test):
    cfg = DensityConfig(X, test, weight)
    fam = empirical._family(cfg)
    # every kind of divisor occurs: inert 3 | c, 5 | c, and 2 + i or 2 - i alone
    five = (fam.re % 5 == 0) & (fam.im % 5 == 0)
    assert np.any((fam.re % 3 == 0) & (fam.im % 3 == 0))
    assert np.any(five) and np.any((fam.norm % 5 == 0) & ~five)
    got, n_got = empirical.s_even(cfg)
    want, n_want = s_even_members(cfg)
    assert n_got == n_want
    assert abs(got - want) <= 1e-14 * abs(want)


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
            (s,), _, _ = zint.primes_above(np.array([p]))
            # both twist symbols, not s_odd's 2 ((1 + s)/p)
            f = int(_legendre_ladder(np.array([1 - s, 1 + s]), p).sum())
            sym = _legendre_ladder(fam.re + fam.im * s, p)
            coef = empirical._sj_coefs(np.array([p], float), L, sigma, cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * f * float(np.dot(fam.w0, sym)))
            n += 1
        elif p % 4 == 3 and p * p <= cut:
            sym = _legendre_ladder(fam.norm, p)
            coef = empirical._sj_coefs(np.array([p * p], float), L, sigma,
                                       cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * int(_legendre_ladder(np.array([32]), p)[0])
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
    # with varpi = prime_above(p)
    cfg = DensityConfig(100.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    members = [GInt(int(a), int(b)) for a, b in zip(fam.re, fam.im)]
    assert any(c.norm() % 9 == 0 for c in members)                # inert 3 | c
    assert any(c.re % 5 == 0 and c.im % 5 == 0 for c in members)  # 5 | c
    assert any(c.norm() % 5 == 0 and c.im % 5 for c in members)   # 2 + i | c
    primes = [zint.prime_above(p) for p in zint._sieve(1000).tolist()
              if p > bound and p % 8 == 1]
    P, A, B = (np.array(col, dtype=np.int64) for col in zip(
        *((pp.norm, pp.value.re, pp.value.im) for pp in primes)))
    for k, varpi in enumerate(primes):
        g = np.zeros(len(primes))
        g[k] = 1.0
        got = empirical._member_sums(fam, bound, P, A, B, g, threads=1)
        want = [zint.quad_symbol(c, varpi.value) for c in members]
        assert np.array_equal(got, fam.w0 * np.array(want, dtype=float))


@pytest.mark.parametrize("X, R", [
    (32.0, 1 / 32), (32.0, 1.2 / 32), (32.0, 9 / 32), (32.0, 30 / 32),
    (2000.0, 4.0), (128000.0, 4.0),
])
def test_family_rows_cover_members(weight, X, R):
    # each member c = a + bi sits at (row |b|, column k) with a = a0 + 4k, its
    # conjugate at the same cell; the cells of b = 0 hold half the weight, and
    # every other cell holds 0
    fam = empirical._family(DensityConfig(X, make_fejer(0.8), weight, R=R))
    grid, b, a0 = fam.rows
    assert np.array_equal(b[1], -b[0]) and np.array_equal(b[0], 2 * np.arange(b.shape[1]))
    r = np.abs(fam.im) // 2
    k, off = np.divmod(fam.re - a0[r], 4)
    assert np.all(off == 0) and np.all(k >= 0)
    assert np.all(grid[r, k] == np.where(fam.im == 0, 0.5, 1.0) * fam.w0)
    upper = fam.im >= 0
    cells = r[upper] * grid.shape[1] + k[upper]
    assert np.unique(cells).size == cells.size          # one member per cell
    assert np.all(fam.w0 > 0) and np.count_nonzero(grid) == cells.size
    # the fold: c -> conj(c) maps the family to itself at equal weight
    w = dict(zip(zip(fam.re.tolist(), fam.im.tolist()), fam.w0.tolist()))
    assert all(w.get((a, -bb)) == v for (a, bb), v in w.items())


def test_prime_side_sums_are_exact_symbols(weight):
    # one prime at a time, the row windows must give sum_c w0 ((a + b s)/p)
    # for every p = 1 mod 4 up to the norm bound, s from primes_above; the
    # error is relative to sum_c w0, the scale of the rounding: T_p cancels
    # to 2.5e-4 of it
    cfg = DensityConfig(2000.0, make_fejer(0.8), weight)
    fam = empirical._family(cfg)
    P = zint._sieve(int(cfg.R * cfg.X))
    P = P[P % 4 == 1]
    S, _, _ = zint.primes_above(P)
    for p, s in zip(P.tolist(), S.tolist()):
        got = empirical._row_sum(fam.rows, zint.legendre_table(p), s)
        want = np.dot(fam.w0, _legendre_ladder(fam.re + fam.im * s, p))
        assert abs(got - want) <= 1e-13 * np.abs(fam.w0).sum(), p


def test_member_sums_build_tables_per_prime(weight, monkeypatch):
    # keys run in q order, so each q's Legendre table is built once for the
    # shared vectors and at most once more for the groups, not once per key:
    # the q of successive builds rises strictly, but for one restart
    cfg = DensityConfig(2000.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    P = zint._sieve(4 * bound)
    P = P[(P % 8 == 1) & (P > bound)]
    _, A, B = zint.primes_above(P)
    calls = []
    table = zint.legendre_table

    def counted(q):
        calls.append(q)
        return table(q)

    monkeypatch.setattr(zint, "legendre_table", counted)
    empirical._member_sums(fam, bound, P, A, B, np.ones(P.size), threads=1)
    assert len(calls) > 500
    assert sum(b <= a for a, b in zip(calls, calls[1:])) <= 1


def test_s_odd_threads_bitwise_invariant(weight):
    for X, test in [
        (2000.0, make_fejer(1.5)),      # the member side runs
        (32000.0, make_fejer(0.8)),     # every prime read off the rows
    ]:
        want = None
        for threads in (1, 2, 3):
            cfg = DensityConfig(X, test, weight, threads=threads)
            got = empirical.s_odd(cfg), empirical.s_even(cfg)
            assert want is None or got == want, (X, threads)
            want = got
        # the member side runs for sigma > 1 only
        assert (cfg.R * cfg.X < cfg.prime_cutoff) == (test.sigma > 1.0)


_BLAS_CASE = """
from quadhecke.empirical import DensityConfig, one_level_density, s_odd
from quadhecke.expansion import J_X, c_w_coefficients, d_coefficients
from quadhecke.transforms import make_fejer, make_gaussian_weight
w = make_gaussian_weight()
print(repr(one_level_density(DensityConfig(8000.0, make_fejer(0.5), w))))
print(repr(s_odd(DensityConfig(1500.0, make_fejer(1.9), w))))
print(repr(c_w_coefficients(2)))
print(repr(J_X(2000.0, make_fejer(1.5))))
print(repr(d_coefficients(2, route="sieve")))
"""


def test_blas_threads_bitwise_invariant():
    # the family sums over 11117 members (X = 8000), the member side over
    # 20k big primes (X = 1500, sigma = 1.9), the kernel lattice sums over
    # up to 36841 terms and the sieve moment's 78k-term sum are long enough
    # for a threaded BLAS dot to split them; no route may see the BLAS
    # thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _BLAS_CASE], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "DensityReport" in outs[0]


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
    assert "elapsed_s" not in d
