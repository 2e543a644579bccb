"""Family enumeration, prime sums, and the assembled empirical density."""

import math
import os
import subprocess
import concurrent.futures
from concurrent.futures import Future
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from quadhecke import _numerics, empirical, members, zint
from quadhecke.empirical import DensityConfig, one_level_density
from quadhecke.transforms import (WeightFunction, make_bump, make_fejer,
                                  make_gaussian_weight)
from quadhecke.zint import GInt

from oracles import (legendre_euler, member_sums_float, moebius, s_even_members,
                     s_total_family_outer)


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
    ({"threads": 2.0}, "threads"),
    ({"threads": 1.5}, "threads"),
    ({"threads": True}, "threads"),
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
    want = sorted((z.norm(), z.re, z.im) for z, mu in moebius(bound).items() if mu)
    got = list(zip(fam.norm.tolist(), fam.re.tolist(), fam.im.tolist()))
    assert got == want
    assert fam.size == 4 * len(want)
    direct_w = 4.0 * math.fsum(weight.w(n / cfg.X) for n, _, _ in want)
    assert abs(fam.W - direct_w) < 1e-12


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
    (8000.0, make_fejer(1.9)),
    (128000.0, make_fejer(0.8)),
])
def test_s_even_against_member_mask(weight, X, test, monkeypatch):
    cfg = DensityConfig(X, test, weight)
    fam = empirical._family(cfg)
    # every kind of divisor occurs: inert 3 | c, 5 | c (v_5(N(c)) = 2), and
    # 2 + i or 2 - i alone
    five = (fam.re % 5 == 0) & (fam.im % 5 == 0)
    assert np.any((fam.re % 3 == 0) & (fam.im % 3 == 0))
    assert np.any(five) and np.any((fam.norm % 5 == 0) & ~five)
    want, n_want = s_even_members(cfg)
    # s_even reads the weight by norm alone: no row sum, no prime above p
    # and no Legendre table
    calls = []
    for owner, name in ((empirical, "_row_sum"), (zint, "primes_above"),
                        (zint, "legendre_table")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    got, n_got = empirical.s_even(cfg)
    assert calls == []
    assert n_got == n_want
    assert abs(got - want) <= 1e-14 * abs(want)


def test_s_even_close_to_main_form(weight):
    # even powers are c-independent except for varpi | c corrections, whose
    # family weight is O(sum 4 w0 / W); 1.7e-3 measured at X = 200
    cfg = DensityConfig(200.0, make_fejer(1.5), weight)
    se, _ = empirical.s_even(cfg)
    assert abs(se - empirical.s_even_main_form(cfg)) < 5e-3


# --- S_odd against the per-prime Euler-criterion ladder ---------------------------

def _s_odd_ladder(cfg: DensityConfig) -> tuple[float, int]:
    """S_odd prime by prime, one ladder per prime over the whole family."""
    fam = empirical._family(cfg)
    L, cut = cfg.L, int(cfg.prime_cutoff)
    acc = []
    n = 0
    for p in zint._sieve(cut).tolist():
        if p % 8 == 1:
            (s,), _, _ = zint.primes_above(np.array([p]))
            # both twist symbols, not s_odd's 2 ((1 + s)/p)
            f = int(legendre_euler(np.array([1 - s, 1 + s]), p).sum())
            sym = legendre_euler(fam.re + fam.im * s, p)
            coef = empirical._sj_coefs(np.array([p], float), L, cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * f * float(np.dot(fam.w0, sym)))
            n += 1
        elif p % 4 == 3 and p * p <= cut:
            sym = legendre_euler(fam.norm, p)
            coef = empirical._sj_coefs(np.array([p * p], float), L, cfg.test, 1)
            acc.append(float(coef[0]) * 4.0 * legendre_euler(32, p)
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
    # with varpi the primes_above row of p
    cfg = DensityConfig(100.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    members = [GInt(int(a), int(b)) for a, b in zip(fam.re, fam.im)]
    assert any(c.norm() % 9 == 0 for c in members)                # inert 3 | c
    assert any(c.re % 5 == 0 and c.im % 5 == 0 for c in members)  # 5 | c
    assert any(c.norm() % 5 == 0 and c.im % 5 for c in members)   # 2 + i | c
    P = zint._sieve(1000)
    P = P[(P > bound) & (P % 8 == 1)]
    _, A, B = zint.primes_above(P)
    primes = [GInt(a, b) for a, b in zip(A.tolist(), B.tolist())]
    for k, varpi in enumerate(primes):
        g = np.zeros(len(primes))
        g[k] = 1.0
        got = empirical._member_sums(fam, bound, P, A, B, g, threads=1)
        want = [zint.quad_symbol(c, varpi) for c in members]
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


def test_family_memo_keys_on_selecting_fields(weight):
    # X, R and the weight select the family; phi and threads do not, so
    # configs that differ only there share one object
    fam = empirical._family(DensityConfig(500.0, make_fejer(1.5), weight))
    assert empirical._family(DensityConfig(500.0, make_bump(0.8), weight, threads=2)) is fam
    other_x = empirical._family(DensityConfig(501.0, make_fejer(1.5), weight))
    other_r = empirical._family(DensityConfig(500.0, make_fejer(1.5), weight, R=2.0))
    assert other_x is not fam and other_r is not fam and other_x is not other_r
    assert fam.W not in (other_x.W, other_r.W) and other_x.W != other_r.W
    # the memoized weights and rows grid are shared, so they are read-only
    for a in (fam.w0, fam.rows[0]):
        with pytest.raises(ValueError):
            a[0] = 0


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
        want = np.dot(fam.w0, legendre_euler(fam.re + fam.im * s, p))
        assert abs(got - want) <= 1e-13 * np.abs(fam.w0).sum(), p


@pytest.mark.parametrize("X, test", [(2000.0, make_fejer(1.5)), (32000.0, make_fejer(0.8))])
def test_row_sum_serves_both_conjugates(weight, X, test):
    # S_odd's prime side reads the rows at i -> s; i -> p - s in its place
    # swaps each row for its conjugate, which fam.rows holds at the same
    # weight, so the two Legendre row sums agree bit for bit (every split p
    # that S_odd reads off the rows)
    cfg = DensityConfig(X, test, weight)
    rows = empirical._family(cfg).rows
    P = zint._sieve(int(min(cfg.R * cfg.X, cfg.prime_cutoff)))
    P = P[P % 4 == 1]
    for p, s in zip(P.tolist(), zint.primes_above(P)[0].tolist()):
        table = zint.legendre_table(p)
        got = empirical._row_sum(rows, table, s), empirical._row_sum(rows, table, p - s)
        assert got[0] == got[1], p


def _member_side(cfg: DensityConfig):
    """s_odd's arguments to _member_sums: the primes p = 1 mod 8 past R X
    with their primary primes and coefficients g."""
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    P = zint._sieve(int(cfg.prime_cutoff))
    P = P[(P % 8 == 1) & (P > bound)]
    _, A, B = zint.primes_above(P)
    f = 2.0 * (1 - 2 * (((A + B - 1) // 4) & 1))
    g = empirical._sj_coefs(P.astype(float), cfg.L, cfg.test, 1) * 4.0 * f
    return fam, bound, P, A, B, g


@pytest.mark.parametrize("X, test, n", [
    (2000.0, make_fejer(1.5), None),
    (1500.0, make_fejer(1.9), None),    # 21k primes: two chunks
    (2000.0, make_fejer(1.5), 1003),    # a padded last byte
])
def test_member_sums_against_float_products(weight, X, test, n):
    # the byte tables and sign bits give each member's sum of the float
    # products, to rounding: the error is relative to w0 sum |g|, the scale
    # of the terms
    fam, bound, P, A, B, g = _member_side(DensityConfig(X, test, weight))
    P, A, B, g = P[:n], A[:n], B[:n], g[:n]
    assert n is None or n % 8
    got = members._member_sums(fam, bound, P, A, B, g, threads=1)
    want = member_sums_float(fam, bound, P, A, B, g)
    assert np.all(np.abs(got - want) <= 1e-14 * fam.w0 * np.abs(g).sum())
    assert (P.size > members._CHUNK) == (test.sigma > 1.8)


@pytest.mark.parametrize("X, test", [(8000.0, make_fejer(1.5)), (2000.0, make_fejer(1.9))])
def test_member_sums_peak_memory(weight, X, test):
    # the rows stream chunk by chunk and batch by batch: one byte table, a
    # batch's masks and rows, and the smaller keys' rows over all primes
    import tracemalloc
    args = _member_side(DensityConfig(X, test, weight))
    tracemalloc.start()
    try:
        members._member_sums(*args, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_member_sums_build_tables_per_prime(weight, monkeypatch):
    # the smaller keys' masks are built first, then the groups' in q order
    # across every chunk: each q once per role, in rising q
    cfg = DensityConfig(2000.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    bound = int(cfg.R * cfg.X)
    P = zint._sieve(150 * bound)
    P = P[(P % 8 == 1) & (P > bound)]
    assert P.size > members._CHUNK            # two chunks
    _, A, B = zint.primes_above(P)
    spf = zint._smallest_prime_factors(bound)
    smaller, largest = set(), set()
    for n in fam.norm.tolist():
        qs = []     # the distinct primes q | N(c), rising
        while n > 1:
            q = int(spf[n])
            n //= q
            if q not in qs:
                qs.append(q)
        if qs:
            smaller.update(qs[:-1])
            largest.add(qs[-1])
    calls = []
    mask = zint.nonresidue_mask

    def counted(q, length):
        calls.append(q)
        return mask(q, length)

    monkeypatch.setattr(zint, "nonresidue_mask", counted)
    members._member_sums(fam, bound, P, A, B, np.ones(P.size), threads=1)
    assert len(calls) > 500
    assert calls == sorted(smaller) + sorted(largest)


class _NarrowWeight(WeightFunction):
    """w(x) = exp(-2 pi x^2): another weight, so another family."""

    name = "gaussian-narrow"

    @staticmethod
    def w(x):
        return WeightFunction.w(math.sqrt(2.0) * np.asarray(x, dtype=float))


@pytest.mark.parametrize("first, then", [
    # the same family, so the later call reads the prime side's sums
    ((8000.0, make_fejer(0.8)), (8000.0, make_bump(0.8))),      # the same primes
    ((8000.0, make_fejer(0.8)), (8000.0, make_fejer(0.5))),     # fewer primes
    ((8000.0, make_fejer(0.5)), (8000.0, make_fejer(0.8))),     # more primes
    ((2000.0, make_fejer(0.8)), (2000.0, make_fejer(1.5))),     # more, and the member side
    ((2000.0, make_fejer(1.5)), (2000.0, make_bump(1.2))),      # fewer, and the member side
    # another family, differing in X, in R or in the weight: none of its
    # sums are read
    ((2001.0, make_fejer(0.8)), (2000.0, make_fejer(0.8))),
    ((2000.0, make_fejer(0.8), 3.0), (2000.0, make_fejer(0.8))),
    ((2000.0, make_fejer(0.8), 4.0, _NarrowWeight()), (2000.0, make_fejer(0.8))),
])
def test_s_odd_memo_matches_cold_calls(weight, first, then):
    # a call after another one gives the bits of a call on a fresh family
    def config(X, test, R=4.0, w=weight):
        return DensityConfig(X, test, w, R=R)

    cfg = config(*then)
    empirical._family_of.cache_clear()
    cold = empirical.s_odd(cfg)
    empirical._family_of.cache_clear()
    empirical.s_odd(config(*first))
    assert empirical._family(config(*first)).prime_sums
    assert empirical.s_odd(cfg) == cold


def test_s_odd_memo_hit_builds_nothing(weight, monkeypatch):
    # once a prime's sum is on the family, no later call builds its table or
    # row sum again; a wider support builds its new primes alone, once each
    X = 8000.0
    empirical._family_of.cache_clear()
    empirical.s_odd(DensityConfig(X, make_fejer(0.8), weight))
    sums = empirical._family(DensityConfig(X, make_fejer(0.8), weight)).prime_sums
    held = set(sums)
    built, summed = [], []
    table, row_sum = zint.legendre_table, empirical._row_sum
    monkeypatch.setattr(zint, "legendre_table", lambda q: built.append(q) or table(q))
    monkeypatch.setattr(empirical, "_row_sum", lambda rows, tab, s:
                        summed.append(tab.size) or row_sum(rows, tab, s))
    for test in (make_bump(0.8), make_fejer(0.5), make_fejer(0.8)):
        empirical.s_odd(DensityConfig(X, test, weight))
    assert built == [] and summed == []
    empirical.s_odd(DensityConfig(X, make_fejer(0.95), weight))
    new = set(sums) - held
    assert len(new) > 50 and sorted(built) == sorted(new)
    assert sorted(summed) == sorted(p for p in new if p % 8 == 1)
    # another family holds none of them: it builds every sum it holds
    other = DensityConfig(X + 1.0, make_fejer(0.95), weight)
    built.clear()
    empirical.s_odd(other)
    assert sorted(built) == sorted(empirical._family(other).prime_sums)


class _InlineExecutor:
    """Stands in for ThreadPoolExecutor: records each max_workers and runs
    every job inline, so no thread starts."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_run_jobs_caps_os_threads(monkeypatch):
    # any thread count is accepted, but at most one OS thread per CPU
    # starts; the chunks stay one per thread asked for
    sizes = _InlineExecutor.sizes
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_numerics.os, "cpu_count", lambda: 4)
    for n, threads, size, chunks in [
        (3449, 100000, 4, [(i, i + 1) for i in range(3449)]),
        (10, 3, 3, [(0, 4), (4, 8), (8, 10)]),
        (10, 5, 4, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]),
    ]:
        ran = []
        sizes.clear()
        _numerics._run_jobs(n, lambda i0, i1: ran.append((i0, i1)), threads)
        assert sizes == [size] and ran == chunks, (n, threads)
    monkeypatch.setattr(_numerics.os, "cpu_count", lambda: None)
    sizes.clear()
    _numerics._run_jobs(100, lambda i0, i1: None, 8)
    assert sizes == [1]


def test_s_odd_threads_bitwise_invariant(weight, monkeypatch):
    for X, test in [
        (2000.0, make_fejer(1.5)),      # the member side runs
        (1500.0, make_fejer(1.9)),      # over two chunks of primes
        (32000.0, make_fejer(0.8)),     # every prime read off the rows
    ]:
        want = None
        for threads in (1, 2, 3, 100000):
            with monkeypatch.context() as m:
                if threads > 3:
                    # one chunk per prime and per member group, run inline
                    m.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineExecutor)
                # a fresh family, so each count computes the prime side's sums
                empirical._family_of.cache_clear()
                cfg = DensityConfig(X, test, weight, threads=threads)
                odd = empirical.s_odd(cfg)
                # S_even runs in the calling thread: it starts no executor
                m.setattr(concurrent.futures, "ThreadPoolExecutor", None)
                got = odd, empirical.s_even(cfg)
            assert want is None or got == want, (X, threads)
            want = got
        # the member side runs for sigma > 1 only
        assert (cfg.R * cfg.X < cfg.prime_cutoff) == (test.sigma > 1.0)


_BLAS_CASE = """
import math
from quadhecke.empirical import DensityConfig, one_level_density, s_odd
from quadhecke.expansion import J_X, c_w_coefficients, d_coefficients
from quadhecke.ratios import ratios_density
from quadhecke.specfun import _axis_profile
from quadhecke.transforms import make_bump, make_fejer, make_gaussian_weight
w = make_gaussian_weight()
print(repr(one_level_density(DensityConfig(8000.0, make_fejer(0.5), w))))
print(repr(s_odd(DensityConfig(1500.0, make_fejer(1.9), w))))
print(repr(c_w_coefficients(2)))
print(repr(J_X(2000.0, make_fejer(1.5))))
print(repr(d_coefficients(5)))
print(repr(ratios_density(DensityConfig(32000.0, make_fejer(0.8), w))))
t = _axis_profile(600.0, 0.25)[0]
for sigma, X in ((0.8, 500.0), (1.5, 8000.0)):
    cfg = DensityConfig(X, make_bump(sigma), w)
    print(cfg.test.phi(t * cfg.L / (2.0 * math.pi)).tobytes().hex())
    print(repr(ratios_density(cfg)))
"""


def test_blas_threads_bitwise_invariant():
    # the family sums over 11117 members (X = 8000), the member side over
    # 20k big primes (X = 1500, sigma = 1.9), J's sums over 2136 and 4272
    # profile nodes and the d_m prime sums over 78k norms are long enough
    # for a threaded BLAS dot to split them, and so are the ratios route's
    # 14207 distinct norms (X = 32000), and the bump's phi, a cosine block
    # times the quadrature weights, at the axis profile's 28800 nodes; no
    # route may see the BLAS thread count
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
    empirical._family_of.cache_clear()
    r1 = one_level_density(DensityConfig(120.0, f, weight, threads=1))
    empirical._family_of.cache_clear()
    r3 = one_level_density(DensityConfig(120.0, f, weight, threads=3))
    assert (r1.S_odd, r1.S_even, r1.D_total) == (r3.S_odd, r3.S_even, r3.D_total)


def test_report_total_is_sum_of_parts(weight):
    rep = one_level_density(DensityConfig(90.0, make_fejer(1.2), weight))
    parts = (rep.term_log_conductor + rep.term_gamma_const
             + rep.term_integral + rep.S_even + rep.S_odd)
    assert abs(rep.D_total - parts) < 1e-14
    d = rep.as_dict()
    assert d["X"] == 90.0 and d["sigma"] == 1.2
    assert d["family_size"] == rep.family_size
    assert "elapsed_s" not in d
