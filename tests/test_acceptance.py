"""End-to-end acceptance checks: every pinned identity and cross-route
agreement the package promises, at the advertised tolerances."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quadhecke import zint
from quadhecke.empirical import DensityConfig, poisson_pair, total_weight
from quadhecke.expansion import J_X, thm_prediction
from quadhecke.ratios import prime_bridge_check, ratios_first_order
from quadhecke.specfun import A_closed_mr, A_euler, digamma, hurwitz
from quadhecke.transforms import mellin_identity_check
from quadhecke.zint import GInt, I, PrimaryPrime

X_GRID = (500.0, 2000.0, 8000.0)


# --- vector helpers: independent symbol routes over whole arrays -------------------

def _modpow_vec(base: np.ndarray, exp: int, mod: int) -> np.ndarray:
    """base**exp mod `mod` elementwise; mod < 2**15 keeps int64 exact."""
    b = base % mod
    out = np.ones_like(b)
    while exp:
        if exp & 1:
            out = out * b % mod
        b = b * b % mod
        exp >>= 1
    return out


def _pair_pow_vec(u0, v0, exp: int, mod: int):
    """(u + v i)**exp in Z[i]/(mod) as coordinate pairs, elementwise."""
    ru = np.ones_like(u0)
    rv = np.zeros_like(v0)
    u, v = u0 % mod, v0 % mod
    while exp:
        if exp & 1:
            ru, rv = (ru * u - rv * v) % mod, (ru * v + rv * u) % mod
        u, v = (u * u - v * v) % mod, 2 * u * v % mod
        exp >>= 1
    return ru, rv


def _legendre_vec(t: np.ndarray, p: int) -> np.ndarray:
    out = _modpow_vec(t, (p - 1) // 2, p)
    return np.where(out == p - 1, -1, out)


def _odd_grid(norm_cap: int):
    r = math.isqrt(norm_cap)
    xs, ys = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    xs, ys = xs.ravel(), ys.ravel()
    keep = (xs * xs + ys * ys <= norm_cap) & ((xs + ys) % 2 != 0)
    return xs[keep].astype(np.int64), ys[keep].astype(np.int64)


def _residue_reps(pp: PrimaryPrime):
    """Coset reps X + iY of Z[i]/(varpi) from the column HNF of the ideal."""
    a, b = pp.value.re, pp.value.im
    g = math.gcd(abs(a), abs(b))
    xs, ys = np.meshgrid(np.arange(pp.norm // g), np.arange(g))
    return xs.ravel().astype(np.int64), ys.ravel().astype(np.int64)


# --- 1: three symbol routes agree on a large exhaustive box ------------------------

def test_symbol_routes_agree_exhaustively():
    start = time.perf_counter()
    ax, ay = _odd_grid(10 ** 3)
    norms = ax * ax + ay * ay
    primes = zint.primary_primes_up_to(10 ** 4)
    for k, pp in enumerate(primes):
        if pp.kind == "split":
            p = pp.norm
            s = zint.split_i_image(pp)
            fast = _legendre_vec((ax + ay * s) % p, p)
            # generic criterion: power the pair in Z[i]/(p), read off mod varpi
            ru, rv = _pair_pow_vec(ax, ay, (p - 1) // 2, p)
            img = (ru + rv * s) % p
            assert np.isin(img, (0, 1, p - 1)).all()
            euler = np.where(img == p - 1, -1, img)
        else:
            q = pp.rational()
            fast = _legendre_vec(norms % q, q)
            ru, rv = _pair_pow_vec(ax, ay, (q * q - 1) // 2, q)
            assert ((rv == 0) | ((ax % q == 0) & (ay % q == 0))).all()
            euler = np.where(rv != 0, 0, np.where(ru == q - 1, -1, ru))
        assert np.array_equal(fast, euler), f"route mismatch at {pp!r}"
        if k % 7 == 0:
            for j in range(0, ax.size, 5):
                a = GInt(int(ax[j]), int(ay[j]))
                assert zint.quad_symbol(a, pp.value) == fast[j]
        if k % 29 == 0:
            for j in range(0, ax.size, 41):
                a = GInt(int(ax[j]), int(ay[j]))
                assert zint.quad_symbol(a, pp.value, method="euler") == fast[j]

    # small moduli: the symbol is literally the square-set indicator
    for pp in zint.primary_primes_up_to(200):
        xs, ys = _residue_reps(pp)
        if pp.kind == "split":
            p = pp.norm
            s = zint.split_i_image(pp)
            img = (xs + ys * s) % p
            squares = set(int(t) * int(t) % p for t in range(1, p))
            for x, y, m in zip(xs, ys, img):
                want = 0 if m == 0 else (1 if int(m) in squares else -1)
                assert zint.quad_symbol(GInt(int(x), int(y)), pp.value) == want
        else:
            q = pp.rational()
            squares = set()
            for u in range(q):
                for v in range(q):
                    if u or v:
                        squares.add(((u * u - v * v) % q, 2 * u * v % q))
            for x, y in zip(xs, ys):
                u, v = int(x) % q, int(y) % q
                want = 0 if (u, v) == (0, 0) else (
                    1 if (u, v) in squares else -1)
                assert zint.quad_symbol(GInt(int(x), int(y)), pp.value) == want
    assert time.perf_counter() - start < 60.0


# --- 2: symbol symmetry between coprime primary elements ---------------------------

def test_reciprocity_all_primary_pairs():
    elems = []
    r = math.isqrt(500)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            z = GInt(x, y)
            if 1 < x * x + y * y <= 500 and zint.is_primary(z):
                elems.append(z)
    keys = [frozenset((pp.value.re, pp.value.im) for pp, _ in zint.factor(z)[2])
            for z in elems]
    checked = 0
    for i, m in enumerate(elems):
        for j in range(i + 1, len(elems)):
            if keys[i] & keys[j]:
                continue
            n = elems[j]
            assert zint.quad_symbol(m, n) == zint.quad_symbol(n, m), (m, n)
            checked += 1
    assert checked > 10 ** 4


# --- 3: Gauss sums against the symbol closed form ----------------------------------

def test_gauss_sum_closed_form_all_residues():
    worst = 0.0
    for pp in zint.primary_primes_up_to(1000):
        a, b = pp.value.re, pp.value.im
        nn = pp.norm
        xs, ys = _residue_reps(pp)
        u = (a * ys - b * xs) % nn
        v = (a * xs + b * ys) % nn
        chi = np.array([zint.quad_symbol(GInt(int(x), int(y)), pp.value)
                        for x, y in zip(xs, ys)], dtype=np.int64)
        phase = (np.multiply.outer(xs, u) + np.multiply.outer(ys, v)) % nn
        got = np.exp(2j * math.pi / nn * phase) @ chi.astype(float)
        want = zint.quad_symbol(I, pp.value) * chi * math.sqrt(nn)
        worst = max(worst, float(np.max(np.abs(got - want))))
        for j in (0, len(xs) // 3, 2 * len(xs) // 3):
            lib = zint.gauss_sum(GInt(int(xs[j]), int(ys[j])), pp.value)
            assert abs(lib - got[j]) < 1e-9
    assert worst < 1e-9


# --- 4: Poisson summation, plain and twisted ---------------------------------------

def test_poisson_summation_twisted(weight):
    for n in (GInt(-1, -2), GInt(3, 2), GInt(5, 4)):
        assert zint.is_primary(n)
        for X in (1.0, 10.0):
            lhs, rhs = poisson_pair(weight, X, n)
            assert abs(lhs - rhs) < 1e-6, (n, X)


# --- 5: pinned constants ------------------------------------------------------------

def test_constants(ctx):
    assert abs(ctx.zetaK0 + 0.25) < 1e-8
    # rebuilt from the Hurwitz factorization: the pole guard on zeta_K
    # itself keeps direct evaluation this close to s = 1 out of reach
    s = 1.0 + 1e-6
    l4 = 4.0 ** -s * (complex(hurwitz(s, 0.25)) - complex(hurwitz(s, 0.75)))
    val = (s - 1.0) * complex(hurwitz(s, 1.0)) * l4
    assert abs(val - math.pi / 4.0) < 1e-5
    assert abs(ctx.residue - val.real) < 1e-12
    assert abs(complex(digamma(0.5)) + ctx.gamma + 2.0 * math.log(2.0)) < 1e-10
    via_gamma_k = ctx.gamma_K / math.pi - 0.5 * (math.log(math.pi) + ctx.gamma)
    assert abs(ctx.zetaK0_prime - via_gamma_k) < 1e-6


# --- 6: Euler-product normalization -------------------------------------------------

def test_a_factor_normalization(ctx):
    for r in (0.0, 0.1, 0.1 + 0.2j):
        assert abs(A_euler(r, r, ctx) - 1.0) < 1e-12
    assert ctx.euler_cutoff == 10 ** 6
    assert abs(A_closed_mr(0.1, ctx) - A_euler(-0.1, 0.1, ctx)) < 1e-6


# --- 7: Mellin route through the weight ---------------------------------------------

def test_mellin_identity(weight):
    assert mellin_identity_check(weight, 0.5) < 1e-4
    assert mellin_identity_check(weight, 0.5 + 1.0j) < 1e-4
    assert abs(weight.w_tilde(0.0) - 0.5 * math.pi * weight.w_hat0) < 1e-8


# --- 8: family weight density --------------------------------------------------------

def test_family_weight_density(ctx, fejer15, weight):
    start = time.perf_counter()
    X = 1e5
    wx = total_weight(DensityConfig(X, fejer15, weight))
    limit = math.pi / (3.0 * ctx.zetaK2) * weight.w_hat0
    assert abs(wx / X - limit) / limit < 0.01
    assert time.perf_counter() - start < 60.0


# --- 9: odd prime sum against the resummed kernel -----------------------------------

def test_odd_sum_kernel_bridge(emp_grid_15, fejer15, weight, ctx):
    s_odd = emp_grid_15[2000.0].S_odd
    j_val, _ = J_X(2000.0, fejer15, weight, ctx)
    gap = s_odd - fejer15.phi_hat_tail_integral() - j_val
    assert abs(gap) <= 0.05


# --- 10: combined prime term against the even prime-power sum -----------------------

def test_prime_sum_bridge(fejer15, weight, ctx):
    out = prime_bridge_check(DensityConfig(2000.0, fejer15, weight), ctx)
    assert abs(out["difference"]) < 1e-4


# --- 11: measured density against the first-order prediction ------------------------

def test_density_matches_prediction(emp_grid_15, fejer15, weight, ctx):
    resid = {}
    for x in X_GRID:
        fo = ratios_first_order(DensityConfig(x, fejer15, weight), ctx)
        resid[x] = emp_grid_15[x].D_total - fo.D_ratios_first_order
    assert abs(resid[2000.0]) <= 0.1
    for x in X_GRID:
        assert abs(resid[x]) * math.log(x) ** 2 <= 10.0
    gaps = [abs(resid[x]) for x in X_GRID]
    assert gaps[0] >= gaps[1] >= gaps[2]


# --- 12: restricted support collapses the density to the closed prediction ----------

def test_small_support_regime(emp_grid_08, coeffs08_m1, fejer08):
    odd = [abs(emp_grid_08[x].S_odd) for x in X_GRID]
    assert odd[0] > odd[1] > odd[2]
    want = thm_prediction(8000.0, coeffs08_m1, fejer08)
    assert abs(emp_grid_08[8000.0].D_total - want) <= 0.05


# --- 13: repeat runs are byte-identical ----------------------------------------------

def test_compare_runs_byte_identical(tmp_path):
    # the subprocesses import this checkout's package, not an installed copy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    blobs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "quadhecke.cli", "compare",
             "--X-grid", "100,200", "--T-cap", "150", "--M", "1",
             "--out", str(path)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert b"D_emp" in blobs[0]


# --- memoized data ---------------------------------------------------------------

def test_memoized_arrays_read_only(weight, ctx):
    # every cache hands out shared arrays; a caller writing into one must fail
    from quadhecke import _numerics, expansion, ratios
    from quadhecke.transforms import make_bump
    tab = expansion.kernel_tables(weight, ctx)
    arrays = [*zint.primary_squarefree_arrays(500),
              *zint.primary_squarefree_arrays(500, with_mu=True),
              zint.prime_norms_up_to(500), zint.lattice_norm_counts(50),
              *_numerics.leggauss(12), tab.d,
              weight._wt_table.values, weight._gt_table.values,
              *make_bump(1.5)._bump_nodes,
              *ratios._axis_profile(3.7, 0.25, ctx), ctx.z_taylor]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0
