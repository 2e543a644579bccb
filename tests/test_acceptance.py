"""End-to-end acceptance checks: the oracles and cross-route agreements the
package promises, at the advertised tolerances.  Identities that `selftest`
also checks are entries of quadhecke.checks, run by tests/test_checks.py;
item 10 (the prime-sum bridge) lives there whole."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quadhecke import zint
from quadhecke.empirical import DensityConfig, _family, poisson_pair
from quadhecke.expansion import J_X, thm_prediction
from quadhecke.ratios import ratios_first_order
from quadhecke.specfun import default_context, hurwitz
from quadhecke.zint import GInt, I

from oracles import i_images, legendre_euler

X_GRID = (500.0, 2000.0, 8000.0)


# --- vector helpers: independent symbol routes over whole arrays -------------------

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


def _residue_reps(pp: GInt):
    """Coset reps X + iY of Z[i]/(varpi) from the column HNF of the ideal."""
    a, b = pp.re, pp.im
    g = math.gcd(abs(a), abs(b))
    xs, ys = np.meshgrid(np.arange(pp.norm() // g), np.arange(g))
    return xs.ravel().astype(np.int64), ys.ravel().astype(np.int64)


# --- 1: three symbol routes agree on a large exhaustive box ------------------------

def test_symbol_routes_agree_exhaustively():
    start = time.perf_counter()
    ax, ay, norms = zint.lattice_points(10 ** 3)
    odd = (ax + ay) % 2 == 1
    ax, ay, norms = ax[odd], ay[odd], norms[odd]
    primes = zint.primary_primes_up_to(10 ** 4)
    images = i_images(primes)
    for k, pp in enumerate(primes):
        if pp in images:
            p = pp.norm()
            s = images[pp]
            fast = legendre_euler(ax + ay * s, p)
            # generic criterion: power the pair in Z[i]/(p), read off mod varpi
            ru, rv = _pair_pow_vec(ax, ay, (p - 1) // 2, p)
            img = (ru + rv * s) % p
            assert np.isin(img, (0, 1, p - 1)).all()
            euler = np.where(img == p - 1, -1, img)
        else:
            q = math.isqrt(pp.norm())
            fast = legendre_euler(norms, q)
            ru, rv = _pair_pow_vec(ax, ay, (q * q - 1) // 2, q)
            assert ((rv == 0) | ((ax % q == 0) & (ay % q == 0))).all()
            euler = np.where(rv != 0, 0, np.where(ru == q - 1, -1, ru))
        assert np.array_equal(fast, euler), f"route mismatch at {pp!r}"
        if k % 7 == 0:
            for j in range(0, ax.size, 5):
                a = GInt(int(ax[j]), int(ay[j]))
                assert zint.quad_symbol(a, pp) == fast[j]
        if k % 29 == 0:
            for j in range(0, ax.size, 41):
                a = GInt(int(ax[j]), int(ay[j]))
                assert zint._symbol_prime_euler(a, pp) == fast[j]

    # small moduli: the symbol is literally the square-set indicator
    for pp in zint.primary_primes_up_to(200):
        xs, ys = _residue_reps(pp)
        if pp in images:
            p = pp.norm()
            s = images[pp]
            img = (xs + ys * s) % p
            squares = set(int(t) * int(t) % p for t in range(1, p))
            for x, y, m in zip(xs, ys, img):
                want = 0 if m == 0 else (1 if int(m) in squares else -1)
                assert zint.quad_symbol(GInt(int(x), int(y)), pp) == want
        else:
            q = math.isqrt(pp.norm())
            squares = set()
            for u in range(q):
                for v in range(q):
                    if u or v:
                        squares.add(((u * u - v * v) % q, 2 * u * v % q))
            for x, y in zip(xs, ys):
                u, v = int(x) % q, int(y) % q
                want = 0 if (u, v) == (0, 0) else (
                    1 if (u, v) in squares else -1)
                assert zint.quad_symbol(GInt(int(x), int(y)), pp) == want
    assert time.perf_counter() - start < 60.0


# --- 3: Gauss sums against the symbol closed form ----------------------------------

def test_gauss_sum_closed_form_all_residues():
    worst = 0.0
    for pp in zint.primary_primes_up_to(1000):
        a, b = pp.re, pp.im
        nn = pp.norm()
        xs, ys = _residue_reps(pp)
        u = (a * ys - b * xs) % nn
        v = (a * xs + b * ys) % nn
        chi = np.array([zint.quad_symbol(GInt(int(x), int(y)), pp)
                        for x, y in zip(xs, ys)], dtype=np.int64)
        phase = (np.multiply.outer(xs, u) + np.multiply.outer(ys, v)) % nn
        got = np.exp(2j * math.pi / nn * phase) @ chi.astype(float)
        want = zint.quad_symbol(I, pp) * chi * math.sqrt(nn)
        worst = max(worst, float(np.max(np.abs(got - want))))
        for j in (0, len(xs) // 3, 2 * len(xs) // 3):
            lib = zint.gauss_sum(GInt(int(xs[j]), int(ys[j])), pp)
            assert abs(lib - got[j]) < 1e-9
    assert worst < 1e-9


# --- 4: Poisson summation, plain and twisted ---------------------------------------

def test_poisson_summation_twisted(weight):
    # n = -1-2i at X = 1 is the selftest row poisson_twisted_X1
    cases = [(GInt(-1, -2), 10.0)] + [(n, X) for n in (GInt(3, 2), GInt(5, 4))
                                      for X in (1.0, 10.0)]
    for n, X in cases:
        assert zint.is_primary(n)
        lhs, rhs = poisson_pair(weight, X, n)
        assert abs(lhs - rhs) < 1e-6, (n, X)


# --- 5: pinned constants ------------------------------------------------------------

def test_constants():
    # rebuilt from the Hurwitz factorization: the pole guard on zeta_K
    # itself keeps direct evaluation this close to s = 1 out of reach
    s = 1.0 + 1e-6
    l4 = 4.0 ** -s * (hurwitz(s, 0.25)[0] - hurwitz(s, 0.75)[0])
    val = (s - 1.0) * hurwitz(s, 1.0)[0] * l4
    assert abs(val - math.pi / 4.0) < 1e-5
    assert abs(default_context().residue - val.real) < 1e-12


# --- 8: family weight density --------------------------------------------------------

def test_family_weight_density(fejer15, weight):
    # the mass itself is the selftest row weight_mass_1e5; this bounds the
    # cost of a build, so the family memo is cleared first
    from quadhecke import empirical
    empirical._family_of.cache_clear()
    start = time.perf_counter()
    _family(DensityConfig(1e5, fejer15, weight))
    assert time.perf_counter() - start < 60.0


# --- 9: odd prime sum against the resummed kernel -----------------------------------

def test_odd_sum_kernel_bridge(emp_grid_15, fejer15, weight):
    s_odd = emp_grid_15[2000.0].S_odd
    j_val, _ = J_X(2000.0, fejer15, weight)
    gap = s_odd - fejer15.phi_hat_integral(1.0, math.inf) - j_val
    assert abs(gap) <= 0.05


# --- 11: measured density against the first-order prediction ------------------------

def test_density_matches_prediction(emp_grid_15, fejer15, weight):
    resid = {}
    for x in X_GRID:
        fo = ratios_first_order(DensityConfig(x, fejer15, weight))
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

def test_memoized_arrays_read_only(weight):
    # every cache hands out shared arrays; a caller writing into one must fail
    from quadhecke import _numerics, expansion, specfun
    from quadhecke.transforms import make_bump
    tab = expansion.kernel_tables(weight)
    arrays = [*zint.primary_squarefree_arrays(500),
              zint.prime_norms_up_to(500),
              *_numerics.leggauss(12), tab.m, tab.d_m,
              weight._wt_table.values, weight._gt_table.values,
              *make_bump(1.5)._bump_nodes,
              *specfun._axis_profile(3.7, 0.25),
              *expansion._dual_axis(weight, 3.7, 0.25),
              *_family(DensityConfig(500.0, make_bump(1.5), weight)).conductors[:2],
              *_family(DensityConfig(500.0, make_bump(1.5), weight)).by_norm,
              _family(DensityConfig(500.0, make_bump(1.5), weight)).dual_phase_sum(3.7, 0.25)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0
