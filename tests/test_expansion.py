"""Closed-form expansion: kernels, J(X), and the coefficient ladder."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from quadhecke import expansion, zint
from quadhecke.transforms import make_bump, make_fejer

# reference values for the gaussian weight at M = 2, analytic route,
# cutoff 1e6; reproduced by this code and cross-checked against the
# Laurent data of the ratios integrand (d_1 equals its constant term)
D1_REF = 3.53163815581448
CW1_REF = 0.773225665995813
RW1_REF = -0.515483829572399
D2_REF = 8.20292893372279
CW2_REF = 3.05782650086198
RW2_REF = -0.927434022331608


def test_prefactor(weight, ctx):
    assert abs(expansion.prefactor(weight, ctx)
               - 3.0 * ctx.zetaK2 / math.pi) < 1e-15


def test_phi_sf_converges(ctx):
    lim = expansion.phi_sf_limit(ctx)
    e4 = abs(expansion.phi_sf_partial(10 ** 4) - lim)
    e5 = abs(expansion.phi_sf_partial(10 ** 5) - lim)
    assert e5 < e4
    assert e5 < 1e-4


def _sf_terms(bound):
    """norm and mu / norm of the primary squarefree elements up to bound."""
    _, _, norm, mu = zint.primary_squarefree_arrays(bound, with_mu=True)
    return norm.astype(float), mu / norm


def test_h1_cutoff_and_value(weight, ctx):
    # H1(y) = sum_n r(n) h1(n y), h1 rebuilt from its definition
    # h1(x) = pref sum_l mu(l)/N(l) (g1(2 N(l) x) - g1(N(l) x))
    tab = expansion.kernel_tables(weight, ctx)
    pref = expansion.prefactor(weight, ctx)

    def h1(x):
        norm, wmu = _sf_terms(int(112.0 / x) + 1)
        return pref * float(np.dot(wmu, weight.g1(2.0 * norm * x)
                                   - weight.g1(norm * x)))

    r = zint.lattice_norm_counts(200)
    for y in (1.0, 1.37, 3.0, 20.5, 111.0):
        want = sum(int(r[n]) * h1(n * y)
                   for n in range(1, int(112.0 / y) + 1) if r[n])
        assert abs(tab.H1(y) - want) < 1e-14
    assert tab.H1(113.0) == 0.0
    # d(m) stops at m = 112 y_cap, so H1 needs y >= 1/y_cap
    for y in (0.0, 0.5 / tab.y_cap):
        with pytest.raises(ValueError):
            tab.H1(y)


def test_H2_matches_exact_R(weight, ctx):
    # H2(y) = 1 + (pref/y) sum_n r(n) (R(2n/y) - R(n/y)) with
    # R(v) = sum_l mu(l)/N(l) g1(v N(l)) summed directly, no table
    tab = expansion.kernel_tables(weight, ctx)
    pref = expansion.prefactor(weight, ctx)
    for y in (1.0, 2.9, 17.0, 64.5, 150.0):
        norm, wmu = _sf_terms(int(112.0 * y) + 1)

        def R(v):
            keep = norm * v <= 112.0
            return float(np.dot(wmu[keep], weight.g1(v * norm[keep])))

        r = zint.lattice_norm_counts(int(112.0 * y))
        total = sum(int(r[n]) * (R(2.0 * n / y) - R(n / y))
                    for n in np.flatnonzero(r[1:]) + 1)
        assert abs(tab.H2(y) - (1.0 + pref / y * total)) < 1e-13


def test_kernel_sums_do_not_resieve(fejer15, weight, ctx):
    # once the tables exist, J_X and c_w read the d array and sieve nothing
    expansion.kernel_tables(weight, ctx)
    zint.primary_squarefree_arrays.cache_clear()
    expansion.J_X(2000.0, fejer15, weight, ctx)
    expansion.c_w_coefficients(2, weight, ctx)
    assert zint.primary_squarefree_arrays.cache_info().misses == 0


def test_J_X_reference_and_decay(fejer15, weight, ctx):
    val, err = expansion.J_X(500.0, fejer15, weight, ctx)
    assert abs(val - (-0.010088966)) < 1e-6
    assert err < 1e-3
    fo = expansion.J_first_order(500.0, fejer15, weight, ctx)
    assert abs(fo - 0.041473558) < 1e-8
    # |J - J_fo| L^2 stays bounded while |J - J_fo| itself shrinks
    gaps = []
    for X in (500.0, 2000.0, 8000.0):
        j, _ = expansion.J_X(X, fejer15, weight, ctx)
        gaps.append(abs(j - expansion.J_first_order(X, fejer15, weight, ctx)))
    assert gaps[2] < gaps[1] < gaps[0]
    assert all(g * math.log(X) ** 2 < 6.0
               for g, X in zip(gaps, (500.0, 2000.0, 8000.0)))
    with pytest.raises(ValueError):
        expansion.J_X(2.0, fejer15, weight, ctx)


def test_J_first_order_dies_below_sigma_one(weight, ctx):
    # phi_hat(1) = 0 for sigma <= 1, so the first-order term vanishes
    assert expansion.J_first_order(500.0, make_fejer(0.8), weight, ctx) == 0.0
    assert expansion.J_first_order(500.0, make_bump(1.0), weight, ctx) == 0.0


def test_c_w1_closed_matches_quadrature(weight, ctx):
    closed = expansion.c_w1_closed(weight, ctx)
    (num, err), = expansion.c_w_coefficients(1, weight, ctx)
    assert abs(num - CW1_REF) < 1e-12
    # table-backed quadrature carries ~5e-8; the closed form is the anchor
    assert abs(num - closed) <= max(err, 1e-6)


def test_kernel_tables_built_once(fejer15, weight, ctx):
    # the memo keys on resolved values, so the default y_cap, an explicit
    # one and the calls inside J_X and c_w_coefficients share one entry
    before = expansion._kernel_tables.cache_info()
    tab = expansion.kernel_tables(weight, ctx)
    expansion.J_X(2000.0, fejer15, weight, ctx)
    expansion.c_w_coefficients(1, weight, ctx)
    assert expansion.kernel_tables(weight, ctx, 3000) is tab
    after = expansion._kernel_tables.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits + after.misses - before.hits - before.misses == 4


def test_d_routes_agree(ctx):
    an = expansion.d_coefficients(2, 10 ** 6, "analytic", ctx)
    sv = expansion.d_coefficients(2, 10 ** 6, "sieve", ctx)
    for (va, ea), (vs, es) in zip(an, sv):
        assert abs(va - vs) <= ea + es
    assert abs(an[0][0] - D1_REF) < 1e-9
    assert abs(an[1][0] - D2_REF) < 1e-7
    with pytest.raises(ValueError):
        expansion.d_coefficients(0)
    with pytest.raises(ValueError):
        expansion.d_coefficients(2, route="bogus")


def test_digamma_moments():
    for m in (2, 3, 5):
        q = expansion.digamma_moment(m)
        q2 = expansion.digamma_moment(m, refine=2)
        closed = expansion.digamma_moment_closed(m)
        assert abs(q - q2) < 1e-10
        assert abs(q - closed) < 1e-8
    # closed form at m = 2: Gamma(2) * 3 * zeta(2) = pi^2 / 2
    assert abs(expansion.digamma_moment_closed(2) - math.pi ** 2 / 2.0) < 1e-12
    with pytest.raises(ValueError):
        expansion.digamma_moment(1)


def test_phi_hat_half_integral(fejer15, fejer08, bump15):
    assert abs(expansion.phi_hat_half_integral(fejer15) - (1.0 - 0.5 / 1.5)) < 1e-15
    assert abs(expansion.phi_hat_half_integral(fejer08) - 0.4) < 1e-15
    want, _ = scipy.integrate.quad(bump15.phi_hat, 0.0, 1.0, limit=200)
    assert abs(expansion.phi_hat_half_integral(bump15) - want) < 1e-10


def test_expansion_coefficients_reference(fejer15, weight, ctx):
    co = expansion.expansion_coefficients(2, fejer15, weight, ctx)
    assert abs(co.d[0] - D1_REF) < 1e-9
    assert abs(co.d[1] - D2_REF) < 1e-7
    assert abs(co.c_w[0] - CW1_REF) < 1e-6
    assert abs(co.c_w[1] - CW2_REF) < 1e-5
    assert abs(co.R_w[0] - RW1_REF) < 1e-6
    assert abs(co.R_w[1] - RW2_REF) < 1e-5
    rows = co.as_rows()
    assert [r["m"] for r in rows] == [1, 2]
    for r in rows:
        assert set(r) == {"m", "d_m", "c_wm", "R_wm", "error_m"}
        assert r["error_m"] >= 0.0


def test_thm_prediction_formula(fejer15, weight, ctx):
    co = expansion.expansion_coefficients(1, fejer15, weight, ctx)
    X = 8000.0
    want = (1.0 - expansion.phi_hat_half_integral(fejer15)
            + co.R_w[0] / math.log(X))
    assert abs(expansion.thm_prediction(X, co, fejer15) - want) < 1e-14


def test_precise_decomposition_totals(fejer15, weight, ctx):
    out = expansion.precise_decomposition(500.0, fejer15, weight, ctx)
    parts = out["main"] + out["conductor"] + out["J"] + out["digamma"] + out["even"]
    assert abs(out["total"] - parts) < 1e-14
    assert out["J_err"] >= 0.0
