"""Closed-form expansion: kernels, J(X), and the coefficient ladder."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from quadhecke import expansion, zint
from quadhecke._numerics import cauchy_derivs, panel_layout, panel_nodes
from quadhecke.specfun import zeta_K_log_deriv
from quadhecke.transforms import make_bump, make_fejer

from oracles import moebius

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


_SF_BOUND = int(112.0 * 150.0) + 1     # the largest bound the kernel tests ask for


@functools.cache
def _sf_elements():
    """norm and mu / norm of the primary squarefree elements up to
    _SF_BOUND, each mu from a factorization."""
    re, im, norm = zint.primary_squarefree_arrays(_SF_BOUND)
    mu = np.array([moebius(zint.GInt(a, b))
                   for a, b in zip(re.tolist(), im.tolist())])
    return norm.astype(float), mu / norm


def _sf_terms(bound):
    """norm and mu / norm of the primary squarefree elements up to bound."""
    assert bound <= _SF_BOUND
    norm, wmu = _sf_elements()
    k = int(np.searchsorted(norm, bound, side="right"))
    return norm[:k], wmu[:k]


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
    # the d array comes from its Euler factors, not the family sieve; once
    # the tables exist, J_X and c_w read it and sieve nothing
    zint.primary_squarefree_arrays.cache_clear()
    expansion._KernelTables(weight, ctx, y_cap=200.0)
    assert zint.primary_squarefree_arrays.cache_info().currsize == 0
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


@pytest.mark.parametrize("X", [math.inf, -math.inf, math.nan])
def test_non_finite_X_raises(fejer15, weight, ctx, X):
    with pytest.raises(ValueError):
        expansion.J_X(X, fejer15, weight, ctx)
    with pytest.raises(ValueError):
        expansion.J_first_order(X, fejer15, weight, ctx)


def _J_reference(X, test, tab, h):
    """J(X) on GL-12 panels of width <= h, branch 2 broken at tau = L."""
    L = math.log(X)
    top1 = min(max(test.sigma - 1.0, 0.0) * L, 2.0 * math.log(112.0))
    t1, q1 = panel_nodes(0.0, top1, h, 12)
    f1 = np.array([tab.H1(math.exp(0.5 * t)) for t in t1])
    total = float(np.dot(q1, test.phi_hat(1.0 + t1 / L) * np.exp(0.5 * t1) * f1))
    top2 = min((1.0 + test.sigma) * L, 2.0 * math.log(tab.y_cap))
    t2, q2 = panel_nodes(0.0, top2, h, 12, breaks=(L,))
    f2 = np.array([tab.H2(math.exp(0.5 * t)) for t in t2])
    return (total + float(np.dot(q2, test.phi_hat(1.0 - t2 / L) * f2))) / L


def test_J_X_kink_break(fejer15, weight, ctx):
    # phi_hat(1 - tau/L) has a kink at tau = L; without a panel edge there
    # GL-12 errs by ~7e-9 at X = 500.  At X = 50 the partial panel at top2
    # is 0.17 wide and carries 1.5e-7 of J.
    tab = expansion.kernel_tables(weight, ctx)
    for X in (50.0, 500.0, 2000.0):
        val, _ = expansion.J_X(X, fejer15, weight, ctx)
        assert abs(val - _J_reference(X, fejer15, tab, 0.0625)) < 1e-10


def test_h2_profile_matches_H2(weight, ctx):
    # one GL-12 panel set on [0, 2 log y_cap]: 65 panels, H2 at y = e^(tau/2)
    tab = expansion.kernel_tables(weight, ctx)
    tau, q, f = tab.h2_profile
    n, step = panel_layout(0.0, 2.0 * math.log(tab.y_cap), 0.25)
    want_tau, want_q = panel_nodes(0.0, 2.0 * math.log(tab.y_cap), 0.25, 12)
    assert n == 65 and tau.size == 12 * n
    assert np.array_equal(tau, want_tau) and np.array_equal(q, want_q)
    edges = step * np.arange(1, n)
    assert np.all(tau[11:-1:12] < edges) and np.all(edges < tau[12::12])
    for t, v in zip(tau, f):
        assert abs(v - tab.H2(math.exp(0.5 * t))) <= 1e-13


def test_J_X_reads_the_profile(fejer15, weight, ctx, monkeypatch):
    # once the profile exists, J_X sums H2 afresh only on the two halves of
    # the panel that holds tau = L, and c_w_coefficients not at all
    tab = expansion.kernel_tables(weight, ctx)
    tab.h2_profile, tab.h2_envelope
    calls = []
    H2 = expansion._KernelTables.H2

    def counted(self, y):
        calls.append(y)
        return H2(self, y)

    monkeypatch.setattr(expansion._KernelTables, "H2", counted)
    for X in (2000.0, 8000.0):
        calls.clear()
        expansion.J_X(X, fejer15, weight, ctx)
        assert len(calls) <= 24
    calls.clear()
    expansion.c_w_coefficients(2, weight, ctx)
    assert calls == []


def test_h2_profile_memory(weight, ctx):
    # d(m) is sieved from its local factors over the odd m <= 112 y_cap, so
    # building the tables holds a few 112 y_cap sized arrays and no r(n)
    # or Moebius array (measured 7.7 MB); the lattice sums run over d's
    # nonzero support, so building the profile holds no such transient
    y_cap = expansion.kernel_tables(weight, ctx).y_cap
    tracemalloc.start()
    try:
        tab = expansion._KernelTables(weight, ctx, y_cap)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tab.h2_profile
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.m.size < 0.15 * (112 * tab.y_cap)
    assert built <= 10e6
    assert peak <= 10e6


def _d_strided(y_cap):
    """d(m) on 0..112 y_cap from the convolution c = r * (mu/N) itself, one
    strided add per n: the reference for the Euler-factor build."""
    m_max = int(112.0 * y_cap) + 1
    a = zint.mobius_by_norm(m_max)
    r = zint.lattice_norm_counts(m_max)
    c = np.zeros(m_max + 1)
    for n in np.flatnonzero(a).tolist():
        c[n::n] += (a[n] / n) * r[1:m_max // n + 1]
    d = -c
    d[2::2] += c[1:m_max // 2 + 1]
    return d


@pytest.mark.parametrize("y_cap", [3000.0, 20.0])
def test_d_support_matches_strided_loop(weight, ctx, y_cap):
    # d(m) from the Euler factors of c/4 against the convolution c = r * (mu/N)
    # summed term by term: the same support, the same values up to rounding
    tab = expansion._KernelTables(weight, ctx, y_cap)
    d = _d_strided(y_cap)
    m = np.flatnonzero(d)
    assert np.array_equal(tab.m, m.astype(float))
    assert np.max(np.abs(tab.d_m / d[m] - 1.0)) <= 1e-15
    # d = 0 on every even m and on every m with a q = 3 mod 4 to an odd
    # power, which is where r(m) = 0; elsewhere every local factor is > 0
    r = zint.lattice_norm_counts(d.size - 1)
    odd = np.arange(1, d.size, 2)
    assert np.array_equal(tab.m, odd[r[odd] > 0].astype(float))


def _m_e_full_ring(max_n, cutoff=10 ** 6):
    """M_E(0..max_n) with the whole E-integral continuation, the prime
    powers included, differentiated on the 64-node Cauchy ring."""
    norms = zint.prime_norms_up_to(cutoff).astype(float)
    ln = np.log(norms)
    b = float(cutoff)

    def F(s):
        h = zeta_K_log_deriv(s) + 1.0 / (s - 1.0)
        out = np.empty_like(s, dtype=complex)
        for i, si in enumerate(s):
            nz = np.exp(-si * ln)
            pp = np.dot(ln, nz * nz / (1.0 - nz))
            pp += b ** (1.0 - 2.0 * si) / (2.0 * si - 1.0)
            out[i] = -(1.0 + h[i] + math.log(2.0) / (2.0 ** si - 1.0) + pp) / si
        return out

    ders = cauchy_derivs(F, 1.0, 0.3, max_n)
    return [((-1.0) ** k * ders[k]).real for k in range(max_n + 1)]


def test_m_e_moment_analytic_matches_full_ring():
    # the prime powers' derivatives are summed exactly, the rest on the ring
    want = _m_e_full_ring(5)
    for max_n in range(6):
        got = expansion.m_e_moment_analytic(max_n)
        assert len(got) == max_n + 1
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)


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
    an = expansion.d_coefficients(2, 10 ** 6, "analytic")
    sv = expansion.d_coefficients(2, 10 ** 6, "sieve")
    for (va, ea), (vs, es) in zip(an, sv):
        assert abs(va - vs) <= ea + es
    assert abs(an[0][0] - D1_REF) < 1e-9
    assert abs(an[1][0] - D2_REF) < 1e-7
    with pytest.raises(ValueError):
        expansion.d_coefficients(0)
    with pytest.raises(ValueError):
        expansion.d_coefficients(2, route="bogus")


def _digamma_moment_quad(m: int, refine: int = 1) -> float:
    """int_0^inf e^(-x/2) x^(m-1) / (1 - e^(-x)) dx by GL-12 panels."""
    x, q = panel_nodes(1e-12, 80.0 + 10.0 * m, 0.5 / refine, 12)
    kern = np.exp(-0.5 * x) / (-np.expm1(-x))
    return float(np.dot(q, kern * x ** (m - 1)))


def test_digamma_moments():
    for m in (2, 3, 5):
        q = _digamma_moment_quad(m)
        q2 = _digamma_moment_quad(m, refine=2)
        assert abs(q - q2) < 1e-10
        assert abs(q - expansion.digamma_moment(m)) < 1e-8
    # closed form at m = 2: Gamma(2) * 3 * zeta(2) = pi^2 / 2
    assert abs(expansion.digamma_moment(2) - math.pi ** 2 / 2.0) < 1e-12
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
