"""Closed-form expansion: kernels, J(X), and the coefficient ladder."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from quadhecke import expansion, specfun, zint
from quadhecke._numerics import panel_layout, panel_nodes
from quadhecke.specfun import default_context
from quadhecke.transforms import make_bump, make_fejer, parse_test_function

from oracles import (J_lattice, KernelProfile, c_w_lattice, d_four_pieces, kernel_profiles,
                     moebius)

# reference values for the gaussian weight at M = 2, the d_m from the
# Taylor coefficients of G with A_alpha's prime sum cut at norm 1e6;
# reproduced by this code and cross-checked against the Laurent data of
# the ratios integrand (d_1 equals its constant term).  The c_wm are the
# Cauchy ring's Taylor coefficients of the smooth dual term, which the
# kernel lattice sums match within their bars (test_c_w_matches_lattice_oracle)
D1_REF = 3.53163815581448
CW1_REF = 0.77322571931975
RW1_REF = -0.515483814622967
D2_REF = 8.2028696716805
CW2_REF = 3.05782639373094
RW2_REF = -0.927394442881387


def test_prefactor(weight):
    assert abs(expansion.prefactor(weight)
               - 3.0 * default_context().zetaK2 / math.pi) < 1e-15


def test_phi_sf_converges():
    lim = expansion.phi_sf_limit()
    e4 = abs(expansion.phi_sf_partial(10 ** 4) - lim)
    e5 = abs(expansion.phi_sf_partial(10 ** 5) - lim)
    assert e5 < e4
    assert e5 < 1e-4


_SF_BOUND = int(112.0 * 150.0) + 1     # the largest bound the kernel tests ask for


@functools.cache
def _sf_elements():
    """norm and mu / norm of the primary squarefree elements up to
    _SF_BOUND, each mu from the product table."""
    re, im, norm = zint.primary_squarefree_arrays(_SF_BOUND)
    mu_of = moebius(_SF_BOUND)
    mu = np.array([mu_of[zint.GInt(a, b)] for a, b in zip(re.tolist(), im.tolist())])
    return norm.astype(float), mu / norm


def _sf_terms(bound):
    """norm and mu / norm of the primary squarefree elements up to bound."""
    assert bound <= _SF_BOUND
    norm, wmu = _sf_elements()
    k = int(np.searchsorted(norm, bound, side="right"))
    return norm[:k], wmu[:k]


def test_h1_cutoff_and_value(weight):
    # H1(y) = sum_n r(n) h1(n y), h1 rebuilt from its definition
    # h1(x) = pref sum_l mu(l)/N(l) (g1(2 N(l) x) - g1(N(l) x))
    tab = expansion.kernel_tables(weight)
    pref = expansion.prefactor(weight)

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


def test_H2_matches_exact_R(weight):
    # H2(y) = 1 + (pref/y) sum_n r(n) (R(2n/y) - R(n/y)) with
    # R(v) = sum_l mu(l)/N(l) g1(v N(l)) summed directly, no table
    tab = expansion.kernel_tables(weight)
    pref = expansion.prefactor(weight)
    for y in (1.0, 2.9, 17.0, 64.5, 150.0):
        norm, wmu = _sf_terms(int(112.0 * y) + 1)

        def R(v):
            keep = norm * v <= 112.0
            return float(np.dot(wmu[keep], weight.g1(v * norm[keep])))

        r = zint.lattice_norm_counts(int(112.0 * y))
        total = sum(int(r[n]) * (R(2.0 * n / y) - R(n / y))
                    for n in np.flatnonzero(r[1:]) + 1)
        assert abs(tab.H2(y) - (1.0 + pref / y * total)) < 1e-13


def test_kernel_sums_do_not_resieve(fejer15, weight, monkeypatch):
    # the d array comes from its Euler factors, not the family sieve: the
    # tables, their lattice-sum J and c_w, J_X and c_w call the sieve not once
    calls = []
    sieve = zint.primary_squarefree_arrays

    def counted(bound):
        calls.append(bound)
        return sieve(bound)
    monkeypatch.setattr(zint, "primary_squarefree_arrays", counted)
    expansion._KernelTables(weight, y_cap=200.0)
    expansion.kernel_tables(weight)
    J_lattice(2000.0, fejer15, weight)
    c_w_lattice(2, weight)
    expansion.J_X(2000.0, fejer15, weight)
    expansion.c_w_coefficients(2, weight)
    assert calls == []


def test_J_X_reference_and_decay(fejer15, weight):
    val, err = expansion.J_X(500.0, fejer15, weight)
    assert abs(val - (-0.010088966)) < 1e-6
    assert err < 1e-3
    fo = expansion.J_first_order(500.0, fejer15, weight)
    assert abs(fo - 0.041473558) < 1e-8
    # |J - J_fo| L^2 stays bounded while |J - J_fo| itself shrinks
    gaps = []
    for X in (500.0, 2000.0, 8000.0):
        j, _ = expansion.J_X(X, fejer15, weight)
        gaps.append(abs(j - expansion.J_first_order(X, fejer15, weight)))
    assert gaps[2] < gaps[1] < gaps[0]
    assert all(g * math.log(X) ** 2 < 6.0
               for g, X in zip(gaps, (500.0, 2000.0, 8000.0)))
    with pytest.raises(ValueError):
        expansion.J_X(2.0, fejer15, weight)


@pytest.mark.parametrize("X", [math.inf, -math.inf, math.nan])
def test_non_finite_X_raises(fejer15, weight, X):
    with pytest.raises(ValueError):
        expansion.J_X(X, fejer15, weight)
    with pytest.raises(ValueError):
        expansion.J_first_order(X, fejer15, weight)


def _J_reference(X, test, tab, h):
    """The lattice-sum J(X) on GL-12 panels of width <= h, branch 2 broken
    at tau = L and at the start (1 - sigma) L of phi_hat(1 - tau/L)'s support."""
    L = math.log(X)
    top1 = min(max(test.sigma - 1.0, 0.0) * L, 2.0 * math.log(112.0))
    t1, q1 = panel_nodes(0.0, top1, h, 12)
    f1 = np.array([tab.H1(math.exp(0.5 * t)) for t in t1])
    total = float(np.dot(q1, test.phi_hat(1.0 + t1 / L) * np.exp(0.5 * t1) * f1))
    top2 = min((1.0 + test.sigma) * L, 2.0 * math.log(tab.y_cap))
    t2, q2 = panel_nodes(0.0, top2, h, 12, breaks=(L, (1.0 - test.sigma) * L))
    f2 = np.array([tab.H2(math.exp(0.5 * t)) for t in t2])
    return (total + float(np.dot(q2, test.phi_hat(1.0 - t2 / L) * f2))) / L


def test_J_X_kink_break(fejer15, fejer08, weight):
    # in tau, phi_hat(1 - tau/L) has a kink at tau = L, and for fejer with
    # sigma < 1 another where its support starts, at tau = (1 - sigma) L;
    # without a panel edge there GL-12 errs by ~7e-9 at X = 500 (fejer:1.5)
    # and up to 3e-7 (fejer:0.8).  At fejer:1.9 and bump:1.5, X = 8000, the
    # support of phi_hat(1 + tau/L) ends inside the H1 profile.  The
    # lattice-sum J splits its held panels there; J_X integrates the smooth
    # phi(tL/2pi) over t and meets no break, and lands inside the lattice
    # J's own error
    tab = expansion.kernel_tables(weight)
    cases = [(test, X) for test in (fejer15, fejer08, make_fejer(0.5))
             for X in (50.0, 500.0, 2000.0)]
    cases += [(make_fejer(1.9), 8000.0), (make_bump(1.5), 8000.0)]
    for test, X in cases:
        lattice, bar = J_lattice(X, test, weight)
        assert abs(lattice - _J_reference(X, test, tab, 0.0625)) < 1e-10, (test, X)
        assert abs(expansion.J_X(X, test, weight)[0] - lattice) <= bar, (test, X)


# ROADMAP item 17's ten (phi, X) points: sigma 0.5 to 1.9, X 500 to 10^16
_J_POINTS = [("fejer:0.8", 2000.0), ("fejer:0.8", 128000.0), ("fejer:0.5", 128000.0),
             ("fejer:1.5", 2000.0), ("fejer:1.5", 8000.0), ("fejer:1.9", 8000.0),
             ("bump:0.8", 128000.0), ("bump:1.5", 500.0), ("fejer:0.8", 1e12),
             ("bump:0.8", 1e16)]


def test_J_X_matches_lattice_oracle(weight):
    # the smooth dual J against the Poisson-side lattice sums at y_cap =
    # 3000, within the lattice J's own error (its tail plus 3e-6, over L);
    # measured gaps 1.8e-10 to 8.6e-9 against bars of 1.6e-7 to 2.7e-6
    for phi, X in _J_POINTS:
        test = parse_test_function(phi)
        value, err = expansion.J_X(X, test, weight)
        lattice, bar = J_lattice(X, test, weight)
        assert abs(value - lattice) <= bar, (phi, X)
        assert 0.0 < err < 1e-12, (phi, X)


def test_J_X_error_covers_refinement(weight):
    # J_X's error is its change at half the panel width, plus the M_w tail
    # past the cut, plus zeta_K's relative error twice on the integrand's
    # modulus; it covers the panel width quartered and the cut doubled
    w = weight
    T, ell = expansion._mw_cut(w)
    # the cut is M_w's: |M_w(1 - iT)/M_w(1)| first falls below 1e-15 there
    ratio = [abs(w.Mw(1.0 - 1j * t) / w.Mw(1.0)) for t in (T - expansion._J_PANEL_H, T)]
    assert ratio[1] <= expansion._MW_CUT < ratio[0] and T == 44.5
    assert abs(ell - 4.0 / math.pi) < 1e-3        # |M_w(1 - it)| ~ e^(-pi t/4)
    for phi, X in _J_POINTS[:6]:
        test = parse_test_function(phi)
        value, err = expansion.J_X(X, test, w)
        base, modulus = expansion._dual_integral(X, test, w, T, expansion._J_PANEL_H)
        half, _ = expansion._dual_integral(X, test, w, T, 0.5 * expansion._J_PANEL_H)
        last = abs(expansion._dual_axis(w, T, 0.25)[2][-1])
        tail = float(test.phi(0.0)) * last * ell / math.pi
        assert value == base
        assert err == abs(half - base) + tail + 2.0 * specfun._EM_REL * modulus
        for scale_T, scale_h in ((1.0, 0.25), (2.0, 1.0)):
            fine, _ = expansion._dual_integral(X, test, w, scale_T * T,
                                               scale_h * expansion._J_PANEL_H)
            assert abs(fine - value) <= err, (phi, X, scale_T, scale_h)


@pytest.mark.parametrize("name", ["h1_profile", "h2_profile"])
def test_profile_matches_kernel(weight, name):
    # the lattice-sum J's profiles: one GL-12 panel set on [0, cap] at
    # y = e^(tau/2), e^(tau/2) H1 on 38 panels up to 2 log 112, H2 on 65
    # panels up to 2 log y_cap
    tab = expansion.kernel_tables(weight)
    h1 = name == "h1_profile"
    cap = 2.0 * math.log(112.0 if h1 else tab.y_cap)
    prof = kernel_profiles(weight)[0 if h1 else 1]
    n, step = panel_layout(0.0, cap, 0.25)
    want_tau, want_q = panel_nodes(0.0, cap, 0.25, 12)
    assert prof.cap == cap and n == (38 if h1 else 65) and prof.tau.size == 12 * n
    assert np.array_equal(prof.tau, want_tau) and np.array_equal(prof.q, want_q)
    edges = step * np.arange(1, n)
    assert np.all(prof.tau[11:-1:12] < edges) and np.all(edges < prof.tau[12::12])
    # the batched lattice sums keep the bits of one sum at a time
    for t, v in zip(prof.tau, prof.f):
        y = math.exp(0.5 * t)
        assert v == (np.exp(0.5 * t) * tab.H1(y) if h1 else tab.H2(y))
    # a held panel is summed afresh, split at its break, and equals the
    # kernel summed on those two halves
    brk = 5.5 * step
    ones = prof.integral(lambda t: np.ones_like(t))
    assert ones == float(np.dot(prof.q, prof.f))
    t, q = panel_nodes(5.0 * step, 6.0 * step, 0.25, 12, (brk,))
    keep = prof.tau // step != 5
    want = float(np.dot(prof.q[keep], prof.f[keep])) + float(np.dot(q, prof.kernel(t)))
    assert abs(prof.integral(lambda t: np.ones_like(t), (brk,)) - want) < 1e-15 * abs(want)


def test_J_X_reads_the_profile(fejer15, weight, monkeypatch):
    # J_X reads Psi from the axis profile, cut where M_w has decayed, and
    # c_w_coefficients evaluates the smooth dual term on its Cauchy ring:
    # neither builds a kernel table or sums a lattice, and a warm J_X
    # builds no profile
    def boom(*args, **kwargs):
        raise AssertionError("a route read the kernel lattice sums")
    for name in ("kernel_tables", "_kernel_tables"):
        monkeypatch.setattr(expansion, name, boom)
    for name in ("__init__", "H1", "H2"):
        monkeypatch.setattr(expansion._KernelTables, name, boom)
    expansion.J_X(2000.0, fejer15, weight)
    before = specfun._axis_profile.cache_info()
    for X in (8000.0, 1e6):
        expansion.J_X(X, fejer15, weight)
    after = specfun._axis_profile.cache_info()
    assert after.misses == before.misses and after.hits == before.hits
    t, wts, f = expansion._dual_axis(weight, 44.5, expansion._J_PANEL_H)
    assert t.size == 12 * 178 and t[-1] < 44.5
    assert np.array_equal(t, panel_nodes(0.0, 44.5, expansion._J_PANEL_H, 12)[0])
    expansion.c_w_coefficients(8, weight)


def test_h2_profile_memory(weight):
    # d(m) is sieved from its local factors over the odd m <= 112 y_cap, so
    # building the tables holds a few 112 y_cap sized arrays and no r(n)
    # or Moebius array (measured 7.7 MB); the lattice sums run over d's
    # nonzero support, so tabulating H2 on its profile holds no such transient
    y_cap = expansion.kernel_tables(weight).y_cap
    tracemalloc.start()
    try:
        tab = expansion._KernelTables(weight, y_cap)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        KernelProfile(lambda t: tab.H2(np.exp(0.5 * t)), 2.0 * math.log(y_cap))
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
def test_d_support_matches_strided_loop(weight, y_cap):
    # d(m) from the Euler factors of c/4 against the convolution c = r * (mu/N)
    # summed term by term: the same support, the same values up to rounding
    tab = expansion._KernelTables(weight, y_cap)
    d = _d_strided(y_cap)
    m = np.flatnonzero(d)
    assert np.array_equal(tab.m, m.astype(float))
    assert np.max(np.abs(tab.d_m / d[m] - 1.0)) <= 1e-15
    # d = 0 on every even m and on every m with a q = 3 mod 4 to an odd
    # power, which is where r(m) = 0; elsewhere every local factor is > 0
    r = zint.lattice_norm_counts(d.size - 1)
    odd = np.arange(1, d.size, 2)
    assert np.array_equal(tab.m, odd[r[odd] > 0].astype(float))


def test_J_first_order_dies_below_sigma_one(weight):
    # phi_hat(1) = 0 for sigma <= 1, so the first-order term vanishes
    assert expansion.J_first_order(500.0, make_fejer(0.8), weight) == 0.0
    assert expansion.J_first_order(500.0, make_bump(1.0), weight) == 0.0


def test_c_w1_closed_matches_quadrature(weight):
    # the ring's g_0 is c_w1's closed form to rounding; the lattice sums'
    # tau-moment carries ~5e-8 and lands inside its bar (tail plus 3e-6)
    closed = expansion.c_w1_closed(weight)
    (num, err), = expansion.c_w_coefficients(1, weight)
    assert abs(num - CW1_REF) < 1e-12
    assert abs(num - closed) <= 1e-14 and err <= 1e-14
    (lattice, tail), = c_w_lattice(1, weight)
    assert abs(lattice - closed) <= tail + 3e-6


def test_c_w_matches_lattice_oracle(weight):
    # the lattice sums' tau-moments taken to y_cap = 48000 against the ring,
    # within their own tail estimates alone, without the fixed 3e-6 the
    # lattice code added; measured gaps 3.3e-8 (m = 1, bar 4.0e-8) to
    # 3.3e-5 (m = 6, bar 2.2e-3)
    ring = expansion.c_w_coefficients(6, weight)
    for m, ((value, _), (lattice, tail)) in enumerate(
            zip(ring, c_w_lattice(6, weight, y_cap=48000.0)), 1):
        assert abs(value - lattice) <= tail, m


def test_c_w_error_covers_refinement(weight):
    # the bar is the change when the ring radius drops from 0.2 to 0.1, and
    # it covers the ring at 0.15 and at 0.3
    cw = expansion.c_w_coefficients(8, weight)
    g = expansion._ring_taylor(8, weight, 0.2)
    assert [e for _, e in cw] == np.abs(g - expansion._ring_taylor(8, weight, 0.1)).tolist()
    for radius in (0.15, 0.3):
        other = expansion._ring_taylor(8, weight, radius)
        for k, (v, e) in enumerate(cw):
            assert abs((-1) ** k * other[k] - v) <= e, (radius, k)
    with pytest.raises(ValueError):
        expansion.c_w_coefficients(9, weight)


def test_kernel_tables_built_once(weight):
    # the memo keys on resolved values, so the default y_cap and an explicit
    # one share one entry, which the lattice-sum oracles read too
    before = expansion._kernel_tables.cache_info()
    tab = expansion.kernel_tables(weight)
    assert expansion.kernel_tables(weight, y_cap=3000) is tab
    assert expansion.kernel_tables(weight, None, 3000.0) is tab
    after = expansion._kernel_tables.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits + after.misses - before.hits - before.misses == 3


def test_d_matches_four_piece_oracle():
    # the four prime sums cut at 1e6 approach G's Taylor coefficients by a
    # factor 6 to 9 per decade of cutoff, inside their own bars; d_1 has
    # no cutoff bias
    got = expansion.d_coefficients(5)
    want = d_four_pieces(5)
    for (g, _), (w, bar) in zip(got, want):
        assert abs(g - w) <= bar
    assert abs(got[0][0] - want[0][0]) <= 1e-12
    assert abs(got[0][0] - D1_REF) < 1e-9
    assert abs(got[1][0] - D2_REF) < 1e-7
    with pytest.raises(ValueError):
        expansion.d_coefficients(0)


def test_d_error_covers_refinement():
    # the bar is derived, not fixed: the cutoff dropped tenfold plus the
    # ring radius dropped to 0.15, and it covers the cutoff raised tenfold
    d = expansion.d_coefficients(5)
    g = expansion._g_taylor(5, 10 ** 6, 0.2)
    derived = (np.abs(g - expansion._g_taylor(5, 10 ** 5, 0.2))
               + np.abs(g - expansion._g_taylor(5, 10 ** 6, 0.15)))
    assert [e for _, e in d] == derived.tolist()
    fine = expansion._g_taylor(5, 10 ** 7, 0.2)
    for k, (v, e) in enumerate(d):
        assert abs((-1) ** k * fine[k] - v) <= e


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
    # int_0^1 phi_hat, the integral thm_prediction subtracts
    assert abs(fejer15.phi_hat_integral(0.0, 1.0) - (1.0 - 0.5 / 1.5)) < 1e-15
    assert abs(fejer08.phi_hat_integral(0.0, 1.0) - 0.4) < 1e-15
    want, _ = scipy.integrate.quad(bump15.phi_hat, 0.0, 1.0, limit=200)
    assert abs(bump15.phi_hat_integral(0.0, 1.0) - want) < 1e-10


def test_expansion_coefficients_reference(fejer15, weight):
    co = expansion.expansion_coefficients(2, fejer15, weight)
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


def test_thm_prediction_formula(fejer15, weight):
    co = expansion.expansion_coefficients(1, fejer15, weight)
    X = 8000.0
    want = (1.0 - fejer15.phi_hat_integral(0.0, 1.0)
            + co.R_w[0] / math.log(X))
    assert abs(expansion.thm_prediction(X, co, fejer15) - want) < 1e-14
