"""Fourier pair (phi, phi_hat), the gaussian weight transforms, Mellin checks."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from quadhecke import transforms
from quadhecke._numerics import chebyshev_fill
from quadhecke.transforms import (
    M_MAX,
    make_bump,
    make_fejer,
    make_gaussian_weight,
    mellin_num,
    parse_test_function,
    parse_weight,
)

mp.mp.dps = 30


# --- bessel_j0 ------------------------------------------------------------------

def test_w_tilde_vs_mpmath():
    # 2 pi t r crosses 12 inside the support for each t; J0 from mpmath.
    # A power series for J0 up to 12 loses ~4e-15 here to cancellation.
    w = make_gaussian_weight()
    edges = [mp.mpf(k) / 8 for k in range(21)]      # [0, 2.5] in panels
    for t in (1.0, 2.0, 2.5, 3.0):
        tt = mp.mpf(t)
        want = 2 * mp.pi * mp.quad(
            lambda r: mp.exp(-mp.pi * r ** 4) * mp.besselj(0, 2 * mp.pi * tt * r) * r,
            edges)
        assert abs(w.w_tilde(t) - float(want)) < 2e-15


def test_bessel_j0_scalar():
    assert transforms.bessel_j0(0.0) == 1.0
    assert abs(transforms.bessel_j0(-3.1) - scipy.special.j0(3.1)) < 1e-14


# --- fejer test function ----------------------------------------------------------

def test_fejer_closed_forms():
    f = make_fejer(1.5)
    assert f.phi_hat(0.0) == 1.0
    assert f.phi_hat(1.5) == 0.0
    assert f.phi_hat(2.0) == 0.0
    assert abs(f.phi_hat(0.75) - 0.5) < 1e-15
    assert abs(f.phi_hat(-0.75) - 0.5) < 1e-15
    assert abs(f.phi(0.0) - 1.5) < 1e-15
    # phi integrates to phi_hat(0) = 1 up to the 1/x^2 window tail, whose
    # leading term (sin^2 averaged to 1/2) is 1/(pi^2 sigma X)
    window = 60.0
    val, _ = scipy.integrate.quad(f.phi, -window, window, limit=4000)
    tail = 1.0 / (math.pi ** 2 * f.sigma * window)
    assert abs(val - (1.0 - tail)) < 1e-5


def test_fejer_pair_identity():
    # phi(x) = int phi_hat(u) e^{2 pi i x u} du, both sides closed-form
    f = make_fejer(1.2)
    for x in (0.1, 0.7, 2.3, 9.0):
        want, _ = scipy.integrate.quad(
            lambda u: 2.0 * f.phi_hat(u) * math.cos(2.0 * math.pi * x * u),
            0.0, f.sigma, limit=400)
        assert abs(f.phi(x) - want) < 1e-12


def test_fejer_derivs():
    f = make_fejer(1.5)
    assert f.phi_hat_deriv(0.0, 0) == 1.0
    assert f.phi_hat_deriv(0.0, 1) == -1.0 / 1.5
    assert f.phi_hat_deriv(0.0, 5) == 0.0
    assert abs(f.phi_hat_deriv(1.0, 0) - (1.0 - 1.0 / 1.5)) < 1e-15
    assert f.phi_hat_deriv(1.0, 1) == -1.0 / 1.5
    assert f.phi_hat_deriv(1.0, 2) == 0.0
    # int_1^sigma (1 - u/sigma) du = (sigma-1)^2 / (2 sigma)
    assert abs(f.phi_hat_integral(1.0, math.inf) - 0.25 / 3.0) < 1e-15
    assert make_fejer(0.8).phi_hat_integral(1.0, math.inf) == 0.0
    with pytest.raises(ValueError):
        f.phi_hat_deriv(0.0, M_MAX + 1)


# --- bump test function ------------------------------------------------------------

def test_bump_phi_hat_shape():
    b = make_bump(1.5)
    assert abs(b.phi_hat(0.0) - 1.0) < 1e-15
    assert b.phi_hat(1.5) == 0.0
    assert b.phi_hat(1.7) == 0.0
    u = 0.9
    want = math.exp(1.0 - 1.0 / (1.0 - (u / 1.5) ** 2))
    assert abs(b.phi_hat(u) - want) < 1e-15
    assert b.phi_hat(-u) == b.phi_hat(u)


def test_bump_pair_against_quadrature():
    # the cached panel rule vs an independent integrator, small and large x
    b = make_bump(1.5)
    for x in (0.0, 0.3, 2.0, 11.0, 35.0):
        want, err = scipy.integrate.quad(
            lambda u: 2.0 * b.phi_hat(u) * math.cos(2.0 * math.pi * x * u),
            0.0, b.sigma, limit=4000, epsabs=1e-13)
        assert abs(b.phi(x) - want) < 5e-11


def test_bump_phi_mpmath_far_field():
    # the doubled-exponential oracle that calibrated the evaluation cutoff
    b = make_bump(1.0)
    for x, tol in ((60.0, 1e-13), (100.0, 1e-13)):
        with mp.workdps(30):
            want = 2 * mp.quad(
                lambda u: mp.exp(1 - 1 / (1 - u ** 2)) * mp.cos(2 * mp.pi * x * u),
                mp.linspace(0, 1, 2 * int(x) + 2))
        assert abs(b.phi(x) - float(want)) < tol


def test_bump_phi_cutoff():
    # past sigma|x| = 150 the true value is under 2e-15 and the rule returns 0
    b = make_bump(1.5)
    assert b.phi(101.0) == 0.0
    assert b.phi(-101.0) == 0.0
    assert b.phi(99.9) != 0.0
    arr = b.phi(np.array([0.5, 120.0]))
    assert arr[1] == 0.0 and arr[0] > 0.0


def test_bump_phi_blocks_keep_bits(monkeypatch):
    # each value of the bump's phi is its own row's einsum sum, so blocks of
    # any size give the bits of the 1-row product; at the axis profile's
    # 28800 nodes and J's 6408 (panel widths 0.25 and 0.125 to its M_w cut),
    # x = t L / 2 pi
    from quadhecke import expansion, specfun
    w = make_gaussian_weight()
    T = expansion._mw_cut(w)[0]
    t = np.concatenate([specfun._axis_profile(600.0, 0.25)[0],
                        expansion._dual_axis(w, T, 0.25)[0],
                        expansion._dual_axis(w, T, 0.125)[0]])
    assert t.size == 28800 + 6408
    for sigma, X in ((1.5, 2000.0), (0.8, 500.0), (1.5, 8000.0)):
        b = make_bump(sigma)
        x = t * math.log(X) / (2.0 * math.pi)
        got = b.phi(x)
        for block in (1, 32, 4096):
            monkeypatch.setattr(transforms, "_PHI_BLOCK", block)
            assert np.array_equal(b.phi(x), got), (sigma, X, block)
        monkeypatch.undo()


def test_bump_phi_memory_bound():
    # a cosine block of 4096 points against the 1536 quadrature nodes held
    # about 100 MB
    import tracemalloc
    b = make_bump(1.5)
    x = np.linspace(0.0, 100.0, 8192)
    b.phi(x)    # the quadrature nodes are kept on the function
    tracemalloc.start()
    try:
        b.phi(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_bump_derivs_vs_finite_difference():
    b = make_bump(1.4)
    h = 1e-3
    # direct check at interior point 0.4 via 5-point stencil on phi_hat
    stencil = [b.phi_hat(0.4 + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
    d2 = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
          + 16 * stencil[3] - stencil[4]) / (12 * h * h)
    c = transforms.cauchy_derivs(b._bump_analytic, 0.4 + 0.0j, 0.3, 2)
    assert abs(float(np.real(c[1])) - d1) < 1e-8
    assert abs(float(np.real(c[2])) - d2) < 1e-5
    # the packaged endpoints
    assert abs(b.phi_hat_deriv(0.0, 0) - 1.0) < 1e-12
    assert abs(b.phi_hat_deriv(0.0, 1)) < 1e-12  # even function, flat at 0
    fd2 = (b.phi_hat(h) - 2 * b.phi_hat(0.0) + b.phi_hat(-h)) / (h * h)
    assert abs(b.phi_hat_deriv(0.0, 2) - fd2) < 1e-4
    st1 = [b.phi_hat(1.0 + k * h) for k in (-2, -1, 0, 1, 2)]
    d1_at1 = (st1[0] - 8 * st1[1] + 8 * st1[3] - st1[4]) / (12 * h)
    assert abs(b.phi_hat_deriv(1.0, 1) - d1_at1) < 1e-7
    assert abs(b.phi_hat_deriv(1.0, 0) - b.phi_hat(1.0)) < 1e-12


def test_bump_tail_integral():
    b = make_bump(1.5)
    want, _ = scipy.integrate.quad(b.phi_hat, 1.0, 1.5, limit=400)
    assert abs(b.phi_hat_integral(1.0, math.inf) - want) < 1e-12
    assert make_bump(0.9).phi_hat_integral(1.0, math.inf) == 0.0


def test_phi_hat_integral_against_mpmath():
    # windows other than [0, 1] and [1, inf): inside the support, b past
    # sigma, a at or past sigma, and a = b
    for f in (make_fejer(1.5), make_bump(1.5)):
        for a, b in ((0.2, 0.9), (0.3, 1.7), (1.1, math.inf), (0.0, 1.5)):
            want = mp.quad(lambda u: f.phi_hat(float(u)), [a, min(b, 1.5)])
            assert abs(f.phi_hat_integral(a, b) - float(want)) < 1e-13, (f, a, b)
        for a, b in ((1.5, 2.0), (1.6, math.inf), (0.7, 0.7)):
            assert f.phi_hat_integral(a, b) == 0.0


def test_phi_hat_deriv_at_unit_support():
    # sigma = 1 puts u0 = 1 on the support edge: the fejer triangle keeps
    # its left-sided slope there, the bump is flat to every order; at 0 the
    # bump is exp(-u^2 - u^4 - ...) = 1 - u^2 - u^4/2 - ...
    f, b = make_fejer(1.0), make_bump(1.0)
    assert [f.phi_hat_deriv(0.0, m) for m in range(4)] == [1.0, -1.0, 0.0, 0.0]
    assert [f.phi_hat_deriv(1.0, m) for m in range(4)] == [0.0, -1.0, 0.0, 0.0]
    assert [b.phi_hat_deriv(1.0, m) for m in range(4)] == [0.0] * 4
    got = [b.phi_hat_deriv(0.0, m) for m in range(5)]
    assert np.allclose(got, [1.0, 0.0, -2.0, 0.0, -12.0], rtol=0.0, atol=1e-11), got


def test_test_function_equality():
    # the lazy quadrature nodes take no part in equality
    a, b = make_bump(1.5), make_bump(1.5)
    a.phi(0.3)
    b.phi(0.7)
    assert a == b
    assert a != make_bump(1.2) and a != make_fejer(1.5)
    # weights compare and hash on their name, so caches key on the value
    fresh, shared = transforms.WeightFunction(), make_gaussian_weight()
    assert fresh == shared and hash(fresh) == hash(shared)


def test_sigma_below_one_degenerate_values():
    for mk in (make_fejer, make_bump):
        f = mk(0.8)
        assert f.phi_hat(1.0) == 0.0
        assert f.phi_hat_deriv(1.0, 0) == 0.0
        assert f.phi_hat_integral(1.0, math.inf) == 0.0


# --- gaussian weight ----------------------------------------------------------------

def test_weight_pointwise_and_mass():
    w = make_gaussian_weight()
    assert w.w(0.0) == 1.0
    assert abs(w.w(1.0) - math.exp(-math.pi)) < 1e-16
    val, _ = scipy.integrate.quad(w.w, -10.0, 10.0)
    assert abs(val - w.w_hat0) < 1e-12


def test_mellin_closed_form():
    w = make_gaussian_weight()
    for s in (1.0, 2.0, 0.5 + 1.0j, 3.0 - 0.5j):
        want = complex(mp.gamma(s / 2) / (2 * mp.pi ** (s / 2)))
        assert abs(w.Mw(s) - want) < 1e-13 * abs(want)
        if complex(s).real >= 1.0:
            # octave sums decay like 2^{-k Re s}: numeric route needs Re s >= 1
            got = mellin_num(w.w, s)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_mellin_derivative_constants():
    w = make_gaussian_weight()
    # Mw(1) = 1/2 exactly; scipy's complex loggamma(1/2) puts Mw(1.0) at
    # 0.4999999999999993
    assert abs(w.mw_1 - w.Mw(1.0)) < 2e-15
    # Mw'(1) via central difference of the closed form
    h = 1e-6
    fd = (w.Mw(1.0 + h) - w.Mw(1.0 - h)).real / (2 * h)
    assert abs(w.mw_prime_1 - fd) < 1e-8


def test_w_tilde_selfdual_points():
    # w~(t) = 2 pi int w(r^2) J0(2 pi t r) r dr; radial transform of a
    # gaussian of N(z), checked against a direct 2-D lattice-free quadrature
    w = make_gaussian_weight()
    assert abs(w.w_tilde(0.0) - w.g0) < 1e-11
    assert abs(w.g0 - math.pi / 2.0) < 1e-14
    for t in (0.5, 1.3, 4.0):
        want, _ = scipy.integrate.quad(
            lambda r: 2.0 * math.pi * math.exp(-math.pi * r ** 4)
            * scipy.special.j0(2.0 * math.pi * t * r) * r,
            0.0, 2.2, limit=2000, epsabs=1e-13)
        assert abs(w.w_tilde(t) - want) < 1e-10


def test_w_tilde_refine_stable():
    w = make_gaussian_weight()
    t = np.linspace(0.0, 8.0, 40)
    v = w.w_tilde(t, refine=2)
    assert np.max(np.abs(w.w_tilde(t) - v)) < 1e-11


def test_g_tables_match_direct():
    w = make_gaussian_weight()
    y = np.array([0.0, 0.3, 1.1, 2.0])
    direct = w.w_tilde(np.sqrt(2.0) * y)
    assert np.max(np.abs(w.g(y) - direct)) < 1e-9
    # g1(y) = g~(sqrt y) and g~(0) = g_tilde0
    assert abs(w.g1(0.0) - w.g_tilde0) < 1e-12


def test_g_tilde_against_quadrature():
    w = make_gaussian_weight()
    for t in (0.0, 0.8, 2.1):
        want, _ = scipy.integrate.quad(
            lambda r: 2.0 * math.pi * w.g(np.array([r * r]))[0]
            * scipy.special.j0(2.0 * math.pi * t * r) * r,
            0.0, 2.72, limit=2000, epsabs=1e-12)
        assert abs(w.g1(t * t) - want) < 1e-8


def test_tables_match_their_rules():
    # each table stores the Chebyshev interpolant of its quadrature rule;
    # at 64 grid points over [0, v_max] (v_max included, so w_tilde picks
    # the panel width of the fill) it matches the rule run there directly
    w = make_gaussian_weight()
    for rule, tab, vmax in ((w._wt_rule, w._wt_table, transforms._WT_VMAX),
                            (w._gt_rule, w._gt_table, transforms._GT_VMAX)):
        size = tab.values.size
        idx = np.linspace(0, size - 1, 64).round().astype(int)
        assert np.max(np.abs(tab.values[idx] - rule(idx * (vmax / (size - 1))))) < 5e-14
        # the coefficients have reached the rules' rounding floor: the last
        # 16 stay below 1e-15 of the largest value, f(0), where an
        # unresolved interpolant (n = 80) leaves 1e-13
        vals, coefs = chebyshev_fill(rule, 0.0, vmax, transforms._CHEB_SAMPLES, 2)
        assert np.max(np.abs(coefs[-16:])) < 1e-15 * abs(vals[0])


def test_tables_clamp_and_tail():
    w = make_gaussian_weight()
    assert w.g1(50.0 * 50.0) == 0.0
    assert w.g(np.array([40.0]))[0] == 0.0


def _lagrange(tab, x):
    """The table's cubic Lagrange interpolant, summed in Lagrange form."""
    v = tab.values
    n = v.size
    u = x - tab.x0
    h = (tab.x1 - tab.x0) / (n - 1)
    i = np.clip((u / h).astype(np.int64), 1, n - 3)
    t = u / h - i
    return (-t * (t - 1.0) * (t - 2.0) / 6.0 * v[i - 1]
            + (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0 * v[i]
            - t * (t + 1.0) * (t - 2.0) / 2.0 * v[i + 1]
            + t * (t + 1.0) * (t - 1.0) / 6.0 * v[i + 2])


def test_cubic_table_matches_lagrange_form():
    # Horner on per-interval coefficients is the same interpolant: within a
    # few ulp of max|values| on both end intervals, the grid nodes and in
    # between, and exactly 0 just outside [x0, x1]
    w = make_gaussian_weight()
    for tab in (w._wt_table, w._gt_table):
        h = (tab.x1 - tab.x0) / (tab.values.size - 1)
        x = np.concatenate([np.linspace(tab.x0, tab.x1, 100003),
                            tab.x0 + h * np.arange(tab.values.size),
                            tab.x0 + h * np.array([0.3, 1.7, 2.5]),
                            tab.x1 - h * np.array([0.3, 1.7, 2.5])])
        x = np.clip(x, tab.x0, tab.x1)
        scale = np.max(np.abs(tab.values))
        assert np.max(np.abs(tab(x) - _lagrange(tab, x))) <= 4e-16 * scale
        assert abs(tab(float(x[1])) - _lagrange(tab, x[1:2])[0]) <= 4e-16 * scale
        past = [np.nextafter(tab.x1, np.inf), tab.x1 + 3e-4, np.nextafter(tab.x0, -np.inf)]
        assert np.array_equal(tab(np.array(past + [tab.x1])) == 0.0, [True] * 3 + [False])
        assert tab(past[0]) == 0.0
    # the last term of a g1 lattice sum can land just past the table end
    assert w.g1(112.0003) == 0.0


# --- parsers -------------------------------------------------------------------------

def test_parse_test_function():
    f = parse_test_function("fejer:1.5")
    assert f.kind == "fejer" and f.sigma == 1.5
    b = parse_test_function("bump:0.9")
    assert b.kind == "bump" and b.sigma == 0.9
    for bad in ("fejer", "fejer:2.5", "fejer:0", "welch:1.0", "bump:-1"):
        with pytest.raises(ValueError):
            parse_test_function(bad)


def test_parse_weight():
    assert parse_weight("gaussian") is make_gaussian_weight()
    with pytest.raises(ValueError):
        parse_weight("tophat")
