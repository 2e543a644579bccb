"""Prediction bracket: pole bookkeeping, axis integral, structural identities."""

import cmath
import functools
import math

import numpy as np
import pytest

from quadhecke import _numerics, checks, empirical, ratios, specfun
from quadhecke._numerics import _NUFFT_CHUNK, panel_nodes, phase_sum
from quadhecke.empirical import DensityConfig, s_even_main_form
from quadhecke.transforms import make_bump, make_fejer, parse_test_function

from oracles import (gaussian_spread_columns, outer_phase_sum, panel_nodes_by_panel,
                     ratios_integrand, smooth_route_two)

# Taylor data at the origin, frozen from a Cauchy-ring extraction: Re
# combined(it) = C0 - C2 t^2 and Psi(r) = 1/r + P0 + P1 r + P2 r^2 + ...
C_REF = (3.5316381558144503, -8.202869671680508, 17.71925641477332)
PSI_REF = (0.3953818944852615, -3.8954522540644145, -1.2985190825256343)


# --- combined prime term -------------------------------------------------------------

def test_combined_at_zero_truncated_sum():
    # at r = 0 every term is finite; the value is the plain truncated sum
    # -2 sum N logN / (N^2 - 1), which sinks with the cutoff as the pole
    # re-enters
    from quadhecke import zint
    B = 10 ** 4
    norms = zint.prime_norms_up_to(B).astype(float)
    want = -2.0 * float(np.sum(norms * np.log(norms) / (norms ** 2 - 1.0)))
    got = ratios.combined_prime_term(0.0, cutoff=B)
    assert abs(complex(got) - want) < 1e-10
    assert ratios.combined_prime_term(0.0, cutoff=10 ** 6).real < want


def test_combined_matches_analytic_route():
    # the truncated route's own envelope governs: ~2e-4 at Re r = 0.1,
    # ~1e-6 by Re r = 0.25 (the selftest row combined_prime_r_quarter)
    for r, tol in ((0.1 + 0.3j, 5e-4), (0.5, 1e-5)):
        a = ratios.combined_prime_term(r, tol=tol)
        b = ratios._combined_analytic(r)
        assert abs(a - b) < tol


def test_combined_conjugate_symmetry():
    r = 0.12 + 0.4j
    assert abs(ratios.combined_prime_term(r).conjugate()
               - ratios.combined_prime_term(r.conjugate())) < 1e-13


def test_combined_domain_and_envelope():
    with pytest.raises(ValueError):
        ratios.combined_prime_term(-0.1)
    # pure-imaginary r keeps the restored tail at modulus one; the
    # fluctuation envelope must trip when the caller demands better
    with pytest.raises(ArithmeticError):
        ratios.combined_prime_term(0.3j, tol=1e-9)


# --- dual term -----------------------------------------------------------------------

def test_dual_pole_residue():
    # r * dual -> 1 as r -> 0; at r = 0 itself zeta_K's pole guard raises
    for rho in (2e-3, 1e-3, 1e-4):
        v = rho * specfun.dual_term(rho, 5)
        assert abs(v - 1.0) < 4.0 * rho
    with pytest.raises(ValueError):
        specfun.dual_term(0.0, 5)


def test_dual_conjugate_symmetry():
    r = 0.07 + 0.21j
    a = specfun.dual_term(r, 5)
    b = specfun.dual_term(r.conjugate(), 5)
    assert abs(a.conjugate() - b) < 1e-10 * abs(a)


def test_dual_a_routes_agree():
    # the dual term's A(-r, r) by both routes; |A| < 1 at these points, so
    # the bound is absolute
    err, bound = checks.a_closed_vs_euler((0.1, 0.05 + 0.1j))
    assert err < bound


def test_pole_cancellation_three_rays():
    # the selftest row pole_cancellation bounds each ray's decay ratio
    out = checks.pole_rays()
    assert set(out) == {"real", "diag", "imag"}
    for vals in out.values():
        assert vals[-1] < 0.2


# --- the bracket next to the pole ----------------------------------------------------

def _bracket_near_pole(ts):
    return specfun._bracket_parts(ts, outer_phase_sum(ts))


def test_laurent_frozen_values():
    # the direct evaluator against the origin series down to the smallest
    # node zeta_K's pole guard admits; A_alpha_diag_it carries ~1e-8
    ts = np.array([5.5e-5, 1e-4, 1e-3])
    rc, pv = _bracket_near_pole(ts)
    assert np.max(np.abs(rc - (C_REF[0] - C_REF[2] * ts * ts))) < 2e-8
    z = 1j * ts
    series = 1.0 / z + PSI_REF[0] + PSI_REF[1] * z + PSI_REF[2] * z * z
    assert np.max(np.abs(pv - series) / np.abs(series)) < 1e-12


def test_symplectic_vanishing_at_zero():
    # the conductor-free bracket Re combined + Re Psi + 2 Re psi(1/2+it)
    # tends to c0 + psi0 + 2 psi(1/2) = 0 (c0 + psi0 = 2 gamma + 4 log 2,
    # with no term of its own in the formulas) and is O(t^2): its t^2
    # coefficient is the same at t = 1e-3 and 1e-2
    ts = np.array([5.5e-5, 1e-4, 1e-3, 1e-2])
    rc, pv = _bracket_near_pole(ts)
    bracket = rc + pv.real + 2.0 * specfun.digamma(0.5 + 1j * ts).real
    assert np.max(np.abs(bracket[:2])) < 5e-8
    q = bracket[2:] / ts[2:] ** 2
    assert abs(q[0] - q[1]) < 0.01 * abs(q[1])


# --- pointwise integrand -------------------------------------------------------------

def test_integrand_even(fejer15):
    L = math.log(2000.0)
    for t in (0.3, 2.0):
        a = ratios_integrand(t, 5, fejer15, L)
        b = ratios_integrand(-t, 5, fejer15, L)
        assert a == b


def test_integrand_at_zero_is_tiny(fejer15):
    # the symplectic zero: for every conductor the integrand is O(t^2) next
    # to t = 0, with a t^2 coefficient cubic in mu (leading term mu^3/6)
    L = math.log(500.0)
    for n in (5, 1234567):
        mu = specfun.log_conductor(n)
        for t in (5.5e-5, 1e-4, 1e-3):
            assert abs(ratios_integrand(t, n, fejer15, L)) < (1.0 + mu ** 3) * t * t


def test_integrand_magnitude_profile(fejer15):
    # bracket grows like 2 log t from the digamma pair; phi supplies decay
    L = math.log(500.0)
    for t in (0.5, 5.0, 50.0, 300.0):
        val = ratios_integrand(t, 5, fejer15, L)
        phi = fejer15.phi(t * L / (2.0 * math.pi))
        assert abs(val) <= 40.0 * (1.0 + math.log(2.0 + t)) * abs(phi) + 1e-15


# --- assembled prediction ------------------------------------------------------------

def test_first_order_terms(fejer15, fejer08, weight):
    cfg = DensityConfig(500.0, fejer15, weight)
    rep = ratios.ratios_first_order(cfg)
    t = rep.terms
    assert set(t) == {"phi_hat0", "tail_integral", "conductor",
                      "digamma_integral", "prime_even", "phi_hat1"}
    assert t["phi_hat0"] == 1.0
    assert abs(t["tail_integral"] - 0.25 / 3.0) < 1e-15
    # the even prime sum is literally the explicit-formula main form
    assert t["prime_even"] == s_even_main_form(cfg)
    assert abs(rep.D_ratios_first_order - math.fsum(t.values())) < 1e-15
    # the phi_hat(1) term is route 3's first-order J, at every X > 1 that
    # DensityConfig admits, X <= e included
    from quadhecke.expansion import J_first_order, c_w1_closed
    assert t["phi_hat1"] == J_first_order(500.0, fejer15, weight)
    low = ratios.ratios_first_order(DensityConfig(2.0, fejer15, weight))
    assert low.terms["phi_hat1"] == (float(fejer15.phi_hat(1.0)) * c_w1_closed(weight)
                                     / math.log(2.0))
    # sigma <= 1 kills both support-boundary terms
    rep08 = ratios.ratios_first_order(DensityConfig(500.0, fejer08, weight))
    assert rep08.terms["tail_integral"] == 0.0
    assert rep08.terms["phi_hat1"] == 0.0
    d = rep.as_dict()
    assert "D_ratios_integral" not in d
    assert d["D_ratios_first_order"] == rep.D_ratios_first_order


@pytest.mark.parametrize("T", [600.0, 1200.0])
def test_axis_profile_matches_pointwise(T):
    # the profile's NUFFT phase sums against the outer products of the
    # pointwise bracket, in the first panel, across panel joins and in the
    # last panel next to T; K grows with T.  re_comb crosses zero, so its
    # bound is absolute
    nodes, _, re_comb, psi_big = specfun._axis_profile(T, 0.25)
    m = nodes.size // 12
    idx = np.r_[0:12, 12 * (m // 2) - 2:12 * (m // 2) + 2, 12 * m - 14:12 * m]
    rc, pv = specfun._bracket_parts(nodes[idx], outer_phase_sum(nodes[idx]))
    assert np.max(np.abs(re_comb[idx] - rc)) < 5e-11
    assert np.max(np.abs(psi_big[idx] - pv) / np.abs(pv)) < 5e-12
    # Psi(it) is the dual term without its conductor phase
    norm_c = 5
    for i in idx[::5]:
        t = float(nodes[i])
        dual = psi_big[i] * cmath.exp(-1j * t * specfun.log_conductor(norm_c))
        assert abs(dual - specfun.dual_term(1j * t, norm_c)) < 1e-10 * abs(dual)


def _dual_average_oracle(T, h, mu, weights):
    # the direct outer product over every node, in blocks of 256 nodes
    nodes, _ = panel_nodes(0.0, T, h, 12)
    return np.concatenate([np.exp(-1j * np.multiply.outer(nodes[i:i + 256], mu)) @ weights
                           for i in range(0, nodes.size, 256)])


def _phases(source, test, weight):
    """(mu, weights) of a family's norm groups, or synthetic phases whose
    step mu spans several periods of 2 pi and crosses zero, so sources wrap
    around the periodic spread grid from both ends."""
    if source == "synthetic":
        rng = np.random.default_rng(7)
        return rng.uniform(-40.0, 80.0, 600), rng.standard_normal(600)
    X = {"X2000": 2000.0, "X8000": 8000.0, "X2000-elements": 2000.0}[source]
    fam = empirical._family(DensityConfig(X, test, weight))
    return ((specfun.log_conductor(fam.norm), 4.0 * fam.w0 / fam.W)
            if source.endswith("-elements") else fam.conductors[:2])


@pytest.mark.parametrize("source, T, columns", [
    pytest.param("X2000", 150.0, 1, id="150.0"),
    # T = 100.1 is not a multiple of h, so the panels are narrower than h
    pytest.param("X2000", 100.1, 1, id="100.1"),
    pytest.param("X8000", 150.0, 1, id="X8000"),
    pytest.param("X2000-elements", 40.0, 1, id="per-element"),
    # one panel of width T < h: a single mode
    pytest.param("X2000", 0.2, 1, id="one-panel"),
    pytest.param("synthetic", 150.0, 1, id="wrap"),
    # four weight columns, twelve orders of magnitude apart, one spread
    pytest.param("X2000", 150.0, 4, id="matrix"),
    pytest.param("synthetic", 100.1, 4, id="matrix-wrap"),
])
def test_dual_phase_average_matches_outer_product(fejer15, weight, source, T, columns):
    # every term is bounded by its weight, so the scale is sum |w| per column
    mu, w = _phases(source, fejer15, weight)
    if columns > 1:
        rng = np.random.default_rng(11)
        w = np.stack([w, 1e-6 * w * rng.standard_normal(w.size),
                      1e6 * np.abs(w), w * np.cos(mu)], axis=1)
    got = phase_sum(T, 0.25, mu, w)
    want = _dual_average_oracle(T, 0.25, mu, w)
    assert got.shape == want.shape
    scale = np.sum(np.abs(w), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) < 1e-12 * scale)
    if columns > 1:
        # a column of the matrix is its own vector sum, bit for bit
        for col in range(columns):
            assert np.array_equal(got[:, col], phase_sum(T, 0.25, mu, w[:, col]))


@pytest.mark.parametrize("T, n, columns", [
    pytest.param(150.0, 2 * _NUFFT_CHUNK + 100, 1, id="chunks"),
    # four columns, twelve orders of magnitude apart, one spread each
    pytest.param(150.0, _NUFFT_CHUNK + 3000, 4, id="matrix"),
    pytest.param(100.1, 600, 1, id="wrap"),
    # grid 3 < 24 taps: every source lands on each grid row eight times
    pytest.param(0.2, 50, 1, id="one-panel"),
])
def test_spread_matches_bincount_oracle(monkeypatch, T, n, columns):
    # the sparse product adds each grid cell's terms in source order, and
    # so does one bincount per float column: the spreads agree bit for bit.
    # Step mu spans several periods of 2 pi and crosses zero, so sources
    # wrap around the periodic grid from both ends
    rng = np.random.default_rng(5)
    mu = rng.uniform(-40.0, 80.0, n)
    w = rng.standard_normal((n, columns)) * 10.0 ** (4.0 * np.arange(columns))
    spreads = []
    sparse_spread = _numerics._gaussian_spread

    def both(*args):
        got = sparse_spread(*args)
        spreads.append((got, gaussian_spread_columns(*args)))
        return got

    monkeypatch.setattr(_numerics, "_gaussian_spread", both)
    phase_sum(T, 0.25, mu, w)
    assert len(spreads) == columns
    for got, want in spreads:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a, b, h, breaks", [
    pytest.param(0.0, 10.0, 0.7, (-1.0, 12.0), id="breaks-outside"),
    pytest.param(0.0, 10.0, 0.7, (0.0, 10.0), id="breaks-at-ends"),
    pytest.param(0.0, 10.0, 0.7, (6.1, 3.3, 3.3), id="duplicate-breaks"),
    pytest.param(0.0, 0.2, 0.25, (), id="one-panel"),
    pytest.param(1e-12, 60.0, 0.5, (7.3,), id="digamma-integral"),
])
def test_panel_nodes_match_per_panel_loop(a, b, h, breaks):
    # all panels of a segment in one broadcast, with gl_nodes' operations
    x, w = panel_nodes(a, b, h, 12, breaks)
    want_x, want_w = panel_nodes_by_panel(a, b, h, 12, breaks)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("T, h", [(600.0, 0.0), (600.0, -1.0), (-5.0, 0.25),
                                  (0.0, 0.25), (math.inf, 0.25), (600.0, math.nan)])
def test_ratios_density_rejects_bad_grid(fejer15, weight, T, h):
    with pytest.raises(ValueError, match="finite T > 0 and h > 0"):
        ratios.ratios_density(DensityConfig(500.0, fejer15, weight), T=T, h=h)


def test_under_resolved_panel_width_rejected(fejer15, weight):
    # h = 1000 is one panel over [0, 600]: before the bound it returned
    # D = 0.469 against 0.227 with max_error 0.0024
    cfg = DensityConfig(500.0, fejer15, weight)
    with pytest.raises(ValueError, match="under-resolves"):
        ratios.ratios_density(cfg, h=1000.0)
    # a GL-12 panel error scales as step^24 per unit length
    ratio = ratios.panel_error_bound(cfg, 600.0, 0.125) / ratios.panel_error_bound(
        cfg, 600.0, 0.25)
    assert abs(ratio / 2.0 ** -24 - 1.0) < 1e-9
    # the default grid and the refinement grids keep a wide margin at every
    # X the suite and the benchmark use
    for sigma, X in ((1.9, 500.0), (1.9, 2000.0), (1.9, 8000.0),
                     (0.8, 128000.0), (0.8, 512000.0)):
        cfg = DensityConfig(X, make_fejer(sigma), weight)
        for T, h in ((600.0, 0.25), (1200.0, 0.25), (600.0, 0.125)):
            assert ratios.panel_error_bound(cfg, T, h) < 1e-3 * ratios._ERR_FLOOR


def test_first_node_inside_pole_guard_rejected(fejer15, weight):
    # GL-12 puts the first node at 0.0092197 step, and zeta_K_axis raises
    # for 2t < 1e-4: the narrowest panel width allowed is 5.42e-3.  At
    # T = 600 that width needs 1.3M nodes, past the node cap, so the width
    # that passes is checked on [0, 60]
    cfg = DensityConfig(500.0, fejer15, weight)
    with pytest.raises(ValueError, match="pole guard"):
        ratios.ratios_density(cfg, h=0.0054)
    with pytest.raises(ValueError, match="1.31e[+]06 nodes"):
        ratios._check_grid(cfg, 600.0, 0.0055)
    ratios._check_grid(cfg, 60.0, 0.0055)


def test_dual_phase_average_memory_bound():
    # 203774 distinct norms, the X = 512000 size: the spread runs in chunks
    # of norms, so the traced peak does not grow with the norm count
    import tracemalloc
    rng = np.random.default_rng(3)
    mu = specfun.log_conductor(rng.uniform(1.0, 2.048e6, 203774))
    w = rng.random(mu.size) / mu.size
    tracemalloc.start()
    try:
        out = phase_sum(600.0, 0.25, mu, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (28800,)
    assert peak <= 32 * 2 ** 20


def test_axis_profile_memory_bound():
    # a cold profile at the default grid: its three four-column Hurwitz
    # phase sums spread and transform one column at a time, and the prime
    # phase sum once.  With the prime sources built beforehand, 16.0 MB is
    # traced when the four columns share a spread, 12.3 MB one at a time
    import tracemalloc
    specfun._axis_profile.__wrapped__(1.0, 0.25)
    tracemalloc.start()
    try:
        profile = specfun._axis_profile.__wrapped__(600.0, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile[0].shape == (28800,)
    assert peak <= 14 * 2 ** 20


@pytest.mark.parametrize("n", [660, _NUFFT_CHUNK + 3000])
def test_phase_sum_columns_memory(n):
    # the columns of a weight matrix are spread and transformed one at a
    # time: a four-column sum's traced peak is a one-column sum's plus the
    # larger result, and each column is that column's vector sum.  660 is
    # the Hurwitz head's length at T = 600
    import tracemalloc
    ln = np.log(np.arange(n, dtype=float) + 0.25)
    inv = np.exp(-ln)
    w = np.stack([inv, ln * inv, inv * inv, ln * inv * inv], axis=1)
    peaks, outs = [], []
    for weights in (w[:, 0], w):
        tracemalloc.start()
        try:
            outs.append(phase_sum(600.0, 0.25, 2.0 * ln, weights))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, four = outs
    assert np.array_equal(four[:, 0], one)
    assert peaks[1] <= peaks[0] + (four.nbytes - one.nbytes) + 2 ** 18


def test_integrand_is_the_profile_bracket(fejer15):
    # the pointwise integrand is the per-node bracket with the conductor
    # phase applied; the first node, 9.2e-5, sits just outside zeta_K's pole
    # guard.  The profile sums the same bracket's phase sums by NUFFT, which
    # the pointwise outer products match to ~1e-11 from t = 1e-3 on; nearer
    # the pole Psi(it) grows like 1/t, and the match is relative
    L, norm_c = math.log(2000.0), 5
    mu = specfun.log_conductor(norm_c)
    profile = specfun._axis_profile(0.02, 0.01)
    nodes = profile[0]
    phi = fejer15.phi(nodes * L / (2.0 * math.pi))
    got = np.array([ratios_integrand(t, norm_c, fejer15, L) for t in nodes])
    pointwise = specfun._bracket_parts(nodes, outer_phase_sum(nodes))
    two_psi = 2.0 * specfun.digamma(0.5 + 1j * nodes).real
    far = nodes >= 1e-3
    for (re_comb, psi_big), mask, tol in ((profile[2:], far, 5e-11),
                                          (pointwise, slice(None), 1e-12)):
        want = (re_comb + (psi_big * np.exp(-1j * nodes * mu)).real + mu + two_psi) * phi
        assert np.max(np.abs(got - want)[mask]) < tol
    assert np.max(np.abs(profile[2] - pointwise[0])) < 5e-11
    assert np.max(np.abs(profile[3] - pointwise[1]) / np.abs(pointwise[1])) < 5e-12


def test_norm_grouping_invariant(weight, monkeypatch):
    # the dual phase sum over distinct norms, weights folded, is the sum
    # over the family's elements; the grouping is built once per family
    builds, views = [], []
    monkeypatch.setattr(empirical, "log_conductor",
                        lambda n: builds.append(n.size) or specfun.log_conductor(n))
    by_norm = empirical._Family.by_norm
    counted = functools.cached_property(lambda fam: views.append(fam) or by_norm.func(fam))
    counted.__set_name__(empirical._Family, "by_norm")
    monkeypatch.setattr(empirical._Family, "by_norm", counted)
    empirical._family_of.cache_clear()
    cfg = DensityConfig(200.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    # one weight by norm serves S_even, S_odd's inert primes and the view
    empirical.s_even(cfg), empirical.s_odd(cfg)
    assert views == [fam] and 3 in fam.prime_sums and fam.by_norm is fam.by_norm
    mu, share, m1 = fam.conductors
    elements = specfun.log_conductor(fam.norm), 4.0 * fam.w0 / fam.W
    assert mu.size < fam.re.size and abs(m1 - math.fsum(elements[0] * elements[1])) < 1e-12
    grouped = phase_sum(150.0, 0.25, mu, share)
    assert np.max(np.abs(grouped - phase_sum(150.0, 0.25, *elements))) < 1e-12
    reps = [ratios.ratios_density(cfg, T=150.0) for _ in range(2)]
    assert builds == [mu.size] and reps[1].n_norms == mu.size
    assert {"integral_parts", "D_ratios_integral"} <= set(reps[1].as_dict())
    # another family builds its own view
    other = empirical._family(DensityConfig(201.0, make_fejer(1.5), weight))
    assert other.conductors[2] != m1
    assert len(builds) == 2 and views == [fam, other]


def _count_dual_sums(monkeypatch) -> list:
    """The grids of the dual phase sums the families compute from now on."""
    calls = []

    def counted(T, h, mu, weights):
        calls.append((T, h))
        return phase_sum(T, h, mu, weights)
    monkeypatch.setattr(empirical, "phase_sum", counted)
    return calls


def test_warm_ratios_density_reads_the_stored_sum(weight, monkeypatch):
    # the dual phase sum depends on the family and the grid alone: a warm
    # call on the same family and grid computes none and reports the same
    calls = _count_dual_sums(monkeypatch)
    empirical._family_of.cache_clear()
    cfg = DensityConfig(2000.0, make_fejer(1.5), weight)
    cold = ratios.ratios_density(cfg)
    warm = ratios.ratios_density(cfg)
    assert calls == [(600.0, 0.25)]
    assert warm.as_dict() == cold.as_dict()


def test_other_phi_reads_the_stored_sum(weight, monkeypatch):
    # fejer:0.8 and bump:0.8 after fejer:1.5 at one X read fejer:1.5's sum;
    # their values are a fresh family's, bit for bit
    X = 2000.0
    calls = _count_dual_sums(monkeypatch)
    empirical._family_of.cache_clear()
    ratios.ratios_density(DensityConfig(X, make_fejer(1.5), weight))
    phis = (make_fejer(0.8), make_bump(0.8))
    stored = [ratios.ratios_density(DensityConfig(X, phi, weight)) for phi in phis]
    assert len(calls) == 1
    for phi, rep in zip(phis, stored):
        empirical._family_of.cache_clear()
        fresh = ratios.ratios_density(DensityConfig(X, phi, weight))
        assert (rep.D_ratios_integral, rep.max_error) == \
            (fresh.D_ratios_integral, fresh.max_error)
    assert len(calls) == 3


def test_new_grid_recomputes_the_stored_sum(weight, monkeypatch):
    # the sum is kept for the exact (T, h) of the last call; another grid
    # replaces it, so the family holds one grid, and a grid that
    # _check_grid refuses never reaches the store
    calls = _count_dual_sums(monkeypatch)
    empirical._family_of.cache_clear()
    cfg = DensityConfig(500.0, make_fejer(1.5), weight)
    fam = empirical._family(cfg)
    first = ratios.ratios_density(cfg, T=150.0)
    finer = ratios.ratios_density(cfg, T=150.0, h=0.125)
    assert fam.dual_sums[0] == (150.0, 0.125)
    assert finer.n_points == 2 * first.n_points
    with pytest.raises(ValueError, match="under-resolves"):
        ratios.ratios_density(cfg, T=150.0, h=1000.0)
    again = ratios.ratios_density(cfg, T=150)
    assert ratios.ratios_density(cfg, T=150.0).as_dict() == again.as_dict() == first.as_dict()
    assert calls == [(150.0, 0.25), (150.0, 0.125), (150.0, 0.25)]
    key, sums = fam.dual_sums
    assert key == (150.0, 0.25) and sums.shape == (first.n_points,)


@pytest.mark.parametrize("X, R, n_norms, n_empty", [(200.0, 4.0, 120, 0), (50.0, 20.0, 148, 32)])
def test_norm_view_counts_every_member_norm(weight, X, R, n_norms, n_empty):
    # the view groups by member counts, not by weight: past N/X = 15.4 the
    # gaussian w0 underflows to 0, and those norms still count, as they do
    # in a grouping of the members' norms by np.unique
    fam = empirical._family(DensityConfig(X, make_fejer(1.5), weight, R=R))
    norms, inv = np.unique(fam.norm, return_inverse=True)
    mu, share, _ = fam.conductors
    assert np.array_equal(mu, specfun.log_conductor(norms)) and mu.size == n_norms
    assert np.array_equal(share, 4.0 * np.bincount(inv, weights=fam.w0) / fam.W)
    assert np.count_nonzero(share == 0.0) == n_empty
    assert ratios.ratios_density(DensityConfig(X, make_fejer(1.5), weight, R=R),
                                 T=150.0).n_norms == n_norms
    # a norm that is not 1 mod 4 is no primary norm: the view refuses it
    bad = empirical._Family(fam.re, fam.im, fam.norm + 2, fam.w0, fam.W)
    with pytest.raises(ValueError, match="1 mod 4"):
        bad.by_norm


def test_density_report_consistency(fejer15, weight):
    cfg = DensityConfig(500.0, fejer15, weight)
    rep = ratios.ratios_density(cfg)
    p = rep.integral_parts
    total = (p["conductor_average"] + p["digamma_closed"]
             + p["integral_prime_pieces"])
    assert abs(rep.D_ratios_integral - total) < 1e-14
    assert 0.0 <= rep.max_error < 1e-2
    assert rep.n_points > 0 and rep.family_size > 0
    # the conductor piece and the conductor_average check read one m1
    m1 = empirical._family(cfg).conductors[2]
    assert p["conductor_average"] == m1 * float(fejer15.phi_hat(0.0)) / cfg.L
    assert weight.mean_log == 2.0 * weight.mw_prime_1 / weight.w_hat0
    closed = cfg.L + specfun._LOG_32_PI2 + weight.mean_log
    assert checks.conductor_average(500.0)[0] == m1 - closed


@pytest.mark.parametrize("phi", ["fejer:1.5", "bump:0.8"])
@pytest.mark.parametrize("X", [500.0, 2000.0])
def test_routes_share_the_conductor_terms(phi, X, weight):
    # routes 1 and 2 book the family's mean of log(32 N(c)/pi^2) as one float
    # off the by-norm view, and psi(1/2) with the digamma integral as another,
    # so both cancel in D_emp - D_int by construction
    cfg = DensityConfig(X, parse_test_function(phi), weight)
    emp = empirical.one_level_density(cfg)
    parts = ratios.ratios_density(cfg).integral_parts
    assert emp.term_log_conductor == parts["conductor_average"]
    assert emp.term_gamma_const + emp.term_integral == parts["digamma_closed"]


@pytest.mark.parametrize("phi, X, tol", [
    ("bump:0.8", 2000.0, 1e-11),
    ("fejer:0.8", 2000.0, None),
    ("fejer:1.5", 8000.0, None),
])
def test_smooth_route_two_is_first_order_plus_dual(phi, X, tol, weight):
    # D_sm = D_fo + J(X) - J_fo(X) in exact arithmetic: m1_sm phi_hat(0)/L is
    # phi_hat(0) plus D_fo's conductor bracket less psi(1/2), the two phi_hat
    # integrals make phi(0)/2, and prime_bridge turns the combined term less
    # that half residue into the even prime sum.  The bump's phi is resolved
    # on the profile; the Fejer kernel's t^-2 tail is cut at T, which the
    # ratios route's tail estimate bounds.
    from quadhecke.expansion import J_X, J_first_order
    test = parse_test_function(phi)
    cfg = DensityConfig(X, test, weight)
    want = (ratios.ratios_first_order(cfg).D_ratios_first_order
            + J_X(X, test, weight)[0] - J_first_order(X, test, weight))
    if tol is None:
        tol = ratios.ratios_density(cfg).integral_parts["tail_estimate"]
    assert abs(smooth_route_two(X, test, weight) - want) <= tol


def test_dual_ablation_identity(fejer15, weight):
    # the dual piece, the axis integral's prime pieces less the combined
    # term alone (as checks.prime_bridge integrates it), carries
    # int_1^inf phi_hat + phi_hat(1) c_w1 / L and the half residue phi(0)/2
    # picked up on the axis; the leftover is the second-order tail, about 2/L^2
    from quadhecke.expansion import c_w1_closed
    cfg = DensityConfig(2000.0, fejer15, weight)
    L = cfg.L
    full = ratios.ratios_density(cfg)
    nodes, wts, re_comb, _ = specfun._axis_profile(ratios._T_CAP, ratios._PANEL_H)
    combined = float(np.dot(wts, re_comb * fejer15.phi(nodes * L / (2.0 * math.pi)))) / math.pi
    gap = full.integral_parts["integral_prime_pieces"] - combined
    want = (fejer15.phi_hat_integral(1.0, math.inf)
            + float(fejer15.phi_hat(1.0)) * c_w1_closed(weight) / L
            - float(fejer15.phi(0.0)) / 2.0)
    assert abs(gap - want) < 0.06
    # without the half residue the books are off by a unit of phi(0)/2
    assert abs(gap - (want + float(fejer15.phi(0.0)) / 2.0)) > 0.5


def test_compare_rows(fejer15, weight):
    rows = ratios.compare((100.0, 200.0), fejer15, weight, M=1, T=150.0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(ratios.COMPARE_COLUMNS)
        assert abs(row["r_emp_int"] - (row["D_emp"] - row["D_int"])) < 1e-15
        assert abs(row["rL2_emp_fo"]
                   - row["r_emp_fo"] * row["L"] ** 2) < 1e-12
    assert rows[0]["X"] == 100.0 and rows[1]["X"] == 200.0
