"""Prediction bracket: pole bookkeeping, axis integral, structural identities."""

import cmath
import math

import numpy as np
import pytest

from quadhecke import checks, empirical, ratios
from quadhecke._numerics import phase_sum
from quadhecke.empirical import DensityConfig, s_even_main_form
from quadhecke.transforms import make_fejer

from oracles import outer_phase_sum, ratios_integrand

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


def test_combined_matches_analytic_route(ctx):
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

def test_dual_pole_residue(ctx):
    # r * dual -> 1 as r -> 0; at r = 0 itself zeta_K's pole guard raises
    for rho in (2e-3, 1e-3, 1e-4):
        v = rho * ratios.dual_term(rho, 5, ctx)
        assert abs(v - 1.0) < 4.0 * rho
    with pytest.raises(ValueError):
        ratios.dual_term(0.0, 5, ctx)


def test_dual_conjugate_symmetry(ctx):
    r = 0.07 + 0.21j
    a = ratios.dual_term(r, 5, ctx)
    b = ratios.dual_term(r.conjugate(), 5, ctx)
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

def _bracket_near_pole(ctx, ts):
    return ratios._bracket_parts(ts, ctx, outer_phase_sum(ts))


def test_laurent_frozen_values(ctx):
    # the direct evaluator against the origin series down to the smallest
    # node zeta_K's pole guard admits; A_alpha_diag_it carries ~1e-8
    ts = np.array([5.5e-5, 1e-4, 1e-3])
    rc, _, pv = _bracket_near_pole(ctx, ts)
    assert np.max(np.abs(rc - (C_REF[0] - C_REF[2] * ts * ts))) < 2e-8
    z = 1j * ts
    series = 1.0 / z + PSI_REF[0] + PSI_REF[1] * z + PSI_REF[2] * z * z
    assert np.max(np.abs(pv - series) / np.abs(series)) < 1e-12


def test_symplectic_vanishing_at_zero(ctx):
    # the conductor-free bracket Re combined + Re Psi + 2 Re psi(1/2+it)
    # tends to c0 + psi0 + 2 psi(1/2) = 0 (c0 + psi0 = 2 gamma + 4 log 2,
    # with no term of its own in the formulas) and is O(t^2): its t^2
    # coefficient is the same at t = 1e-3 and 1e-2
    ts = np.array([5.5e-5, 1e-4, 1e-3, 1e-2])
    rc, two_psi, pv = _bracket_near_pole(ctx, ts)
    bracket = rc + pv.real + two_psi
    assert np.max(np.abs(bracket[:2])) < 5e-8
    q = bracket[2:] / ts[2:] ** 2
    assert abs(q[0] - q[1]) < 0.01 * abs(q[1])


# --- pointwise integrand -------------------------------------------------------------

def test_integrand_even(fejer15, ctx):
    L = math.log(2000.0)
    for t in (0.3, 2.0):
        a = ratios_integrand(t, 5, fejer15, L, ctx)
        b = ratios_integrand(-t, 5, fejer15, L, ctx)
        assert a == b


def test_integrand_at_zero_is_tiny(fejer15, ctx):
    # the symplectic zero: for every conductor the integrand is O(t^2) next
    # to t = 0, with a t^2 coefficient cubic in mu (leading term mu^3/6)
    L = math.log(500.0)
    for n in (5, 1234567):
        mu = ratios._mu_of(n)
        for t in (5.5e-5, 1e-4, 1e-3):
            assert abs(ratios_integrand(t, n, fejer15, L, ctx)) < (1.0 + mu ** 3) * t * t


def test_integrand_magnitude_profile(fejer15, ctx):
    # bracket grows like 2 log t from the digamma pair; phi supplies decay
    L = math.log(500.0)
    for t in (0.5, 5.0, 50.0, 300.0):
        val = ratios_integrand(t, 5, fejer15, L, ctx)
        phi = fejer15.phi(t * L / (2.0 * math.pi))
        assert abs(val) <= 40.0 * (1.0 + math.log(2.0 + t)) * abs(phi) + 1e-15


# --- assembled prediction ------------------------------------------------------------

def test_first_order_terms(fejer15, fejer08, weight, ctx):
    cfg = DensityConfig(500.0, fejer15, weight)
    rep = ratios.ratios_first_order(cfg, ctx)
    t = rep.terms
    assert set(t) == {"phi_hat0", "tail_integral", "conductor",
                      "digamma_integral", "prime_even", "phi_hat1"}
    assert t["phi_hat0"] == 1.0
    assert abs(t["tail_integral"] - 0.25 / 3.0) < 1e-15
    # the even prime sum is literally the explicit-formula main form
    assert t["prime_even"] == s_even_main_form(cfg)
    assert abs(rep.D_ratios_first_order - math.fsum(t.values())) < 1e-15
    # sigma <= 1 kills both support-boundary terms
    rep08 = ratios.ratios_first_order(DensityConfig(500.0, fejer08, weight), ctx)
    assert rep08.terms["tail_integral"] == 0.0
    assert rep08.terms["phi_hat1"] == 0.0
    d = rep.as_dict()
    assert "D_ratios_integral" not in d
    assert d["D_ratios_first_order"] == rep.D_ratios_first_order


@pytest.mark.parametrize("T", [600.0, 1200.0])
def test_axis_profile_matches_pointwise(ctx, T):
    # the profile's NUFFT phase sums against the outer products of the
    # pointwise bracket, in the first panel, across panel joins and in the
    # last panel next to T; K grows with T.  re_comb crosses zero, so its
    # bound is absolute
    nodes, _, re_comb, _, psi_big = ratios._axis_profile(T, 0.25, ctx)
    m = nodes.size // 12
    idx = np.r_[0:12, 12 * (m // 2) - 2:12 * (m // 2) + 2, 12 * m - 14:12 * m]
    rc, _, pv = ratios._bracket_parts(nodes[idx], ctx, outer_phase_sum(nodes[idx]))
    assert np.max(np.abs(re_comb[idx] - rc)) < 5e-11
    assert np.max(np.abs(psi_big[idx] - pv) / np.abs(pv)) < 5e-12
    # Psi(it) is the dual term without its conductor phase
    norm_c = 5
    for i in idx[::5]:
        t = float(nodes[i])
        dual = psi_big[i] * cmath.exp(-1j * t * ratios._mu_of(norm_c))
        assert abs(dual - ratios.dual_term(1j * t, norm_c, ctx)) < 1e-10 * abs(dual)


def _dual_average_oracle(T, h, mu, weights):
    # the direct outer product over every node, in blocks of 256 nodes
    from quadhecke._numerics import panel_nodes
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
    cfg = DensityConfig(X, test, weight)
    if source.endswith("-elements"):
        fam = empirical._family(cfg)
        norms, wn = fam.norm.astype(float), 4.0 * fam.w0
    else:
        norms, wn, fam = ratios._norm_groups(cfg)
    return np.log(32.0 * norms / math.pi ** 2), wn / fam.W


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
        # a column of the matrix is its own vector sum
        for col in range(columns):
            alone = phase_sum(T, 0.25, mu, w[:, col])
            assert np.max(np.abs(got[:, col] - alone)) <= 1e-15 * scale[col]


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
    # for 2t < 1e-4: the narrowest panel width allowed is 5.42e-3
    cfg = DensityConfig(500.0, fejer15, weight)
    with pytest.raises(ValueError, match="pole guard"):
        ratios.ratios_density(cfg, h=0.0054)
    ratios._check_grid(cfg, 600.0, 0.0055)


def test_dual_phase_average_memory_bound():
    # 203774 distinct norms, the X = 512000 size: the spread runs in chunks
    # of norms, so the traced peak does not grow with the norm count
    import tracemalloc
    rng = np.random.default_rng(3)
    mu = np.log(32.0 * rng.uniform(1.0, 2.048e6, 203774) / math.pi ** 2)
    w = rng.random(mu.size) / mu.size
    tracemalloc.start()
    try:
        out = phase_sum(600.0, 0.25, mu, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (28800,)
    assert peak <= 32 * 2 ** 20


def test_axis_profile_memory_bound(ctx):
    # a cold profile at the default grid: its three four-column Hurwitz
    # phase sums and the prime phase sum each spread and transform once
    import tracemalloc
    tracemalloc.start()
    try:
        profile = ratios._axis_profile.__wrapped__(600.0, 0.25, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile[0].shape == (28800,)
    assert peak <= 20 * 2 ** 20


def test_caches_key_on_context_values():
    # equal contexts share one entry
    from quadhecke.specfun import ZetaKContext
    a, b = ZetaKContext(), ZetaKContext()
    before = ratios._axis_profile.cache_info()
    pa = ratios._axis_profile(3.7, 0.25, a)
    assert ratios._axis_profile(3.7, 0.25, b) is pa
    after = ratios._axis_profile.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits + after.misses - before.hits - before.misses == 2


def test_integrand_is_the_profile_bracket(fejer15, ctx):
    # the pointwise integrand is the per-node bracket with the conductor
    # phase applied; the first node, 9.2e-5, sits just outside zeta_K's pole
    # guard.  The profile sums the same bracket's phase sums by NUFFT, which
    # the pointwise outer products match to ~1e-11 from t = 1e-3 on; nearer
    # the pole Psi(it) grows like 1/t, and the match is relative
    L, norm_c = math.log(2000.0), 5
    mu = ratios._mu_of(norm_c)
    profile = ratios._axis_profile(0.02, 0.01, ctx)
    nodes = profile[0]
    phi = fejer15.phi(nodes * L / (2.0 * math.pi))
    got = np.array([ratios_integrand(t, norm_c, fejer15, L, ctx) for t in nodes])
    pointwise = ratios._bracket_parts(nodes, ctx, outer_phase_sum(nodes))
    far = nodes >= 1e-3
    for (re_comb, two_psi, psi_big), mask, tol in ((profile[2:], far, 5e-11),
                                                    (pointwise, slice(None), 1e-12)):
        want = (re_comb + (psi_big * np.exp(-1j * nodes * mu)).real + mu + two_psi) * phi
        assert np.max(np.abs(got - want)[mask]) < tol
    assert np.max(np.abs(profile[2] - pointwise[0])) < 5e-11
    assert np.max(np.abs(profile[4] - pointwise[2]) / np.abs(pointwise[2])) < 5e-12


def test_norm_grouping_invariant(weight, ctx):
    # the dual phase sum over distinct norms, weights folded, is the sum
    # over the family's elements
    cfg = DensityConfig(200.0, make_fejer(1.5), weight)
    norms, wn, fam = ratios._norm_groups(cfg)
    assert norms.size < fam.re.size
    grouped = phase_sum(150.0, 0.25, np.log(32.0 * norms / math.pi ** 2), wn)
    elements = phase_sum(150.0, 0.25,
                         np.log(32.0 * fam.norm.astype(float) / math.pi ** 2),
                         4.0 * fam.w0)
    assert np.max(np.abs(grouped - elements)) < 1e-12 * np.sum(np.abs(wn))
    d = ratios.ratios_density(cfg, ctx, T=150.0).as_dict()
    assert "integral_parts" in d and "D_ratios_integral" in d


def test_density_report_consistency(fejer15, weight, ctx):
    cfg = DensityConfig(500.0, fejer15, weight)
    rep = ratios.ratios_density(cfg, ctx)
    p = rep.integral_parts
    total = (p["conductor_average"] + p["digamma_closed"]
             + p["integral_prime_pieces"])
    assert abs(rep.D_ratios_integral - total) < 1e-14
    assert 0.0 <= rep.max_error < 1e-2
    assert rep.n_points > 0 and rep.family_size > 0


def test_dual_ablation_identity(fejer15, weight, ctx):
    # dropping the dual term removes int_1^inf phi_hat + phi_hat(1) c_w1 / L
    # and the half residue phi(0)/2 picked up on the axis; the leftover is
    # the second-order tail, about 2/L^2
    from quadhecke.expansion import c_w1_closed
    cfg = DensityConfig(2000.0, fejer15, weight)
    L = cfg.L
    full = ratios.ratios_density(cfg, ctx)
    bare = ratios.ratios_density(cfg, ctx, with_dual=False)
    gap = full.D_ratios_integral - bare.D_ratios_integral
    want = (fejer15.phi_hat_tail_integral()
            + float(fejer15.phi_hat(1.0)) * c_w1_closed(weight, ctx) / L
            - float(fejer15.phi(0.0)) / 2.0)
    assert abs(gap - want) < 0.06
    # without the half residue the books are off by a unit of phi(0)/2
    assert abs(gap - (want + float(fejer15.phi(0.0)) / 2.0)) > 0.5


def test_compare_rows(fejer15, weight, ctx):
    rows = ratios.compare((100.0, 200.0), fejer15, weight, ctx, M=1, T=150.0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(ratios.COMPARE_COLUMNS)
        assert abs(row["r_emp_int"] - (row["D_emp"] - row["D_int"])) < 1e-15
        assert abs(row["rL2_emp_fo"]
                   - row["r_emp_fo"] * row["L"] ** 2) < 1e-12
    assert rows[0]["X"] == 100.0 and rows[1]["X"] == 200.0
