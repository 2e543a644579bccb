"""Prediction bracket: pole bookkeeping, axis integral, structural identities."""

import cmath
import math

import numpy as np
import pytest

from quadhecke import ratios
from quadhecke.empirical import DensityConfig, s_even_main_form
from quadhecke.specfun import A_closed_mr, A_euler, digamma
from quadhecke.transforms import make_fejer

# Laurent data at the origin, frozen from the Cauchy-ring extraction
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
    # ~1e-6 by Re r = 0.25
    for r, tol in ((0.25, 1e-5), (0.1 + 0.3j, 5e-4), (0.5, 1e-5)):
        a = ratios.combined_prime_term(r, tol=tol)
        b = ratios._combined_analytic(r, ctx)
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
    # r * dual -> 1 as r -> 0; the laurent branch carries the exact phase
    for rho in (5e-4, 1e-4):
        v = rho * ratios.dual_term(rho, 5, ctx, laurent=True)
        assert abs(v - 1.0) < 4.0 * rho
    with pytest.raises(ValueError):
        ratios.dual_term(1e-4, 5, ctx)
    with pytest.raises(ValueError):
        ratios.dual_term(0.0, 5, ctx, laurent=True)


def test_dual_laurent_matches_direct_at_seam(ctx):
    # the branches never share a point (laurent only runs strictly inside
    # eps0), so remove the pole and compare the smooth remainders across it
    for ph in (1.0, 1j, cmath.exp(0.8j)):
        r0 = 1.00001e-3 * ph
        r1 = 0.99999e-3 * ph
        direct = ratios.dual_term(r0, 13, ctx) - 1.0 / r0
        series = ratios.dual_term(r1, 13, ctx, laurent=True) - 1.0 / r1
        assert abs(direct - series) < 1e-4


def test_dual_conjugate_symmetry(ctx):
    r = 0.07 + 0.21j
    a = ratios.dual_term(r, 5, ctx)
    b = ratios.dual_term(r.conjugate(), 5, ctx)
    assert abs(a.conjugate() - b) < 1e-10 * abs(a)


def test_dual_a_routes_agree(ctx):
    # closed-form A(-r, r) against the truncated Euler product
    for r in (0.1, 0.05 + 0.1j):
        assert abs(A_closed_mr(r, ctx) - A_euler(-r, r, ctx)) < 1e-6


def test_pole_cancellation_three_rays(ctx):
    out = ratios.pole_cancellation_check(5, ctx=ctx)
    assert set(out) == {"real", "diag", "imag"}
    for vals in out.values():
        assert vals[-1] < vals[0]
        assert vals[-1] < 0.2


# --- Laurent data --------------------------------------------------------------------

def test_laurent_frozen_values(ctx):
    dat = ratios._laurent_data(ctx)
    assert dat.residue_gap < 1e-8
    for got, want in zip(dat.c, C_REF):
        assert abs(got - want) < 1e-9
    for got, want in zip(dat.psi, PSI_REF):
        assert abs(got - want) < 1e-9


def test_symplectic_vanishing_at_zero(ctx):
    # bracket(0) = c0 + psi0 + 2 psi(1/2) collapses to zero; equivalently
    # c0 + psi0 = 2 gamma + 4 log 2, with no term of its own in the formulas
    dat = ratios._laurent_data(ctx)
    two_psi_half = 2.0 * complex(digamma(0.5)).real
    assert abs(dat.c[0] + dat.psi[0] + two_psi_half) < 5e-8


# --- pointwise integrand -------------------------------------------------------------

def test_integrand_even_and_seam(fejer15, ctx):
    L = math.log(2000.0)
    for t in (0.3, 2.0):
        a = ratios.ratios_integrand(t, 5, fejer15, L, ctx)
        b = ratios.ratios_integrand(-t, 5, fejer15, L, ctx)
        assert a == b
    # continuity across the laurent switch at eps0
    lo = ratios.ratios_integrand(ratios._EPS0 * (1 - 1e-6), 5, fejer15, L, ctx)
    hi = ratios.ratios_integrand(ratios._EPS0 * (1 + 1e-6), 5, fejer15, L, ctx)
    assert abs(lo - hi) < 1e-6


def test_integrand_at_zero_is_tiny(fejer15, ctx):
    # the symplectic zero: the bracket vanishes at t = 0 for every conductor
    L = math.log(500.0)
    for n in (5, 1234567):
        assert abs(ratios.ratios_integrand(0.0, n, fejer15, L, ctx)) < 1e-6


def test_integrand_magnitude_profile(fejer15, ctx):
    # bracket grows like 2 log t from the digamma pair; phi supplies decay
    L = math.log(500.0)
    for t in (0.5, 5.0, 50.0, 300.0):
        val = ratios.ratios_integrand(t, 5, fejer15, L, ctx)
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


def test_axis_profile_across_block_edges(ctx):
    # each block fits its own Euler-Maclaurin shift; nodes on both sides of
    # a block edge must match the pointwise routes
    from quadhecke.specfun import A_alpha_diag_it, zeta_K, zeta_K_log_deriv
    nodes, _, re_comb, _, psi_big = ratios._axis_profile(150.0, 0.25, ctx)
    edge = ratios._AXIS_BLOCK
    for i in (edge - 2, edge - 1, edge, edge + 1, 8 * edge - 1, 8 * edge):
        t = float(nodes[i])
        want = (2.0 * complex(zeta_K_log_deriv(1.0 + 2j * t))
                + 2.0 * complex(A_alpha_diag_it(t, ctx))).real
        assert abs(re_comb[i] - want) < 1e-12 * abs(want)
        g = cmath.exp(complex(ratios._loggamma(0.5 - 1j * t))
                      - complex(ratios._loggamma(0.5 + 1j * t)))
        want = (-(8.0 / math.pi) * g * complex(zeta_K(1.0 - 2j * t))
                * complex(A_closed_mr(1j * t, ctx)))
        assert abs(psi_big[i] - want) < 1e-12 * abs(want)
        # Psi(it) is the dual term without its conductor phase
        norm_c = 5
        dual = psi_big[i] * cmath.exp(-1j * t * ratios._mu_of(norm_c))
        assert abs(dual - ratios.dual_term(1j * t, norm_c, ctx)) < 1e-10 * abs(dual)


def _dual_average_oracle(T, h, mu, weights):
    # the direct outer product over every node, in blocks of 256 nodes
    from quadhecke._numerics import panel_nodes
    nodes, _ = panel_nodes(0.0, T, h, 12)
    return np.concatenate([np.exp(-1j * np.multiply.outer(nodes[i:i + 256], mu)) @ weights
                           for i in range(0, nodes.size, 256)])


@pytest.mark.parametrize("T", [150.0, 100.1])
def test_dual_phase_average_matches_outer_product(fejer15, weight, T):
    # every term is bounded by its weight, so the scale is sum |w| = 1;
    # T = 100.1 is not a multiple of h, so the panels are narrower than h
    cfg = DensityConfig(2000.0, fejer15, weight)
    norms, wn, fam = ratios._norm_groups(cfg, True)
    mu = np.log(32.0 * norms / math.pi ** 2)
    w = wn / fam.W
    got = ratios._dual_phase_average(T, 0.25, mu, w)
    want = _dual_average_oracle(T, 0.25, mu, w)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.sum(np.abs(w))


def test_caches_key_on_context_values():
    # equal parameters share one entry; a different euler_cutoff gets its own
    from quadhecke.specfun import ZetaKContext
    a, b = ZetaKContext(), ZetaKContext()
    before = ratios._axis_profile.cache_info()
    pa = ratios._axis_profile(3.7, 0.25, a)
    assert ratios._axis_profile(3.7, 0.25, b) is pa
    after = ratios._axis_profile.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits + after.misses - before.hits - before.misses == 2
    coarse = ZetaKContext(euler_cutoff=10 ** 4)
    da, dc = ratios._laurent_data(a), ratios._laurent_data(coarse)
    before = ratios._laurent_data.cache_info()
    assert ratios._laurent_data(b) is da
    assert ratios._laurent_data.cache_info().hits == before.hits + 1
    assert dc is not da and dc.c != da.c


def test_integrand_is_the_profile_bracket(fejer15, ctx):
    # the pointwise integrand is the profile's per-node bracket with the
    # conductor phase applied; nodes sit on both sides of eps0
    L, norm_c = math.log(2000.0), 5
    mu = ratios._mu_of(norm_c)
    nodes, _, re_comb, two_psi, psi_big = ratios._axis_profile(0.02, 0.01, ctx)
    assert nodes.min() < ratios._EPS0 < nodes.max()
    phi = fejer15.phi(nodes * L / (2.0 * math.pi))
    want = (re_comb + (psi_big * np.exp(-1j * nodes * mu)).real + mu + two_psi) * phi
    got = [ratios.ratios_integrand(t, norm_c, fejer15, L, ctx) for t in nodes]
    assert np.max(np.abs(np.array(got) - want)) < 1e-12
    # t = 0: the pole of Psi(it) is odd, Re[Psi(it) exp(-it mu)] -> psi_0 - mu
    dat = ratios._laurent_data(ctx)
    want0 = (dat.c[0] + dat.psi[0] + 2.0 * complex(digamma(0.5)).real) \
        * float(fejer15.phi(0.0))
    assert abs(ratios.ratios_integrand(0.0, norm_c, fejer15, L, ctx) - want0) < 1e-14


def test_norm_grouping_invariant(weight, ctx):
    cfg = DensityConfig(200.0, make_fejer(1.5), weight)
    a = ratios.ratios_density(cfg, ctx, T=150.0, group_norms=True)
    b = ratios.ratios_density(cfg, ctx, T=150.0, group_norms=False)
    assert abs(a.D_ratios_integral - b.D_ratios_integral) < 1e-12
    assert a.n_norms < b.n_norms
    d = a.as_dict()
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


# --- structural checks ---------------------------------------------------------------

def test_conductor_term_check(fejer15, weight):
    out = ratios.conductor_term_check(DensityConfig(500.0, fejer15, weight))
    assert abs(out["residual"]) < out["x_invsqrt"]


def test_digamma_pair_check(fejer15, bump15):
    L = math.log(2000.0)
    fe = ratios.digamma_pair_check(fejer15, L)
    assert abs(fe["difference"]) < 1e-6
    bu = ratios.digamma_pair_check(bump15, L)
    assert abs(bu["difference"]) < 1e-8


def test_prime_bridge_check(fejer15, weight, ctx):
    out = ratios.prime_bridge_check(DensityConfig(500.0, fejer15, weight), ctx)
    assert abs(out["difference"]) < 1e-6


def test_xc_form_check():
    assert ratios.xc_form_check() < 1e-6


def test_compare_rows(fejer15, weight, ctx):
    rows = ratios.compare((100.0, 200.0), fejer15, weight, ctx, M=1, T=150.0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(ratios.COMPARE_COLUMNS)
        assert abs(row["r_emp_int"] - (row["D_emp"] - row["D_int"])) < 1e-15
        assert abs(row["rL2_emp_fo"]
                   - row["r_emp_fo"] * row["L"] ** 2) < 1e-12
    assert rows[0]["X"] == 100.0 and rows[1]["X"] == 200.0
