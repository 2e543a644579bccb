"""The invariant battery shared by `quadhecke selftest` and the test suite.

CHECKS holds (name, tier, fn) entries; fn() returns (residual, tolerance)
and passes when |residual| <= tolerance.  `selftest --quick` runs the quick
tier, `selftest` quick and full, the suite every tier.  Inputs and sizes
are bound in the entry, so no check looks at its tier.
"""

from __future__ import annotations

import cmath
import math
from functools import partial

import numpy as np

from . import ratios, zint
from ._numerics import cauchy_derivs, panel_nodes
from .empirical import (DensityConfig, digamma_integral_term, one_level_density,
                        poisson_pair, s_even_main_form, total_weight)
from .expansion import J_X, d_coefficients, phi_sf_limit, phi_sf_partial
from .specfun import (_LOG_32_PI2, _PSI_HALF, A_closed_mr, A_euler, EULER_GAMMA,
                      X_c, default_context, digamma, zeta_K)
from .transforms import make_gaussian_weight, mellin_identity_check, parse_test_function


def _config(X: float, phi: str = "fejer:1.5") -> DensityConfig:
    return DensityConfig(X, parse_test_function(phi), make_gaussian_weight())


def zeta_k_prime_at_0():
    ctx = default_context()
    return (ctx.zetaK0_prime
            - (ctx.gamma_K / math.pi - (math.log(math.pi) + EULER_GAMMA) / 2.0)), 1e-9


def weight_mass(X=1e5):
    cfg = _config(X)
    target = math.pi / (3.0 * default_context().zetaK2) * cfg.weight.w_hat0 * X
    return total_weight(cfg) / target - 1.0, 1e-2


def _odd_elements(bound):
    """The odd elements of Z[i] with norm <= bound."""
    m = math.isqrt(bound)
    return [zint.GInt(x, y) for x in range(-m, m + 1) for y in range(-m, m + 1)
            if (x + y) % 2 and x * x + y * y <= bound]


def _euler_symbol(a, entries):
    """(a/n) as the product of Euler-criterion prime symbols over the
    factorization entries of n."""
    out = 1
    for pp, e in entries:
        out *= zint._symbol_prime_euler(a, pp) ** e
    return out


def symbol_method_agreement(moduli, elements):
    """Mismatches between quad_symbol and the Euler-criterion product over
    each modulus's factorization."""
    bad = 0
    for n in moduli:
        entries = zint.factor(n)[2]
        bad += sum(zint.quad_symbol(a, n) != _euler_symbol(a, entries)
                   for a in elements)
    return bad, 0.5


def reciprocity(elements):
    """Mismatches of (m/n) = (n/m) over all pairs of the primary elements;
    a pair with a common factor gives 0 on both sides."""
    bad = sum(zint.quad_symbol(m, n) != zint.quad_symbol(n, m)
              for i, m in enumerate(elements) for n in elements[i + 1:])
    return bad, 0.5


def gauss_sum(bound=60, residues=((1, 0), (2, 1), (0, 3))):
    """g(r, varpi) = (i r / varpi) sqrt(N varpi) at prime moduli."""
    worst = 0.0
    for pp in zint.primary_primes_up_to(bound):
        for r in (zint.GInt(*c) for c in residues):
            want = zint.quad_symbol(zint.I * r, pp.value) * math.sqrt(pp.norm)
            worst = max(worst, abs(zint.gauss_sum(r, pp.value) - want))
    return worst, 1e-9


def pole_rays(norm_c=5, radii=(0.04, 0.02, 0.01, 0.005, 0.0025)):
    """|r (combined + dual)| along rays arg r in {0, pi/4, pi/2}; the
    residues cancel, so the products must sink toward zero with |r|."""
    ctx = default_context()
    rays = {"real": 1.0 + 0.0j, "diag": cmath.exp(0.25j * math.pi), "imag": 1j}
    return {name: [abs(rho * phase * (ratios.combined_prime_term(rho * phase)
                                      + ratios.dual_term(rho * phase, norm_c, ctx)))
                   for rho in radii]
            for name, phase in rays.items()}


def pole_residues(norm_c=5, radius=0.05):
    """max(|Res dual - 1|, |Res combined + 1|) at r = 0, each residue the
    mean of r f(r) over a Cauchy ring; pole_cancellation sees only that the
    two cancel."""
    ctx = default_context()

    def residue(f):
        return cauchy_derivs(lambda rs: np.array([r * f(r) for r in rs]),
                             0.0, radius, 0)[0]

    dual = residue(lambda r: ratios.dual_term(r, norm_c, ctx))
    return max(abs(dual - 1.0), abs(residue(ratios._combined_analytic) + 1.0)), 1e-8


def xc_form(norm_c=5, ts=(0.1, 0.5, 2.0, 10.0), delta=1e-6):
    """max |log(32 N/pi^2) + psi(1/2-it) + psi(1/2+it) + X_c'/X_c(1/2+it)|:
    the bracket's conductor and gamma pieces are -X_c'/X_c of the contour
    form, checked with a central difference of X_c itself."""
    worst = 0.0
    for t in ts:
        s = 0.5 + 1j * float(t)
        ld = (X_c(s + delta, norm_c) - X_c(s - delta, norm_c)) / (2.0 * delta * X_c(s, norm_c))
        three = (ratios._mu_of(norm_c) + complex(digamma(0.5 - 1j * t))
                 + complex(digamma(0.5 + 1j * t)))
        worst = max(worst, abs(three + ld))
    return worst, 1e-6


def digamma_pair(phi="fejer:1.5", tol=1e-6, X=2000.0, T=1500.0, h=0.25):
    """(1/2pi) int psi-pair phi dt on direct panels against the exact
    psi(1/2) + kernel-integral form.  The pair grows like 2 log t, so the
    slowly decaying Fejer kernel gets a mean envelope tail (log T + 1)/T
    past the cut; the bump decays superpolynomially and needs none."""
    test, L = parse_test_function(phi), math.log(X)
    nodes, wts = panel_nodes(0.0, T, h, 12)
    vals = 2.0 * digamma(0.5 + 1j * nodes).real
    direct = float(np.dot(wts, vals * test.phi(nodes * L / (2.0 * math.pi)))) / math.pi
    if test.kind == "fejer":
        direct += 4.0 / (math.pi * test.sigma * L * L) * (math.log(T) + 1.0) / T
    closed = 2.0 * _PSI_HALF * float(test.phi_hat(0.0)) / L + digamma_integral_term(test, L)
    return direct - closed, tol


def conductor_average(X=2000.0, c=3.0):
    """Family average of log(32 N(c)/pi^2) against its smoothed closed form
    L + log(32/pi^2) + 2 Mw'(1)/w_hat(0); the gap decays like X^{-1/2}."""
    cfg = _config(X)
    norms, wn, fam = ratios._norm_groups(cfg)
    m1 = float(np.dot(wn, np.log(32.0 * norms / math.pi ** 2))) / fam.W
    closed = cfg.L + _LOG_32_PI2 + 2.0 * cfg.weight.mw_prime_1 / cfg.weight.w_hat0
    return m1 - closed, c * X ** -0.5


def prime_bridge(X=2000.0, tol=1e-4):
    """Axis integral of the combined prime term against the even prime-power
    sum.  Moving the contour off the axis crosses the -1/r pole, so the
    real-axis value carries an extra phi(0)/2 half residue:

        (1/pi) int_0^inf Re combined(it) phi(tL/2pi) dt - phi(0)/2
            = -(2/L) sum logN N^-j (1+1/N)^-1 phi_hat(2j logN / L).
    """
    cfg = _config(X)
    nodes, wts, re_comb, _, _ = ratios._axis_profile(
        ratios._T_CAP, ratios._PANEL_H, default_context())
    phi_vals = cfg.test.phi(nodes * cfg.L / (2.0 * math.pi))
    integral = float(np.dot(wts, re_comb * phi_vals)) / math.pi \
        - float(cfg.test.phi(0.0)) / 2.0
    return integral - s_even_main_form(cfg), tol


def prime_sums(B=200000, modulus=(3, 2)):
    """Prime sums over norms <= B, each normalized by sqrt(B) log^2(2B):
    sum log N - B, and the twisted sum of (m/varpi) log N at a fixed
    modulus m, which has no main term."""
    scale = math.sqrt(B) * math.log(2.0 * B) ** 2
    norms = zint.prime_norms_up_to(B).astype(float)
    principal = (float(np.sum(np.log(norms))) - B) / scale
    m = zint.GInt(*modulus)
    twisted = 0.0
    for pp in zint.primary_primes_up_to(B):
        twisted += zint.quad_symbol(m, pp.value) * math.log(pp.norm)
    return max(abs(principal), abs(twisted / scale)), 0.5


def a_diag_unity(rs):
    """max |A(r, r) - 1|: the Euler factor is 1 on the diagonal."""
    return max(abs(A_euler(r, r) - 1.0) for r in rs)


def a_closed_vs_euler(rs):
    """Closed form A(-r, r) against the truncated Euler product, relative
    to max(1, |A|)."""
    worst = 0.0
    for r in rs:
        want = A_euler(-r, r)
        got = A_closed_mr(r, default_context())
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst, 1e-6


def route_gap(X, phi="fejer:1.5"):
    """D_emp - D_int, the explicit formula over the family against the
    ratios integral, within C X^(-1/2) (the scale of the ratios
    conjecture's error term) plus the integral's own error estimate.
    C = 0.5 is fixed: the largest measured |gap| sqrt(X) is 0.35 (fejer:0.8,
    1.2, 1.5 and bump:0.8, X = 500 to 512000) and 0.32 (fejer:1.9)."""
    cfg = _config(X, phi)
    rep = ratios.ratios_density(cfg, default_context())
    gap = one_level_density(cfg).D_total - rep.D_ratios_integral
    return gap, 0.5 * X ** -0.5 + rep.max_error


def refinement(phi, X=2000.0, T=ratios._T_CAP, h=ratios._PANEL_H):
    """D_int on a refined grid (T doubled or h halved) against the default
    grid, within the default run's own error estimate max_error."""
    cfg = _config(X, phi)
    rep = ratios.ratios_density(cfg, default_context())
    fine = ratios.ratios_density(cfg, default_context(), T=T, h=h)
    return fine.D_ratios_integral - rep.D_ratios_integral, rep.max_error


def refine_ycap(X=2000.0, phi="fejer:1.5"):
    """J(X) with the kernel tables' y_cap doubled against the default 3000,
    within the default run's own error estimate."""
    test = parse_test_function(phi)
    value, err = J_X(X, test)
    return J_X(X, test, y_cap=6000.0)[0] - value, err


def d_routes_agree(M=3):
    """The largest |d_m(sieve) - d_m(analytic)| in units of the sieve
    route's error bar, m = 1..M."""
    pairs = zip(d_coefficients(M, route="sieve"), d_coefficients(M))
    return max(abs(sieve - exact) / err for (sieve, err), (exact, _) in pairs), 1.0


def poisson(xs, n=None, tol=1e-10):
    """The lattice Poisson identity, plain or twisted by the symbol mod the
    primary n, |lhs - rhs| / max(1, |lhs|) over the scales xs."""
    gaps = [abs(lhs - rhs) / max(1.0, abs(lhs))
            for lhs, rhs in (poisson_pair(make_gaussian_weight(), x, n) for x in xs)]
    return max(gaps), tol


def mellin_identity(zs):
    """The largest Mellin identity residual over the points zs; it carries the
    cubic-table error, and a structural failure would be O(1)."""
    return max(mellin_identity_check(make_gaussian_weight(), z) for z in zs), 1e-7


CHECKS = (
    ("zetaK_at_0", "quick", lambda: (complex(zeta_K(0.0)).real + 0.25, 1e-8)),
    ("zetaK_pole_residue", "quick",
     lambda: (default_context().residue - math.pi / 4.0, 1e-5)),
    ("psi_half", "quick",
     lambda: (complex(digamma(0.5)) + EULER_GAMMA + 2.0 * math.log(2.0), 1e-10)),
    ("zetaK_prime_at_0", "quick", zeta_k_prime_at_0),
    ("a_diag_unity", "quick",
     lambda: (a_diag_unity((0.0, 0.1, 0.1 + 0.2j)), 1e-12)),
    ("a_closed_vs_euler", "quick", partial(a_closed_vs_euler, (0.1,))),
    # the constant folded into expansion.c_w1_closed
    ("constant_simplification", "quick",
     lambda: (2.0 * math.log(4.0) + math.log(math.pi ** 2 / 32.0)
              - (4.0 / 3.0) * math.log(2.0)
              - math.log(math.pi ** 2 / 2 ** (7.0 / 3.0)), 1e-12)),
    ("mellin_identity_half", "quick", partial(mellin_identity, (0.5 + 0.0j,))),
    ("mellin_identity_half_i", "quick", partial(mellin_identity, (0.5 + 1.0j,))),
    ("w_tilde_at_0", "quick",
     lambda: (float(make_gaussian_weight().w_tilde(0.0))
              - math.pi / 2.0 * make_gaussian_weight().w_hat0, 1e-8)),
    ("symbol_method_agreement", "quick",
     lambda: symbol_method_agreement(
         [pp.value for pp in zint.primary_primes_up_to(300)],
         [zint.GInt(x, y) for x in (-3, -1, 1, 3) for y in (-2, 0, 2, 4)])),
    ("reciprocity_spot", "quick",
     lambda: reciprocity([pp.value for pp in zint.primary_primes_up_to(120)])),
    ("gauss_sum_spot", "quick", gauss_sum),
    ("poisson_twisted_X1", "quick", partial(poisson, (1.0,), zint.GInt(-1, -2), 1e-6)),
    ("squarefree_density", "quick",
     lambda: (phi_sf_partial(2 * 10 ** 5) - phi_sf_limit(default_context()), 1e-2)),
    ("pole_residues", "quick", pole_residues),
    ("pole_cancellation", "quick",
     lambda: (max(v[-1] / v[0] for v in pole_rays().values()), 0.5)),
    ("xc_logderiv_form", "quick", xc_form),
    ("combined_prime_r_quarter", "quick",
     lambda: (ratios.combined_prime_term(0.25)
              - ratios._combined_analytic(0.25), 1e-5)),
    ("weight_mass_1e5", "full", weight_mass),
    ("digamma_pair_identity", "full", digamma_pair),
    ("conductor_average", "full", conductor_average),
    ("prime_bridge", "full", prime_bridge),
    ("route_gap", "full", partial(route_gap, 2000.0)),
    ("refine_T_15_2000", "full", partial(refinement, "fejer:1.5", T=2.0 * ratios._T_CAP)),
    ("refine_h_15_2000", "full", partial(refinement, "fejer:1.5", h=0.5 * ratios._PANEL_H)),
    ("refine_T_b08_2000", "full", partial(refinement, "bump:0.8", T=2.0 * ratios._T_CAP)),
    ("refine_h_b08_2000", "full", partial(refinement, "bump:0.8", h=0.5 * ratios._PANEL_H)),
    ("refine_ycap_J_2000", "full", refine_ycap),
    ("d_routes_agree", "full", d_routes_agree),
    ("digamma_pair_bump", "exhaustive", partial(digamma_pair, "bump:1.5", 1e-8)),
    ("conductor_average_500", "exhaustive", partial(conductor_average, 500.0, 1.0)),
    ("prime_bridge_500", "exhaustive", partial(prime_bridge, 500.0, 1e-6)),
    ("prime_sums_2e5", "exhaustive", prime_sums),
    # primary moduli of norm 3..200, composites included, every odd a
    ("symbol_method_agreement_200", "exhaustive",
     lambda: symbol_method_agreement(
         [z for z in _odd_elements(200) if zint.is_primary(z) and not z.is_unit()],
         _odd_elements(60))),
    # every pair of primary elements of norm 2..500, coprime or not
    ("reciprocity_500", "exhaustive",
     lambda: reciprocity([z for z in _odd_elements(500)
                          if zint.is_primary(z) and not z.is_unit()])),
    ("gauss_sum_80", "exhaustive",
     partial(gauss_sum, 80, ((1, 0), (2, 1), (0, 3), (-1, 2)))),
    ("mellin_identity_spread", "exhaustive", partial(mellin_identity, (1.5, 0.25 + 0.7j))),
    ("poisson_plain", "exhaustive", partial(poisson, (3.7, 12.0))),
    # 1 - 4i, one of the two primary primes of norm 17
    ("poisson_twisted_17", "exhaustive", partial(poisson, (2.5,), zint.GInt(1, -4))),
    ("a_diag_unity_off_axis", "exhaustive",
     lambda: (a_diag_unity((0.5j, -0.2 + 0.2j)), 1e-8)),
    ("a_closed_vs_euler_spread", "exhaustive",
     partial(a_closed_vs_euler, (0.05, 0.21j, 0.1 - 0.07j, 0.05 + 0.1j))),
    # h = 0.05 puts the first node at 4.6e-4, near the bracket's cancelled pole
    ("refine_h_fine_15_2000", "exhaustive", partial(refinement, "fejer:1.5", h=0.05)),
    ("route_gap_15_500", "exhaustive", partial(route_gap, 500.0)),
    ("route_gap_15_8000", "exhaustive", partial(route_gap, 8000.0)),
    ("route_gap_08_500", "exhaustive", partial(route_gap, 500.0, "fejer:0.8")),
    ("route_gap_08_2000", "exhaustive", partial(route_gap, 2000.0, "fejer:0.8")),
    ("route_gap_08_8000", "exhaustive", partial(route_gap, 8000.0, "fejer:0.8")),
    ("route_gap_19_500", "exhaustive", partial(route_gap, 500.0, "fejer:1.9")),
    ("route_gap_19_2000", "exhaustive", partial(route_gap, 2000.0, "fejer:1.9")),
    ("route_gap_08_32000", "exhaustive", partial(route_gap, 32000.0, "fejer:0.8")),
    ("route_gap_08_128000", "exhaustive", partial(route_gap, 128000.0, "fejer:0.8")),
    ("route_gap_b08_2000", "exhaustive", partial(route_gap, 2000.0, "bump:0.8")),
    ("route_gap_b08_32000", "exhaustive", partial(route_gap, 32000.0, "bump:0.8")),
)
