"""Ratios-conjecture prediction of the family's one-level density.

The prediction averages, over the quadratic family weighted by w(N(c)/X),
a four-piece bracket on the critical line r = it:

    2 zeta_K'/zeta_K(1+2it) + 2 A_alpha(it,it)       combined prime term
  + log(32 N(c)/pi^2)                                 conductor
  + psi(1/2 - it) + psi(1/2 + it)                     gamma factor pair
  - (8/pi) X_c(1/2 + it) zeta_K(1-2it) A(-it, it)     dual term

times phi(tL/2pi), integrated over the line and divided by 2pi.  The
combined and dual pieces carry simple poles at t = 0 with residues -1 and
+1, so their sum is analytic; each piece alone stays integrable on the
real axis because the pole is odd-imaginary there.  Every panel node is
evaluated directly; the grid keeps its first node outside zeta_K's pole
guard.

Assembly exploits three structural facts.  The conductor piece is constant
in t, so it integrates to phi_hat(0)/L exactly.  The gamma pair obeys the
exact kernel identity 2 psi(1/2) phi_hat(0)/L plus the e^{-x/2}/(1-e^{-x})
integral, shared with the explicit-formula side.  The dual term factors as
Psi(it) exp(-it mu(N)) with Psi independent of the conductor, so the family
collapses to distinct norms and one cached t-profile (specfun._axis_profile,
which route 3 reads too) serves every config.  The family's phase sum
over its norms depends on the family and the grid, not on phi, so it is
kept on the family (empirical._Family.dual_phase_sum): a second phi at the
same X and grid costs one phi evaluation and one dot.
What remains under numerical quadrature is mean-zero in t and is summed on
fixed GL-12 panels sized to the fastest phase, with an a-posteriori tail
estimate from the trailing panels.

Every t-sum left in the bracket has the form sum_n w_n exp(-i t mu_n):
the Hurwitz heads of zeta_K at 1+2it and 2+2it (mu = 2 log(n+a), four
amplitude columns per Hurwitz parameter), the prime sums of A_alpha(it,it)
(mu = 2k log N) and the dual phase sum over the family's norms (mu(N)).
One primitive, _numerics.phase_sum, evaluates them all on the panel grid:
a node is a panel start k step plus one of 12 offsets c_j, so for each
offset the sum over panels is a type-1 NUFFT in k with sources step mu
(mod 2 pi).  The 12 c sums of one call share one Gaussian spread onto a
periodic grid, one FFT and one closed-form deconvolution, so the cost grows
like n_sources + n_panels log n_panels, not n_sources n_panels.  What is
left per node is closed form: the Euler-Maclaurin tails, loggamma and
A(-r, r); the values below the axis are the conjugates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import zint
from ._numerics import gl_nodes, panel_layout
from .empirical import (DensityConfig, digamma_integral_term, one_level_density,
                        s_even_main_form, _family)
from .expansion import J_first_order, expansion_coefficients, thm_prediction
from .specfun import (_EULER_CUTOFF, _LOG_32_PI2, _POLE_GUARD, _PSI_HALF, A_alpha_series,
                      _axis_profile, _em_shift, log_conductor, zeta_K_log_deriv)
from .transforms import TestFunction, WeightFunction

_T_CAP = 600.0        # axis truncation; past every stationary phase in range
_PANEL_H = 0.25       # GL-12 panel width; fastest phase is log(32 N/pi^2)
_ERR_FLOOR = 5e-6     # error allowance of max_error beyond the tail estimate
# the axis profile's build peaks at about 0.45 kB per node (61 MB at 144000,
# the battery's finest grid): 2^18 nodes stay under about 120 MB
_MAX_NODES = 2 ** 18
# GL-12 remainder constant: a panel of width h misses at most
# h^25 (12!)^4 / (25 (24!)^3) max|f^(24)|
_GL12_REMAINDER = math.factorial(12) ** 4 / (25 * math.factorial(24) ** 3)


# --- the two prime-driven pieces ---------------------------------------------------

def combined_prime_term(r: complex, cutoff: int | None = None,
                        tol: float = 1e-2) -> complex:
    """2 zeta_K'/zeta_K(1+2r) + 2 A_alpha(r,r) as one regular prime sum.

    -2 sum_varpi N logN / ((N+1)(N^{1+2r}-1)) over odd primary prime norms
    up to `cutoff`.  Every term is finite at r = 0; the divergence of the
    full sum there is the function's pole re-entering as cutoff -> infinity.
    For r != 0 the smooth part of the tail, B^{-2r}/(2r), is restored in
    closed form; what is left is the prime-count fluctuation, whose envelope
    must stay below tol or the call raises.
    """
    r = complex(r)
    if r.real < -1e-12:
        raise ValueError("combined_prime_term needs Re(r) >= 0")
    B = int(cutoff or _EULER_CUTOFF)
    norms = zint.prime_norms_up_to(B).astype(float)
    ln = np.log(norms)
    y = np.exp(-(1.0 + 2.0 * r) * ln)          # N^{-1-2r}
    head = complex(np.sum(norms * ln / (norms + 1.0) * y / (1.0 - y)))
    if r == 0.0:
        return -2.0 * head
    lb = math.log(B)
    tail = cmath.exp(-2.0 * r * lb) / (2.0 * r)
    # fluctuation envelope, calibrated against the log-derivative route with
    # a fivefold margin over the worst measured gap
    env = 0.004 * lb * lb / math.sqrt(B) * math.exp(-2.0 * r.real * lb) \
        * (2.0 + abs(1.0 + 2.0 * r))
    if env > tol:
        raise ArithmeticError(
            f"combined_prime_term tail envelope {env:.2e} exceeds tol {tol:.2e}")
    return -2.0 * (head + tail)


def _combined_analytic(r: complex) -> complex:
    """Same function through zeta_K'/zeta_K and the absolutely convergent
    A_alpha series; accurate on the imaginary axis where the truncated
    prime sum's restored tail keeps modulus one."""
    r = complex(r)
    return complex(2.0 * zeta_K_log_deriv(1.0 + 2.0 * r) + 2.0 * A_alpha_series(r))


def panel_error_bound(cfg: DensityConfig, T: float, h: float) -> float:
    """GL-12 panel error of the prediction integral over [0, T], per unit
    integrand amplitude, for phases up to Omega = mu_max + 2 log K + sigma L:
    the dual phase of the largest family norm R X, the Hurwitz heads'
    2 log(n + a) for n < K, and phi(tL/2pi), whose transform has support
    sigma.  Each panel misses at most step^25 Omega^24 times the GL-12
    remainder constant; summed over the T/step panels and divided by pi as
    the integral is."""
    _, step = panel_layout(0.0, T, h)
    K = _em_shift(np.array([2j * T]))
    omega = log_conductor(cfg.R * cfg.X) + 2.0 * math.log(K) + cfg.test.sigma * cfg.L
    with np.errstate(over="ignore"):
        return float(T / math.pi * _GL12_REMAINDER * np.float64(omega * step) ** 24)


def _check_grid(cfg: DensityConfig, T: float, h: float) -> None:
    """Raise ValueError for a [0, T] panel grid the prediction integral
    cannot use: T or h not finite and positive, panels so narrow that the
    first node t1 puts zeta_K(1 + 2 i t1) inside its pole guard, more than
    _MAX_NODES nodes, or panels so wide that panel_error_bound exceeds the
    error floor of max_error."""
    if not (0.0 < T < math.inf and 0.0 < h < math.inf):
        raise ValueError(f"ratios_density needs finite T > 0 and h > 0, "
                         f"got T={T!r}, h={h!r}")
    too_many = f"; the axis profile is built on at most {_MAX_NODES}"
    if T / h == math.inf:   # the panel count would overflow panel_layout
        raise ValueError(f"grid T={T!r}, h={h!r} needs {12.0 * T / h:.3g} nodes{too_many}")
    panels, step = panel_layout(0.0, T, h)
    t1 = float(gl_nodes(0.0, step, 12)[0][0])
    if 2.0 * t1 < _POLE_GUARD:
        raise ValueError(f"panel width h={h!r} puts the first node t={t1:.3g} "
                         f"inside zeta_K's pole guard: 2t < {_POLE_GUARD:.0e}")
    if 12 * panels > _MAX_NODES:
        raise ValueError(f"grid T={T!r}, h={h!r} needs {12.0 * panels:.3g} nodes{too_many}")
    bound = panel_error_bound(cfg, T, h)
    if bound > _ERR_FLOOR:
        raise ValueError(f"panel width h={h!r} under-resolves the integrand at "
                         f"X={cfg.X!r}: GL-12 error bound {bound:.2e} exceeds "
                         f"{_ERR_FLOOR:.0e}")


# --- reports -----------------------------------------------------------------------

@dataclass
class PredictionReport:
    X: float
    sigma: float
    L: float
    D_ratios_integral: float | None
    D_ratios_first_order: float
    terms: dict[str, float]
    integral_parts: dict[str, float]
    n_points: int
    max_error: float
    n_norms: int
    family_size: int

    def as_dict(self) -> dict:
        out = asdict(self)
        if self.D_ratios_integral is None:
            del out["D_ratios_integral"], out["integral_parts"]
        return out


def ratios_first_order(cfg: DensityConfig,
                       ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                       ) -> PredictionReport:
    """Six-term closed expansion of the prediction.

    phi_hat(0) + int_1^inf phi_hat + conductor bracket/L + digamma kernel
    integral + even prime-power sum + phi_hat(1) bracket/L.  The prime sum
    is the same code path as the explicit-formula main form; the phi_hat(1)
    bracket is the closed first moment of the descending-log kernel,
    expansion.J_first_order.
    """
    test, w, L = cfg.test, cfg.weight, cfg.L
    p0 = float(test.phi_hat(0.0))
    terms = {
        "phi_hat0": p0,
        "tail_integral": test.phi_hat_integral(1.0, math.inf),
        "conductor": p0 / L * (_LOG_32_PI2 + 2.0 * _PSI_HALF + w.mean_log),
        "digamma_integral": digamma_integral_term(test, L),
        "prime_even": s_even_main_form(cfg),
        "phi_hat1": J_first_order(cfg.X, test, w),
    }
    fo = math.fsum(terms.values())
    return PredictionReport(
        X=cfg.X, sigma=test.sigma, L=L,
        D_ratios_integral=None, D_ratios_first_order=fo,
        terms=terms, integral_parts={},
        n_points=0, max_error=0.0, n_norms=0, family_size=0)


def ratios_density(cfg: DensityConfig,
                   ctx=None,  # unread; perfbench/worker.py fills it (ROADMAP item 7)
                   T: float = _T_CAP, h: float = _PANEL_H) -> PredictionReport:
    """Prediction integral (1/W) sum_c w(N(c)/X) (1/2pi) int bracket phi dt.

    The conductor piece integrates to its family average times phi_hat(0)/L
    exactly; the gamma pair goes through the exact kernel identity.  The
    combined and dual pieces are integrated on [0, T] GL-12 panels (real
    part, doubled by evenness), the dual one through the per-norm phase sum
    Psi(it) exp(-it mu(N)) grouped on distinct norms, which the family keeps
    for the grid after _check_grid has passed it.
    """
    _check_grid(cfg, T, h)
    test, L = cfg.test, cfg.L
    p0 = float(test.phi_hat(0.0))
    fam = _family(cfg)
    mu, _, m1 = fam.conductors

    nodes, wts, re_comb, psi_big = _axis_profile(T, h)
    phi_vals = test.phi(nodes * L / (2.0 * math.pi))

    integ = re_comb + (psi_big * fam.dual_phase_sum(T, h)).real
    contrib = wts * integ * phi_vals
    i_num = float(np.sum(contrib)) / math.pi

    # trailing panels bound the cut: for a t^-2 envelope the remainder is
    # at most the largest late panel times T/h
    pan = contrib.reshape(-1, 12).sum(axis=1)
    last = np.abs(pan[-max(8, pan.size // 10):])
    tail_est = float(last.max()) * (T / h) / math.pi + 1e-9

    fo = ratios_first_order(cfg)
    conductor_avg = m1 * p0 / L
    digamma_closed = 2.0 * _PSI_HALF * p0 / L + fo.terms["digamma_integral"]
    d_int = conductor_avg + digamma_closed + i_num

    parts = {
        "conductor_average": conductor_avg,
        "digamma_closed": digamma_closed,
        "integral_prime_pieces": i_num,
        "tail_estimate": tail_est,
    }
    return PredictionReport(
        X=cfg.X, sigma=test.sigma, L=L,
        D_ratios_integral=d_int, D_ratios_first_order=fo.D_ratios_first_order,
        terms=fo.terms, integral_parts=parts,
        n_points=int(nodes.size), max_error=tail_est + _ERR_FLOOR,
        n_norms=int(mu.size), family_size=fam.size)


# --- comparison harness ------------------------------------------------------------

COMPARE_COLUMNS = ("X", "L", "D_emp", "D_int", "D_fo", "D_thm11",
                   "r_emp_int", "r_emp_fo", "rL2_emp_fo")


def compare(xs, test: TestFunction, weight: WeightFunction,
            R: float = 4.0, threads: int = 1,
            M: int = 2, T: float = _T_CAP, h: float = _PANEL_H) -> list[dict]:
    """One row per X: empirical density, prediction integral, first-order
    expansion, descending-log theorem value, and their residuals."""
    cfgs = [DensityConfig(float(x), test, weight, R=R, threads=threads) for x in xs]
    for cfg in cfgs:
        _check_grid(cfg, T, h)
    coeffs = expansion_coefficients(M, test, weight)
    rows = []
    for cfg in cfgs:
        x = cfg.X
        emp = one_level_density(cfg)
        rep = ratios_density(cfg, T=T, h=h)
        thm = thm_prediction(x, coeffs, test)
        L = cfg.L
        r_int = emp.D_total - rep.D_ratios_integral
        r_fo = emp.D_total - rep.D_ratios_first_order
        rows.append({
            "X": x,
            "L": L,
            "D_emp": emp.D_total,
            "D_int": rep.D_ratios_integral,
            "D_fo": rep.D_ratios_first_order,
            "D_thm11": thm,
            "r_emp_int": r_int,
            "r_emp_fo": r_fo,
            "rL2_emp_fo": r_fo * L * L,
        })
    return rows
