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
real axis because the pole is odd-imaginary there.  Direct evaluation runs
for |t| >= eps0 and a matched Laurent branch inside, with the pole pair
pinned to its analytic cancellation [exp(-it mu) - 1]/(it).

Assembly exploits three structural facts.  The conductor piece is constant
in t, so it integrates to phi_hat(0)/L exactly.  The gamma pair obeys the
exact kernel identity 2 psi(1/2) phi_hat(0)/L plus the e^{-x/2}/(1-e^{-x})
integral, shared with the explicit-formula side.  The dual term factors as
Psi(it) exp(-it mu(N)) with Psi independent of the conductor, so the family
collapses to distinct norms and one cached t-profile serves every config.
What remains under numerical quadrature is mean-zero in t and is summed on
fixed GL-12 panels sized to the fastest phase, with an a-posteriori tail
estimate from the trailing panels.

Both t-dependent pieces are built from shared phase tables.  The profile
needs zeta_K at 1+2it, 2+2it, 1-2it and 2-2it; per block of nodes one
cos/sin(2t log(n+a)) table per Hurwitz parameter serves both lines
(specfun.zeta_K_axis), and the values below the axis are the conjugates.
The dual phase sum factors by panel: a node is a panel start plus one of
12 offsets, so exp(-it mu) is a panel-start table times a weighted
12-row offset table, one complex matrix product per block of panels.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import loggamma as _loggamma

from . import zint
from ._numerics import cauchy_derivs, gl_nodes, panel_layout, panel_nodes, read_only
from .empirical import (DensityConfig, digamma_integral_term, one_level_density,
                        s_even_main_form, _family)
from .expansion import c_w1_closed, expansion_coefficients, thm_prediction
from .specfun import (_LOG_32_PI2, _PSI_HALF, A_alpha_series, A_alpha_diag_it,
                      A_closed_mr, X_c, ZetaKContext, default_context, digamma,
                      zeta_K, zeta_K_axis, zeta_K_log_deriv)
from .transforms import TestFunction, WeightFunction

_EPS0 = 1e-3          # Laurent switch radius around the cancelled pole
_RING_RADIUS = 0.05   # Cauchy ring for the origin data
_T_CAP = 600.0        # axis truncation; past every stationary phase in range
_PANEL_H = 0.25       # GL-12 panel width; fastest phase is log(32 N/pi^2)
_PRIME_CUTOFF = 10 ** 6
_AXIS_BLOCK = 512     # profile nodes per block: bounds the phase tables, fits K
_PANEL_BLOCK = 64     # panels per block of the dual phase sum


def _mu_of(norm_c) -> float:
    return math.log(32.0 * float(norm_c) / math.pi ** 2)


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
    B = int(cutoff or _PRIME_CUTOFF)
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


def _combined_analytic(r: complex, ctx: ZetaKContext | None = None) -> complex:
    """Same function through zeta_K'/zeta_K and the absolutely convergent
    A_alpha series; accurate on the imaginary axis where the truncated
    prime sum's restored tail keeps modulus one."""
    ctx = ctx or default_context()
    r = complex(r)
    return complex(2.0 * zeta_K_log_deriv(1.0 + 2.0 * r)
                   + 2.0 * A_alpha_series(r, ctx))


def dual_term(r: complex, norm_c: int, ctx: ZetaKContext | None = None,
              laurent: bool = False) -> complex:
    """-(8/pi) X_c(1/2+r) zeta_K(1-2r) A(-r,r), the swapped-equation term.

    Simple pole at r = 0 with residue +1, cancelling the combined prime
    term's -1.  Direct evaluation needs |r| >= eps0; laurent=True switches
    to the cached series of r Psi(r) times the exact conductor phase.
    """
    ctx = ctx or default_context()
    r = complex(r)
    if abs(r) < _EPS0:
        if not laurent:
            raise ValueError("dual_term inside eps0 needs laurent=True")
        if r == 0.0:
            raise ValueError("dual_term has a pole at r = 0")
        dat = _laurent_data(ctx)
        ph = cmath.exp(-_mu_of(norm_c) * r)
        return (1.0 / r + dat.psi[0] + dat.psi[1] * r + dat.psi[2] * r * r) * ph
    val = -(8.0 / math.pi) * X_c(0.5 + r, int(norm_c)) \
        * zeta_K(1.0 - 2.0 * r) * A_closed_mr(r, ctx)
    return complex(val)


# --- Laurent data at the origin ----------------------------------------------------

@dataclass(frozen=True)
class _LaurentData:
    c: tuple[float, float, float]     # Taylor of combined(r) + 1/r
    psi: tuple[float, float, float]   # Taylor of r Psi(r) past the pinned 1
    residue_gap: float                # |computed residue - 1| of r Psi(r)


@lru_cache(maxsize=4)
def _laurent_data(ctx: ZetaKContext) -> _LaurentData:
    # combined(r) = -1/r + g(r); Z'/Z removes the pole before the ring sees it
    def reg_combined(rs):
        rs = np.asarray(rs, dtype=complex)
        aa = np.array([A_alpha_series(rr, ctx) for rr in rs.ravel()],
                      dtype=complex).reshape(rs.shape)
        return 2.0 * ctx.Z_log_deriv(1.0 + 2.0 * rs) + 2.0 * aa

    # r Psi(r) = (4/pi) G(r) Z(1-2r) A(-r,r), analytic, equals 1 at r = 0
    def ring_psi(rs):
        rs = np.asarray(rs, dtype=complex)
        g = np.exp(_loggamma(0.5 - rs) - _loggamma(0.5 + rs))
        return (4.0 / math.pi) * g * ctx.Z(1.0 - 2.0 * rs) * A_closed_mr(rs, ctx)

    cd = cauchy_derivs(reg_combined, 0.0 + 0.0j, _RING_RADIUS, 2)
    pd = cauchy_derivs(ring_psi, 0.0 + 0.0j, _RING_RADIUS, 3)
    gap = abs(pd[0] - 1.0) + max(abs(v.imag) for v in cd)
    dat = _LaurentData(
        c=(cd[0].real, cd[1].real, cd[2].real / 2.0),
        psi=(pd[1].real, pd[2].real / 2.0, pd[3].real / 6.0),
        residue_gap=float(gap))
    if dat.residue_gap > 1e-8:
        raise ArithmeticError(f"pole residue drifted: gap {dat.residue_gap:.2e}")
    return dat


# --- the bracket on the axis -------------------------------------------------------

def _bracket_parts(t: np.ndarray, ctx: ZetaKContext):
    """Conductor-independent bracket data at nodes t > 0:
    (Re combined(it), 2 Re psi(1/2+it), Psi(it)), where the dual term is
    Psi(it) exp(-it mu(N)).  Below eps0 both singular pieces come from the
    matched origin series."""
    small = t < _EPS0
    big = ~small
    rc = np.empty(t.size)
    pv = np.empty(t.size, dtype=complex)
    if big.any():
        tb = t[big]
        z1, ld1, z2, ld2 = zeta_K_axis(tb)
        rc[big] = (2.0 * ld1 + 2.0 * A_alpha_diag_it(tb, ctx, ld2)).real
        g = np.exp(_loggamma(0.5 - 1j * tb) - _loggamma(0.5 + 1j * tb))
        # zeta_K at 1-2it and 2-2it by Schwarz reflection
        pv[big] = -(8.0 / math.pi) * g * np.conj(z1) \
            * A_closed_mr(1j * tb, ctx, np.conj(z2))
    if small.any():
        dat = _laurent_data(ctx)
        ts = t[small]
        # Re of -1/(it) vanishes; odd Taylor term is imaginary as well
        rc[small] = dat.c[0] - dat.c[2] * ts * ts
        z = 1j * ts
        pv[small] = 1.0 / z + dat.psi[0] + dat.psi[1] * z + dat.psi[2] * z * z
    return rc, 2.0 * digamma(0.5 + 1j * t).real, pv


def ratios_integrand(t: float, norm_c: int, test: TestFunction, L: float,
                     ctx: ZetaKContext | None = None) -> float:
    """Bracket at r = it, real part, times phi(tL/2pi).

    Only the real part enters: the bracket satisfies conj(B(t)) = B(-t), so
    the imaginary part is odd and drops from the even integral.  The value
    is the profile's per-node bracket at |t|; at t = 0 the pole of Psi(it)
    is odd, and Re[Psi(it) exp(-it mu)] tends to psi_0 - mu.
    """
    ctx = ctx or default_context()
    t = abs(float(t))
    mu = _mu_of(norm_c)
    if t == 0.0:
        dat = _laurent_data(ctx)
        bracket = dat.c[0] + dat.psi[0] + 2.0 * _PSI_HALF
    else:
        (rc,), (two_psi,), (pv,) = _bracket_parts(np.array([t]), ctx)
        bracket = rc + (pv * cmath.exp(-1j * t * mu)).real + mu + two_psi
    return bracket * float(test.phi(t * L / (2.0 * math.pi)))


@lru_cache(maxsize=8)
def _axis_profile(T: float, h: float, ctx: ZetaKContext):
    """Conductor-independent integrand data on the [0, T] panel grid:
    (nodes, weights, Re combined(it), 2 Re psi(1/2+it), Psi(it)), read-only."""
    nodes, wts = panel_nodes(0.0, float(T), float(h), 12)
    parts = [_bracket_parts(nodes[i0:i0 + _AXIS_BLOCK], ctx)
             for i0 in range(0, nodes.size, _AXIS_BLOCK)]
    re_comb, two_psi, psi_big = (np.concatenate(p) for p in zip(*parts))
    return read_only(nodes, wts, re_comb, two_psi, psi_big)


def _dual_phase_average(T: float, h: float, mu: np.ndarray,
                        weights: np.ndarray) -> np.ndarray:
    """sum_N weights_N exp(-it mu_N) at every node of the [0, T] GL-12 grid.

    Node j of panel k sits at t = k step + c_j, so the phase factors into
    a panel-start table and a 12-row offset table that carries the
    weights; each block of panels is one complex matrix product, with one
    exponential per panel and norm instead of one per node and norm.
    """
    m, step = panel_layout(0.0, float(T), float(h))
    offsets, _ = gl_nodes(0.0, step, 12)
    off = (np.exp(-1j * np.multiply.outer(offsets, mu)) * weights).T
    out = np.empty((m, 12), dtype=complex)
    for k0 in range(0, m, _PANEL_BLOCK):
        starts = np.arange(k0, min(k0 + _PANEL_BLOCK, m)) * step
        out[k0:k0 + starts.size] = np.exp(-1j * np.multiply.outer(starts, mu)) @ off
    return out.ravel()


def _norm_groups(cfg: DensityConfig, group_norms: bool):
    """Distinct norms with folded weights, or the raw per-element family."""
    fam = _family(cfg)
    if group_norms:
        norms_u, inv = np.unique(fam.norm, return_inverse=True)
        wn = np.zeros(norms_u.size)
        np.add.at(wn, inv, fam.w0)
        wn *= 4.0
    else:
        norms_u = fam.norm.copy()
        wn = 4.0 * fam.w0
    return norms_u.astype(float), wn, fam


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
    elapsed_s: float

    def as_dict(self) -> dict:
        out = {
            "X": self.X,
            "sigma": self.sigma,
            "L": self.L,
            "D_ratios_first_order": self.D_ratios_first_order,
            "terms": dict(self.terms),
            "n_points": self.n_points,
            "max_error": self.max_error,
            "n_norms": self.n_norms,
            "family_size": self.family_size,
            "elapsed_s": self.elapsed_s,
        }
        if self.D_ratios_integral is not None:
            out["D_ratios_integral"] = self.D_ratios_integral
            out["integral_parts"] = dict(self.integral_parts)
        return out


def ratios_first_order(cfg: DensityConfig,
                       ctx: ZetaKContext | None = None) -> PredictionReport:
    """Six-term closed expansion of the prediction.

    phi_hat(0) + int_1^inf phi_hat + conductor bracket/L + digamma kernel
    integral + even prime-power sum + phi_hat(1) bracket/L.  The prime sum
    is the same code path as the explicit-formula main form; the phi_hat(1)
    bracket is the closed first moment of the descending-log kernel.
    """
    ctx = ctx or default_context()
    start = time.perf_counter()
    test, w, L = cfg.test, cfg.weight, cfg.L
    p0 = float(test.phi_hat(0.0))
    terms = {
        "phi_hat0": p0,
        "tail_integral": test.phi_hat_tail_integral(),
        "conductor": p0 / L * (_LOG_32_PI2 + 2.0 * _PSI_HALF
                               + 2.0 * w.mw_prime_1 / w.w_hat0),
        "digamma_integral": digamma_integral_term(test, L),
        "prime_even": s_even_main_form(cfg),
        "phi_hat1": float(test.phi_hat(1.0)) * c_w1_closed(w, ctx) / L,
    }
    fo = math.fsum(terms.values())
    return PredictionReport(
        X=cfg.X, sigma=test.sigma, L=L,
        D_ratios_integral=None, D_ratios_first_order=fo,
        terms=terms, integral_parts={},
        n_points=0, max_error=0.0, n_norms=0, family_size=0,
        elapsed_s=time.perf_counter() - start)


def ratios_density(cfg: DensityConfig, ctx: ZetaKContext | None = None,
                   T: float = _T_CAP, h: float = _PANEL_H,
                   group_norms: bool = True,
                   with_dual: bool = True) -> PredictionReport:
    """Prediction integral (1/W) sum_c w(N(c)/X) (1/2pi) int bracket phi dt.

    The conductor piece integrates to its family average times phi_hat(0)/L
    exactly; the gamma pair goes through the exact kernel identity.  The
    combined and dual pieces are integrated on [0, T] GL-12 panels (real
    part, doubled by evenness), the dual one through the per-norm phase sum
    Psi(it) exp(-it mu(N)) grouped on distinct norms.  with_dual=False drops
    the dual term for ablation runs.
    """
    ctx = ctx or default_context()
    start = time.perf_counter()
    test, L = cfg.test, cfg.L
    p0 = float(test.phi_hat(0.0))
    norms, wn, fam = _norm_groups(cfg, group_norms)
    weight_sum = fam.W
    mu = np.log(32.0 * norms / math.pi ** 2)
    m1 = float(np.dot(wn, mu)) / weight_sum

    nodes, wts, re_comb, two_psi, psi_big = _axis_profile(T, h, ctx)
    phi_vals = test.phi(nodes * L / (2.0 * math.pi))

    integ = re_comb.copy()
    if with_dual:
        integ += (psi_big * _dual_phase_average(T, h, mu, wn / weight_sum)).real
    contrib = wts * integ * phi_vals
    i_num = float(np.sum(contrib)) / math.pi

    # trailing panels bound the cut: for a t^-2 envelope the remainder is
    # at most the largest late panel times T/h
    pan = contrib.reshape(-1, 12).sum(axis=1)
    last = np.abs(pan[-max(8, pan.size // 10):])
    tail_est = float(last.max()) * (T / h) / math.pi + 1e-9

    conductor_avg = m1 * p0 / L
    digamma_closed = 2.0 * _PSI_HALF * p0 / L + digamma_integral_term(test, L)
    d_int = conductor_avg + digamma_closed + i_num

    fo = ratios_first_order(cfg, ctx)
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
        n_points=int(nodes.size), max_error=tail_est + 5e-6,
        n_norms=int(norms.size), family_size=fam.size,
        elapsed_s=time.perf_counter() - start)


# --- comparison harness ------------------------------------------------------------

COMPARE_COLUMNS = ("X", "L", "D_emp", "D_int", "D_fo", "D_thm11",
                   "r_emp_int", "r_emp_fo", "rL2_emp_fo")


def compare(xs, test: TestFunction, weight: WeightFunction,
            ctx: ZetaKContext | None = None, R: float = 4.0, threads: int = 1,
            M: int = 2, T: float = _T_CAP, h: float = _PANEL_H) -> list[dict]:
    """One row per X: empirical density, prediction integral, first-order
    expansion, descending-log theorem value, and their residuals."""
    cfgs = [DensityConfig(float(x), test, weight, R=R, threads=threads) for x in xs]
    ctx = ctx or default_context()
    coeffs = expansion_coefficients(M, test, weight, ctx)
    rows = []
    for cfg in cfgs:
        x = cfg.X
        emp = one_level_density(cfg)
        rep = ratios_density(cfg, ctx, T=T, h=h)
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


# --- structural identity checks ----------------------------------------------------

def pole_cancellation_check(norm_c: int = 5,
                            radii=(0.04, 0.02, 0.01, 0.005, 0.0025),
                            ctx: ZetaKContext | None = None) -> dict[str, list[float]]:
    """|r (combined + dual)| along rays arg r in {0, pi/4, pi/2}; the
    residues cancel, so the products must sink toward zero with |r|."""
    ctx = ctx or default_context()
    rays = {"real": 1.0 + 0.0j, "diag": cmath.exp(0.25j * math.pi), "imag": 1j}
    out = {}
    for name, phase in rays.items():
        vals = []
        for rho in radii:
            r = rho * phase
            s = combined_prime_term(r) + dual_term(r, norm_c, ctx)
            vals.append(abs(r * s))
        out[name] = vals
    return out


def conductor_term_check(cfg: DensityConfig,
                         ctx: ZetaKContext | None = None) -> dict[str, float]:
    """Family average of log(32 N(c)/pi^2) against its smoothed closed form
    L + log(32/pi^2) + 2 Mw'(1)/w_hat(0); the gap decays like X^{-1/2}."""
    norms, wn, fam = _norm_groups(cfg, True)
    m1 = float(np.dot(wn, np.log(32.0 * norms / math.pi ** 2))) / fam.W
    closed = cfg.L + _LOG_32_PI2 + 2.0 * cfg.weight.mw_prime_1 / cfg.weight.w_hat0
    return {"family_average": m1, "closed_form": closed,
            "residual": m1 - closed, "x_invsqrt": cfg.X ** -0.5}


def digamma_pair_check(test: TestFunction, L: float, T: float = 1500.0,
                       h: float = 0.25) -> dict[str, float]:
    """(1/2pi) int psi-pair phi dt by direct panels against the exact
    psi(1/2) + kernel-integral form.

    The pair grows like 2 log t, so for the slowly decaying kernel a mean
    envelope tail (log T + 1)-over-T is added past the cut; the compactly
    rough kernel decays superpolynomially and needs none.
    """
    nodes, wts = panel_nodes(0.0, T, h, 12)
    vals = 2.0 * digamma(0.5 + 1j * nodes).real
    direct = float(np.dot(wts, vals * test.phi(nodes * L / (2.0 * math.pi)))) / math.pi
    if test.kind == "fejer":
        direct += 4.0 / (math.pi * test.sigma * L * L) * (math.log(T) + 1.0) / T
    closed = 2.0 * _PSI_HALF * float(test.phi_hat(0.0)) / L \
        + digamma_integral_term(test, L)
    return {"direct": direct, "closed": closed, "difference": direct - closed}


def prime_bridge_check(cfg: DensityConfig, ctx: ZetaKContext | None = None,
                       T: float = _T_CAP, h: float = _PANEL_H) -> dict[str, float]:
    """Axis integral of the combined prime term against the even prime-power
    sum.  Moving the contour off the axis crosses the -1/r pole, so the
    real-axis value carries an extra phi(0)/2 half residue:

        (1/pi) int_0^inf Re combined(it) phi(tL/2pi) dt - phi(0)/2
            = -(2/L) sum logN N^-j (1+1/N)^-1 phi_hat(2j logN / L).
    """
    ctx = ctx or default_context()
    test, L = cfg.test, cfg.L
    nodes, wts, re_comb, _, _ = _axis_profile(T, h, ctx)
    phi_vals = test.phi(nodes * L / (2.0 * math.pi))
    integral = float(np.dot(wts, re_comb * phi_vals)) / math.pi \
        - float(test.phi(0.0)) / 2.0
    sum_side = s_even_main_form(cfg)
    return {"integral_side": integral, "sum_side": sum_side,
            "difference": integral - sum_side}


def xc_form_check(norm_c: int = 5, ts=(0.1, 0.5, 2.0, 10.0),
                  delta: float = 1e-6) -> float:
    """max |log(32 N/pi^2) + psi(1/2-it) + psi(1/2+it) + X_c'/X_c(1/2+it)|.

    The prediction bracket writes the conductor and gamma pieces where the
    contour form has -X_c'/X_c; both are one logarithmic derivative apart,
    checked here with a central difference of X_c itself.
    """
    worst = 0.0
    for t in ts:
        s = 0.5 + 1j * float(t)
        x0 = X_c(s, norm_c)
        ld = (X_c(s + delta, norm_c) - X_c(s - delta, norm_c)) / (2.0 * delta * x0)
        three = (_mu_of(norm_c) + complex(digamma(0.5 - 1j * t))
                 + complex(digamma(0.5 + 1j * t)))
        worst = max(worst, abs(three + ld))
    return worst
