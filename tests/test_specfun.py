"""Special functions against mpmath oracles and internal identities."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from quadhecke import checks, specfun
from quadhecke.specfun import EULER_GAMMA, default_context

from oracles import A_alpha_diag, outer_phase_sum

mp.mp.dps = 30


def _l4_mp(s):
    return mp.mpf(4) ** (-s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))


def _zeta_k_mp(s):
    return mp.zeta(s) * _l4_mp(s)


# --- building blocks ----------------------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 1.3, 0.5, -0.5, 3.0 + 2.0j, 1.0 + 1.5j, 0.25 - 0.7j])
@pytest.mark.parametrize("a", [1.0, 0.25, 0.75])
def test_hurwitz_vs_mpmath(s, a):
    got = complex(specfun.hurwitz(s, a))
    want = complex(mp.zeta(s, a))
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("s", [2.0, 1.5, 0.3, 1.0 + 2.0j, 0.5 + 0.5j, -0.25])
def test_zeta_K_vs_mpmath(s):
    got = complex(specfun.zeta_K(s))
    want = complex(_zeta_k_mp(s))
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("s", [2.0, 1.5 + 1.0j, 0.7, 3.0])
def test_zeta_K_log_deriv_vs_mpmath(s):
    got = complex(specfun.zeta_K_log_deriv(s))
    want = complex(mp.diff(lambda z: mp.log(_zeta_k_mp(z)), s))
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_zeta_K_with_log_deriv_consistent():
    # one four-column phase sum per Hurwitz parameter for both lines, and
    # Schwarz reflection for 1-2it and 2-2it, against the pointwise routines
    t = np.concatenate([[1e-3, 0.01, 0.3, 1.7], np.linspace(2.0, 600.0, 31)])
    z1, ld1, z2, ld2 = specfun.zeta_K_axis(t, outer_phase_sum(t))
    for sigma, z, ld in ((1.0, z1, ld1), (2.0, z2, ld2)):
        for sign, zs, lds in ((1.0, z, ld), (-1.0, np.conj(z), np.conj(ld))):
            for ti, zi, li in zip(t, zs, lds):
                s = sigma + 2j * sign * ti
                want = complex(specfun.zeta_K(s))
                assert abs(zi - want) < 1e-12 * abs(want)
                want = complex(specfun.zeta_K_log_deriv(s))
                assert abs(li - want) < 1e-12 * abs(want)


def test_zeta_K_axis_vs_mpmath():
    for ti in (0.05, 3.0, 41.0):
        axis = specfun.zeta_K_axis([ti], outer_phase_sum([ti]))
        z1, ld1, z2, ld2 = (complex(v[0]) for v in axis)
        for s, z, ld in ((1 + 2j * ti, z1, ld1), (2 + 2j * ti, z2, ld2)):
            want = complex(_zeta_k_mp(s))
            assert abs(z - want) < 1e-12 * abs(want)
            want = complex(mp.diff(lambda w: mp.log(_zeta_k_mp(w)), s))
            assert abs(ld - want) < 1e-10 * abs(want)


def test_zeta_K_axis_pole_guard():
    # s = 1 + 2it sits within the guard for |t| < _POLE_GUARD / 2
    for t in ([0.0], [3.0, 2e-5], [-1e-5]):
        with pytest.raises(ValueError):
            specfun.zeta_K_axis(np.array(t), outer_phase_sum(np.array(t)))
    specfun.zeta_K_axis(np.array([1e-4]), outer_phase_sum(np.array([1e-4])))


@pytest.mark.parametrize("s", [0.5, 2.0, 0.5 + 3.0j, -1.3, 0.25 - 0.4j])
def test_digamma_vs_mpmath(s):
    got = complex(specfun.digamma(s))
    want = complex(mp.digamma(s))
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_digamma_vectorized():
    t = np.linspace(0.1, 5.0, 23)
    vec = specfun.digamma(0.5 + 1j * t)
    for ti, vi in zip(t, vec):
        assert abs(vi - complex(mp.digamma(0.5 + 1j * float(ti)))) < 1e-11


def test_digamma_pole_guard():
    # scipy's psi returns NaN at the poles; digamma must raise instead
    for s in (0.0, -2.0, 0j, np.array([1.5, -2.0])):
        with pytest.raises(ValueError):
            specfun.digamma(s)


def test_gamma_K_value():
    # gamma_K = Z'(1) for Z(s) = (s-1) zeta_K(s); central difference on the
    # pole-free product (mp.diff through the Hurwitz pole loses digits)
    with mp.workdps(50):
        h = mp.mpf(10) ** -12
        want = (_z_mp(1 + h) - _z_mp(1 - h)) / (2 * h)
        assert abs(specfun.gamma_K() - float(want)) < 1e-12


def _z_mp(s):
    return (s - 1) * _zeta_k_mp(s)


def test_X_c_functional_shape():
    # X_c(s) X_c(1-s) = 1 and |X_c(1/2+it)| = 1
    for n in (5, 221, 9973):
        for s in (0.3 + 0.2j, 0.5 + 1.0j, 0.9):
            assert abs(specfun.X_c(s, n) * specfun.X_c(1.0 - s, n) - 1.0) < 1e-10
        for t in (0.0, 0.4, 2.0):
            assert abs(abs(specfun.X_c(0.5 + 1j * t, n)) - 1.0) < 1e-11


def test_X_c_explicit():
    s = 0.37 + 0.81j
    n = 1234
    want = complex(mp.gamma(1 - s) / mp.gamma(s)
                   * (mp.pi ** 2 / (32 * n)) ** (s - 0.5))
    assert abs(specfun.X_c(s, n) - want) < 1e-11 * abs(want)


# --- the ratios Euler factor A ------------------------------------------------------

def test_A_alpha_series_matches_diag():
    # A(r, r) = 1 and the closed form of A(-r, r) are the battery entries
    # a_diag_unity* and a_closed_vs_euler*
    for r in (0.02, 0.15j, -0.05 + 0.05j):
        assert abs(specfun.A_alpha_series(r) - A_alpha_diag(r)) < 1e-7


def test_A_closed_vs_euler():
    # the closed form of A(-r, r) against the truncated Euler product, at the
    # points of the battery entry a_closed_vs_euler_spread
    err, bound = checks.a_closed_vs_euler((0.05, 0.21j, 0.1 - 0.07j))
    assert err < bound


def test_A_alpha_diag_it_matches_scalar():
    t = np.array([0.0, 0.01, 0.3, 1.7, 25.0])
    vec = specfun.A_alpha_diag_it(t, specfun.zeta_K_log_deriv(2.0 + 2j * t),
                                  outer_phase_sum(t))
    for ti, vi in zip(t, vec):
        want = A_alpha_diag(1j * float(ti))
        assert abs(vi - want) < 1e-8


def test_supplied_zeta_values_match():
    # the axis profile hands in zeta_K values computed once per node
    ctx = default_context()
    t = np.array([0.002, 0.7, 13.0, 250.0])
    sums = outer_phase_sum(t)
    z1, ld1, z2, ld2 = specfun.zeta_K_axis(t, sums)
    got = specfun.A_alpha_diag_it(t, ld2, sums)
    want = specfun.A_alpha_diag_it(t, specfun.zeta_K_log_deriv(2.0 + 2j * t), sums)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
    got = specfun.A_closed_mr(1j * t, ctx, np.conj(z2))
    want = specfun.A_closed_mr(1j * t, ctx)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_a_alpha_phases_match_closed_sums():
    # the geometric expansion of A_alpha(it, it)'s three prime sums, cut at
    # 1e-18 of each series' largest term, against the sums in closed form:
    # direct - head - prime powers k >= 2 of -zeta_K'/zeta_K(z+1)
    from quadhecke import zint
    mu, w = specfun._a_alpha_phases()
    norms, mult = np.unique(zint.prime_norms_up_to(10 ** 4), return_counts=True)
    norms = norms.astype(float)
    la = np.log(norms)
    pp = norms <= 1000
    for t in (0.3, 17.0, 250.0):
        z = 1.0 + 2j * t
        nz = norms ** -z
        nw = nz[pp] / norms[pp]
        want = (np.sum(mult * la / (norms + 1.0) * nz / (1.0 - nz))
                - np.sum(mult * la * nz / norms)
                - np.sum(mult[pp] * la[pp] * nw * nw / (1.0 - nw)))
        assert abs(np.sum(w * np.exp(-1j * t * mu)) - want) < 1e-14


# --- cached context -----------------------------------------------------------------

def test_context_constants():
    ctx = default_context()
    assert specfun.constants_dict()["gamma"] == EULER_GAMMA
    assert abs(ctx.zetaK0 + 0.25) < 1e-10
    assert abs(ctx.zetaK2 - float(_zeta_k_mp(2))) < 1e-12


# the Cauchy rings of the origin series (|s - 1| = 0.1) and of the M_E
# moments (|s - 1| = 0.3)
_RING_POINTS = [1.0 + rad * complex(math.cos(th), math.sin(th))
                for rad in (0.1, 0.3) for th in (0.0, 0.9, 2.0, math.pi, 4.4)]


def test_context_Z_branch():
    # Z(s) = (s - 1) zeta_K(s) and its log-derivative zeta_K'/zeta_K(s)
    # + 1/(s - 1) near the pole, through the Hurwitz route
    for s in (1.0 + 0.2j, 1.3, 0.75, *_RING_POINTS):
        want = complex((s - 1.0) * _zeta_k_mp(s))
        assert abs((s - 1.0) * complex(specfun.zeta_K(s)) - want) < 1e-10
    for s in (1.2, 1.0 + 0.25j, 0.85, *_RING_POINTS):
        want = complex(mp.diff(lambda z: mp.log((z - 1) * _zeta_k_mp(z)), s))
        got = complex(specfun.zeta_K_log_deriv(s)) + 1.0 / (s - 1.0)
        assert abs(got - want) < 1e-8
    with pytest.raises(ValueError):
        specfun.zeta_K(1.0 + 1e-8)
    with pytest.raises(ValueError):
        specfun.zeta_K_log_deriv(1.0 + 1e-8)


def test_context_value_semantics():
    # no parameter: every context is equal, with equal hashes
    a, b = specfun.ZetaKContext(), specfun.ZetaKContext()
    assert a == b and hash(a) == hash(b)
    assert [f.name for f in dataclasses.fields(a) if f.init] == []
    with pytest.raises(TypeError):
        specfun.ZetaKContext(euler_cutoff=10 ** 4)
    assert specfun.default_context() is specfun.default_context()


def test_constants_dict_keys():
    d = specfun.constants_dict()
    for k in ("gamma", "gamma_K", "zetaK2", "zetaK_logderiv_2",
              "zetaK0", "zetaK0_prime", "residue"):
        assert k in d
        assert math.isfinite(d[k])
