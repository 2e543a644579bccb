"""Gaussian-integer layer: arithmetic, factorization, symbols, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadhecke import zint
from quadhecke.zint import GInt

small_gint = st.builds(GInt, st.integers(-30, 30), st.integers(-30, 30))


def odd_gints(bound):
    out = []
    m = math.isqrt(bound)
    for a in range(-m - 1, m + 2):
        for b in range(-m - 1, m + 2):
            if (a + b) % 2 and 0 < a * a + b * b <= bound:
                out.append(GInt(a, b))
    return out


def primary_gints(bound):
    return [z for z in odd_gints(bound) if zint.is_primary(z)]


# --- arithmetic and primary form ---------------------------------------------------

@given(small_gint, small_gint)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(small_gint)
def test_conj_involution(a):
    assert a.conj().conj() == a
    assert a.norm() == (a * a.conj()).re
    assert (a * a.conj()).im == 0


def test_primary_congruence_brute():
    # primary means z = 1 mod (1+i)^3; exactly one associate of each odd z
    eight = zint.ONE_PLUS_I * zint.ONE_PLUS_I * zint.ONE_PLUS_I
    for z in odd_gints(80):
        flags = [zint.is_primary(u * z) for u in zint.UNITS]
        assert sum(flags) == 1
        if zint.is_primary(z):
            assert zint.divides(eight, z - zint.ONE)


@given(small_gint.filter(lambda z: z.is_odd()))
def test_primary_associate_roundtrip(z):
    unit, prim = zint.primary_associate(z)
    assert zint.is_primary(prim)
    assert unit * prim == z


def test_gmod_exact_div():
    for z in odd_gints(40):
        for w in odd_gints(20):
            r = zint.gmod(z, w)
            assert zint.divides(w, z - r)
            assert r.norm() <= w.norm()  # canonical small representative


def test_factor_reconstructs():
    for z in odd_gints(150):
        unit, e2, entries = zint.factor(z)
        acc = unit
        assert e2 == 0  # odd inputs carry no (1+i) part
        for pp, e in entries:
            assert zint.is_primary(pp.value)
            for _ in range(e):
                acc = acc * pp.value
        assert acc == z


def test_moebius_values():
    assert zint.moebius(GInt(1, 0)) == 1
    assert zint.moebius(GInt(-1, 2)) == -1          # prime, norm 5
    assert zint.moebius(GInt(-1, 2) * GInt(-1, 2)) == 0
    assert zint.moebius(GInt(-1, 2) * GInt(-1, -2)) == 1
    assert zint.moebius(GInt(-3, 0)) == -1          # inert 3


# --- residue symbols ----------------------------------------------------------------

def test_symbol_methods_agree_spot():
    mods = primary_gints(200)
    for n in mods:
        if n.is_unit():
            continue
        for a in odd_gints(60):
            assert zint.quad_symbol(a, n, "fast") == \
                zint.quad_symbol(a, n, "euler")


@given(small_gint, small_gint)
def test_symbol_multiplicative_in_a(a, b):
    n = GInt(-1, 2) * GInt(3, 2)  # squarefree modulus, norm 65
    assert zint.quad_symbol(a * b, n) == \
        zint.quad_symbol(a, n) * zint.quad_symbol(b, n)


@given(small_gint, st.integers(-3, 3), st.integers(-3, 3))
def test_symbol_periodic(a, kr, ki):
    n = GInt(-1, 2) * GInt(-3, 0)  # norm 45
    shift = GInt(kr, ki) * n
    assert zint.quad_symbol(a + shift, n) == zint.quad_symbol(a, n)


def test_symbol_square_set_brute():
    # (a/varpi) = 1 exactly on nonzero squares mod varpi
    for pp in zint.primary_primes_up_to(100):
        w = pp.value
        seen = set()
        m = math.isqrt(4 * pp.norm) + 2
        for x in range(-m, m + 1):
            for y in range(-m, m + 1):
                z = zint.gmod(GInt(x, y) * GInt(x, y), w)
                seen.add((z.re, z.im))
        for a in odd_gints(50):
            r = zint.gmod(a, w)
            want = 0 if zint.divides(w, a) else \
                (1 if (r.re, r.im) in seen else -1)
            assert zint.quad_symbol(a, w) == want


def test_quartic_symbol_squares_to_quadratic():
    for pp in zint.primary_primes_up_to(80):
        if pp.kind != "split":
            continue
        for a in odd_gints(30):
            if zint.divides(pp.value, a):
                continue
            q4 = zint.quartic_symbol(a, pp)
            assert abs(q4 * q4 - zint.quad_symbol(a, pp.value)) < 1e-12


def test_reciprocity_spot():
    prims = [z for z in primary_gints(150) if not z.is_unit()]
    for i, m in enumerate(prims):
        for n in prims[i + 1:]:
            if _coprime(m, n):
                assert zint.quad_symbol(m, n) == zint.quad_symbol(n, m)


def _coprime(m, n):
    pm = {(pp.value.re, pp.value.im) for pp, _ in zint.factor(m)[2]}
    pn = {(pp.value.re, pp.value.im) for pp, _ in zint.factor(n)[2]}
    return not (pm & pn)


def test_chi_family_is_twisted_symbol():
    c = GInt(1, 2)
    for n in primary_gints(60):
        if n.is_unit():
            continue
        assert zint.chi_family(c, n) == \
            zint.quad_symbol(zint.FAMILY_TWIST * c, n)


# --- Gauss sums ---------------------------------------------------------------------

def test_gauss_sum_prime_identity():
    for pp in zint.primary_primes_up_to(80):
        rt = math.sqrt(pp.norm)
        for r in (GInt(1, 0), GInt(2, 1), GInt(0, 3), GInt(-1, 2)):
            got = zint.gauss_sum(r, pp.value)
            want = zint.quad_symbol(zint.I * r, pp.value) * rt
            assert abs(got - want) < 1e-9


def test_gauss_sum_rejects_even_modulus():
    with pytest.raises(ValueError):
        zint.gauss_sum(GInt(1, 0), GInt(1, 1))


# --- enumeration --------------------------------------------------------------------

def test_primary_primes_against_rational_sieve():
    pps = zint.primary_primes_up_to(1000)
    norms = sorted(pp.norm for pp in pps)
    want = []
    for p in range(2, 1001):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            if p % 4 == 1:
                want += [p, p]
            elif p % 4 == 3 and p * p <= 1000:
                want.append(p * p)
    assert norms == sorted(want)
    for pp in pps:
        assert zint.is_primary(pp.value)
        assert pp.value.norm() == pp.norm


def test_prime_norms_match_primary_primes():
    got = zint.prime_norms_up_to(500)
    want = np.sort([pp.norm for pp in zint.primary_primes_up_to(500)])
    assert np.array_equal(got, want)


def test_squarefree_arrays_brute():
    bound = 300
    re, im, nm, mu = zint.primary_squarefree_arrays(bound, with_mu=True)
    got = {(int(a), int(b)) for a, b in zip(re, im)}
    want = set()
    for z in primary_gints(bound):
        unit, e2, entries = zint.factor(z)
        if all(e == 1 for _, e in entries):
            want.add((z.re, z.im))
    assert got == want
    for a, b, m in zip(re, im, mu):
        assert m == zint.moebius(GInt(int(a), int(b)))
    # sorted by (norm, re, im)
    key = list(zip(nm.tolist(), re.tolist(), im.tolist()))
    assert key == sorted(key)


def test_family_stream_order_and_units():
    fam = list(zint.family_stream(50))
    assert len(fam) % 4 == 0
    for i in range(0, len(fam), 4):
        c0 = fam[i]
        assert zint.is_primary(c0)
        assert fam[i + 1] == zint.I * c0
        assert fam[i + 2] == -c0
        assert fam[i + 3] == -(zint.I * c0)


def test_lattice_norm_counts():
    counts = zint.lattice_norm_counts(50)
    brute = np.zeros(51, dtype=np.int64)
    for a in range(-8, 9):
        for b in range(-8, 9):
            n = a * a + b * b
            if n <= 50:
                brute[n] += 1
    assert np.array_equal(counts, brute)


def test_split_i_image():
    for pp in zint.primary_primes_up_to(200):
        if pp.kind != "split":
            continue
        s = zint.split_i_image(pp)
        assert (s * s + 1) % pp.norm == 0


def test_legendre_table_matches_euler_criterion():
    for p in (3, 5, 7, 13, 17, 97, 1009):
        tab = zint.legendre_table(p)
        assert tab.dtype == np.int8 and tab.size == p
        assert [int(v) for v in tab] == [zint._legendre(r, p) for r in range(p)]


def test_smallest_prime_factors_against_factor_int():
    spf = zint._smallest_prime_factors(3000)
    for n in range(2, 3001):
        assert spf[n] == min(zint._factor_int(n))


def test_cornacchia_from_given_root():
    for p in (5, 13, 17, 41, 97, 10009):
        for t in (zint._sqrt_minus_one(p), p - zint._sqrt_minus_one(p)):
            a, b = zint._cornacchia(p, t)
            assert a * a + b * b == p
            assert (a + b * t) % p == 0 or (a - b * t) % p == 0
