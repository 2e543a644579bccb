"""Gaussian-integer layer: arithmetic, symbols, enumeration.

Factorizations come from checks.primary_products, which builds each primary
modulus as a product of primary primes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadhecke import zint
from quadhecke.checks import _euler_symbol, _odd_elements, primary_products
from quadhecke.zint import GInt

from oracles import (UNITS, _UNIT_INV, i_images, legendre_euler, moebius,
                     primary_associate, squarefree_arrays_by_remainders)

small_gint = st.builds(GInt, st.integers(-30, 30), st.integers(-30, 30))


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
    eight = GInt(-2, 2)     # (1+i)^3
    for z in _odd_elements(80):
        flags = [zint.is_primary(u * z) for u in UNITS]
        assert sum(flags) == 1
        if zint.is_primary(z):
            assert zint.divides(eight, z - zint.ONE)


@given(small_gint.filter(lambda z: z.is_odd()))
def test_primary_associate_roundtrip(z):
    unit, prim = primary_associate(z)
    assert zint.is_primary(prim)
    assert unit * prim == z


def test_primary_associate_closed_form():
    # the unit picked from parities matches the four-unit search
    for a in range(-60, 61):
        for b in range(-60, 61):
            z = GInt(a, b)
            if not z.is_odd():
                with pytest.raises(ValueError):
                    primary_associate(z)
                continue
            (u,) = [u for u in UNITS if zint.is_primary(u * z)]
            assert primary_associate(z) == (_UNIT_INV[u], u * z)


def test_gmod_exact_div():
    for z in _odd_elements(40):
        for w in _odd_elements(20):
            r = zint.gmod(z, w)
            assert zint.divides(w, z - r)
            assert r.norm() <= w.norm()  # canonical small representative


def test_primary_products_factor_their_keys():
    # every primary non-unit of norm <= 200 once, each key the product of
    # its entries' primary primes, taken in (norm, re, im) order
    table = primary_products(200)
    assert set(table) == {z for z in _odd_elements(200)
                          if zint.is_primary(z) and not z.is_unit()}
    primes = zint.primary_primes_up_to(200)
    for n, entries in table.items():
        ws = [w for w, _ in entries]
        assert all(w in primes for w in ws)
        assert ws == sorted(set(ws), key=primes.index)
        acc = zint.ONE
        for w, e in entries:
            assert e >= 1
            for _ in range(e):
                acc = acc * w
        assert acc == n


def test_moebius_values():
    mu = moebius(25)
    assert mu[GInt(1, 0)] == 1
    assert mu[GInt(-1, 2)] == -1          # prime, norm 5
    assert mu[GInt(-1, 2) * GInt(-1, 2)] == 0
    assert mu[GInt(-1, 2) * GInt(-1, -2)] == 1
    assert mu[GInt(-3, 0)] == -1          # inert 3


# --- residue symbols ----------------------------------------------------------------

def test_symbol_needs_no_factoring():
    # composite, non-squarefree and non-primary moduli against the
    # Euler-criterion product over the prime factors of their primary
    # associates, read from the product table
    elements = _odd_elements(40) + [GInt(2, 0), GInt(1, 1), GInt(6, 3), GInt(0, 0)]
    moduli = [GInt(3, 0), GInt(15, 0), GInt(0, 3), GInt(3, 6),
              GInt(-1, 2) * GInt(-1, 2), GInt(9, 18)]
    table = primary_products(max(n.norm() for n in moduli))
    for n in moduli:
        entries = table[primary_associate(n)[1]]
        want = [_euler_symbol(a, entries) for a in elements]
        assert [zint.quad_symbol(a, n) for a in elements] == want
    assert {zint.quad_symbol(a, GInt(9, 18)) for a in elements} == {-1, 0, 1}
    for r in (GInt(1, 0), GInt(2, 1)):
        for n in (GInt(-1, 2), GInt(3, 6)):
            assert abs(zint.gauss_sum(r, n) - _gauss_brute(r, n)) < 1e-9


def test_symbol_rejects_bad_modulus():
    for n in (GInt(0, 0), GInt(0, -1), GInt(1, 1), GInt(2, 0), GInt(3, 1)):
        with pytest.raises(ValueError, match="odd, nonzero, nonunit"):
            zint.quad_symbol(GInt(1, 2), n)


def _gauss_brute(r, n):
    """g(r, n) over the classes gmod picks out, each symbol an Euler product;
    n primary."""
    entries = primary_products(n.norm())[n]
    nn = n.norm()
    reps = {zint.gmod(GInt(x, y), n) for x in range(nn) for y in range(nn)}
    assert len(reps) == nn
    return sum(_euler_symbol(z, entries)
               * cmath.exp(2j * math.pi * ((r * z * n.conj()).im % nn) / nn)
               for z in reps)


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
    for w in zint.primary_primes_up_to(100):
        seen = set()
        m = math.isqrt(4 * w.norm()) + 2
        for x in range(-m, m + 1):
            for y in range(-m, m + 1):
                z = zint.gmod(GInt(x, y) * GInt(x, y), w)
                seen.add((z.re, z.im))
        for a in _odd_elements(50):
            r = zint.gmod(a, w)
            want = 0 if zint.divides(w, a) else \
                (1 if (r.re, r.im) in seen else -1)
            assert zint.quad_symbol(a, w) == want


# --- Gauss sums ---------------------------------------------------------------------

def test_gauss_sum_rejects_even_modulus():
    with pytest.raises(ValueError):
        zint.gauss_sum(GInt(1, 0), GInt(1, 1))


# --- enumeration --------------------------------------------------------------------

def test_primary_primes_against_rational_sieve():
    pps = zint.primary_primes_up_to(1000)
    norms = sorted(w.norm() for w in pps)
    want = []
    for p in range(2, 1001):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            if p % 4 == 1:
                want += [p, p]
            elif p % 4 == 3 and p * p <= 1000:
                want.append(p * p)
    assert norms == sorted(want)
    assert all(zint.is_primary(w) for w in pps)
    assert pps == sorted(pps, key=lambda w: (w.norm(), w.re, w.im))


def test_prime_norms_match_primary_primes():
    got = zint.prime_norms_up_to(500)
    want = np.sort([w.norm() for w in zint.primary_primes_up_to(500)])
    assert np.array_equal(got, want)


def test_squarefree_arrays_brute():
    bound = 300
    re, im, nm = zint.primary_squarefree_arrays(bound)
    got = {(int(a), int(b)) for a, b in zip(re, im)}
    assert got == {(z.re, z.im) for z, mu in moebius(bound).items() if mu}
    # sorted by (norm, re, im)
    key = list(zip(nm.tolist(), re.tolist(), im.tolist()))
    assert key == sorted(key)


@pytest.mark.parametrize("bound", [
    1, 2, 5, 9, 24, 25, 49, 50, 80,
    81,             # 3^4, the first inert strike
    121, 124,
    125,            # varpi^2 varpi-bar
    300, 624, 625, 2000, 2001, 8000, 32000, 32001, 511998, 512000, 2048000])
def test_squarefree_arrays_match_remainder_sieve(bound):
    # the sublattice sieve against one remainder pass per prime over the
    # full square: the same elements in the same order, as int64
    got = zint.primary_squarefree_arrays(bound)
    want = squarefree_arrays_by_remainders(bound)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


def test_multiplicative_odd_brute():
    # a local factor that tells p and e apart, so a wrong exponent or a
    # dropped prime above sqrt(bound) changes the product; the products
    # are integers below 2^53, exact in either order
    def local(p, e):
        return np.asarray(p) * e + 1.0

    def brute(n):
        # local(p, e) over the odd p^e || n by trial division; local(p, 0) = 1
        if n % 2 == 0:
            return 0.0
        out, p = 1.0, 3
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out *= p * e + 1.0
            p += 2
        return out * (n + 1.0 if n > 1 else 1.0)

    # 2999 is prime, so the last entry is a lone prime above sqrt(bound)
    for bound in (0, 1, 3, 9, 27, 2999, 3000):
        got = zint.multiplicative_odd(bound, local)
        assert got.shape == (bound + 1,)
        assert np.array_equal(got, [brute(n) for n in range(bound + 1)]), bound


def test_mobius_by_norm_brute():
    # a[n] is the sum of mu(l) over the primary odd l of norm n, each mu
    # from the product table; the bound 5000 has the leftover prime factor
    # above sqrt(5000) for most n
    bound = 5000
    want = np.zeros(bound + 1, dtype=np.int64)
    for z, mu in moebius(bound).items():
        want[z.norm()] += mu
    got = zint.mobius_by_norm(bound)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the prefix of a longer sieve is the shorter sieve
    assert np.array_equal(zint.mobius_by_norm(bound + 997)[:bound + 1], want)


def test_lattice_norm_counts():
    for nmax in (50, 20000):
        m = math.isqrt(nmax)
        brute = np.zeros(nmax + 1, dtype=np.int64)
        for a in range(-m - 1, m + 2):
            for b in range(-m - 1, m + 2):
                n = a * a + b * b
                if n <= nmax:
                    brute[n] += 1
        assert np.array_equal(zint.lattice_norm_counts(nmax), brute)


def test_legendre_table_matches_euler_criterion():
    for p in (3, 5, 7, 13, 17, 97, 1009):
        tab = zint.legendre_table(p)
        assert tab.dtype == np.int8 and tab.size == p
        assert tab.tolist() == legendre_euler(np.arange(p), p).tolist()
        # the non-residue mask, repeated past p: shorter, one period, longer
        for length in (p - 1, p, p + 1, 3 * p + 2):
            mask = zint.nonresidue_mask(p, length)
            assert mask.dtype == bool
            assert mask.tolist() == (legendre_euler(np.arange(length), p) == -1).tolist()


def test_smallest_prime_factors_against_factor_int():
    spf = zint._smallest_prime_factors(3000)
    for n in range(2, 3001):
        assert spf[n] == next(d for d in range(2, n + 1) if n % d == 0)


def test_split_i_image():
    primes = zint.primary_primes_up_to(200)
    images = i_images(primes)
    assert len(images) == sum(math.isqrt(w.norm()) ** 2 != w.norm() for w in primes)
    for w in primes:
        if w not in images:
            continue
        s = images[w]
        assert (s * s + 1) % w.norm() == 0
        assert (w.re + w.im * s) % w.norm() == 0


def test_cornacchia_from_given_root():
    # both square roots of -1 mod p: primes_above's and its conjugate's
    ps = np.array([5, 13, 17, 41, 97, 10009, 65537, 1000000009])
    s, re, im = zint.primes_above(ps)
    for p, r, a, b in zip(ps.tolist(), s.tolist(), re.tolist(), im.tolist()):
        for b, t in ((b, r), (-b, p - r)):
            assert (t * t + 1) % p == 0
            assert a * a + b * b == p
            assert (a + b * t) % p == 0


def test_primes_above_matches_one_prime_form():
    # the array form against a loop of one-prime calls, every p = 1 mod 4
    # below 10^5: rows must not leak into each other through the masked
    # search and Euclid steps
    ps = zint._sieve(10 ** 5)
    ps = ps[ps % 4 == 1]
    s, re, im = zint.primes_above(ps)
    loop = np.array([zint.primes_above(np.array([p])) for p in ps.tolist()])[:, :, 0]
    assert np.array_equal(loop, np.stack([s, re, im], axis=1))
    # s comes from the least non-residue d, which fixes S_odd's primes
    for p, t in zip(ps.tolist(), s.tolist()):
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        assert t == pow(d, (p - 1) // 4, p)
    # the closed-form associate is the primary one of every unit multiple
    for a, b in zip(re.tolist()[::97], im.tolist()[::97]):
        for u in UNITS:
            assert primary_associate(u * GInt(a, b))[1] == GInt(a, b)
    # s_odd's twist symbols ((1 + s)/p) = ((1 + i)/varpi) in closed form,
    # (-1)^((Re + Im - 1)/4), against the Euler criterion
    closed = 1 - 2 * (((re + im - 1) // 4) & 1)
    assert closed.tolist() == [
        legendre_euler(1 + t, p) for t, p in zip(s.tolist(), ps.tolist())]
    # only primes p = 1 mod 4, and products must fit in int64
    for n, match in ((7, "not 1 mod 4"), (9, "not prime"), (21, "not prime"),
                     (2 ** 31 + 1, "2\\^31"), (2 ** 31 + 9, "2\\^31")):
        with pytest.raises(ValueError, match=match):
            zint.primes_above(np.array([5, n]))


def test_norm_cap():
    # the symbol reduces on Python ints, past the 2^31 cap of primes_above:
    # at a primary prime of norm 2^31 + 45 it matches the Euler criterion
    varpi = GInt(-39677, -23942)
    assert zint.is_primary(varpi) and varpi.norm() == 2 ** 31 + 45
    box = [GInt(x, y) for x in range(-7, 8) for y in range(-7, 8) if x or y]
    assert len(box) == 224
    got = [zint.quad_symbol(a, varpi) for a in box]
    assert got == [zint._symbol_prime_euler(a, varpi) for a in box]
    assert set(got) == {-1, 1}
    # the two constructors of primes still refuse 2^31 and above
    for n in (2 ** 31 + 1, 2 ** 31 + 45):
        with pytest.raises(ValueError, match="2\\^31"):
            zint.primes_above(np.array([n]))
    for bound in (2 ** 31, 2 ** 31 + 45):
        with pytest.raises(ValueError, match="2\\^31"):
            zint.primary_primes_up_to(bound)
