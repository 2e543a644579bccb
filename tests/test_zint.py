"""Gaussian-integer layer: arithmetic, factorization, symbols, enumeration."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadhecke import zint
from quadhecke.checks import _euler_symbol, _odd_elements
from quadhecke.zint import GInt

from oracles import UNITS, _UNIT_INV, i_images, moebius, primary_associate

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


def _euler_criterion(r, p):
    """(r/p) for an odd prime p as r^((p-1)/2) mod p, read as 0 or +-1."""
    v = pow(r, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


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
    assert moebius(GInt(1, 0)) == 1
    assert moebius(GInt(-1, 2)) == -1          # prime, norm 5
    assert moebius(GInt(-1, 2) * GInt(-1, 2)) == 0
    assert moebius(GInt(-1, 2) * GInt(-1, -2)) == 1
    assert moebius(GInt(-3, 0)) == -1          # inert 3


# --- residue symbols ----------------------------------------------------------------

def test_symbol_needs_no_factoring(monkeypatch):
    # the Euler-criterion product over each factorization, taken before
    # factor and prime_above are made to raise
    elements = _odd_elements(40) + [GInt(2, 0), GInt(1, 1), GInt(6, 3), GInt(0, 0)]
    moduli = [GInt(3, 0), GInt(15, 0), GInt(0, 3), GInt(3, 6),
              GInt(-1, 2) * GInt(-1, 2), GInt(9, 18)]
    want = {n: [_euler_symbol(a, zint.factor(n)[2]) for a in elements] for n in moduli}
    gauss = [(r, n, _gauss_brute(r, n)) for r in (GInt(1, 0), GInt(2, 1))
             for n in (GInt(-1, 2), GInt(3, 6))]

    def refuse(*args):
        raise AssertionError("the symbol must not factor")

    monkeypatch.setattr(zint, "factor", refuse)
    monkeypatch.setattr(zint, "prime_above", refuse)
    for n in moduli:
        assert [zint.quad_symbol(a, n) for a in elements] == want[n]
    assert set(want[GInt(9, 18)]) == {-1, 0, 1}
    for r, n, g in gauss:
        assert abs(zint.gauss_sum(r, n) - g) < 1e-9


def test_symbol_rejects_bad_modulus():
    for n in (GInt(0, 0), GInt(0, -1), GInt(1, 1), GInt(2, 0), GInt(3, 1)):
        with pytest.raises(ValueError, match="odd, nonzero, nonunit"):
            zint.quad_symbol(GInt(1, 2), n)


def _gauss_brute(r, n):
    """g(r, n) over the classes gmod picks out, each symbol an Euler product."""
    entries = zint.factor(n)[2]
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


# --- Gauss sums ---------------------------------------------------------------------

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
    re, im, nm = zint.primary_squarefree_arrays(bound)
    got = {(int(a), int(b)) for a, b in zip(re, im)}
    want = set()
    for z in primary_gints(bound):
        unit, e2, entries = zint.factor(z)
        if all(e == 1 for _, e in entries):
            want.add((z.re, z.im))
    assert got == want
    # sorted by (norm, re, im)
    key = list(zip(nm.tolist(), re.tolist(), im.tolist()))
    assert key == sorted(key)


def test_multiplicative_odd_brute():
    # a local factor that tells p and e apart, so a wrong exponent or a
    # dropped prime above sqrt(bound) changes the product; the products
    # are integers below 2^53, exact in either order
    def local(p, e):
        return np.asarray(p) * e + 1.0

    def brute(n):
        if n % 2 == 0:
            return 0.0
        return math.prod(p * e + 1.0 for p, e in zint._factor_int(n).items())

    # 2999 is prime, so the last entry is a lone prime above sqrt(bound)
    for bound in (0, 1, 3, 9, 27, 2999, 3000):
        got = zint.multiplicative_odd(bound, local)
        assert got.shape == (bound + 1,)
        assert np.array_equal(got, [brute(n) for n in range(bound + 1)]), bound


def test_mobius_by_norm_brute():
    # a[n] is the sum of mu(l) over the primary odd l of norm n, each mu
    # from a factorization; the bound 5000 has the leftover prime factor
    # above sqrt(5000) for most n
    bound = 5000
    want = np.zeros(bound + 1, dtype=np.int64)
    for z in primary_gints(bound):
        want[z.norm()] += moebius(z)
    got = zint.mobius_by_norm(bound)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the prefix of a longer sieve is the shorter sieve
    assert np.array_equal(zint.mobius_by_norm(bound + 997)[:bound + 1], want)


def test_lattice_norm_counts():
    # 20000 spans five 64-row blocks of the norm grid, the last one partial
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
        assert [int(v) for v in tab] == [_euler_criterion(r, p) for r in range(p)]


def test_smallest_prime_factors_against_factor_int():
    spf = zint._smallest_prime_factors(3000)
    for n in range(2, 3001):
        assert spf[n] == min(zint._factor_int(n))


def test_split_i_image():
    primes = zint.primary_primes_up_to(200)
    images = i_images(primes)
    assert len(images) == sum(math.isqrt(pp.norm) ** 2 != pp.norm for pp in primes)
    for pp in primes:
        if pp.value not in images:
            continue
        s = images[pp.value]
        assert (s * s + 1) % pp.norm == 0
        assert (pp.value.re + pp.value.im * s) % pp.norm == 0


def test_cornacchia_from_given_root():
    # both square roots of -1 mod p: prime_above's and its conjugate's
    for p in (5, 13, 17, 41, 97, 10009, 65537, 1000000009):
        pp = zint.prime_above(p)
        (s,), _, _ = zint.primes_above(np.array([p]))
        for q, t in ((pp, int(s)), (pp.conj(), p - int(s))):
            a, b = q.value.re, q.value.im
            assert (t * t + 1) % p == 0
            assert a * a + b * b == p
            assert (a + b * t) % p == 0


def test_prime_above():
    for p in (5, 13, 29, 97, 10009):
        pp = zint.prime_above(p)
        assert pp.norm == p
        assert zint.is_primary(pp.value)
        bar = pp.conj()
        assert bar.value == pp.value.conj() and bar.norm == p
    for n in (7, 9, 21):
        with pytest.raises(ValueError):
            zint.prime_above(n)


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
    # prime_above keeps the prime of its one-row call; the closed-form
    # associate is the primary one of every unit multiple
    for p, a, b in zip(ps.tolist()[::97], re.tolist()[::97], im.tolist()[::97]):
        assert zint.prime_above(p).value == GInt(a, b)
        for u in UNITS:
            assert primary_associate(u * GInt(a, b))[1] == GInt(a, b)
    # s_odd's twist symbols ((1 + s)/p) = ((1 + i)/varpi) in closed form,
    # (-1)^((Re + Im - 1)/4), against the Euler criterion
    closed = 1 - 2 * (((re + im - 1) // 4) & 1)
    assert closed.tolist() == [
        _euler_criterion(1 + t, p) for t, p in zip(s.tolist(), ps.tolist())]
    # products must fit in int64
    for p in (2 ** 31 + 1, 2 ** 31 + 9):
        with pytest.raises(ValueError, match="2\\^31"):
            zint.prime_above(p)
        with pytest.raises(ValueError, match="2\\^31"):
            zint.primes_above(np.array([5, p]))


def test_norm_cap():
    # norms are factored by trial division, below 2^31 only
    below, above = GInt(46340, 1), GInt(46341, 0)
    assert below.norm() < 2 ** 31 <= above.norm()
    unit, e2, entries = zint.factor(below)
    acc = unit
    for pp, e in entries:
        for _ in range(e):
            acc = acc * pp.value
    assert e2 == 0 and acc == below
    for z in (above, GInt(1 << 15, 1 << 15)):       # the second has norm 2^31
        with pytest.raises(ValueError):
            zint.factor(z)
    with pytest.raises(ValueError):
        zint.quad_symbol(GInt(1, 2), above)
