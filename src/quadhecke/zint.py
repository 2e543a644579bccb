"""Arithmetic in Z[i]: primary associates, factorization, residue symbols,
Gauss sums, and enumeration of the quadratic-twist family.

Conventions.  An element is odd when its norm is odd.  An odd z is primary
when z = 1 mod (1+i)^3, equivalently Re z odd, Im z even, Re z + Im z = 1
mod 4.  Every odd z has exactly one primary associate.  Rational p = 1 mod 4
splits into two conjugate primary primes, p = 3 mod 4 stays inert with
primary associate -p, and 2 = -i (1+i)^2 ramifies.

The family of characters is chi_{i(1+i)^5 c}(n) = (i(1+i)^5 c / n) with c odd
squarefree; all four associates of c are distinct family members.  The
quadratic residue symbol (a/varpi) is a^((N(varpi)-1)/2) mod varpi; for split
varpi it reduces to a Legendre symbol in F_p through i -> s with
Re(varpi) + Im(varpi) s = 0 mod p, and for inert varpi over q to the Legendre
symbol of N(a) mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ._numerics import read_only


@dataclass(frozen=True)
class GInt:
    re: int
    im: int

    def __add__(self, other: "GInt") -> "GInt":
        return GInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GInt") -> "GInt":
        return GInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GInt") -> "GInt":
        return GInt(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __neg__(self) -> "GInt":
        return GInt(-self.re, -self.im)

    def conj(self) -> "GInt":
        return GInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_odd(self) -> bool:
        return self.norm() % 2 == 1

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"GInt({self.re}, {self.im})"


ONE = GInt(1, 0)
I = GInt(0, 1)
UNITS = (GInt(1, 0), GInt(0, 1), GInt(-1, 0), GInt(0, -1))
ONE_PLUS_I = GInt(1, 1)
# i(1+i)^5 = 4 - 4i, the fixed even part of every family discriminant
FAMILY_TWIST = GInt(4, -4)

_UNIT_INV = {GInt(1, 0): GInt(1, 0), GInt(0, 1): GInt(0, -1),
             GInt(-1, 0): GInt(-1, 0), GInt(0, -1): GInt(0, 1)}


def norm(z: GInt) -> int:
    return z.norm()


def is_primary(z: GInt) -> bool:
    return z.re % 2 == 1 and z.im % 2 == 0 and (z.re + z.im) % 4 == 1


def primary_associate(z: GInt) -> tuple[GInt, GInt]:
    """Unique (u, p) with z = u*p, u a unit, p primary.  Requires z odd."""
    if not z.is_odd():
        raise ValueError(f"{z!r} is not odd")
    found = [u for u in UNITS if is_primary(u * z)]
    if len(found) != 1:
        raise AssertionError(f"primary associate count {len(found)} for {z!r}")
    u = found[0]
    return _UNIT_INV[u], u * z


def exact_div(z: GInt, w: GInt) -> GInt:
    n = w.norm()
    q = z * w.conj()
    if q.re % n or q.im % n:
        raise ValueError(f"{w!r} does not divide {z!r}")
    return GInt(q.re // n, q.im // n)


def divides(w: GInt, z: GInt) -> bool:
    n = w.norm()
    q = z * w.conj()
    return q.re % n == 0 and q.im % n == 0


def gmod(z: GInt, w: GInt) -> GInt:
    """Representative of z mod w by rounded division (small residue)."""
    n = w.norm()
    q = z * w.conj()
    qr = (2 * q.re + n) // (2 * n)
    qi = (2 * q.im + n) // (2 * n)
    return z - w * GInt(qr, qi)


def powmod(a: GInt, e: int, w: GInt) -> GInt:
    r = gmod(GInt(1, 0), w)
    b = gmod(a, w)
    while e:
        if e & 1:
            r = gmod(r * b, w)
        b = gmod(b * b, w)
        e >>= 1
    return r


@dataclass(frozen=True)
class PrimaryPrime:
    value: GInt
    norm: int
    kind: str  # "split" or "inert"

    def rational(self) -> int:
        """Rational prime below: p for split, q for inert."""
        return self.norm if self.kind == "split" else math.isqrt(self.norm)


def split_i_image(pp: PrimaryPrime) -> int:
    """s in F_p with i -> s under Z[i]/(varpi) = F_p; needs varpi split."""
    if pp.kind != "split":
        raise ValueError("i_image only defined for split primes")
    p = pp.norm
    x, y = pp.value.re % p, pp.value.im % p
    # x + y*s = 0 mod p
    return (-x * pow(y, p - 2, p)) % p


# --- rational prime utilities ------------------------------------------------

def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid well past 2^62."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def _factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    stack = [n]
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        for p in small:
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack.extend((d, m // d))
    return out


def _smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = least prime factor of n for 2 <= n <= limit (spf[n] = n if prime)."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in _sieve(math.isqrt(limit))[::-1]:
        spf[p * p::p] = p
    return spf


def legendre_table(p: int) -> np.ndarray:
    """Legendre symbols (r/p) for r = 0, ..., p-1 as int8, p an odd prime."""
    tab = np.full(p, -1, dtype=np.int8)
    r = np.arange(1, (p + 1) // 2, dtype=np.int64)
    tab[r * r % p] = 1
    tab[0] = 0
    return tab


def _sqrt_minus_one(p: int) -> int:
    """Solution of t^2 = -1 mod p for p = 1 mod 4."""
    d = 2
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    return pow(d, (p - 1) // 4, p)


def _cornacchia(p: int, t: int | None = None) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, for prime p = 1 mod 4.

    One Euclid pass on (p, t) for a square root t of -1 mod p (found here
    when not given); then a + b t = 0 or a - b t = 0 mod p.
    """
    if t is None:
        t = _sqrt_minus_one(p)
    r0, r1 = p, t
    bound = math.isqrt(p)
    while r1 > bound:
        r0, r1 = r1, r0 % r1
    a = r1
    b = math.isqrt(p - a * a)
    if a * a + b * b != p:
        raise AssertionError(f"cornacchia failed at {p}")
    return a, b


def _prime_above(p: int) -> PrimaryPrime:
    """Primary prime above split p with Im > 0 before conjugation."""
    a, b = _cornacchia(p)
    _, v = primary_associate(GInt(a, b))
    return PrimaryPrime(v, p, "split")


# --- factorization in Z[i] ---------------------------------------------------

def factor(z: GInt) -> tuple[GInt, int, list[tuple[PrimaryPrime, int]]]:
    """z = unit * (1+i)^e2 * prod varpi^e over primary primes.

    Entries are sorted by (norm, re, im) of varpi.
    """
    if z.is_zero():
        raise ValueError("cannot factor 0")
    unit = GInt(1, 0)
    work = z
    e2 = 0
    while work.norm() % 2 == 0:
        work = exact_div(work, ONE_PLUS_I)
        e2 += 1
    entries: list[tuple[PrimaryPrime, int]] = []
    for p, vp in sorted(_factor_int(work.norm()).items()):
        if p % 4 == 3:
            e = 0
            while work.re % p == 0 and work.im % p == 0:
                work = GInt(work.re // p, work.im // p)
                e += 1
            if 2 * e != vp:
                raise AssertionError(f"inert exponent mismatch at {p}")
            if e % 2 == 1:
                unit = -unit  # p = (-1) * (-p)
            entries.append((PrimaryPrime(GInt(-p, 0), p * p, "inert"), e))
        else:
            pp = _prime_above(p)
            for cand in (pp, PrimaryPrime(pp.value.conj(), p, "split")):
                e = 0
                while divides(cand.value, work):
                    work = exact_div(work, cand.value)
                    e += 1
                if e:
                    entries.append((cand, e))
    if not work.is_unit():
        raise AssertionError(f"non-unit cofactor {work!r} for {z!r}")
    unit = unit * work
    entries.sort(key=lambda t: (t[0].norm, t[0].value.re, t[0].value.im))
    return unit, e2, entries


def moebius(z: GInt) -> int:
    if z.is_zero():
        raise ValueError("moebius(0) undefined")
    _, e2, entries = factor(z)
    if e2 >= 2 or any(e >= 2 for _, e in entries):
        return 0
    return -1 if (e2 + len(entries)) % 2 else 1


# --- residue symbols ----------------------------------------------------------

def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _symbol_prime_euler(a: GInt, pp: PrimaryPrime) -> int:
    w = pp.value
    r = powmod(a, (pp.norm - 1) // 2, w)
    if r.is_zero() or divides(w, r):
        return 0
    if divides(w, r - ONE):
        return 1
    if divides(w, r + ONE):
        return -1
    raise AssertionError(f"euler criterion not in {{0,+-1}} at {pp!r}")


def _symbol_prime_fast(a: GInt, pp: PrimaryPrime) -> int:
    if pp.kind == "split":
        p = pp.norm
        s = split_i_image(pp)
        return _legendre((a.re + a.im * s) % p, p)
    q = pp.rational()
    return _legendre((a.re * a.re + a.im * a.im) % q, q)


def quad_symbol(a: GInt, n: GInt, method: str = "fast") -> int:
    """Quadratic residue symbol (a/n) for odd nonunit n.

    method: "fast" (Legendre reductions) or "euler" (generic criterion).
    """
    if n.is_zero() or n.is_unit() or not n.is_odd():
        raise ValueError(f"modulus must be odd, nonzero, nonunit: {n!r}")
    eval_one = _symbol_prime_fast if method == "fast" else _symbol_prime_euler
    out = 1
    for pp, e in factor(n)[2]:
        s = eval_one(a, pp)
        if s == 0:
            return 0
        if e % 2:
            out *= s
    return out


_QUARTIC = {(1, 0): 1 + 0j, (0, 1): 1j, (-1, 0): -1 + 0j, (0, -1): -1j}


def quartic_symbol(a: GInt, pp: PrimaryPrime) -> complex:
    """Quartic residue symbol (a/varpi)_4 as a complex fourth root of unity."""
    w = pp.value
    r = powmod(a, (pp.norm - 1) // 4, w)
    if r.is_zero() or divides(w, r):
        return 0j
    for (ur, ui), val in _QUARTIC.items():
        if divides(w, r - GInt(ur, ui)):
            return val
    raise AssertionError(f"quartic criterion failed at {pp!r}")


def chi_family(c: GInt, n: GInt) -> int:
    """Family character chi_{i(1+i)^5 c}(n) = (i(1+i)^5 c / n), n odd."""
    return quad_symbol(FAMILY_TWIST * c, n)


# --- Gauss sums ----------------------------------------------------------------

def _residue_system(n: GInt) -> tuple[np.ndarray, np.ndarray]:
    """Complete residue system mod n as flat (x, y) int64 arrays.

    Column HNF of the lattice nZ[i]: basis (N/g, 0), (x_g, g) with
    g = gcd(Re n, Im n); reps are [0, N/g) x [0, g).
    """
    a, b = n.re, n.im
    g = math.gcd(a, b)
    nn = n.norm()
    xs = np.arange(nn // g, dtype=np.int64)
    ys = np.arange(g, dtype=np.int64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return X.ravel(), Y.ravel()


def _symbol_table_prime(pp: PrimaryPrime, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vectorized (x+yi / varpi) over residue arrays."""
    if pp.kind == "split":
        p = pp.norm
        val = X + Y * split_i_image(pp)
    else:
        p = pp.rational()
        val = X * X + Y * Y
    return legendre_table(p)[val % p].astype(np.int64)


def gauss_sum(r: GInt, n: GInt, cap: int = 10 ** 6) -> complex:
    """g(r, n) = sum over x mod n of (x/n) e(r x / n), e(z) = exp(2 pi i Im z).

    Brute force over a complete residue system; refuses N(n) > cap.
    """
    if n.is_zero() or n.is_unit() or not n.is_odd():
        raise ValueError(f"modulus must be odd, nonzero, nonunit: {n!r}")
    nn = n.norm()
    if nn > cap:
        raise ValueError(f"norm {nn} above brute-force cap {cap}")
    X, Y = _residue_system(n)
    _, _, entries = factor(n)
    if len(entries) == 1 and entries[0][1] == 1:
        chi = _symbol_table_prime(entries[0][0], X, Y)
    else:
        chi = np.array([quad_symbol(GInt(int(x), int(y)), n) for x, y in zip(X, Y)],
                       dtype=np.int64)
    # Im(r (x+yi) conj(n)) = x Im(r conj n) + y Re(r conj n)
    rc = r * n.conj()
    t = (X * (rc.im % nn) + Y * (rc.re % nn)) % nn
    phase = np.exp((2j * np.pi / nn) * t)
    return complex(np.dot(chi.astype(np.float64), phase))


# --- enumeration ----------------------------------------------------------------

def primary_primes_up_to(bound: int) -> list[PrimaryPrime]:
    """All primary primes with norm <= bound, sorted by (norm, re, im)."""
    if bound >= 1 << 62:
        raise ValueError("bound too large")
    out: list[PrimaryPrime] = []
    if bound >= 5:
        for p in _sieve(int(bound)):
            p = int(p)
            if p % 4 == 1:
                pp = _prime_above(p)
                out.append(pp)
                out.append(PrimaryPrime(pp.value.conj(), p, "split"))
    qmax = math.isqrt(int(bound))
    for q in _sieve(qmax):
        q = int(q)
        if q % 4 == 3:
            out.append(PrimaryPrime(GInt(-q, 0), q * q, "inert"))
    out.sort(key=lambda pp: (pp.norm, pp.value.re, pp.value.im))
    return out


@lru_cache(maxsize=8)
def prime_norms_up_to(bound: int) -> np.ndarray:
    """Sorted norms of primary primes with norm <= bound (read-only).

    Split p appears twice (conjugate ideals), inert q contributes q^2 once.
    No generators are computed, so this stays cheap at large bounds.
    """
    b = int(bound)
    ps = _sieve(b)
    split = ps[ps % 4 == 1]
    qs = _sieve(math.isqrt(b))
    inert = qs[qs % 4 == 3] ** 2
    return read_only(np.sort(np.concatenate([split, split, inert])).astype(np.int64))


@lru_cache(maxsize=4)
def primary_squarefree_arrays(bound: int, with_mu: bool = False):
    """Primary squarefree odd elements with 0 < norm <= bound.

    Returns (re, im, norm[, mu]) read-only int64 arrays sorted by
    (norm, re, im).
    Squarefreeness is read off the rational factorization of the norm:
    p = 3 mod 4 must not have p^4 | N; p = 1 mod 4 allows v_p <= 1, or
    v_p = 2 exactly when p divides both coordinates (then varpi varpi-bar || c).
    """
    m = math.isqrt(int(bound))
    res = np.arange(-m - 1, m + 2, dtype=np.int64)
    res = res[res % 2 != 0]
    ims = np.arange(-m - 2, m + 3, dtype=np.int64)
    ims = ims[ims % 2 == 0]
    R, M = np.meshgrid(res, ims, indexing="ij")
    R, M = R.ravel(), M.ravel()
    N = R * R + M * M
    keep = (N <= bound) & ((R + M) % 4 == 1)
    R, M, N = R[keep], M[keep], N[keep]

    keep = np.ones(R.size, dtype=bool)
    for p in _sieve(m if m >= 2 else 2):
        p = int(p)
        if p == 2:
            continue
        p2 = p * p
        if p % 4 == 3:
            if p2 * p2 <= bound:
                keep &= (N % (p2 * p2)) != 0
        else:
            m2 = (N % p2) == 0
            if m2.any():
                m3 = (N % (p2 * p)) == 0
                pc = ((R % p) == 0) & ((M % p) == 0)
                keep &= ~(m3 | (m2 & ~pc))
    R, M, N = R[keep], M[keep], N[keep]
    order = np.lexsort((M, R, N))
    R, M, N = R[order], M[order], N[order]
    if not with_mu:
        return read_only(R, M, N)

    omega = np.zeros(R.size, dtype=np.int64)
    Nw = N.copy()
    for p in _sieve(m if m >= 2 else 2):
        p = int(p)
        if p == 2:
            continue
        if p % 4 == 1:
            d1 = (Nw % p) == 0
            if d1.any():
                d2 = (N % (p * p)) == 0
                omega += d1.astype(np.int64) + (d1 & d2).astype(np.int64)
                for _ in range(2):
                    div = (Nw % p) == 0
                    Nw[div] //= p
        else:
            p2 = p * p
            d = (Nw % p2) == 0
            if d.any():
                omega += d
                Nw[d] //= p2
    omega += Nw > 1
    mu = 1 - 2 * (omega & 1)
    return read_only(R, M, N, mu)


def family_stream(bound: int) -> Iterator[GInt]:
    """All odd squarefree c with N(c) <= bound, associates included.

    Order: primary parts by (norm, re, im), units in order 1, i, -1, -i.
    """
    R, M, _ = primary_squarefree_arrays(bound)
    for re, im in zip(R, M):
        c0 = GInt(int(re), int(im))
        for u in UNITS:
            yield u * c0


@lru_cache(maxsize=4)
def lattice_norm_counts(nmax: int) -> np.ndarray:
    """r[n] = #{k in Z[i] : N(k) = n} for 0 <= n <= nmax (r[0] counts k=0);
    read-only."""
    m = math.isqrt(nmax)
    a = np.arange(-m, m + 1, dtype=np.int64)
    norms = (a * a)[:, None] + (a * a)[None, :]
    return read_only(np.bincount(norms[norms <= nmax].ravel(), minlength=nmax + 1))
