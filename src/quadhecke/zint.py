"""Arithmetic in Z[i]: primary primes, factorization, residue symbols,
Gauss sums, and enumeration of the quadratic-twist family.

Conventions.  An element is odd when its norm is odd.  An odd z is primary
when z = 1 mod (1+i)^3, equivalently Re z odd, Im z even, Re z + Im z = 1
mod 4.  Every odd z has exactly one primary associate.  Rational p = 1 mod 4
splits into two conjugate primary primes, p = 3 mod 4 stays inert with
primary associate -p, and 2 = -i (1+i)^2 ramifies.

primes_above(P) is the one place split primes are made: for an array of
p = 1 mod 4 it returns the primary primes above them with their i-images s
(i -> s in Z[i]/(varpi) = F_p; the conjugate prime has i -> p - s), all p
at once.  prime_above(p) is its one-prime form and returns the prime as a
PrimaryPrime (value, norm), without s; PrimaryPrime.conj() gives the
conjugate prime.  Norms are factored by trial division, so factor() takes
norms below 2^31.

The family of characters is chi_{i(1+i)^5 c}(n) = (i(1+i)^5 c / n) with c odd
squarefree; all four associates of c are distinct family members.  The
quadratic residue symbol (a/varpi) is a^((N(varpi)-1)/2) mod varpi, and
_symbol_prime_euler evaluates it so, as the reference.  quad_symbol(a, n)
factors nothing: it reduces (a/n) to two rational Jacobi symbols, one mod
the content g = gcd(Re n, Im n) and one mod the norm of the primitive part
n/g, and keeps the 2^31 norm cap of factor().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._numerics import read_only


@dataclass(frozen=True, slots=True)
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
ONE_PLUS_I = GInt(1, 1)


def is_primary(z: GInt) -> bool:
    return z.re % 2 == 1 and z.im % 2 == 0 and (z.re + z.im) % 4 == 1


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


@dataclass(frozen=True, slots=True)
class PrimaryPrime:
    value: GInt
    norm: int

    def conj(self) -> "PrimaryPrime":
        """The conjugate prime."""
        return PrimaryPrime(self.value.conj(), self.norm)


def prime_above(p: int) -> PrimaryPrime:
    """The primary prime above a rational prime p = 1 mod 4; the one-prime
    form of primes_above."""
    if p >= _NORM_CAP:      # before it meets int64
        raise ValueError(f"{p} is not below 2^31")
    _, (a,), (b,) = primes_above(np.array([p], dtype=np.int64))
    return PrimaryPrime(GInt(int(a), int(b)), p)


def primes_above(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, Re varpi, Im varpi) as int64 arrays for an int64 array of primes
    p = 1 mod 4 below 2^31: varpi the primary prime above p, with i -> s.

    s = d^((p-1)/4) for the least quadratic non-residue d is a square root
    of -1 mod p.  One Euclid pass on (p, s) stops at a^2 + b^2 = p
    (Cornacchia); b takes the sign with a + b s = 0 mod p, and the unit
    taking a + bi to its primary associate keeps that, so i -> s there.
    Every step runs on all p at once, each Euclid step on the rows not yet
    done; products stay below 2^62.
    """
    P = np.asarray(P, dtype=np.int64)
    if np.any(P % 4 != 1):
        raise ValueError(f"{P[P % 4 != 1][0]} is not 1 mod 4")
    if np.any(P >= _NORM_CAP):
        raise ValueError(f"{P.max()} is not below 2^31")
    s = np.zeros_like(P)
    todo = np.arange(P.size)
    q = 2   # the least non-residue is prime, so only primes q are tried
    while todo.size:
        Pt = P[todo]
        if np.any(Pt <= q):
            raise ValueError(f"{Pt[Pt <= q][0]} is not prime")
        # Euler's criterion: q is a non-residue iff (q^((p-1)/4))^2 = -1
        r = _powmod_array(np.full(todo.size, q), (Pt - 1) // 4, Pt)
        hit = r * r % Pt == Pt - 1
        s[todo[hit]] = r[hit]
        todo = todo[~hit]
        q += 1 + (q > 2)
        while any(q % k == 0 for k in range(3, math.isqrt(q) + 1, 2)):
            q += 2
    r0, r1 = P.copy(), s.copy()
    # floor(sqrt(n)) by float sqrt, exact for n < 2^52
    bound = np.sqrt(P).astype(np.int64)
    todo = np.flatnonzero(r1 > bound)
    while todo.size:
        r0[todo], r1[todo] = r1[todo], r0[todo] % r1[todo]
        todo = todo[r1[todo] > bound[todo]]
    a = r1
    b = np.sqrt(P - a * a).astype(np.int64)
    if np.any(a * a + b * b != P):
        raise AssertionError(f"cornacchia failed at {P[a * a + b * b != P][0]}")
    b = np.where((a + b * s) % P != 0, -b, b)
    # primary associate: u = +-1 when a is odd (re + im = 1 mod 4 picks the
    # sign), else u = +-i with i (a + bi) = -b + ai
    odd = a % 2 == 1
    sign = np.where(odd, np.where((a + b) % 4 == 1, 1, -1),
                    np.where((a - b) % 4 == 1, 1, -1))
    re = sign * np.where(odd, a, -b)
    im = sign * np.where(odd, b, a)
    return s, re, im


def _powmod_array(b: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b^e mod m elementwise for int64 arrays with m < 2^31, by binary
    powering over the bits of e."""
    out = np.ones_like(m) % m
    b = b % m
    e = e.copy()
    tmp = np.empty_like(m)
    while np.any(e):
        np.multiply(out, b, out=tmp)
        np.remainder(tmp, m, out=tmp)
        np.copyto(out, tmp, where=(e & 1) == 1)
        np.multiply(b, b, out=b)
        np.remainder(b, m, out=b)
        e >>= 1
    return out


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


# factor() takes norms below 2^31, so trial division stops by 46341;
# quad_symbol() keeps the same cap
_NORM_CAP = 1 << 31


def _factor_int(n: int) -> dict[int, int]:
    """Rational factorization of 1 <= n < 2^31 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
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


# --- factorization in Z[i] ---------------------------------------------------

def factor(z: GInt) -> tuple[GInt, int, list[tuple[PrimaryPrime, int]]]:
    """z = unit * (1+i)^e2 * prod varpi^e over primary primes.

    Entries are sorted by (norm, re, im) of varpi.
    """
    if z.is_zero():
        raise ValueError("cannot factor 0")
    if z.norm() >= _NORM_CAP:
        raise ValueError(f"norm {z.norm()} of {z!r} is not below 2^31")
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
            entries.append((PrimaryPrime(GInt(-p, 0), p * p), e))
        else:
            pp = prime_above(p)
            for cand in (pp, pp.conj()):
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


# --- residue symbols ----------------------------------------------------------

def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the binary algorithm."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


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


def _symbol_moduli(n: GInt) -> tuple[int, int, int]:
    """(g, m, s) with (a/n) = (N(a)/g) ((Re a + s Im a)/m) in Jacobi symbols,
    for odd nonunit n with N(n) < 2^31.

    n = g n' with g = gcd(Re n, Im n) and n' = r + ti primitive of norm m.
    Z[i]/(n') = Z/m through i -> s = -r/t mod m (s = 0 for m = 1), and each
    rational prime q | g gives (a/q) = (N(a)/q).
    """
    if n.is_zero() or n.is_unit() or not n.is_odd():
        raise ValueError(f"modulus must be odd, nonzero, nonunit: {n!r}")
    if n.norm() >= _NORM_CAP:
        raise ValueError(f"norm {n.norm()} of {n!r} is not below 2^31")
    g = math.gcd(n.re, n.im)
    m = n.norm() // (g * g)
    return g, m, -(n.re // g) * pow(n.im // g, -1, m) % m


def quad_symbol(a: GInt, n: GInt) -> int:
    """Quadratic residue symbol (a/n) for odd nonunit n with N(n) < 2^31."""
    g, m, s = _symbol_moduli(n)
    return _jacobi(a.norm(), g) * _jacobi(a.re + s * a.im, m)


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


_GAUSS_CAP = 10 ** 6


def gauss_sum(r: GInt, n: GInt) -> complex:
    """g(r, n) = sum over x mod n of (x/n) e(r x / n), e(z) = exp(2 pi i Im z).

    Brute force over a complete residue system; refuses N(n) > 10^6.
    """
    g, m, s = _symbol_moduli(n)
    nn = n.norm()
    if nn > _GAUSS_CAP:
        raise ValueError(f"norm {nn} above brute-force cap {_GAUSS_CAP}")
    X, Y = _residue_system(n)
    # quad_symbol's reduction, with the modulus reduced once
    chi = np.array([_jacobi(x * x + y * y, g) * _jacobi(x + s * y, m)
                    for x, y in zip(X.tolist(), Y.tolist())], dtype=np.float64)
    # Im(r (x+yi) conj(n)) = x Im(r conj n) + y Re(r conj n)
    rc = r * n.conj()
    t = (X * (rc.im % nn) + Y * (rc.re % nn)) % nn
    phase = np.exp((2j * np.pi / nn) * t)
    return complex(np.dot(chi, phase))


# --- enumeration ----------------------------------------------------------------

def primary_primes_up_to(bound: int) -> list[PrimaryPrime]:
    """All primary primes with norm <= bound, sorted by (norm, re, im)."""
    if bound >= _NORM_CAP:
        raise ValueError(f"bound {bound} is not below 2^31")
    out: list[PrimaryPrime] = []
    ps = _sieve(int(bound))
    ps = ps[ps % 4 == 1]
    _, re, im = primes_above(ps)
    for p, a, b in zip(ps.tolist(), re.tolist(), im.tolist()):
        pp = PrimaryPrime(GInt(a, b), p)
        out += (pp, pp.conj())
    qmax = math.isqrt(int(bound))
    for q in _sieve(qmax):
        q = int(q)
        if q % 4 == 3:
            out.append(PrimaryPrime(GInt(-q, 0), q * q))
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
def primary_squarefree_arrays(bound: int):
    """Primary squarefree odd elements with 0 < norm <= bound.

    Returns (re, im, norm) read-only int64 arrays sorted by (norm, re, im).
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
    return read_only(R[order], M[order], N[order])


def multiplicative_odd(bound: int, local) -> np.ndarray:
    """f[n] for 0 <= n <= bound as a float64 array: the multiplicative f with
    f(p^e) = local(p, e) at odd primes p and e >= 1, and f = 0 at even n.

    local takes int64 arrays of primes and exponents (or an int in place
    of either) and returns their factors elementwise.  Each odd prime
    p <= sqrt(bound) counts its exponent in the odd multiples of p by one
    strided add per power and multiplies in its factor from a table of
    local(p, 1..e_max); what is left of n is 1 or one prime above
    sqrt(bound), to the first power.
    """
    bound = int(bound)
    f = np.ones((bound + 1) // 2)                       # n = 2k + 1 at k
    rest = np.arange(1, bound + 1, 2, dtype=np.int64)   # n without its small primes
    for p in _sieve(math.isqrt(bound))[1:].tolist():
        # n = p (2j + 1) sits at k = (p - 1)/2 + p j, and p^i | 2j + 1
        # exactly when j = (p^i - 1)/2 mod p^i
        e = np.ones((bound // p + 1) // 2, dtype=np.int64)
        pk = p
        while pk * p <= bound:
            e[(pk - 1) // 2::pk] += 1
            pk *= p
        f[(p - 1) // 2::p] *= local(p, np.arange(1, int(e.max()) + 1))[e - 1]
        rest[(p - 1) // 2::p] //= p ** e
    big = rest > 1
    f[big] *= local(rest[big], 1)
    out = np.zeros(bound + 1)
    out[1::2] = f
    return out


def mobius_by_norm(bound: int) -> np.ndarray:
    """a[n] = sum of mu(l) over primary squarefree odd l with N(l) = n,
    for 0 <= n <= bound, as an int64 array.

    a is multiplicative: over p = 1 mod 4 the two conjugate primes give
    a(p) = -2 and their product a(p^2) = +1; over q = 3 mod 4 the inert
    prime gives a(q^2) = -1; every other prime power, 2^k included, gives 0.
    These are the local factors multiplicative_odd builds a from.
    """
    def local(p, e):
        split = np.asarray(p) % 4 == 1
        return np.where(e == 1, np.where(split, -2, 0),
                        np.where(e == 2, np.where(split, 1, -1), 0))

    return multiplicative_odd(bound, local).astype(np.int64)


@lru_cache(maxsize=4)
def lattice_norm_counts(nmax: int) -> np.ndarray:
    """r[n] = #{k in Z[i] : N(k) = n} for 0 <= n <= nmax (r[0] counts k=0);
    read-only.  The (2m+1)^2 norm grid is counted 64 rows at a time."""
    m = math.isqrt(nmax)
    sq = np.arange(-m, m + 1, dtype=np.int64) ** 2
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for i0 in range(0, sq.size, 64):
        norms = sq[i0:i0 + 64, None] + sq[None, :]
        counts += np.bincount(norms[norms <= nmax], minlength=nmax + 1)
    return read_only(counts)
