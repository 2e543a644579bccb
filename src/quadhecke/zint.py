"""Arithmetic in Z[i]: primary primes, residue symbols, Gauss sums, and
enumeration of the quadratic-twist family.

Conventions.  An element is odd when its norm is odd.  An odd z is primary
when z = 1 mod (1+i)^3, equivalently Re z odd, Im z even, Re z + Im z = 1
mod 4.  Every odd z has exactly one primary associate.  Rational p = 1 mod 4
splits into two conjugate primary primes, p = 3 mod 4 stays inert with
primary associate -p, and 2 = -i (1+i)^2 ramifies.

primes_above(P) is the one place split primes are made: for an array of
p = 1 mod 4 it returns the primary primes above them with their i-images s
(i -> s in Z[i]/(varpi) = F_p; the conjugate prime has i -> p - s), all p
at once.  lattice_points(B) is the one enumeration of all of Z[i] by norm.

The family of characters is chi_{i(1+i)^5 c}(n) = (i(1+i)^5 c / n) with c odd
squarefree; all four associates of c are distinct family members.  The
quadratic residue symbol (a/varpi) is a^((N(varpi)-1)/2) mod varpi, and
_symbol_prime_euler evaluates it so, as the reference.  quad_symbol(a, n)
factors nothing: it reduces (a/n) to two rational Jacobi symbols, one mod
the content g = gcd(Re n, Im n) and one mod the norm of the primitive part
n/g, on Python ints, so any norm will do.
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

    def __repr__(self) -> str:
        return f"GInt({self.re}, {self.im})"


ONE = GInt(1, 0)
I = GInt(0, 1)


def is_primary(z: GInt) -> bool:
    return z.re % 2 == 1 and z.im % 2 == 0 and (z.re + z.im) % 4 == 1


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


# primes_above() squares residues mod p in int64, so p stays below 2^31;
# primary_primes_up_to(), which calls it, keeps the same cap
_NORM_CAP = 1 << 31


def _smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = least prime factor of n for 2 <= n <= limit (spf[n] = n if prime)."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in _sieve(math.isqrt(limit))[::-1]:
        spf[p * p::p] = p
    return spf


def nonresidue_mask(p: int, length: int) -> np.ndarray:
    """[r is a quadratic non-residue mod p] for r = 0, ..., length-1 as bool,
    p an odd prime: the mask of the residues mod p, repeated."""
    mask = np.ones(max(p, length), dtype=bool)
    r = np.arange(1, (p + 1) // 2, dtype=np.int64)
    r *= r
    # r^2 - (r^2 // p) p: numpy divides by a scalar far faster than it takes
    # % by one
    r -= r // p * p
    mask[r] = False
    mask[0] = False
    done = p
    while done < length:
        n = min(done, length - done)
        mask[done:done + n] = mask[:n]
        done += n
    return mask[:length]


def legendre_table(p: int) -> np.ndarray:
    """Legendre symbols (r/p) for r = 0, ..., p-1 as int8, p an odd prime."""
    tab = 1 - 2 * nonresidue_mask(p, p).view(np.int8)
    tab[0] = 0
    return tab


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


def _symbol_prime_euler(a: GInt, w: GInt) -> int:
    r = powmod(a, (w.norm() - 1) // 2, w)
    if r.is_zero() or divides(w, r):
        return 0
    if divides(w, r - ONE):
        return 1
    if divides(w, r + ONE):
        return -1
    raise AssertionError(f"euler criterion not in {{0,+-1}} at {w!r}")


def _symbol_moduli(n: GInt) -> tuple[int, int, int]:
    """(g, m, s) with (a/n) = (N(a)/g) ((Re a + s Im a)/m) in Jacobi symbols,
    for odd nonunit n.

    n = g n' with g = gcd(Re n, Im n) and n' = r + ti primitive of norm m.
    Z[i]/(n') = Z/m through i -> s = -r/t mod m (s = 0 for m = 1), and each
    rational prime q | g gives (a/q) = (N(a)/q).
    """
    if n.is_zero() or n.is_unit() or not n.is_odd():
        raise ValueError(f"modulus must be odd, nonzero, nonunit: {n!r}")
    g = math.gcd(n.re, n.im)
    m = n.norm() // (g * g)
    return g, m, -(n.re // g) * pow(n.im // g, -1, m) % m


def quad_symbol(a: GInt, n: GInt) -> int:
    """Quadratic residue symbol (a/n) for odd nonunit n."""
    g, m, s = _symbol_moduli(n)
    return _jacobi(a.norm(), g) * _jacobi(a.re + s * a.im, m)


# --- Gauss sums ----------------------------------------------------------------

_GAUSS_CAP = 10 ** 6


def gauss_sum(r: GInt, n: GInt) -> complex:
    """g(r, n) = sum over x mod n of (x/n) e(r x / n), e(z) = exp(2 pi i Im z).

    Brute force over a complete residue system; refuses N(n) > 10^6.
    """
    g, m, s = _symbol_moduli(n)
    nn = n.norm()
    if nn > _GAUSS_CAP:
        raise ValueError(f"norm {nn} above brute-force cap {_GAUSS_CAP}")
    # a complete residue system: the column HNF of nZ[i] has basis (N/g, 0),
    # (x_g, g), so x in [0, N/g) and y in [0, g) are the representatives
    X, Y = np.divmod(np.arange(nn, dtype=np.int64), g)
    # quad_symbol's reduction, with the modulus reduced once
    chi = np.array([_jacobi(x * x + y * y, g) * _jacobi(x + s * y, m)
                    for x, y in zip(X.tolist(), Y.tolist())], dtype=np.float64)
    # Im(r (x+yi) conj(n)) = x Im(r conj n) + y Re(r conj n)
    rc = r * n.conj()
    t = (X * (rc.im % nn) + Y * (rc.re % nn)) % nn
    phase = np.exp((2j * np.pi / nn) * t)
    return complex(np.dot(chi, phase))


# --- enumeration ----------------------------------------------------------------

def primary_primes_up_to(bound: int) -> list[GInt]:
    """All primary primes with norm <= bound, sorted by (norm, re, im)."""
    if bound >= _NORM_CAP:
        raise ValueError(f"bound {bound} is not below 2^31")
    out: list[GInt] = []
    ps = _sieve(int(bound))
    ps = ps[ps % 4 == 1]
    _, re, im = primes_above(ps)
    for a, b in zip(re.tolist(), im.tolist()):
        out += (GInt(a, b), GInt(a, -b))
    qmax = math.isqrt(int(bound))
    for q in _sieve(qmax):
        q = int(q)
        if q % 4 == 3:
            out.append(GInt(-q, 0))
    out.sort(key=lambda z: (z.norm(), z.re, z.im))
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


_FAMILY_CAP = 10 ** 8      # the family sieve peaks near 15 bytes per unit of bound


def primary_squarefree_arrays(bound: int):
    """Primary squarefree odd elements with 0 < norm <= bound <= _FAMILY_CAP.

    Returns (re, im, norm) int64 arrays sorted by (norm, re, im), read-only
    because the family memo shares them.
    The primary c = a + bi lie on the rows of odd a, at b = b0(a) + 4k.  c is
    not squarefree exactly when varpi^2 | c for a split varpi, that is
    b = a s2 mod p^2 with s2 the Hensel lift of primes_above's s or of p - s,
    or when q^2 divides a and b for an inert q with q^4 <= bound.  Each such
    sublattice meets a row in one residue of k, struck out as one strided
    run per row.  The rows come in (re, im) order, which the sort by norm
    keeps among equal norms.
    """
    if bound > _FAMILY_CAP:
        raise ValueError(f"family norm bound {bound} is above {_FAMILY_CAP}")
    m = math.isqrt(int(bound))
    a = np.arange(-m | 1, m + 1, 2, dtype=np.int64)
    w = np.sqrt(bound - a * a).astype(np.int64)     # |b| <= w, exact below 2^52
    b0 = -w + (1 - a + w) % 4                       # b = 1 - a mod 4
    n = (w - b0) // 4 + 1                           # row lengths
    off = np.cumsum(n) - n
    keep = np.ones(n.sum(), dtype=bool)
    ps = _sieve(m)
    split = ps[ps % 4 == 1]
    lattices = [(a % (q * q) == 0, q * q, 0)      # (rows, q2, t): b = a t mod q2
                for q in ps[ps % 4 == 3].tolist() if q ** 4 <= bound]
    for p, s in zip(split.tolist(), primes_above(split)[0].tolist()):
        s2 = (s - (s * s + 1) * pow(2 * s, -1, p * p)) % (p * p)   # Newton step
        lattices += [(slice(None), p * p, s2), (slice(None), p * p, p * p - s2)]
    for rows, q2, t in lattices:
        # k0 = (a t - b0) / 4 mod q2, as 4 (3 q2 + 1) / 4 = 1 mod q2
        k0 = (a[rows] * t - b0[rows]) % q2 * ((3 * q2 + 1) // 4) % q2
        hits = (np.maximum(n[rows] - k0, 0) + q2 - 1) // q2
        # hit j of this lattice lies in row r at off_r + k0_r + (j - J_r) q2,
        # with J_r the hits in the rows before r
        start = off[rows] + k0 - (np.cumsum(hits) - hits) * q2
        keep[np.repeat(start, hits) + q2 * np.arange(hits.sum())] = False
    re = np.repeat(a, n)[keep]
    im = (np.repeat(b0 - 4 * off, n) + np.arange(0, 4 * keep.size, 4))[keep]
    norm = re * re + im * im
    order = np.argsort(norm, kind="stable")
    re = re[order]          # one reordered copy alive at a time
    im = im[order]
    return read_only(re, im, norm[order])


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


def lattice_points(bound: int):
    """(Re k, Im k, N(k)) as arrays over the k in Z[i] with N(k) <= bound,
    in lexicographic order."""
    m = math.isqrt(bound)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1),
                                            indexing="ij"))
    nm = a * a + b * b
    keep = nm <= bound
    return a[keep], b[keep], nm[keep]


def lattice_norm_counts(nmax: int) -> np.ndarray:
    """r[n] = #{k in Z[i] : N(k) = n} for 0 <= n <= nmax (r[0] counts k=0)."""
    return np.bincount(lattice_points(nmax)[2], minlength=nmax + 1)
