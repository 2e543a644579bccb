"""S_odd's member side: for every member c, w0_c sum_k g_k (c/varpi_k) over
the primes varpi_k past the family's norm bound, which divide no member.

Reciprocity turns each symbol into a product over the prime factors of c.
Each factor's symbols over the primes are a row of sign bits, read off a
non-residue mask mod its norm; a member's row is the XOR of its factors'
rows, and its sum against g adds, per byte of the row, one entry of a
table of the 256 signed sums of 8 coefficients.
"""

from __future__ import annotations

import numpy as np

from . import zint
from ._numerics import _run_jobs


# Most primes per chunk: a chunk's byte table holds 256 sums per 8 primes,
# 4 MB at most
_CHUNK = 1 << 14
# Bytes of non-residue masks and key rows that one unit of groups holds,
# and bytes of packed masks that one batch of units keeps across chunks
_UNIT_BYTES, _BATCH_BYTES = 1 << 19, 1 << 21
# Keys whose sign rows are gathered at once
_KEYS = 4
# Members, and bytes of their rows, whose byte sums are gathered at once:
# 64 bytes read a 128 kB slice of the byte table
_MEMBERS, _BYTES = 128, 64


def _byte_table(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S[j, v] = sum over b < 8 of (-1)^(bit b of v) g[8j + b], with g zero
    past its end, written into out[:nbytes]: sum_k g_k (-1)^(x_k) is
    sum_j S[j, v_j] for the bits x_k packed little-endian into bytes v_j.
    Each nibble's 16 sums come by doubling; S adds the low nibble's to the
    high one's."""
    h = np.zeros((-(-g.size // 8), 8))
    h.flat[:g.size] = g
    nibbles = []
    for half in (h[:, :4], h[:, 4:]):
        t = half[:, :1] * np.array([1.0, -1.0])
        for b in range(1, 4):
            t = np.concatenate((t + half[:, b:b + 1], t - half[:, b:b + 1]), axis=1)
        nibbles.append(t)
    lo, hi = nibbles
    S = out[:h.shape[0]]
    np.add(lo[:, None, :], hi[:, :, None], out=S.reshape(-1, 16, 16))
    return S


def _member_keys(fam, bound: int) -> tuple[np.ndarray, int]:
    """(codes, K): codes[i] lists the keys of member i's prime factors in
    rising q, -1 past its last, key (q, t) coded q K + t and a rational
    factor q coded q K + q; K exceeds every t."""
    spf = zint._smallest_prime_factors(bound)
    K = bound + 1
    n = fam.norm.copy()
    levels = []
    while np.any(n > 1):
        live = n > 1
        q = spf[n]
        n //= q
        rational = live & (n % q == 0)
        n[rational] //= q[rational]
        # a split factor pi | c has c = 0 mod pi, so i -> t = -Re c / Im c
        split = np.flatnonzero(live & ~rational)
        qs = q[split]
        t = q.copy()
        t[split] = -fam.re[split] * zint._powmod_array(fam.im[split], qs - 2, qs) % qs
        levels.append(np.where(live, q * K + t, -1))
    codes = np.stack(levels, axis=1) if levels else np.full((n.size, 1), -1)
    return codes, K


def _member_sums(fam, bound: int, P: np.ndarray, A: np.ndarray,
                 B: np.ndarray, g: np.ndarray, threads: int) -> np.ndarray:
    """w0_c sum_k g_k (c/varpi_k) for every member c, with varpi_k = A_k + B_k i
    the primary prime above P_k > bound.

    Reciprocity for primary elements gives (c/varpi) = (varpi/c), a product
    over the prime factors of c.  A split factor pi of norm q, with i -> t
    in Z[i]/(pi) = F_q, gives ((a + b t)/q) for varpi = a + bi; a rational
    factor q (inert, or both primes above a split q) gives (p/q).  Either
    way the factor's row over the p_k depends only on its key (q, t), and
    no symbol is 0, as p_k > bound >= q.

    A row holds one sign bit per prime (1 for -1), packed 8 to a byte, so a
    product of symbols is an XOR of rows.  A member has at most one factor
    with q^2 > bound and it has the largest q, so members are grouped by
    their largest key.  The smaller factors' keys are few, and the XOR of
    each member's smaller keys' rows is kept over all primes.  A member's
    row is its group's row XOR that, and its sum against g is
    sum_j S[j, v_j] over its bytes v_j, S the chunk's byte table
    (_byte_table).

    The primes run in the fewest chunks of at most _CHUNK, all of one size,
    sorted by (b, a) so that a key's row over a chunk gathers from one
    repeat of its per-b offsets.  Groups run in q order, in units whose
    masks and rows take about _UNIT_BYTES, and units in batches: a batch
    runs every chunk, building its units' masks on the first and keeping
    them packed, a bit per residue, for the rest, so each mask is built
    once per call and each byte table once per batch.  A member adds its
    sums lane by lane, byte block by byte block and chunk by chunk in one
    fixed order, so neither the units, the batches nor the threads change
    its bits.
    """
    codes, K = _member_keys(fam, bound)
    last = np.maximum((codes >= 0).sum(axis=1) - 1, 0)
    at = np.arange(codes.shape[0])
    group_code, gid = np.unique(codes[at, last], return_inverse=True)
    codes[at, last] = -1
    # the tuples of smaller keys, told apart column by column
    rest = codes[:, :-1]
    _, dense = np.unique(rest.ravel(), return_inverse=True)
    rid = np.zeros(rest.shape[0], dtype=np.int64)
    for col in dense.reshape(rest.shape).T:
        _, rid = np.unique(rid * (dense.size + 1) + col, return_inverse=True)
    rest_code = rest[np.unique(rid, return_index=True)[1]]
    del codes, at, last, dense
    by_group = np.argsort(gid, kind="stable")
    starts = np.searchsorted(gid[by_group], np.arange(group_code.size + 1))
    gq = np.maximum(group_code, 0) // K

    order = np.lexsort((A, B))
    A, B = A[order], B[order]
    a_lo = int(A.min())
    span = int(A.max()) - a_lo + 1
    # the fewest chunks of at most _CHUNK primes, of one size, a multiple of 8
    size = 8 * -(-P.size // (8 * -(-P.size // _CHUNK)))
    chunks = []
    for k0 in range(0, P.size, size):
        k = order[k0:k0 + size]
        b, count = np.unique(B[k0:k0 + size], return_counts=True)
        chunks.append((k0 // 8, b, count, A[k0:k0 + size] - a_lo, P[k], g[k]))
    del A, B, order

    def masks(qs: list[int]) -> tuple[np.ndarray, dict[int, int]]:
        """the non-residue masks mod each q, repeated to q + span, end to
        end, and where each starts"""
        tab = np.empty(len(qs) * span + sum(qs), dtype=bool)
        base, i = {}, 0
        for q in qs:
            tab[i:i + q + span] = zint.nonresidue_mask(q, q + span)
            base[q], i = i, i + q + span
        return tab, base

    def sign_rows(out: np.ndarray, rows: np.ndarray, keys: np.ndarray,
                  tab: np.ndarray, base: dict[int, int], chunk) -> None:
        """out[rows[j]] = the packed signs over the chunk of ((a + b t)/q),
        or (p/q) for a rational key, for keys[j] = (q, t).  Every index is
        in range by construction, so the gathers take mode clip, which
        skips numpy's bounds check."""
        _, b, count, a, p, _ = chunk
        q, t = np.divmod(keys, K)
        start = np.array([base[x] for x in q.tolist()], dtype=np.int64)
        rational = t == q
        for j in np.flatnonzero(rational):
            idx = p % q[j] + start[j]
            out[rows[j]] = np.packbits(tab.take(idx, mode="clip"), bitorder="little")
        split = np.flatnonzero(~rational)
        for j0 in range(0, split.size, _KEYS):
            j = split[j0:j0 + _KEYS, None]
            # a + b t = (a - a_lo) + (a_lo + b t), the second part reduced
            # mod q once per distinct b and repeated along the chunk's run
            # of that b
            idx = np.repeat((a_lo + b * t[j]) % q[j] + start[j], count, axis=1)
            idx += a
            out[rows[j[:, 0]]] = np.packbits(tab.take(idx, mode="clip"), axis=1,
                                             bitorder="little")

    # the XOR of each member's smaller keys' rows, over all primes
    rest_rows = np.zeros((rest_code.shape[0], -(-P.size // 8)), dtype=np.uint8)
    shared = np.unique(rest_code[rest_code >= 0])
    if shared.size:
        tab, base = masks(sorted(set((shared // K).tolist())))
        col = np.where(rest_code >= 0, np.searchsorted(shared, rest_code), shared.size)
        for chunk in chunks:
            b0, nb = chunk[0], -(-chunk[-1].size // 8)
            rows = np.zeros((shared.size + 1, nb), dtype=np.uint8)
            sign_rows(rows, np.arange(shared.size), shared, tab, base, chunk)
            for d in range(col.shape[1]):
                rest_rows[:, b0:b0 + nb] ^= rows[col[:, d]]
        del tab

    out = np.zeros(fam.re.size)
    w0 = fam.w0
    offsets = np.arange(0, 32 * size, 256)

    def run(units: list[list[int]], S: np.ndarray, held: list) -> None:
        """the member sums of a batch of units, runs [g0, g1) of groups
        whose masks are built once, on the first chunk, and kept packed,
        a bit per residue, for the later ones; S is the worker's byte
        table buffer, holding chunk held[0]"""
        first = starts[units[0][0]]
        mi = by_group[first:starts[units[-1][1]]]
        gl, rl = gid[mi], rid[mi]
        acc = np.zeros(mi.size)
        kept = []
        for c, chunk in enumerate(chunks):
            b0, nb = chunk[0], -(-chunk[-1].size // 8)
            if held[0] != c:
                held[0] = c
                _byte_table(chunk[-1], S)
            flat = S[:nb].ravel()
            for u, (g0, g1) in enumerate(units):
                have = np.flatnonzero(group_code[g0:g1] >= 0)
                if c == 0:
                    tab, base = masks(sorted(set(gq[g0:g1][have].tolist())))
                    if len(chunks) > 1:
                        kept.append((np.packbits(tab, bitorder="little"), base))
                else:
                    tab, base = kept[u]
                    tab = np.unpackbits(tab, bitorder="little")
                keyrows = np.zeros((g1 - g0, nb), dtype=np.uint8)
                sign_rows(keyrows, have, group_code[g0:g1][have], tab, base, chunk)
                end = starts[g1] - first
                for m0 in range(starts[g0] - first, end, _MEMBERS):
                    ms = slice(m0, min(m0 + _MEMBERS, end))
                    rows = keyrows[gl[ms] - g0]
                    rows ^= rest_rows[rl[ms], b0:b0 + nb]
                    # lane l adds bytes l, l + _BYTES, ... in turn; the
                    # lanes are summed last
                    lanes = np.zeros((rows.shape[0], _BYTES))
                    for j0 in range(0, nb, _BYTES):
                        j1 = min(nb, j0 + _BYTES)
                        idx = rows[:, j0:j1] + offsets[j0:j1]
                        lanes[:, :j1 - j0] += flat.take(idx, mode="clip")
                    acc[ms] += lanes.sum(axis=1)
        out[mi] = w0[mi] * acc

    def worker(i0: int, i1: int) -> None:
        """groups i0 to i1 in batches of units, cut only between q's"""
        S, held = np.empty((size // 8, 256)), [None]
        cuts = [i0] + [j for j in range(i0 + 1, i1) if gq[j] != gq[j - 1]] + [i1]
        units, unit, batch = [], 0, 0
        for j0, j1 in zip(cuts[:-1], cuts[1:]):
            mask = gq[j0] + span if gq[j0] else 0
            cost = mask + (j1 - j0) * size // 8
            if units and batch + mask > 8 * _BATCH_BYTES:
                run(units, S, held)
                units, batch = [], 0
            if units and unit + cost <= _UNIT_BYTES:
                units[-1][1] = j1
                unit += cost
            else:
                units.append([j0, j1])
                unit = cost
            batch += mask
        run(units, S, held)

    _run_jobs(group_code.size, worker, threads)
    return out
