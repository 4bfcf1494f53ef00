"""Pure-Python kernels.

Same contracts as the compiled module ``_native``; see ``kernels`` for the
selection logic. These are correct but slow on large inputs.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, permutations, repeat
from operator import add, mul

BACKEND = "pure-python"


# ---------------------------------------------------------------------------
# suffix array (SA-IS)

def _sais(s: list[int], sigma: int) -> list[int]:
    # s ends with a unique smallest symbol 0; returns the full suffix array.
    n = len(s)
    if n == 1:
        return [0]
    if n == 2:
        return [1, 0]

    is_s = bytearray(n)
    is_s[n - 1] = 1
    for i in range(n - 2, -1, -1):
        if s[i] < s[i + 1] or (s[i] == s[i + 1] and is_s[i + 1]):
            is_s[i] = 1

    lms = [i for i in range(1, n) if is_s[i] and not is_s[i - 1]]

    bucket = [0] * sigma
    for c in s:
        bucket[c] += 1
    # first and last slot of each symbol's bucket
    first = list(accumulate(bucket, initial=0))
    last = list(accumulate(bucket, initial=-1))[1:]

    def induce(lms_seq: list[int]) -> list[int]:
        sa = [-1] * n
        tails = last.copy()
        for i in reversed(lms_seq):
            c = s[i]
            sa[tails[c]] = i
            tails[c] -= 1
        heads = first.copy()
        for p in range(n):
            j = sa[p] - 1
            if sa[p] > 0 and not is_s[j]:
                c = s[j]
                sa[heads[c]] = j
                heads[c] += 1
        tails = last.copy()
        for p in range(n - 1, -1, -1):
            j = sa[p] - 1
            if sa[p] > 0 and is_s[j]:
                c = s[j]
                sa[tails[c]] = j
                tails[c] -= 1
        return sa

    sa = induce(lms)

    # name the LMS substrings in their induced (sorted) order
    is_lms = bytearray(n)
    for i in lms:
        is_lms[i] = 1
    names = [-1] * n
    cur = -1
    prev = -1
    for p in sa:
        if not (p > 0 and is_lms[p]):
            continue
        if prev == -1:
            cur += 1
        else:
            i = 0
            while True:
                if s[prev + i] != s[p + i] or is_s[prev + i] != is_s[p + i]:
                    cur += 1
                    break
                if i > 0 and (is_lms[prev + i] or is_lms[p + i]):
                    if not (is_lms[prev + i] and is_lms[p + i]):
                        cur += 1
                    break
                i += 1
        names[p] = cur
        prev = p

    reduced = [names[i] for i in lms]
    if cur + 1 == len(lms):
        sa1 = [0] * len(reduced)
        for idx, name in enumerate(reduced):
            sa1[name] = idx
    else:
        sa1 = _sais(reduced, cur + 1)

    return induce([lms[r] for r in sa1])


def suffix_array(data, sigma: int) -> array:
    """Suffix array of ``data`` (ints in [1, sigma)). Returns array('i')."""
    n = len(data)
    if n == 0:
        return array("i")
    full = _sais(list(data) + [0], sigma)
    return array("i", full[1:])


# ---------------------------------------------------------------------------
# omega order of all rotations of a collection

def conjugate_sort(seqs: list[bytes]) -> array:
    """Sort every rotation of every sequence by the omega order.

    Returns flat positions into the plain concatenation of ``seqs``; ties
    between rotations with identical infinite repetitions are broken by
    sequence length (the exponent rule) and then input position.

    Prefix doubling over whole arrays: ``jump`` maps each position to the
    one ``shift`` symbols later along its own string, and squaring it
    doubles the shift, so each round is a few ``map`` passes, one sort of
    integer keys and one loop writing the dense ranks.
    """
    data = b"".join(seqs)
    total = len(data)
    if total == 0:
        return array("i")
    jump = array("i")
    slen = array("i")
    base = 0
    for s in seqs:
        m = len(s)
        jump.extend(range(base + 1, base + m))
        jump.append(base)
        slen.extend(array("i", [m]) * m)
        base += m

    maxlen = max(slen)
    rank = array("q", iter(data))
    width = 256
    shift = 1
    while shift < 2 * maxlen:
        keys = array(
            "q", map(add, map(mul, rank, repeat(width)), map(rank.__getitem__, jump))
        )
        order = sorted(range(total), key=keys.__getitem__)
        cur = -1
        prev = -1
        for p, key in zip(order, map(keys.__getitem__, order)):
            if key != prev:
                cur += 1
                prev = key
            rank[p] = cur
        width = cur + 1
        if width == total:
            break
        jump = array("i", map(jump.__getitem__, jump))
        shift <<= 1

    # rank, then length, then position (the sort is stable)
    keys = array("q", map(add, map(mul, rank, repeat(maxlen + 1)), slen))
    return array("i", sorted(range(total), key=keys.__getitem__))


# ---------------------------------------------------------------------------
# shared-suffix detection over a sorted rotation order

def shared_suffix_mask(collapsed: bytes, sa, ulen) -> bytes:
    """mask[r] == 1 iff sorted rows r and r+1 begin with the same string
    suffix followed by a separator.

    ``collapsed`` is the concatenation with every separator written as the
    same byte; ``ulen[p]`` is the distance from position p to its separator.
    """
    m = len(sa)
    if m == 0:
        return b""
    mask = bytearray(m - 1)
    for r in range(m - 1):
        a = sa[r]
        b = sa[r + 1]
        la = ulen[a]
        if la == ulen[b] and collapsed[a : a + la] == collapsed[b : b + la]:
            mask[r] = 1
    return bytes(mask)


# ---------------------------------------------------------------------------
# feasibility census of concatenation dollar orders

def _pack_pi_conc_inverse(rho: tuple[int, ...], k: int) -> int:
    # Inverse of the dollar-order permutation that the concatenation variant
    # induces from the input order rho; packed 4 bits per value.
    rinv = [0] * (k + 1)
    for pos in range(k):
        rinv[rho[pos]] = pos + 1
    r1 = rho[0]
    rk = rho[k - 1]
    packed = 1 << (4 * (rk - 1))  # pi(1) = rho(k), so pi^-1(rho(k)) = 1
    for i in range(1, k + 1):
        if i == rk:
            continue
        phi = rho[rinv[i]]  # successor of i along rho; rinv[i] <= k-1 here
        f = phi if phi < r1 else phi - 1
        packed |= (f + 1) << (4 * (i - 1))
    return packed


def feasible_image_size(k: int) -> int:
    """Number of distinct dollar-order permutations reachable over all k!
    input orders of the concatenation variant."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1
    if k > 11:
        raise ValueError("census supported for k <= 11")
    seen: set[int] = set()
    for rho in permutations(range(1, k + 1)):
        seen.add(_pack_pi_conc_inverse(rho, k))
    return len(seen)


# ---------------------------------------------------------------------------
# distances

def hamming(a: bytes, b: bytes) -> int:
    """Positions where ``a`` and ``b`` differ: the non-zero bytes of one
    big-integer XOR of the two."""
    if len(a) != len(b):
        raise ValueError("hamming distance needs equal lengths")
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - diff.to_bytes(len(a), "big").count(0)


def edit_distance(a: bytes, b: bytes) -> int:
    """Levenshtein distance, two-row dynamic program."""
    if a == b:
        return 0
    # trim common affixes
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    j = 0
    while j < len(a) - i and j < len(b) - i and a[len(a) - 1 - j] == b[len(b) - 1 - j]:
        j += 1
    a = a[i : len(a) - j]
    b = b[i : len(b) - j]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for r, ca in enumerate(a, start=1):
        cur = [r] + [0] * len(b)
        for c, cb in enumerate(b, start=1):
            cur[c] = min(
                prev[c] + 1,
                cur[c - 1] + 1,
                prev[c - 1] + (ca != cb),
            )
        prev = cur
    return prev[-1]
