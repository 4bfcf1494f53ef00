"""String orders used by the transforms.

Comparators return -1, 0, or 1 (first argument smaller, equal, larger).

The omega order compares infinite self-repetitions: S precedes T when
S^inf is lexicographically smaller than T^inf, and when the repetitions
coincide (same primitive root) the string with the smaller exponent comes
first. A mismatch, if any, always appears within the first |S|+|T| symbols
of the repetitions, so the comparison below is exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .kernels import suffix_array

LESS = -1
EQUAL = 0
GREATER = 1


class RootDecomposition(NamedTuple):
    root: bytes
    exponent: int


class RotationRef(NamedTuple):
    """Identifies a rotation: 1-based string index, 1-based start offset."""

    string_index: int
    offset: int


def lex_compare(a: bytes, b: bytes) -> int:
    if a == b:
        return EQUAL
    return LESS if a < b else GREATER


def colex_compare(a: bytes, b: bytes) -> int:
    """Order by reversed strings: a <_colex b iff reverse(a) <_lex reverse(b)."""
    ra, rb = a[::-1], b[::-1]
    if ra == rb:
        return EQUAL
    return LESS if ra < rb else GREATER


def primitive_root(s: bytes) -> RootDecomposition:
    """Shortest u and largest m with s == u * m, via the border table."""
    n = len(s)
    if n == 0:
        raise ValueError("empty string has no primitive root")
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and s[i] != s[k]:
            k = fail[k]
        if s[i] == s[k]:
            k += 1
        fail[i + 1] = k
    period = n - fail[n]
    if n % period == 0:
        return RootDecomposition(s[:period], n // period)
    return RootDecomposition(s, 1)


def omega_compare(a: bytes, b: bytes) -> int:
    if not a or not b:
        raise ValueError("omega order is defined for non-empty strings")
    na, nb = len(a), len(b)
    for i in range(na + nb):
        ca = a[i % na]
        cb = b[i % nb]
        if ca != cb:
            return LESS if ca < cb else GREATER
    # identical infinite repetitions: same primitive root, order by exponent
    if na == nb:
        return EQUAL
    return LESS if na < nb else GREATER


@dataclass(frozen=True)
class Sentinel:
    """An end-of-string marker: the terminator or an (optionally indexed)
    separator. Index 0 means the un-indexed separator."""

    kind: str  # "term" or "sep"
    index: int = 0

    def _key(self) -> tuple[int, int]:
        return (0, 0) if self.kind == "term" else (1, self.index)


TERM = Sentinel("term")
SEP = Sentinel("sep")


def sep(index: int) -> Sentinel:
    return Sentinel("sep", index)


def _symbol_key(sym: "Sentinel | int | bytes") -> tuple[int, int]:
    # Total order: terminator < every separator < alphabet bytes;
    # separators by index, bytes by value.
    if isinstance(sym, Sentinel):
        return sym._key()
    if isinstance(sym, (bytes, bytearray)):
        if len(sym) != 1:
            raise ValueError("byte symbols must have length 1")
        sym = sym[0]
    if not 0 <= sym <= 255:
        raise ValueError(f"not a byte value: {sym}")
    return (2, sym)


def sentinel_compare(a, b) -> int:
    ka, kb = _symbol_key(a), _symbol_key(b)
    if ka == kb:
        return EQUAL
    return LESS if ka < kb else GREATER


def lex_order(seqs: Sequence[bytes]) -> list[int]:
    """Positions 0..k-1 sorted lexicographically, ties kept in input order."""
    return sorted(range(len(seqs)), key=lambda i: (seqs[i], i))


def colex_order(seqs: Sequence[bytes]) -> list[int]:
    """Positions 0..k-1 sorted by reversed strings, ties in input order."""
    return sorted(range(len(seqs)), key=lambda i: (seqs[i][::-1], i))


def order_ranks(order: Sequence[int]) -> list[int]:
    """The inverse of an order of positions 0..k-1, as 1-based ranks:
    ranks[i] = 1 + the place of i in ``order``."""
    ranks = [0] * len(order)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return ranks


def conc_order(seqs: Sequence[bytes]) -> list[int]:
    """Positions 0..k-1 in the order of their separators in
    T_1 $ ... T_k $ #, with equal separators and # below everything.

    The text after the separator of T_i is T_{i+1} $ ... T_k $ #. As $ is
    below every letter, it compares like the sequence of the dense lex
    ranks of T_{i+1}, ..., T_k followed by a terminator, so one suffix
    sort of the k ranks plus the terminator orders all separators, equal
    strings included.
    """
    dense = {s: r for r, s in enumerate(sorted(set(seqs)), start=2)}
    data = array("i", [dense[s] for s in seqs])
    data.append(1)  # the terminator
    # suffix p of the rank sequence is the text after separator p - 1
    return [p - 1 for p in suffix_array(data, len(dense) + 2) if p]
