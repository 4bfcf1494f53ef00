"""Builders and inverters for the BWT variants.

Five variants for a collection M = (T_1, ..., T_k), plus the classic
single-string BWT:

  ebwt        last symbols of all conjugates of all T_i in omega order;
              length N, no sentinels, independent of input order.
  dol_ebwt    ebwt of {T_i $}: one shared separator per string; equal to
              the multidollar BWT of the lexicographically sorted
              collection.
  mdol_bwt    BWT of T_1 $_1 T_2 $_2 ... T_k $_k with distinct separators
              ordered $_1 < $_2 < ...; output shows them as one symbol.
  conc_bwt    BWT of T_1 $ T_2 $ ... T_k $ # with equal separators and a
              final terminator smaller than everything. The raw transform
              has length N+k+1; normalization drops the first symbol
              (always a separator) and rewrites # to $, giving N+k.
  colex_bwt   mdol_bwt of the collection sorted colexicographically.
  single_bwt  rotation-sort BWT of a single string, no sentinel.

The four separator-based variants are one sort of the rotations of
T_1 $ ... T_k $ that differs only in how the separators rank against
each other (``separator_ranks``): by input index for mdol_bwt, by lex
rank for dol_ebwt, by colex rank for colex_bwt and by ``conc_order``
rank for conc_bwt, the order its equal separators take from the text
after them.

Internally separators are byte 0x01 and the terminator byte 0x00; the
text form renders them '$' and '#' through the table ``DISPLAY``.
"""

from __future__ import annotations

import enum
import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import Sequence

from .collection import SEP_BYTE, TERM_BYTE, Collection, from_seqs
from .errors import GuardError, TransformError, ValidationError
from .kernels import conjugate_sort, suffix_array
from .ordering import colex_order, conc_order, lex_order, order_ranks


class Variant(enum.Enum):
    EBWT = "ebwt"
    DOL_EBWT = "dol_ebwt"
    MDOL_BWT = "mdol_bwt"
    CONC_BWT = "conc_bwt"
    COLEX_BWT = "colex_bwt"
    SINGLE_BWT = "single_bwt"

    @property
    def separator_based(self) -> bool:
        return self in _SEPARATOR_BASED

    @classmethod
    def from_name(cls, name: str) -> "Variant":
        key = name.strip().lower().replace("-", "_")
        try:
            return _VARIANT_NAMES[key]
        except KeyError:
            raise ValidationError(
                f"unknown variant {name!r}; choose from {', '.join(_VARIANT_NAMES)}"
            ) from None


_SEPARATOR_BASED = frozenset(
    {Variant.DOL_EBWT, Variant.MDOL_BWT, Variant.CONC_BWT, Variant.COLEX_BWT}
)

_VARIANT_NAMES = {v.value: v for v in Variant}
_VARIANT_NAMES.update(
    {
        "dol": Variant.DOL_EBWT,
        "dolebwt": Variant.DOL_EBWT,
        "mdol": Variant.MDOL_BWT,
        "mdolbwt": Variant.MDOL_BWT,
        "conc": Variant.CONC_BWT,
        "concbwt": Variant.CONC_BWT,
        "colex": Variant.COLEX_BWT,
        "colexbwt": Variant.COLEX_BWT,
        "single": Variant.SINGLE_BWT,
        "bwt": Variant.SINGLE_BWT,
    }
)


@dataclass(frozen=True)
class Transform:
    variant: Variant
    symbols: bytes
    source_k: int
    source_n: int
    normalized: bool = True

    def __len__(self) -> int:
        return len(self.symbols)


# symbol byte -> display byte: the sentinels swap with '#' and '$', which
# no sequence holds, so the table is its own inverse
DISPLAY = bytes.maketrans(b"\x00\x01#$", b"#$\x00\x01")


def to_text(t: Transform) -> str:
    return t.symbols.translate(DISPLAY).decode("latin-1")


def from_text(text: str, variant: Variant) -> Transform:
    """Parse the display form ('$' separator, '#' terminator) back into a
    Transform, inferring k and the normalization state from the content.
    Every character is a symbol, whitespace included, but the raw
    sentinel bytes 0x00 and 0x01 are refused."""
    display = text.encode("latin-1")
    if TERM_BYTE in display or SEP_BYTE in display:
        raise TransformError("transform text holds a raw sentinel byte (0x00 or 0x01)")
    symbols = display.translate(DISPLAY)
    if not symbols:
        raise TransformError("empty transform text")
    k = symbols.count(SEP_BYTE)
    terms = symbols.count(TERM_BYTE)
    if variant in _SEPARATOR_BASED:
        if terms and variant is not Variant.CONC_BWT:
            raise TransformError("terminator symbol only occurs in raw conc_bwt")
        if variant is Variant.CONC_BWT and terms > 1:
            raise TransformError("raw conc_bwt contains exactly one terminator")
        if k == 0:
            raise TransformError("separator-based transform without separators")
        normalized = terms == 0
        return Transform(variant, symbols, k, len(symbols) - k - terms, normalized)
    if k or terms:
        raise TransformError(f"{variant.value} transform must not contain sentinels")
    if variant is Variant.SINGLE_BWT:
        return Transform(variant, symbols, 1, len(symbols))
    # ebwt: the string count equals the number of LF cycles
    return Transform(variant, symbols, len(_lf_cycles(symbols)), len(symbols))


# ---------------------------------------------------------------------------
# builders


# Positions, suffix-array entries and ranks are C ints in both kernels.
_INT32_LIMIT = 2**31


def _check_int32(size: int, what: str) -> None:
    """Refuse an input whose ``size`` int32 indexes cannot hold."""
    if size >= _INT32_LIMIT:
        raise GuardError(f"{what} of {size} exceeds the int32 limit {_INT32_LIMIT - 1}")


def _separator_sa(seqs: list[bytes], ranks: Sequence[int]) -> array:
    """Suffix array of T_1 $ T_2 $ ... T_k $ where the separator after T_i
    has the value ranks[i], a rank in 1..k; equal ranks compare by the
    following text. Letters are shifted past the separators.

    The int text is written a byte plane at a time: byte j of every
    letter value, in memory order, is one ``translate`` of the text,
    stored into byte j of each int with one strided slice assignment.
    """
    k = len(seqs)
    # the kernel appends one sentinel to the N + k symbols
    _check_int32(sum(map(len, seqs)) + k + 1, "separator text with sentinel")
    shift = k + 1
    text = _separator_text(seqs)
    data = array("i", [0]) * len(text)
    width = data.itemsize
    letters = array("i", range(shift, shift + 256)).tobytes()  # b + shift for each byte b
    with memoryview(data).cast("B") as planes:
        for j in range(width):
            plane = letters[j::width]
            if any(plane):
                planes[j::width] = text.translate(plane)
    del text  # not held while the kernel runs
    end = -1
    for s, rank in zip(seqs, ranks):
        end += len(s) + 1
        data[end] = rank
    return suffix_array(data, shift + 256)


def _separator_sort(seqs: list[bytes], ranks: Sequence[int]):
    """Sorted suffixes of T_1 $ T_2 $ ... T_k $, where the separator
    after T_i has the value ranks[i], a rank in 1..k; equal ranks compare
    by the following text, which ends at the kernel's sentinel.

    Returns (sa, symbols): sa[r] is the flat position where row r's
    suffix starts, symbols the last column with every separator written
    SEP_BYTE. Distinct separators decide every comparison before the text
    ends, so rotation order is suffix order, and the rows depend on the
    order of ``seqs`` only through ``ranks``: each separator variant is
    this sort with its own ranks.
    """
    sa = _separator_sa(seqs, ranks)
    text = _separator_text(seqs)
    before = text[-1:] + text[:-1]  # the symbol preceding each position
    return sa, bytes(map(before.__getitem__, sa))


def _separator_text(seqs: list[bytes]) -> bytes:
    """T_1 $ T_2 $ ... T_k $ with every separator written SEP_BYTE."""
    sep = bytes([SEP_BYTE])
    return sep.join(seqs) + sep


def separator_ranks(variant: Variant, seqs: list[bytes]) -> Sequence[int]:
    """The rank in 1..k of the separator after each of ``seqs`` in
    ``variant``'s sort: input index for mdol_bwt, lex rank for dol_ebwt,
    colex rank for colex_bwt and ``conc_order`` rank for conc_bwt."""
    if variant is Variant.MDOL_BWT:
        return range(1, len(seqs) + 1)
    if variant is Variant.DOL_EBWT:
        order = lex_order(seqs)
    elif variant is Variant.COLEX_BWT:
        order = colex_order(seqs)
    elif variant is Variant.CONC_BWT:
        order = conc_order(seqs)
    else:
        raise TransformError(f"{variant.value} is not separator-based")
    return order_ranks(order)


def _separator_build(variant: Variant, c: Collection):
    c.require_valid()
    seqs = c.seqs()
    return _separator_sort(seqs, separator_ranks(variant, seqs))


def mdol_bwt(c: Collection) -> Transform:
    _, symbols = _separator_build(Variant.MDOL_BWT, c)
    return Transform(Variant.MDOL_BWT, symbols, c.k, c.total_length)


def dol_ebwt(c: Collection) -> Transform:
    # With one shared separator below the alphabet, the omega order of the
    # rotations of {T_i $} ties exactly where rotations share a string
    # suffix; the tie resolves by the following strings, i.e. by the
    # lexicographic order of the T_i. Separators ranked by lex rank
    # reproduce that resolution.
    _, symbols = _separator_build(Variant.DOL_EBWT, c)
    return Transform(Variant.DOL_EBWT, symbols, c.k, c.total_length)


def colex_bwt(c: Collection) -> Transform:
    _, symbols = _separator_build(Variant.COLEX_BWT, c)
    return Transform(Variant.COLEX_BWT, symbols, c.k, c.total_length)


def conc_bwt(c: Collection, normalize: bool = False) -> Transform:
    """Transform of T_1·SEP·...·T_k·SEP·TERM. Raw by default: length
    N+k+1 with the terminator symbol still present.

    The separator sort with ``conc_order`` ranks gives the rows other
    than the terminator's: the normalized transform. The raw one adds the
    terminator's row in front (preceded by the last separator) and puts
    the terminator at the row of position 0.
    """
    sa, symbols = _separator_build(Variant.CONC_BWT, c)
    if normalize:
        return Transform(Variant.CONC_BWT, symbols, c.k, c.total_length)
    raw = bytearray(symbols)
    raw[sa.index(0)] = TERM_BYTE
    raw.insert(0, SEP_BYTE)
    return Transform(
        Variant.CONC_BWT, bytes(raw), c.k, c.total_length, normalized=False
    )


def normalize_conc(t: Transform) -> Transform:
    if t.variant is not Variant.CONC_BWT:
        raise TransformError("normalize_conc applies to conc_bwt transforms")
    if t.normalized:
        raise TransformError("transform is already normalized")
    symbols = t.symbols
    if symbols[0] != SEP_BYTE or symbols.count(TERM_BYTE) != 1:
        raise TransformError("malformed raw conc_bwt")
    trimmed = symbols[1:].replace(
        TERM_BYTE.to_bytes(1, "big"), SEP_BYTE.to_bytes(1, "big")
    )
    return Transform(Variant.CONC_BWT, trimmed, t.source_k, t.source_n)


def _conjugate_last_column(seqs: list[bytes]) -> bytes:
    _check_int32(sum(map(len, seqs)), "collection length")
    order = conjugate_sort(seqs)
    # the cyclically preceding symbol of each position of the concatenation
    before = b"".join(s[-1:] + s[:-1] for s in seqs)
    return bytes(map(before.__getitem__, order))


def ebwt(c: Collection) -> Transform:
    c.require_valid()
    return Transform(
        Variant.EBWT, _conjugate_last_column(c.seqs()), c.k, c.total_length
    )


def single_bwt(c: Collection) -> Transform:
    c.require_valid()
    if c.k != 1:
        raise TransformError("single_bwt takes a one-string collection")
    return Transform(
        Variant.SINGLE_BWT, _conjugate_last_column(c.seqs()), 1, c.total_length
    )


_BUILDERS = {
    Variant.EBWT: ebwt,
    Variant.DOL_EBWT: dol_ebwt,
    Variant.MDOL_BWT: mdol_bwt,
    Variant.CONC_BWT: conc_bwt,
    Variant.COLEX_BWT: colex_bwt,
    Variant.SINGLE_BWT: single_bwt,
}


def build(variant: Variant, c: Collection) -> Transform:
    """Dispatch to the variant's builder. The concatenation variant
    comes back raw; apply normalize_conc for the comparable form."""
    return _BUILDERS[variant](c)


# The collection variants, in the order reports and the CLI list them.
COLLECTION_VARIANTS = (
    Variant.EBWT,
    Variant.DOL_EBWT,
    Variant.MDOL_BWT,
    Variant.CONC_BWT,
    Variant.COLEX_BWT,
)


def build_normalized(variant: Variant, c: Collection) -> Transform:
    """``build`` with the concatenation variant normalized, the form in
    which the variants are compared."""
    if variant is Variant.CONC_BWT:
        return conc_bwt(c, normalize=True)
    return build(variant, c)


# ---------------------------------------------------------------------------
# inversion


def _lf_table(symbols: bytes) -> array:
    """LF[r] = the row of the rotation that row r's last symbol starts:
    the symbol's first row in sorted order plus its earlier occurrences,
    read from one counter per symbol."""
    counts = [0] * 256
    for b in set(symbols):
        counts[b] = symbols.count(b)
    slots = list(map(itertools.count, itertools.accumulate(counts, initial=0)))
    return array("i", map(next, map(slots.__getitem__, symbols)))


def _lf_walk(symbols: bytes, lf: array, row: int, seen: bytearray) -> bytes:
    """Walk the LF mapping left from ``row`` until a marked row, marking
    every row passed; returns the symbols read, in text order."""
    out = bytearray()
    while not seen[row]:
        seen[row] = 1
        out.append(symbols[row])
        row = lf[row]
    out.reverse()
    return bytes(out)


# byte -> 1 for the separator, else 0
_SEPARATOR_ROWS = bytes(b == SEP_BYTE for b in range(256))


def invert_separator_based(t: Transform) -> Collection:
    """Recover the k strings by walking the LF mapping left from each of
    the first k rows (the rotations that start with a separator) to the
    next row whose last symbol is a separator.

    Output order is the variant's separator order: input order for
    mdol_bwt, lexicographic for dol_ebwt, colexicographic for colex_bwt,
    and the induced dollar order for normalized conc_bwt. Ids are not
    stored in a transform, so the result carries fresh numeric ids.
    """
    if t.variant not in _SEPARATOR_BASED:
        raise TransformError(f"{t.variant.value} is not separator-based")
    if not t.normalized:
        raise TransformError("normalize the conc_bwt transform before inverting")
    symbols = t.symbols
    if TERM_BYTE in symbols:
        raise TransformError("unexpected terminator symbol")
    k = symbols.count(SEP_BYTE)
    if k == 0:
        raise TransformError("no separators to anchor the inversion")
    # LF maps only separator rows into rows 0..k-1, so a walk from one of
    # them never re-enters its start and ends at a separator row.
    lf = _lf_table(symbols)
    seen = bytearray(symbols.translate(_SEPARATOR_ROWS))
    seqs = [_lf_walk(symbols, lf, row, seen) for row in range(k)]
    if not all(seqs):
        raise TransformError("malformed transform: empty sequence recovered")
    if sum(map(len, seqs)) + k != len(symbols):
        raise TransformError("malformed transform: symbols left over after inversion")
    return from_seqs(seqs)


@functools.lru_cache(maxsize=1)
def _lf_cycles(symbols: bytes) -> tuple[bytes, ...]:
    """The word of every cycle of the LF mapping, each read from the
    cycle's smallest row, kept for ``invert_ebwt`` after ``from_text``."""
    lf = _lf_table(symbols)
    seen = bytearray(len(symbols))
    cycles = []
    row = seen.find(0)
    while row >= 0:
        cycles.append(_lf_walk(symbols, lf, row, seen))
        row = seen.find(0, row)
    return tuple(cycles)


def least_rotation(s: bytes) -> bytes:
    """Booth's algorithm; linear time."""
    if not s:
        return s
    b = s + s
    n = len(s)
    f = [-1] * len(b)
    least = 0
    for j in range(1, len(b)):
        sj = b[j]
        i = f[j - least - 1]
        while i != -1 and sj != b[least + i + 1]:
            if sj < b[least + i + 1]:
                least = j - i - 1
            i = f[i]
        if sj != b[least + i + 1]:
            if sj < b[least]:
                least = j
            f[j - least] = -1
        else:
            f[j - least] = i + 1
    return b[least:least + n]


def invert_ebwt(t: Transform) -> list[bytes]:
    """Decompose the LF permutation into cycles; every cycle spells one
    primitive string. A cycle's rows are the rotations of its word in
    omega order, so the walk from its smallest row spells the least
    rotation. The list is sorted, so inputs are recovered up to rotation,
    with non-primitive inputs collapsing to copies of their root."""
    if t.variant not in (Variant.EBWT, Variant.SINGLE_BWT):
        raise TransformError("invert_ebwt applies to ebwt / single_bwt transforms")
    symbols = t.symbols
    if SEP_BYTE in symbols or TERM_BYTE in symbols:
        raise TransformError("ebwt transform must not contain sentinels")
    return sorted(_lf_cycles(symbols))
