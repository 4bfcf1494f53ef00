"""Interesting intervals: where separator-based transforms can disagree.

An interesting interval is the rank range [b, e] of rotations that begin
with U followed by a separator, where U is a suffix of at least two input
strings and the symbols preceding those occurrences are not all equal.
When U is an entire string, its preceding symbol is the separator itself
(shown as '$'). Coordinates are taken in the rotation order of
{T_i $}, which all separator-based variants share outside the
intervals, so [b, e] is variant-independent.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, pairwise, repeat, starmap
from operator import add, and_, lt, sub

from ._fmt import fmt
from .collection import Collection
from .errors import ValidationError
from .ordering import lex_order
from .transforms import (
    DISPLAY,
    Transform,
    Variant,
    _separator_sa,
    _separator_sort,
    separator_ranks,
)


@dataclass(frozen=True)
class InterestingInterval:
    b: int
    e: int
    source: bytes  # a member string; the shared suffix is its tail
    suffix_length: int
    parikh: dict[str, int]
    members: tuple[int, ...]  # 1-based input indexes in rank order

    @property
    def length(self) -> int:
        return self.e - self.b + 1

    @property
    def shared_suffix(self) -> bytes:
        return self.source[len(self.source) - self.suffix_length:]


@dataclass(frozen=True)
class IntervalReport:
    intervals: tuple[InterestingInterval, ...]  # in row order
    count_intervals: int
    total_interval_length: int
    fraction_positions: Fraction
    # dol_ebwt, read off the same rotation scan: the template every
    # separator-based variant shares outside the intervals
    template: Transform = field(repr=False, compare=False)

    @property
    def variability(self) -> Fraction:
        if not self.intervals:
            warnings.warn(
                "collection has no interesting intervals; variability is 0 by convention",
                stacklevel=2,
            )
            return Fraction(0)
        runs = sum(max_runs_bound(iv.parikh) for iv in self.intervals)
        return Fraction(runs, self.total_interval_length)

    def fraction_text(self) -> str:
        return fmt(self.fraction_positions, 3)

    def variability_text(self) -> str:
        return fmt(self.variability, 3)

    def to_tsv(self) -> str:
        lines = ["b\te\tlength\tsuffix\tparikh"]
        for iv in self.intervals:
            suffix = iv.shared_suffix.decode("latin-1") or "(empty)"
            parikh = ",".join(f"{s}:{iv.parikh[s]}" for s in sorted(iv.parikh))
            lines.append(f"{iv.b}\t{iv.e}\t{iv.length}\t{suffix}\t{parikh}")
        return "\n".join(lines) + "\n"


def _rotation_scan(seqs: list[bytes]):
    """Rotation order of {T_i $}: the separator sort of the strings laid
    out in lex order, separator slot r ranked r. Returns
    (lex, ends, sa, lsym, mask): lex is the lex order of the inputs,
    ends[j] the flat position of the separator after slot j, lsym the
    last column (the symbols of dol_ebwt) and mask[r] == 1 iff rows r
    and r+1 start with the same string suffix. A row starting at p
    belongs to the first slot j with ends[j] >= p and starts with that
    string's last ends[j] - p symbols.

    The mask comes from a second sort with every separator rank
    reversed (slot r ranked k+1-r). The two sorts order rows alike except
    inside a block of rows sharing a string suffix, which the first lists
    by rising text position and the second by falling position. So
    W = sa - sa_reversed is 0 outside blocks and rises strictly inside
    one; a block's last row has W >= 0 and the next block's first row
    W <= 0, so W[r] < W[r+1] marks exactly the pairs inside a block.
    """
    lex = lex_order(seqs)
    laid = [seqs[i] for i in lex]
    k = len(laid)
    sa, lsym = _separator_sort(laid, range(1, k + 1))
    w = map(sub, sa, _separator_sa(laid, range(k, 0, -1)))
    mask = bytes(starmap(lt, pairwise(w)))
    ends = list(accumulate((len(s) + 1 for s in laid), initial=-1))[1:]
    return lex, ends, sa, lsym, mask


def interesting_intervals(c: Collection) -> IntervalReport:
    """The interesting intervals and dol_ebwt, read off one rotation scan."""
    c.require_valid()
    seqs = c.seqs()
    lex, ends, sa, lsym, mask = _rotation_scan(seqs)
    # separator position -> 1-based input index of the string before it
    owner = dict(zip(ends, (i + 1 for i in lex)))
    n = len(sa)
    intervals: list[InterestingInterval] = []
    # a run of marks at [b, e) joins rows b..e into one block
    for block in re.finditer(rb"\x01+", mask):
        b, e = block.start(), block.end()
        rows = lsym[b : e + 1]
        if len(set(rows)) < 2:
            continue
        p = sa[b]
        slot = bisect_left(ends, p)
        u = ends[slot] - p
        intervals.append(
            InterestingInterval(
                b=b + 1,
                e=e + 1,
                source=seqs[lex[slot]],
                suffix_length=u,
                parikh=dict(Counter(rows.translate(DISPLAY).decode("latin-1"))),
                # every member's suffix of length u ends at its separator
                members=tuple(map(owner.__getitem__, map(add, sa[b : e + 1], repeat(u)))),
            )
        )
    total = sum(iv.length for iv in intervals)
    return IntervalReport(
        intervals=tuple(intervals),
        count_intervals=len(intervals),
        total_interval_length=total,
        fraction_positions=Fraction(total, n) if n else Fraction(0),
        template=Transform(Variant.DOL_EBWT, lsym, c.k, c.total_length),
    )


def derive_transform(report: IntervalReport, variant: Variant, c: Collection) -> Transform:
    """``variant``'s transform of ``c`` (normalized for conc_bwt), read off
    ``report``, the rotation scan of ``c``: the template with each
    interval's rows sorted by their members' separator ranks.

    Every separator sort orders the rows alike outside the blocks of
    rows that share a string suffix; inside a block the rows agree up to
    their separators, so the separator ranks alone order them. A block
    that is no interval holds one symbol, so its order does not show,
    and the template is dol_ebwt itself. A row's key is its member's rank
    shifted past its symbol: one sort of ints per interval orders the
    rows and carries their symbols along.
    """
    template = report.template
    if (template.source_k, template.source_n) != (c.k, c.total_length):
        raise ValidationError("interval report is not of this collection")
    if variant is Variant.DOL_EBWT:
        return template
    # 1-based input index -> separator rank, shifted past a symbol byte
    shifted = [0] + [r << 8 for r in separator_ranks(variant, c.seqs())]
    symbols = bytearray(template.symbols)
    for iv in report.intervals:
        b, e = iv.b - 1, iv.e
        keys = sorted(map(add, map(shifted.__getitem__, iv.members), symbols[b:e]))
        symbols[b:e] = bytes(map(and_, keys, repeat(255)))
    return Transform(variant, bytes(symbols), c.k, c.total_length)


def max_runs_bound(parikh: dict) -> int:
    """Largest run count any arrangement of the multiset can reach: with
    n_a the most frequent symbol's count and N_a the rest, every symbol
    can alternate when n_a - 1 <= N_a; otherwise the rare symbols cut the
    frequent one into at most 2 N_a + 1 runs."""
    if not parikh:
        raise ValidationError("empty symbol counts")
    counts = list(parikh.values())
    if any(not isinstance(v, int) or v < 1 for v in counts):
        raise ValidationError("symbol counts must be positive integers")
    total = sum(counts)
    biggest = max(counts)
    rest = total - biggest
    return total if biggest - 1 <= rest else 2 * rest + 1


def variability(c: Collection) -> Fraction:
    return interesting_intervals(c).variability


def hamming_upper_bound(c: Collection) -> int:
    """Positions where two separator-based transforms may differ."""
    return interesting_intervals(c).total_interval_length
