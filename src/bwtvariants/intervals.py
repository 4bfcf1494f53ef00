"""Interesting intervals: where separator-based transforms can disagree.

An interesting interval is the rank range [b, e] of rotations that begin
with U followed by a separator, where U is a suffix of at least two input
strings and the symbols preceding those occurrences are not all equal.
When U is an entire string, its preceding symbol is the separator itself
(the '$' pseudo-symbol below). Coordinates are taken in the rotation
order of {T_i $}, which all separator-based variants share outside the
intervals, so [b, e] is variant-independent.
"""

from __future__ import annotations

import re
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import lt, sub

from ._fmt import fmt
from .collection import SEP_BYTE, Collection
from .errors import ValidationError
from .ordering import lex_order
from .transforms import Transform, Variant, _separator_sa, _separator_sort

SEP_SYMBOL = "$"


@dataclass(frozen=True)
class InterestingInterval:
    b: int
    e: int
    shared_suffix: bytes
    parikh: dict[str, int]
    members: tuple[int, ...]  # 1-based input indexes in rank order

    @property
    def length(self) -> int:
        return self.e - self.b + 1


@dataclass(frozen=True)
class IntervalReport:
    intervals: tuple[InterestingInterval, ...]
    count_intervals: int
    total_interval_length: int
    fraction_positions: Fraction
    variability: Fraction

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
    (sa, ulen, owner, lsym, mask) over flat positions of that text; ulen
    is the length of the string suffix each rotation starts with, owner
    its 1-based input index, lsym the last column (the symbols of
    dol_ebwt) and mask[r] == 1 iff rows r and r+1 start with the same
    string suffix.

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
    w = array("i", map(sub, sa, _separator_sa(laid, range(k, 0, -1))))
    mask = bytes(map(lt, w, w[1:]))
    ulen = array("i")
    owner = array("i")
    for i, s in zip(lex, laid):
        m = len(s)
        ulen.extend(range(m, -1, -1))
        owner.extend(array("i", [i + 1]) * (m + 1))
    return sa, ulen, owner, lsym, mask


def _interval_scan(c: Collection) -> tuple[IntervalReport, Transform]:
    """The interval report and dol_ebwt, both read off one rotation scan."""
    seqs = c.seqs()
    sa, ulen, owner, lsym, mask = _rotation_scan(seqs)
    n = len(sa)
    intervals: list[InterestingInterval] = []
    # a run of marks at [b, e) joins rows b..e into one block
    for block in re.finditer(rb"\x01+", mask):
        b, e = block.start(), block.end()
        rows = lsym[b : e + 1]
        if len(set(rows)) < 2:
            continue
        parikh = {
            SEP_SYMBOL if sym == SEP_BYTE else chr(sym): count
            for sym, count in Counter(rows).items()
        }
        p = sa[b]
        seq = seqs[owner[p] - 1]
        suffix = seq[len(seq) - ulen[p]:] if ulen[p] else b""
        intervals.append(
            InterestingInterval(
                b=b + 1,
                e=e + 1,
                shared_suffix=suffix,
                parikh=parikh,
                members=tuple(owner[sa[t]] for t in range(b, e + 1)),
            )
        )
    total = sum(iv.length for iv in intervals)
    fraction = Fraction(total, n) if n else Fraction(0)
    if intervals:
        var = Fraction(sum(max_runs_bound(iv.parikh) for iv in intervals), total)
    else:
        warnings.warn(
            "collection has no interesting intervals; variability is 0 by convention",
            stacklevel=3,
        )
        var = Fraction(0)
    report = IntervalReport(
        intervals=tuple(intervals),
        count_intervals=len(intervals),
        total_interval_length=total,
        fraction_positions=fraction,
        variability=var,
    )
    return report, Transform(Variant.DOL_EBWT, lsym, c.k, c.total_length)


def interesting_intervals(c: Collection) -> IntervalReport:
    c.require_valid()
    return _interval_scan(c)[0]


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
