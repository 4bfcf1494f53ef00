"""Run counting, RLE, and the run-minimizing input order.

The number of runs of a separator-based transform depends on the input
order only through the symbol arrangement inside each interesting
interval; everything outside is a fixed template shared by every order.
Inside an interval any arrangement of its symbol multiset is achievable,
and arrangements of different intervals are achievable simultaneously,
because co-members of a deeper interval all carry the same symbol in the
shallower one. Minimizing runs therefore reduces to choosing, per
interval, one block per symbol and the first/last block symbols, with a
small dynamic program tying together chains of rank-adjacent intervals.

The chosen arrangements are realized by one stable sort of the strings
on byte keys, one byte per interval a string belongs to (the block of
the arrangement its preceding symbol falls in). Building the keys is
linear in the total interval length, at most N + k bytes; the sort then
compares k keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from ._fmt import fmt
from .collection import Collection
from .errors import ValidationError
from .intervals import IntervalReport, derive_transform, interesting_intervals
from .permutations import Perm
from .transforms import DISPLAY, Transform, Variant, from_text, mdol_bwt


@dataclass(frozen=True)
class RunStats:
    r: int
    n: int
    mean_run_length: Decimal
    _display: bytes = field(repr=False)  # the counted text, one byte per symbol

    @cached_property
    def rle(self) -> tuple[tuple[str, int], ...]:
        """(symbol, run length) per run, in display characters."""
        return tuple((chr(sym), len(list(run))) for sym, run in groupby(self._display))


def _display_bytes(t) -> bytes:
    if isinstance(t, Transform):
        return t.symbols.translate(DISPLAY)
    if isinstance(t, bytes):
        return t
    if isinstance(t, str):
        # every transform text is latin-1
        try:
            return t.encode("latin-1")
        except UnicodeEncodeError:
            raise ValidationError("cannot count runs of non-latin-1 text") from None
    raise ValidationError(f"cannot count runs of {type(t).__name__}")


# byte -> 1 if it is non-zero
_NONZERO = bytes(1) + b"\x01" * 255


def _changes(symbols: bytes) -> bytes:
    """One byte per pair of adjacent symbols, 1 where they differ: one
    big-integer XOR of the symbols and their shift."""
    return (
        int.from_bytes(symbols[:-1], "big") ^ int.from_bytes(symbols[1:], "big")
    ).to_bytes(len(symbols) - 1, "big").translate(_NONZERO)


def count_runs(t) -> RunStats:
    """Maximal equal-symbol segmentation. Accepts a Transform, bytes or
    latin-1 text; all separators count as one symbol class. The
    run-length encoding ``rle`` is built when first read."""
    display = _display_bytes(t)
    if not display:
        raise ValidationError("empty transform has no runs")
    n = len(display)
    r = _changes(display).count(1) + 1
    return RunStats(r, n, Decimal(fmt(Fraction(n, r), 3)), display)


def rle_encode(t) -> RunStats:
    return count_runs(t)


def rle_decode(rle, variant: Variant) -> Transform:
    pairs = list(rle)
    if not pairs:
        raise ValidationError("empty run-length encoding")
    prev = None
    chunks = []
    for sym, length in pairs:
        if not isinstance(length, int) or length < 1:
            raise ValidationError(f"run length must be a positive integer: {length!r}")
        if len(sym) != 1:
            raise ValidationError(f"run symbol must be a single character: {sym!r}")
        if sym == prev:
            raise ValidationError("adjacent runs must have different symbols")
        chunks.append(sym * length)
        prev = sym
    return from_text("".join(chunks), variant)


def rle_text(stats: RunStats) -> str:
    return "".join(f"{sym}\t{length}\n" for sym, length in stats.rle)


@dataclass(frozen=True)
class OptimalOrderResult:
    permutation: Perm
    r_opt: int
    arrangements: tuple[tuple[int, int, str], ...]  # (b, e, symbol sequence)
    intervals: IntervalReport = field(repr=False, compare=False)  # the scan planned on


def _solve_chain(chain, left, right):
    """Minimum transition count across a maximal block of rank-adjacent
    intervals, including the edges toward the fixed neighbor symbols
    (None at the ends of the transform). Returns (cost, per-interval
    (first, last) symbol picks)."""
    dp = {left: (0, ())}
    for iv in chain:
        syms = sorted(iv.parikh)
        d = len(syms)
        ndp = {}
        for state, (cost, picks) in dp.items():
            for f in syms:
                for l in syms:
                    if (f == l) != (d == 1):
                        continue
                    edge = 0 if state is None or f == state else 1
                    cand = (cost + d - 1 + edge, picks + ((f, l),))
                    old = ndp.get(l)
                    if old is None or cand < old:
                        ndp[l] = cand
        dp = ndp
    best = None
    for state, (cost, picks) in dp.items():
        edge = 0 if right is None or state == right else 1
        cand = (cost + edge, picks)
        if best is None or cand < best:
            best = cand
    return best


def _expand_arrangement(parikh, first, last):
    syms = sorted(parikh)
    if first == last:
        return first * parikh[first]
    middle = "".join(s * parikh[s] for s in syms if s not in (first, last))
    return first * parikh[first] + middle + last * parikh[last]


def _realize(k: int, intervals, chosen: dict[int, str], display: bytes) -> Perm:
    """One input order realizing every chosen interval arrangement.

    Each string gets a key of one byte per interval it belongs to, taken
    shallowest shared suffix first: the block of the arrangement that its
    preceding symbol falls in, read off the interval's rows of
    ``display`` (the template's display bytes) with one table lookup. Two
    distinct strings have equal bytes on every interval shallower than
    their longest common suffix and differ on its interval, where their
    preceding symbols differ ('$' for a string that ends there); so
    sorting by key lists every interval's members block by block, as
    chosen. Equal strings get equal keys and the sort is stable, so they
    stay in input order. The keys hold one byte per interval row, at most
    N + k in all.
    """
    keys = [bytearray() for _ in range(k + 1)]
    for iv in sorted(intervals, key=attrgetter("suffix_length")):
        table = bytearray(256)
        # one block per distinct symbol, so an index fits in a byte
        for block, sym in enumerate(dict.fromkeys(chosen[iv.b])):
            table[ord(sym)] = block
        blocks = display[iv.b - 1 : iv.e].translate(table)
        for m, block in zip(iv.members, blocks):
            keys[m].append(block)
    return Perm(tuple(sorted(range(1, k + 1), key=keys.__getitem__)))


def optimal_order(c: Collection) -> OptimalOrderResult:
    """Input order minimizing runs of the multidollar transform, with the
    minimum itself and the chosen per-interval arrangements.

    The interval scan's dol_ebwt is the template every order shares
    outside the intervals; the transitions between its rows there are
    counted over whole buffers, one byte per row. Each chain of
    rank-adjacent intervals then gets its arrangements from
    ``_solve_chain``, ``_realize`` turns them into an input order, and
    a build of the reordered mdol_bwt must reach the planned count."""
    report = interesting_intervals(c)
    dol = report.template
    if not report.intervals:
        # all orders give the same transform
        return OptimalOrderResult(Perm.identity(c.k), count_runs(dol).r, (), report)
    display = dol.symbols.translate(DISPLAY)
    n = len(display)
    intervals = report.intervals
    # outside holds one 0/1 byte per row and _changes one per pair of
    # adjacent rows, so their big-integer AND marks the transitions
    # between rows that both lie outside the intervals
    outside = bytearray(b"\x01") * n
    for iv in intervals:
        outside[iv.b - 1 : iv.e] = bytes(iv.length)
    transitions = (
        int.from_bytes(outside[:-1], "big")
        & int.from_bytes(outside[1:], "big")
        & int.from_bytes(_changes(display), "big")
    ).bit_count()
    chains: list[list] = [[intervals[0]]]
    for iv in intervals[1:]:
        if iv.b == chains[-1][-1].e + 1:
            chains[-1].append(iv)
        else:
            chains.append([iv])
    chosen: dict[int, str] = {}  # interval start -> arrangement
    for chain in chains:
        left = chr(display[chain[0].b - 2]) if chain[0].b > 1 else None
        right = chr(display[chain[-1].e]) if chain[-1].e < n else None
        cost, picks = _solve_chain(chain, left, right)
        transitions += cost
        for iv, (f, l) in zip(chain, picks):
            chosen[iv.b] = _expand_arrangement(iv.parikh, f, l)
    r_opt = transitions + 1
    perm = _realize(c.k, intervals, chosen, display)
    rebuilt = count_runs(mdol_bwt(c.reordered([v - 1 for v in perm.mapping]))).r
    if rebuilt != r_opt:
        raise RuntimeError(
            f"optimal order self-check failed: planned {r_opt} runs, built {rebuilt}"
        )
    return OptimalOrderResult(
        perm,
        r_opt,
        tuple((iv.b, iv.e, chosen[iv.b]) for iv in intervals),
        report,
    )


def colex_gap(c: Collection) -> tuple[int, int, int, bool]:
    """(runs of colex transform, r_opt, interval count, bound holds):
    colex can exceed the optimum by at most two runs per interval."""
    opt = optimal_order(c)
    runs_colex = count_runs(derive_transform(opt.intervals, Variant.COLEX_BWT, c)).r
    c_m = opt.intervals.count_intervals
    return runs_colex, opt.r_opt, c_m, runs_colex <= opt.r_opt + 2 * c_m
