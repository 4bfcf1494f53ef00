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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from ._fmt import fmt
from .collection import Collection
from .errors import ValidationError
from .intervals import SEP_SYMBOL, IntervalReport, _interval_scan
from .permutations import Perm
from .transforms import Transform, Variant, colex_bwt, from_text, mdol_bwt, to_text


@dataclass(frozen=True)
class RunStats:
    r: int
    n: int
    mean_run_length: Decimal
    rle: tuple[tuple[str, int], ...]


def _display_text(t) -> str:
    if isinstance(t, Transform):
        return to_text(t)
    if isinstance(t, bytes):
        return t.decode("latin-1")
    if isinstance(t, str):
        return t
    raise ValidationError(f"cannot count runs of {type(t).__name__}")


def count_runs(t) -> RunStats:
    """Maximal equal-symbol segmentation. Accepts a Transform or plain
    text; all separators count as one symbol class."""
    text = _display_text(t)
    if not text:
        raise ValidationError("empty transform has no runs")
    rle: list[tuple[str, int]] = []
    prev = text[0]
    length = 0
    for ch in text:
        if ch == prev:
            length += 1
        else:
            rle.append((prev, length))
            prev = ch
            length = 1
    rle.append((prev, length))
    n = len(text)
    r = len(rle)
    return RunStats(r, n, Decimal(fmt(Fraction(n, r), 3)), tuple(rle))


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


def _realize(c: Collection, chosen: dict[bytes, str]) -> Perm:
    """Build one input order realizing every chosen interval arrangement.

    Strings sharing a suffix are grouped; where the group's preceding
    symbols split, the chosen arrangement dictates the block order and
    each symbol class is ordered on the one-symbol-longer suffix. A pair
    of distinct strings always splits at its longest common suffix, so
    the order is fully determined (duplicates stay in input order).
    Splits nest as deep as the longest shared suffix, so they are kept
    on an explicit stack rather than the call stack.
    """
    seqs = c.seqs()

    def sym_of(idx: int, wlen: int) -> str:
        s = seqs[idx]
        return SEP_SYMBOL if len(s) == wlen else chr(s[-(wlen + 1)])

    def descend(members: list[int], wlen: int):
        """Lengthen the suffix while the group has one preceding symbol.
        Returns (order, None, wlen) for a finished group, or
        (None, classes, wlen) where the preceding symbols split."""
        while len(members) > 1:
            classes: dict[str, list[int]] = {}
            for m in members:
                classes.setdefault(sym_of(m, wlen), []).append(m)
            if len(classes) > 1:
                return None, classes, wlen
            if SEP_SYMBOL in classes:
                return sorted(members), None, wlen
            wlen += 1
        return members, None, wlen

    # per open split: [arrangement, ordered classes, classes left to
    # order, suffix length, symbol of the class being ordered]
    stack: list[list] = []
    order, classes, wlen = descend(list(range(len(seqs))), 0)
    while True:
        if classes is not None:
            sample = seqs[next(iter(classes.values()))[0]]
            suffix = sample[len(sample) - wlen:] if wlen else b""
            stack.append([chosen[suffix], {}, list(classes.items()), wlen, None])
        while stack:
            frame = stack[-1]
            arrangement, ordered, pending, split_wlen, sym = frame
            if order is not None:
                ordered[sym] = order
            if pending:
                # a class has one preceding symbol, so descend orders it
                # on the longer suffix (or sorts it if that is a separator)
                frame[4], group = pending.pop()
                order, classes, wlen = descend(group, split_wlen)
                break
            stack.pop()
            taken = dict.fromkeys(ordered, 0)
            order = []
            for a in arrangement:
                order.append(ordered[a][taken[a]])
                taken[a] += 1
        else:
            return Perm(tuple(i + 1 for i in order))


def optimal_order(c: Collection) -> OptimalOrderResult:
    """Input order minimizing runs of the multidollar transform, with the
    minimum itself and the chosen per-interval arrangements. The result
    is re-checked against an actual build of the reordered transform."""
    c.require_valid()
    return _optimal_order(c, *_quiet_scan(c))


def _quiet_scan(c: Collection) -> tuple[IntervalReport, Transform]:
    with warnings.catch_warnings():
        # the zero-variability convention is irrelevant here
        warnings.simplefilter("ignore")
        return _interval_scan(c)


def _optimal_order(
    c: Collection, report: IntervalReport, dol: Transform
) -> OptimalOrderResult:
    """``optimal_order`` from an interval scan's report and dol_ebwt,
    which is the template every order shares outside the intervals."""
    if not report.intervals:
        # all orders give the same transform
        return OptimalOrderResult(Perm.identity(c.k), count_runs(dol).r, ())
    template = to_text(dol)
    n = len(template)
    intervals = sorted(report.intervals, key=lambda iv: iv.b)
    inside = bytearray(n + 2)
    for iv in intervals:
        for p in range(iv.b, iv.e + 1):
            inside[p] = 1
    transitions = 0
    for p in range(1, n):
        if not inside[p] and not inside[p + 1] and template[p - 1] != template[p]:
            transitions += 1
    chains: list[list] = [[intervals[0]]]
    for iv in intervals[1:]:
        if iv.b == chains[-1][-1].e + 1:
            chains[-1].append(iv)
        else:
            chains.append([iv])
    chosen: dict[bytes, str] = {}
    for chain in chains:
        left = template[chain[0].b - 2] if chain[0].b > 1 else None
        right = template[chain[-1].e] if chain[-1].e < n else None
        cost, picks = _solve_chain(chain, left, right)
        transitions += cost
        for iv, (f, l) in zip(chain, picks):
            chosen[iv.shared_suffix] = _expand_arrangement(iv.parikh, f, l)
    r_opt = transitions + 1
    perm = _realize(c, chosen)
    rebuilt = count_runs(mdol_bwt(c.reordered([v - 1 for v in perm.mapping]))).r
    if rebuilt != r_opt:
        raise RuntimeError(
            f"optimal order self-check failed: planned {r_opt} runs, built {rebuilt}"
        )
    return OptimalOrderResult(
        perm,
        r_opt,
        tuple((iv.b, iv.e, chosen[iv.shared_suffix]) for iv in intervals),
    )


def colex_gap(c: Collection) -> tuple[int, int, int, bool]:
    """(runs of colex transform, r_opt, interval count, bound holds):
    colex can exceed the optimum by at most two runs per interval."""
    runs_colex = count_runs(colex_bwt(c)).r
    report, dol = _quiet_scan(c)
    opt = _optimal_order(c, report, dol)
    c_m = report.count_intervals
    return runs_colex, opt.r_opt, c_m, runs_colex <= opt.r_opt + 2 * c_m
