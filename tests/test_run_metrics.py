"""Run counts, run-length encoding, and the run-minimizing input order."""

import inspect
import sys
from decimal import Decimal
from itertools import permutations

import pytest

from bwtvariants import (
    ValidationError,
    Variant,
    brute_force_optimal_runs,
    build,
    colex_bwt,
    colex_gap,
    conc_bwt,
    count_runs,
    from_seqs,
    from_text,
    is_feasible,
    gamma,
    mdol_bwt,
    normalize_conc,
    optimal_order,
    rle_decode,
    rle_encode,
    rle_text,
    to_text,
)

TOY_RUNS = {
    Variant.EBWT: 11,
    Variant.DOL_EBWT: 14,
    Variant.MDOL_BWT: 17,
    Variant.CONC_BWT: 15,
    Variant.COLEX_BWT: 14,
}


def test_toy_run_counts(toy):
    for variant, want in TOY_RUNS.items():
        t = build(variant, toy)
        if variant is Variant.CONC_BWT:
            t = normalize_conc(t)
        assert count_runs(t).r == want, variant


def test_run_stats_fields(toy):
    s = count_runs(mdol_bwt(toy))
    assert (s.r, s.n) == (17, 23)
    assert s.mean_run_length == Decimal("1.353")
    assert s.rle[:4] == (("G", 1), ("A", 1), ("G", 1), ("A", 2))
    assert sum(c for _, c in s.rle) == s.n
    assert len(s.rle) == s.r


def test_distinct_dollars_count_as_one_symbol(toy):
    # the three adjacent separators in the toy transform form one run
    s = count_runs(mdol_bwt(toy))
    assert ("$", 3) in s.rle


def test_count_runs_on_plain_text():
    assert count_runs("nnbaaa").r == 3
    assert count_runs(b"AAACCC").r == 2
    assert count_runs("A").r == 1


def test_rle_roundtrip(corpus):
    for c in corpus[:40]:
        t = mdol_bwt(c)
        stats = rle_encode(t)
        back = rle_decode(stats.rle, Variant.MDOL_BWT)
        assert back.symbols == t.symbols


def test_rle_text_format(toy):
    text = rle_text(rle_encode(mdol_bwt(toy)))
    lines = text.splitlines()
    assert len(lines) == 17
    assert lines[0] == "G\t1"
    assert lines[3] == "A\t2"


def test_rle_decode_validation():
    with pytest.raises(ValidationError):
        rle_decode((("A", 0),), Variant.MDOL_BWT)
    with pytest.raises(ValidationError):
        rle_decode((("AB", 2),), Variant.MDOL_BWT)
    with pytest.raises(ValidationError):
        rle_decode((("A", 1), ("A", 2)), Variant.MDOL_BWT)  # adjacent equal


def test_toy_optimal_order(toy):
    res = optimal_order(toy)
    assert res.permutation.one_line() == "25431"
    assert res.r_opt == 12
    assert res.arrangements == (
        (1, 5, "AAAGG"),
        (6, 8, "GGC"),
        (15, 16, "CT"),
        (17, 18, "TG"),
    )
    reordered = toy.reordered([i - 1 for i in res.permutation.mapping])
    t = mdol_bwt(reordered)
    assert to_text(t) == "AAAGGGGC$$$TTACTTG$AAA$"
    assert count_runs(t).r == 12


def test_optimal_matches_brute_force(corpus):
    small = [c for c in corpus if c.k <= 5 and c.total_length <= 40][:40]
    assert len(small) >= 20
    for c in small:
        res = optimal_order(c)
        brute_r, _ = brute_force_optimal_runs(c)
        assert res.r_opt == brute_r, c.seqs()


def test_optimal_order_reordering_reaches_r_opt(corpus):
    for c in corpus[:40]:
        res = optimal_order(c)
        reordered = c.reordered([i - 1 for i in res.permutation.mapping])
        assert count_runs(mdol_bwt(reordered)).r == res.r_opt


def test_optimal_no_worse_than_any_separator_variant(toy, eight):
    for c in (toy, eight):
        res = optimal_order(c)
        for variant in (Variant.DOL_EBWT, Variant.MDOL_BWT, Variant.COLEX_BWT):
            assert res.r_opt <= count_runs(build(variant, c)).r
        assert res.r_opt <= count_runs(normalize_conc(conc_bwt(c))).r


def test_single_string_optimal():
    c = from_seqs([b"GATTACA"])
    res = optimal_order(c)
    assert res.permutation.one_line() == "1"
    assert res.r_opt == count_runs(mdol_bwt(c)).r


def test_colex_gap_toy(toy):
    runs_colex, r_opt, c_m, within = colex_gap(toy)
    assert (runs_colex, r_opt, c_m) == (14, 12, 4)
    assert within is True
    assert runs_colex <= r_opt + 2 * c_m


def test_colex_gap_bound_holds(corpus):
    import warnings

    for c in corpus[:50]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs_colex, r_opt, c_m, within = colex_gap(c)
        assert within
        assert runs_colex <= r_opt + 2 * c_m


def test_eight_string_runs(eight):
    assert count_runs(mdol_bwt(eight)).r == 28
    assert count_runs(colex_bwt(eight)).r == 18
    res = optimal_order(eight)
    assert res.r_opt <= 18


def test_colex_can_beat_every_concatenation_order():
    # gamma = 213 is not a feasible dollar order for the concatenation
    # variant, so no input order lets it match the colex run count
    three = from_seqs([b"GAA", b"ACA", b"TGA"])
    assert count_runs(colex_bwt(three)).r == 7
    assert not is_feasible(gamma(three))[0]
    best_conc = min(
        count_runs(normalize_conc(conc_bwt(three.reordered(list(p))))).r
        for p in permutations(range(3))
    )
    assert best_conc == 8


def test_count_runs_accepts_transform_text(toy):
    text = to_text(build(Variant.DOL_EBWT, toy))
    assert count_runs(text).r == 14
    assert count_runs(from_text(text, Variant.DOL_EBWT)).r == 14


def test_optimal_order_under_a_recursion_limit_below_its_split_depth(monkeypatch):
    # the strings sharing A^j split off C A^j at every j: 300 nested splits
    c = from_seqs([b"C" + b"A" * i for i in range(1, 301)])
    want = optimal_order(c)
    set_limit = sys.setrecursionlimit
    old = sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError("optimal_order changed the recursion limit")

    set_limit(len(inspect.stack(0)) + 100)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        got = optimal_order(c)
    finally:
        set_limit(old)
    assert got == want
    assert len(got.arrangements) == 299
