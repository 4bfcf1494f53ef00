"""Interesting intervals and the variability statistic."""

import random
import sys
import warnings
from array import array
from fractions import Fraction

import pytest

from bwtvariants import (
    GenSpec,
    GuardError,
    TransformError,
    ValidationError,
    Variant,
    _fallback,
    analyze,
    brute_force_interval_max_runs,
    derive_transform,
    from_seqs,
    generate,
    hamming,
    hamming_upper_bound,
    interesting_intervals,
    max_runs_bound,
    variability,
)
from bwtvariants import transforms
from bwtvariants.intervals import _rotation_scan
from bwtvariants.oracle import naive_rotation_sort
from bwtvariants.ordering import lex_order


def test_toy_intervals_exact(toy):
    rep = interesting_intervals(toy)
    got = [(iv.b, iv.e, iv.shared_suffix, iv.parikh, iv.members) for iv in rep.intervals]
    assert got == [
        (1, 5, b"", {"A": 3, "G": 2}, (3, 1, 4, 5, 2)),
        (6, 8, b"A", {"C": 1, "G": 2}, (4, 5, 2)),
        (15, 16, b"G", {"C": 1, "T": 1}, (3, 1)),
        (17, 18, b"GA", {"G": 1, "T": 1}, (5, 2)),
    ]
    assert rep.count_intervals == 4
    assert rep.total_interval_length == 12
    assert rep.fraction_positions == Fraction(12, 23)
    assert rep.fraction_text() == "0.522"
    assert rep.variability == 1
    assert rep.variability_text() == "1.000"


def test_toy_interval_tsv(toy):
    tsv = interesting_intervals(toy).to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "b\te\tlength\tsuffix\tparikh"
    assert lines[1] == "1\t5\t5\t(empty)\tA:3,G:2"
    assert lines[4] == "17\t18\t2\tGA\tG:1,T:1"


def naive_interval_facts(seqs):
    """(suffix, parikh, member multiset) triples from the definition: a
    shared suffix with at least two occurrences whose preceding symbols
    are not all equal; a whole string is preceded by its separator."""
    cands = {b""}
    for s in seqs:
        cands.update(s[i:] for i in range(len(s)))
    facts = []
    for u in sorted(cands):
        members = [i + 1 for i, s in enumerate(seqs) if s.endswith(u)]
        if len(members) < 2:
            continue
        parikh: dict[str, int] = {}
        for m in members:
            s = seqs[m - 1]
            sym = "$" if len(s) == len(u) else chr(s[len(s) - len(u) - 1])
            parikh[sym] = parikh.get(sym, 0) + 1
        if len(parikh) >= 2:
            facts.append((u, parikh, sorted(members)))
    return sorted(facts)


def test_intervals_match_definition(corpus):
    for c in corpus[:60]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = interesting_intervals(c)
        got = sorted(
            (iv.shared_suffix, iv.parikh, sorted(iv.members)) for iv in rep.intervals
        )
        assert got == naive_interval_facts(c.seqs())
        for iv in rep.intervals:
            assert iv.length == len(iv.members) == sum(iv.parikh.values())


def test_interval_coordinates_point_into_rotation_order(toy):
    matrix, _ = naive_rotation_sort(Variant.DOL_EBWT, toy)
    rep = interesting_intervals(toy)
    for iv in rep.intervals:
        want_prefix = iv.shared_suffix.decode("latin-1") + "$"
        for r in range(iv.b, iv.e + 1):
            assert matrix.rows[r - 1][1].startswith(want_prefix)
        # rows adjacent to the interval do not share the prefix
        if iv.b > 1:
            assert not matrix.rows[iv.b - 2][1].startswith(want_prefix)
        if iv.e < len(matrix.rows):
            assert not matrix.rows[iv.e][1].startswith(want_prefix)


def test_intervals_are_disjoint_and_ordered(corpus):
    for c in corpus[:60]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = interesting_intervals(c)
        prev_end = 0
        for iv in rep.intervals:
            assert iv.b > prev_end
            assert iv.e >= iv.b + 1  # at least two rows
            prev_end = iv.e
            assert iv.e <= c.total_length + c.k


def test_max_runs_bound_examples():
    assert max_runs_bound({"A": 3, "B": 1}) == 3
    assert max_runs_bound({"A": 2, "B": 2}) == 4
    assert max_runs_bound({"A": 1}) == 1
    assert max_runs_bound({"A": 5, "B": 1, "C": 1}) == 5
    assert max_runs_bound({"A": 1, "B": 1, "C": 1}) == 3
    with pytest.raises(ValidationError):
        max_runs_bound({})
    with pytest.raises(ValidationError):
        max_runs_bound({"A": 0})


def test_max_runs_bound_is_exact():
    cases = [
        {"A": 1},
        {"A": 4},
        {"A": 2, "B": 2},
        {"A": 3, "B": 1},
        {"A": 5, "B": 2},
        {"A": 4, "B": 3, "C": 1},
        {"A": 2, "B": 2, "C": 2},
        {"A": 6, "B": 1, "C": 1},
        {"A": 3, "B": 3, "C": 3},
    ]
    for parikh in cases:
        assert max_runs_bound(parikh) == brute_force_interval_max_runs(parikh)
    with pytest.raises(GuardError):
        brute_force_interval_max_runs({"A": 50})


def test_variability_zero_warns():
    from bwtvariants import analyze, colex_gap, optimal_order

    c = from_seqs([b"ACG"])
    with pytest.warns(UserWarning, match="variability is 0"):
        assert variability(c) == 0
    with pytest.warns(UserWarning, match="variability is 0"):
        assert analyze(c).dataset["variability"] == "0.000"
    # only reading the variability warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = interesting_intervals(c)
        assert optimal_order(c).intervals == rep
        assert colex_gap(c)[2] == 0
    assert rep.count_intervals == 0
    assert rep.fraction_positions == 0
    assert rep.fraction_text() == "0.000"


def test_variability_is_a_fraction_in_unit_interval(corpus):
    for c in corpus[:40]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = variability(c)
        assert 0 <= v <= 1
        assert isinstance(v, Fraction)


def test_hamming_upper_bound_dominates_pairwise_distances(corpus):
    from bwtvariants import build, normalize_conc

    sep_variants = (
        Variant.DOL_EBWT,
        Variant.MDOL_BWT,
        Variant.CONC_BWT,
        Variant.COLEX_BWT,
    )
    for c in corpus[:30]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bound = hamming_upper_bound(c)
        ts = []
        for v in sep_variants:
            t = build(v, c)
            ts.append(normalize_conc(t) if v is Variant.CONC_BWT else t)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                assert hamming(ts[i], ts[j]) <= bound


def test_two_sort_mask_equals_shared_suffix_mask(native, monkeypatch, shaped_corpus):
    cols = shaped_corpus
    shapes = {"duplicate": 0, "proper suffix": 0, "non-primitive": 0, "one letter": 0}
    for seqs in cols:
        shapes["duplicate"] += len(set(seqs)) < len(seqs)
        shapes["proper suffix"] += any(
            s != t and t.endswith(s) for s in seqs for t in seqs
        )
        shapes["non-primitive"] += any(s in (s + s)[1:-1] for s in seqs)
        shapes["one letter"] += len(set(b"".join(seqs))) == 1
    assert min(shapes.values()) >= 50, shapes

    def check(seqs):
        _, _, sa, _, mask = _rotation_scan(seqs)
        # the scan's positions are in the text of the lex-ordered strings;
        # ulen is the length of the string suffix each position starts
        laid = [seqs[i] for i in lex_order(seqs)]
        text = transforms._separator_text(laid)
        ulen = array("i", (u for s in laid for u in range(len(s), -1, -1)))
        assert mask == _fallback.shared_suffix_mask(text, sa, ulen), seqs
        assert mask == native.shared_suffix_mask(text, sa, ulen), seqs

    for seqs in cols:
        check(seqs)
    # the same two sorts run by the compiled suffix-array kernel
    monkeypatch.setattr(transforms, "suffix_array", native.suffix_array)
    for seqs in cols:
        check(seqs)


def test_intervals_and_analyze_do_not_use_shared_suffix_mask(toy, monkeypatch):
    want_intervals = interesting_intervals(toy)
    want_report = analyze(toy).to_json()

    def refuse(*args):
        raise AssertionError("shared_suffix_mask was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("bwtvariants") and hasattr(module, "shared_suffix_mask"):
            monkeypatch.setattr(module, "shared_suffix_mask", refuse)
    assert interesting_intervals(toy) == want_intervals
    assert analyze(toy).to_json() == want_report


def _multisets():
    """Random collections holding a duplicate, a square and a proper
    suffix of one of their strings, in shuffled order, plus larger
    shared-suffix collections whose k exceeds a byte."""
    rng = random.Random(20261021)
    for _ in range(300):
        alpha = rng.choice([b"A", b"AB", b"ACGT"])
        seqs = [
            bytes(rng.choice(alpha) for _ in range(rng.randint(1, 9)))
            for _ in range(rng.randint(1, 6))
        ]
        s = rng.choice(seqs)
        seqs += [s, s * 2] + ([s[1:]] if len(s) > 1 else [])
        rng.shuffle(seqs)
        yield from_seqs(seqs)
    for seed in range(3):
        yield generate(GenSpec(seed, 400, (5, 30), b"AC", 0.05, 0.8))


def test_derived_transforms_equal_the_builders(shaped_corpus):
    """mdol_bwt, colex_bwt and normalized conc_bwt read off the interval
    scan are the builders' bytes, on multisets too."""
    derived = [Variant.DOL_EBWT, Variant.MDOL_BWT, Variant.CONC_BWT, Variant.COLEX_BWT]
    cols = [from_seqs(seqs) for seqs in shaped_corpus]
    cols += _multisets()
    for c in cols:
        rep = interesting_intervals(c)
        for v in derived:
            assert derive_transform(rep, v, c) == transforms.build_normalized(v, c), (v, c.seqs())


def test_derive_transform_refuses_what_it_cannot_read(toy):
    rep = interesting_intervals(toy)
    with pytest.raises(TransformError, match="not separator-based"):
        derive_transform(rep, Variant.EBWT, toy)
    with pytest.raises(ValidationError, match="not of this collection"):
        derive_transform(rep, Variant.MDOL_BWT, from_seqs([b"AC", b"C"]))
