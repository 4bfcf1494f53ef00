"""Tests for the combined analyze() report and its serializations."""

import json
import pathlib
import sys
from collections import Counter

import pytest

from bwtvariants import (
    ValidationError,
    analyze,
    dol_ebwt,
    from_seqs,
    interesting_intervals,
    optimal_order,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_toy_report_matches_golden_bytes(toy):
    golden = (DATA / "toy_report.json").read_text()
    assert analyze(toy).to_json() == golden


def test_analyze_is_deterministic(toy):
    assert analyze(toy).to_json() == analyze(toy).to_json()


def test_toy_dataset_properties(toy):
    d = analyze(toy).to_json_obj()["datasetProperties"]
    assert d == {
        "k": 5,
        "totalLength": 18,
        "avgLength": 4,  # 18/5 = 3.6 rounds half-up to 4
        "maxLength": 5,
        "minLength": 3,
        "intervalCount": 4,
        "totalIntervalLength": 12,
        "fractionInIntervals": "0.522",
        "variability": "1.000",
    }


def test_toy_runs_table(toy):
    table = analyze(toy).to_json_obj()["runsTable"]
    assert set(table) == {
        "ebwt", "dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt", "optimal",
    }
    assert table["ebwt"] == {"r": 11, "n": 18, "meanRunLength": "1.636"}
    assert table["mdol_bwt"] == {"r": 17, "n": 23, "meanRunLength": "1.353"}
    assert table["conc_bwt"]["r"] == 15  # normalized, not raw
    assert table["conc_bwt"]["n"] == 23
    assert table["optimal"] == {
        "r": 12,
        "n": 23,
        "meanRunLength": "1.917",
        "permutation": "25431",
    }


def test_toy_permutation_profile_strings(toy):
    p = analyze(toy).to_json_obj()["permutationProfile"]
    assert p == {
        "rho": "25134",
        "piDe": "31452",
        "piMd": "25134",
        "piConc": "45132",
        "gamma": "34512",
    }


def test_toy_hamming_matrix_in_report(toy):
    m = analyze(toy).to_json_obj()["hammingMatrix"]
    assert m["labels"] == ["dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt"]
    assert m["absolute"][0] == [0, 8, 6, 4]
    assert m["normalized"][1][3] == "0.43478"


def test_edit_matrix_absent_by_default(toy):
    rep = analyze(toy)
    assert rep.edit is None
    assert rep.to_json_obj()["editMatrix"] is None


def test_edit_subset_caps_collection(toy):
    rep = analyze(toy, edit_subset=2)
    m = rep.edit
    assert m is not None
    assert m.labels == ("ebwt", "dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt")
    # matrix is over the first two strings only: n = 5+3(+2) symbols
    sub = analyze(from_seqs([b"ATATG", b"TGA"]), edit_subset=2)
    assert sub.edit.absolute == m.absolute
    # subset >= k behaves like the whole collection
    full = analyze(toy, edit_subset=99)
    direct = analyze(toy, edit_subset=5)
    assert full.edit.absolute == direct.edit.absolute


def test_edit_subset_validation(toy):
    with pytest.raises(ValidationError):
        analyze(toy, edit_subset=0)


def test_avg_length_rounds_half_up():
    d = analyze(from_seqs([b"AAAA", b"GGG"])).to_json_obj()
    assert d["datasetProperties"]["avgLength"] == 4  # 3.5 -> 4
    d = analyze(from_seqs([b"AA", b"GGG"])).to_json_obj()
    assert d["datasetProperties"]["avgLength"] == 3  # 2.5 -> 3


def test_optimal_row_length_is_total_plus_k(corpus):
    for c in corpus[:20]:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            row = analyze(c).to_json_obj()["runsTable"]["optimal"]
        assert row["n"] == c.total_length + c.k


def test_json_round_trips_through_loads(toy):
    obj = json.loads(analyze(toy).to_json())
    assert obj["datasetProperties"]["k"] == 5
    assert isinstance(obj["datasetProperties"]["fractionInIntervals"], str)


def test_tsv_sections(toy):
    text = analyze(toy, edit_subset=3).to_tsv()
    lines = text.splitlines()
    assert lines[0] == "k\t5"
    assert "variant\tr\tn\tmeanRunLength" in lines
    assert "mdol_bwt\t17\t23\t1.353" in lines
    assert "rho\t25134" in lines
    assert "gamma\t34512" in lines
    # both distance blocks present when edit_subset was given
    assert sum(1 for ln in lines if ln.startswith("hamming\t")) == 1
    assert sum(1 for ln in lines if ln.startswith("edit\t")) == 1
    assert text.endswith("\n")


KERNELS = ("suffix_array", "conjugate_sort", "shared_suffix_mask", "hamming", "edit_distance")


def _counting(monkeypatch, impl, counts):
    """Point every bwtvariants module global at ``impl``'s kernels and
    wrap the kernels and both analyses with call counters."""
    from bwtvariants import intervals, kernels, runs

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {name: getattr(kernels, name) for name in KERNELS}
    originals["interesting_intervals"] = intervals.interesting_intervals
    originals["optimal_order"] = runs.optimal_order
    wrappers = {name: counted(name, getattr(impl, name, fn)) for name, fn in originals.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("bwtvariants") and not mod_name.endswith(("_fallback", "_native")):
            for name, fn in originals.items():
                # distances.hamming is a public function of the same name
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, wrappers[name])


def test_analyze_reaches_intervals_and_optimal_order_once(toy, native, monkeypatch):
    from bwtvariants import _fallback

    golden = (DATA / "toy_report.json").read_text()
    for impl in (_fallback, native):
        counts = Counter()
        with monkeypatch.context() as m:
            _counting(m, impl, counts)
            assert analyze(toy).to_json() == golden
        assert counts["interesting_intervals"] == 1, impl.BACKEND
        assert counts["optimal_order"] == 1, impl.BACKEND
        assert counts["suffix_array"] == 8, impl.BACKEND


def test_scan_results_travel_in_the_reports(toy):
    rep = interesting_intervals(toy)
    assert rep.template == dol_ebwt(toy)
    opt = optimal_order(toy)
    assert opt.intervals == rep
    assert opt.intervals.template == dol_ebwt(toy)
    # both are left out of repr and equality
    assert "template" not in repr(rep) and "intervals=" not in repr(opt)

