"""End-to-end command-line behavior, including exit codes."""

import io
import json
import sys
from types import SimpleNamespace

import pytest

from bwtvariants import Variant, least_rotation
from bwtvariants.cli import main

TOY_FASTA = b">s1\nATATG\n>s2\nTGA\n>s3\nACG\n>s4\nATCA\n>s5\nGGA\n"
TOY_LINES = b"ATATG\nTGA\nACG\nATCA\nGGA\n"


@pytest.fixture
def toy_fa(tmp_path):
    p = tmp_path / "toy.fa"
    p.write_bytes(TOY_FASTA)
    return str(p)


def run(args, out_path):
    code = main(args + ["--out", str(out_path)])
    data = out_path.read_bytes() if out_path.exists() else b""
    return code, data


def test_transform_variants(toy_fa, tmp_path):
    out = tmp_path / "o.txt"
    for variant, want in [
        ("ebwt", b"CGGGATGTACGTTAAAAA\n"),
        ("dol_ebwt", b"GGAAACGG$$$TTACTGT$AAA$\n"),
        ("mdol", b"GAGAAGCG$$$TTATCTG$AAA$\n"),
        ("conc", b"AAGAGGGC$$$TTACTGT$AAA$\n"),
        ("colex", b"AAAGGCGG$$$TTACTGT$AAA$\n"),
    ]:
        code, data = run(["transform", toy_fa, "--variant", variant], out)
        assert code == 0
        assert data == want, variant


def test_transform_conc_raw(toy_fa, tmp_path):
    code, data = run(["transform", toy_fa, "--variant", "conc", "--raw"], tmp_path / "o")
    assert code == 0
    assert data == b"$AAGAGGGC$#$TTACTGT$AAA$\n"


def test_transform_stdout(toy_fa, capsysbinary):
    assert main(["transform", toy_fa, "--variant", "ebwt"]) == 0
    assert capsysbinary.readouterr().out == b"CGGGATGTACGTTAAAAA\n"


def test_transform_stdin_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", SimpleNamespace(buffer=io.BytesIO(TOY_LINES))
    )
    out = tmp_path / "o"
    code, data = run(["transform", "-", "--format", "lines", "--variant", "mdol"], out)
    assert code == 0
    assert data == b"GAGAAGCG$$$TTATCTG$AAA$\n"


def test_transform_rle(toy_fa, tmp_path):
    code, data = run(["transform", toy_fa, "--variant", "mdol", "--rle"], tmp_path / "o")
    assert code == 0
    lines = data.decode().splitlines()
    assert len(lines) == 17
    assert lines[0] == "G\t1"
    assert lines[4] == "G\t1"


def test_transform_order_flag(toy_fa, tmp_path):
    out = tmp_path / "o"
    code, data = run(["transform", toy_fa, "--variant", "mdol", "--order", "25431"], out)
    assert code == 0
    assert data == b"AAAGGGGC$$$TTACTTG$AAA$\n"
    code, data = run(["transform", toy_fa, "--variant", "mdol", "--order", "lex"], out)
    assert data == b"GGAAACGG$$$TTACTGT$AAA$\n"  # lex order turns mdol into dol_ebwt
    code, data = run(["transform", toy_fa, "--variant", "mdol", "--order", "colex"], out)
    assert data == b"AAAGGCGG$$$TTACTGT$AAA$\n"
    code, data = run(["transform", toy_fa, "--variant", "ebwt", "--order", "reverse"], out)
    assert data == b"CGGGATGTACGTTAAAAA\n"  # rotation variants ignore order


def test_order_length_mismatch_is_input_error(toy_fa, tmp_path, capsysbinary):
    code = main(["transform", toy_fa, "--variant", "mdol", "--order", "321"])
    assert code == 2
    assert b"length" in capsysbinary.readouterr().err


def test_usage_errors_exit_1(toy_fa, capsysbinary):
    assert main(["transform", toy_fa, "--variant", "nope"]) == 1
    assert b"unknown variant 'nope'; choose from ebwt, dol_ebwt" in capsysbinary.readouterr().err
    assert main(["transform", toy_fa]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    err = capsysbinary.readouterr().err
    assert b"usage" in err


def test_missing_file_exits_2(capsysbinary):
    assert main(["transform", "/definitely/not/here.fa", "--variant", "ebwt"]) == 2
    assert capsysbinary.readouterr().err != b""


def test_bad_fasta_exits_2(tmp_path, capsysbinary):
    p = tmp_path / "bad.fa"
    p.write_bytes(b"no header\n")
    assert main(["transform", str(p), "--variant", "ebwt"]) == 2
    p.write_bytes(b">x\nAC$G\n")
    assert main(["transform", str(p), "--variant", "ebwt"]) == 2
    capsysbinary.readouterr()


def test_oracle_flag_ok(toy_fa, tmp_path):
    code, data = run(["transform", toy_fa, "--variant", "colex", "--oracle"], tmp_path / "o")
    assert code == 0
    assert data == b"AAAGGCGG$$$TTACTGT$AAA$\n"


def test_oracle_mismatch_exits_3(toy_fa, monkeypatch, capsysbinary):
    import bwtvariants.cli as cli

    def broken(v, c, max_n=4000):
        return None, SimpleNamespace(symbols=b"wrong")

    monkeypatch.setattr(cli, "naive_rotation_sort", broken)
    assert main(["transform", toy_fa, "--variant", "mdol", "--oracle"]) == 3
    assert b"oracle mismatch" in capsysbinary.readouterr().err


def test_invert_round_trip(toy_fa, tmp_path):
    t_out = tmp_path / "t.txt"
    code, _ = run(["transform", toy_fa, "--variant", "mdol"], t_out)
    assert code == 0
    code, data = run(["invert", str(t_out), "--variant", "mdol", "--format", "lines"],
                     tmp_path / "inv")
    assert code == 0
    assert data == TOY_LINES


def test_invert_ebwt_cli(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"TCTGG\n")
    code, data = run(["invert", str(p), "--variant", "ebwt", "--format", "lines"],
                     tmp_path / "inv")
    assert code == 0
    assert data == b"CGT\nGT\n"


def test_invert_conc_order(toy_fa, tmp_path):
    t_out = tmp_path / "t.txt"
    for raw in ([], ["--raw"]):
        run(["transform", toy_fa, "--variant", "conc"] + raw, t_out)
        code, data = run(["invert", str(t_out), "--variant", "conc", "--format", "lines"],
                         tmp_path / "inv")
        assert code == 0, raw
        assert data == b"GGA\nTGA\nACG\nATCA\nATATG\n"


def test_invert_garbage_exits_2(tmp_path, capsysbinary):
    p = tmp_path / "t.txt"
    p.write_bytes(b"$AB$\n")
    assert main(["invert", str(p), "--variant", "mdol"]) == 2
    # the sentinels' own bytes are never part of a transform text
    for variant, text in (("mdol", b"GA$\x01C"), ("mdol", b"A\x01"), ("conc", b"A\x00$")):
        p.write_bytes(text + b"\n")
        capsysbinary.readouterr()
        assert main(["invert", str(p), "--variant", variant]) == 2, text
        assert b"raw sentinel byte" in capsysbinary.readouterr().err, text
    # a blank line after the transform is not read as symbols
    for variant, text in (("mdol", b"GAGAAGCG$$$TTATCTG$AAA$"), ("ebwt", b"CGGGATGTACGTTAAAAA")):
        p.write_bytes(text + b"\n\n")
        assert main(["invert", str(p), "--variant", variant]) == 2
    capsysbinary.readouterr()


def test_ebwt_inversion_walks_lf_once(tmp_path, monkeypatch):
    # from_text counts the cycles for k, and invert_ebwt reads the same ones
    from bwtvariants import transforms

    calls = []
    lf_table = transforms._lf_table
    monkeypatch.setattr(transforms, "_lf_table", lambda s: calls.append(s) or lf_table(s))
    transforms._lf_cycles.cache_clear()
    p = tmp_path / "t.txt"
    p.write_bytes(b"GTTCAGCA\n")
    code, data = run(["invert", str(p), "--variant", "ebwt", "--format", "lines"],
                     tmp_path / "inv")
    assert (code, data) == (0, b"AG\nATCCT\nG\n")
    assert len(calls) == 1


def test_analyze_json(toy_fa, tmp_path):
    code, data = run(["analyze", toy_fa], tmp_path / "r.json")
    assert code == 0
    rep = json.loads(data)
    props = rep["datasetProperties"]
    assert props["k"] == 5
    assert props["totalLength"] == 18
    assert props["intervalCount"] == 4
    assert props["fractionInIntervals"] == "0.522"
    assert props["variability"] == "1.000"
    assert rep["runsTable"]["mdol_bwt"]["r"] == 17
    assert rep["runsTable"]["optimal"]["permutation"] == "25431"
    assert rep["permutationProfile"]["rho"] == "25134"
    assert rep["editMatrix"] is None


def test_analyze_tsv_and_edit_subset(toy_fa, tmp_path):
    code, data = run(["analyze", toy_fa, "--tsv", "--edit-subset", "3"], tmp_path / "r.tsv")
    assert code == 0
    text = data.decode()
    assert "k\t5" in text
    assert "variant\tr\tn\tmeanRunLength" in text


def test_compare_default(toy_fa, tmp_path):
    code, data = run(["compare", toy_fa], tmp_path / "m.tsv")
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "hamming\tdol_ebwt\tmdol_bwt\tconc_bwt\tcolex_bwt"
    assert lines[1].split("\t")[2] == "8"


def test_compare_edit_json(toy_fa, tmp_path):
    code, data = run(["compare", toy_fa, "--kind", "edit", "--json"], tmp_path / "m.json")
    assert code == 0
    obj = json.loads(data)
    assert obj["kind"] == "edit"
    assert obj["labels"] == ["ebwt", "dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt"]


def test_compare_explicit_variants(toy_fa, tmp_path):
    code, data = run(
        ["compare", toy_fa, "--variants", "mdol,colex"], tmp_path / "m.tsv"
    )
    assert code == 0
    assert data.decode().splitlines()[0] == "hamming\tmdol_bwt\tcolex_bwt"


def test_optimal_output(toy_fa, tmp_path):
    code, data = run(["optimal", toy_fa], tmp_path / "o.tsv")
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "permutation\t25431"
    assert lines[1] == "rOpt\t12"
    assert "ebwt\t11" in lines
    assert "colex_bwt\t14" in lines


def test_feasible_output(tmp_path):
    code, data = run(["feasible", "5"], tmp_path / "f.txt")
    assert code == 0
    assert data == b"82/120 = 68.33%\n"
    code, data = run(["feasible", "3"], tmp_path / "f.txt")
    assert data == b"5/6 = 83.33%\n"


def test_feasible_cap_guard(tmp_path, capsysbinary):
    assert main(["feasible", "11"]) == 2  # cap defaults to 10
    capsysbinary.readouterr()
    out = tmp_path / "f.txt"
    code, data = run(["feasible", "8", "--cap", "8"], out)
    assert code == 0
    assert data.startswith(b"23100/40320")


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a.fa"
    b = tmp_path / "b.fa"
    args = ["synth", "--seed", "7", "--k", "4", "--length", "6:12",
            "--mutation-rate", "0.2", "--suffix-bias", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b">1\n")


def test_synth_feeds_transform(tmp_path):
    fa = tmp_path / "g.fa"
    assert main(["synth", "--seed", "1", "--k", "3", "--length", "10",
                 "--out", str(fa)]) == 0
    code, data = run(["transform", str(fa), "--variant", "mdol"], tmp_path / "t")
    assert code == 0
    assert data.count(b"$") == 3


def test_synth_bad_length_exits_1(capsysbinary):
    assert main(["synth", "--seed", "1", "--k", "2", "--length", "x"]) == 1
    capsysbinary.readouterr()


def test_synth_bad_rate_exits_2(capsysbinary):
    assert main(["synth", "--seed", "1", "--k", "2", "--mutation-rate", "2.0"]) == 2
    capsysbinary.readouterr()


SPACED = [b" A", b"C\t", b"\xa0G", b"T \xa0", b"\tAC ", b"GA\t\xa0", b"A"]


@pytest.mark.parametrize("variant", ["ebwt", "dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt"])
def test_invert_keeps_whitespace_symbols(variant, tmp_path):
    src = tmp_path / "in.txt"
    src.write_bytes(b"\n".join(SPACED) + b"\n")
    t_out = tmp_path / "t.txt"
    code, text = run(["transform", str(src), "--format", "lines", "--variant", variant], t_out)
    assert code == 0
    # one byte per symbol plus the line ending
    assert len(text) == sum(map(len, SPACED)) + (variant != "ebwt") * len(SPACED) + 1
    code, data = run(["invert", str(t_out), "--variant", variant, "--format", "lines"],
                     tmp_path / "inv")
    assert code == 0
    got = data.split(b"\n")[:-1]
    # ebwt keeps each string up to rotation
    want = [least_rotation(s) for s in SPACED] if variant == "ebwt" else SPACED
    assert sorted(got) == sorted(want)
    if variant == "mdol_bwt":
        assert got == SPACED
    # a CRLF line ending is dropped too
    t_out.write_bytes(text[:-1] + b"\r\n")
    assert run(["invert", str(t_out), "--variant", variant, "--format", "lines"],
               tmp_path / "inv")[1] == data


def test_every_variant_alias_is_accepted(tmp_path, capsysbinary):
    from bwtvariants.transforms import _VARIANT_NAMES

    one = tmp_path / "one.txt"
    one.write_bytes(b"ATATG\n")
    names = [*_VARIANT_NAMES, "MDOL", "dol-ebwt", "Colex_BWT"]
    for name in names:
        canonical = Variant.from_name(name).value
        t_out, want_t = tmp_path / f"{name}.t", tmp_path / f"{canonical}.want.t"
        for path, v in ((want_t, canonical), (t_out, name)):
            assert main(["transform", str(one), "--format", "lines", "--variant", v,
                         "--out", str(path)]) == 0
        assert t_out.read_bytes() == want_t.read_bytes(), name
        code, data = run(["invert", str(t_out), "--variant", name, "--format", "lines"],
                         tmp_path / "inv")
        assert (code, data) == (0, b"ATATG\n"), name
    for command in (["transform", str(one)], ["invert", str(one)]):
        capsysbinary.readouterr()
        assert main(command + ["--variant", "nope"]) == 1
        err = capsysbinary.readouterr().err
        assert b"unknown variant 'nope'" in err and b"mdol_bwt" in err, err
