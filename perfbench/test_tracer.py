"""Tests of the per-layer tracer.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
TOY_FASTA = b">1\nATATG\n>2\nTGA\n>3\nACG\n>4\nATCA\n>5\nGGA\n"
# the layers an analyze run does not reach
NOT_IN_ANALYZE = {"collection.serialize_fasta", "transforms.from_text",
                  "transforms.invert_separator_based", "transforms.invert_ebwt"}


def bwtv(args, spans=None):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"),
               BWTVARIANTS_PURE="1", PYTHONDONTWRITEBYTECODE="1")
    if spans is None:
        cmd = [sys.executable, "-m", "bwtvariants", *args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
    subprocess.run(cmd, env=env, check=True)


def test_traced_analyze_is_byte_identical_and_reaches_every_layer(tmp_path):
    fasta = tmp_path / "toy.fa"
    fasta.write_bytes(TOY_FASTA)
    bwtv(["analyze", str(fasta), "--out", str(tmp_path / "plain.json")])
    bwtv(["analyze", str(fasta), "--out", str(tmp_path / "traced.json")], tmp_path / "spans.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["backend"] == "pure-python"
    called = {name for name, n in spans["calls"].items() if n}
    assert called == set(tracer.SPANS) - NOT_IN_ANALYZE
    # builders reached through transforms._BUILDERS and kernels imported by
    # name into other modules are counted: 5 builds in the report, 2 more
    # inside optimal_order, 1 in its self-check
    assert spans["calls"]["transforms.mdol_bwt"] == 2
    assert spans["calls"]["kernels.suffix_array"] == 8
    assert spans["work"]["kernels.suffix_array.symbols"] > 0
    assert all(t >= 0 for t in spans["self_s"].values())


def test_traced_invert_reaches_the_inverters(tmp_path):
    fasta = tmp_path / "toy.fa"
    fasta.write_bytes(TOY_FASTA)
    for variant in ("ebwt", "mdol"):
        bwtv(["transform", str(fasta), "--variant", variant, "--out", str(tmp_path / variant)])
        bwtv(["invert", str(tmp_path / variant), "--variant", variant, "--out",
              str(tmp_path / f"{variant}.fa")], tmp_path / f"{variant}.json")
    calls = {v: json.loads((tmp_path / f"{v}.json").read_text())["calls"] for v in ("ebwt", "mdol")}
    assert calls["ebwt"]["transforms.invert_ebwt"] == 1
    assert calls["mdol"]["transforms.invert_separator_based"] == 1
    assert calls["mdol"]["collection.serialize_fasta"] == 1
