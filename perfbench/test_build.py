"""Tests of the benchmark's set-up.

    python3 -m pytest perfbench/test_build.py
"""

from pathlib import Path

import pytest

import build

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "bwtvariants"


def test_shipped_c_matches_pyx():
    assert build.check_markers(SRC / "_native.c", SRC / "_native.pyx") > 0


def test_stale_c_is_refused(tmp_path):
    lines = (SRC / "_native.pyx").read_text().split("\n")
    n = next(i for i, line in enumerate(lines) if line.startswith("def suffix_array("))
    lines[n] = lines[n].replace("sigma", "alphabet_size")
    stale = tmp_path / "_native.pyx"
    stale.write_text("\n".join(lines))
    with pytest.raises(build.SetupError, match="not generated from the current"):
        build.check_markers(SRC / "_native.c", stale)


def test_wrong_backend_is_refused(tmp_path):
    with pytest.raises(build.SetupError, match="backend"):
        build.setup(REPO, tmp_path, pure=True, backend="native")
    assert not list(SRC.glob("_native*.so"))
