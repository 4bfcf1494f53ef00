"""``setup.py`` builds the native kernels from the shipped C source, so
the build needs no Cython."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

from bwtvariants import _fallback

REPO = pathlib.Path(__file__).parents[1]

# setup.py run as a script with Cython made unimportable
WITHOUT_CYTHON = """
import runpy, sys
sys.modules["Cython"] = None
sys.argv = ["setup.py", "build_ext", "--build-lib", sys.argv[1], "--build-temp", sys.argv[2]]
runpy.run_path("setup.py", run_name="__main__")
"""


def files_under(root):
    return {
        (str(p.relative_to(root)), p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    }


def test_build_ext_without_cython_compiles_shipped_c(tmp_path):
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    before = files_under(REPO / "src")
    lib, tmp = tmp_path / "lib", tmp_path / "tmp"
    subprocess.run(
        [sys.executable, "-c", WITHOUT_CYTHON, str(lib), str(tmp)],
        cwd=REPO, check=True, capture_output=True,
    )
    assert files_under(REPO / "src") == before
    (so,) = (lib / "bwtvariants").glob("_native*")
    spec = importlib.util.spec_from_file_location("bwtvariants._native", so)
    native = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(native)
    assert native.BACKEND == "native"
    data = [3, 1, 2, 3, 1, 2, 2]
    assert list(native.suffix_array(data, 4)) == list(_fallback.suffix_array(data, 4))
