"""Set-up: turn the checkout's sources into a private, runnable program.

The package is copied out of ``src/`` and the shipped ``_native.c`` is
compiled into the copy, so no extension module is ever left in ``src/``
(one there would silently switch the test suite to the native backend).
The C file must have been generated from the current ``_native.pyx``:
every Cython ``"bwtvariants/_native.pyx":N`` marker quotes a source line,
and that line must equal line N of the ``.pyx``.
"""

from __future__ import annotations

import compileall
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

MARKER = re.compile(r'\s*/\* "bwtvariants/_native\.pyx":(\d+)$')
QUOTED = re.compile(r"\s*\* ?(.*?)\s*# <{14}$")


class SetupError(Exception):
    pass


def check_markers(c_path: Path, pyx_path: Path) -> int:
    """Number of markers checked; raises SetupError on the first stale one."""
    c_lines = c_path.read_text(encoding="utf-8").split("\n")
    pyx_lines = pyx_path.read_text(encoding="utf-8").split("\n")
    checked = 0
    for i, line in enumerate(c_lines):
        m = MARKER.match(line)
        if not m:
            continue
        n = int(m.group(1))
        quoted = next(filter(None, map(QUOTED.match, c_lines[i + 1:i + 8])), None)
        if quoted is None or n > len(pyx_lines) or quoted.group(1) != pyx_lines[n - 1].rstrip():
            raise SetupError(
                f"{c_path.name} was not generated from the current {pyx_path.name} "
                f"(marker for line {n} at C line {i + 1})"
            )
        checked += 1
    if checked == 0:
        raise SetupError(f"{c_path.name} holds no Cython source markers")
    return checked


def program_env(pkg_root: Path, pure: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(pkg_root))
    env.pop("BWTVARIANTS_PURE", None)
    if pure:
        env["BWTVARIANTS_PURE"] = "1"
    return env


def setup(repo: Path, work: Path, pure: bool, backend: str) -> Path:
    """Copy, compile and import the package once; return the directory to
    put on PYTHONPATH. Refuses a stale C file and a backend other than
    ``backend``."""
    src = repo / "src" / "bwtvariants"
    c_file, pyx_file = src / "_native.c", src / "_native.pyx"
    if not c_file.is_file() or not pyx_file.is_file():
        raise SetupError(f"no {c_file} / {pyx_file}: run from the root of a checkout")
    check_markers(c_file, pyx_file)
    pkg_root = work / "pkg"
    pkg = pkg_root / "bwtvariants"
    pkg.mkdir(parents=True)
    for f in src.glob("*.py"):
        shutil.copyfile(f, pkg / f.name)
    # as an install would: every process then loads bytecode, whatever
    # PYTHONDONTWRITEBYTECODE says
    if not compileall.compile_dir(str(pkg), quiet=1):
        raise SetupError("byte-compiling the package copy failed")
    cc = sysconfig.get_config_var("CC").split()
    so = pkg / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        cc + ["-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
              str(c_file), "-o", str(so)],
        check=True,
    )
    got = subprocess.run(
        [sys.executable, "-c", "import bwtvariants; print(bwtvariants.BACKEND)"],
        env=program_env(pkg_root, pure), check=True, capture_output=True, text=True,
    ).stdout.strip()
    if got != backend:
        raise SetupError(f"program reports backend {got!r}, the workload needs {backend!r}")
    return pkg_root
