import importlib.util
import pathlib
import random
import re
import shutil
import subprocess
import sysconfig

import pytest

from bwtvariants import from_seqs

# Five short strings used as the worked example throughout the suite.
# Every transform, interval, permutation, and distance value asserted on
# `toy` below was checked by hand against the rotation tables.
TOY_SEQS = [b"ATATG", b"TGA", b"ACG", b"ATCA", b"GGA"]

# Eight strings of length four whose colex order differs sharply from the
# input order; exercises the reordering variants on a larger k.
EIGHT_SEQS = [
    b"AAAA",
    b"AGCA",
    b"GCAA",
    b"GTCA",
    b"CAAA",
    b"CGCA",
    b"TCAA",
    b"TTCA",
]


@pytest.fixture
def toy():
    return from_seqs(TOY_SEQS)


@pytest.fixture
def eight():
    return from_seqs(EIGHT_SEQS)


def random_collections(seed, count, max_k=8, max_len=12):
    """Small random collections over assorted alphabets, reproducible."""
    rng = random.Random(seed)
    alphabets = [b"AB", b"ACGT", b"A", b"ABC"]
    out = []
    for _ in range(count):
        alpha = rng.choice(alphabets)
        k = rng.randint(1, max_k)
        seqs = []
        for _ in range(k):
            ln = rng.randint(1, max_len)
            seqs.append(bytes(rng.choice(alpha) for _ in range(ln)))
        out.append(from_seqs(seqs))
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = {}
    for status in ("passed", "failed"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "") != "call":
                continue
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                word = "PASS" if status == "passed" else "FAIL"
                rows[int(m.group(1))] = f"{word} ({rep.duration:.2f}s)"
    if rows:
        terminalreporter.section("acceptance criteria")
        for num in sorted(rows):
            terminalreporter.write_line(f"criterion {num}: {rows[num]}")


def shaped_collections(seed, count):
    """Small random collections that mix in the shapes a shared-suffix
    scan must get right: duplicates, proper suffixes of earlier strings,
    non-primitive strings and one-letter alphabets."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        alpha = rng.choice([b"A", b"AB", b"ACGT"])

        def word(lo, hi):
            return bytes(rng.choice(alpha) for _ in range(rng.randint(lo, hi)))

        seqs = []
        for _ in range(rng.randint(1, 8)):
            pick = rng.random()
            earlier = rng.choice(seqs) if seqs else b""
            if earlier and pick < 0.2:
                seqs.append(earlier)
            elif len(earlier) > 1 and pick < 0.4:
                seqs.append(earlier[rng.randrange(1, len(earlier)):])
            elif pick < 0.55:
                seqs.append(word(1, 3) * rng.randint(2, 4))
            else:
                seqs.append(word(1, 10))
        out.append(seqs)
    return out


@pytest.fixture(scope="session")
def shaped_corpus():
    """1,000 shaped collections (as lists of sequences)."""
    return shaped_collections(20261020, 1000)


@pytest.fixture(scope="session")
def corpus():
    cols = random_collections(20260816, 120)
    # shapes a uniform random walk rarely produces
    cols.append(from_seqs([b"ABAB"]))  # non-primitive string
    cols.append(from_seqs([b"AB", b"AB"]))  # exact duplicates
    cols.append(from_seqs([b"B", b"AB"]))  # one string a proper suffix of another
    cols.append(from_seqs([b"A"]))
    cols.append(from_seqs([b"CA", b"A", b"AA", b"BCA"]))
    cols.append(from_seqs(TOY_SEQS))
    cols.append(from_seqs(EIGHT_SEQS))
    return cols


@pytest.fixture(scope="session")
def native(tmp_path_factory):
    """The compiled kernels, built from the shipped ``_native.c`` into a
    temporary directory with the flags the benchmark set-up uses and
    loaded as ``bwtvariants._native``. Nothing is written under ``src/``.
    Skips only when no C compiler exists."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    c_file = pathlib.Path(__file__).parents[1] / "src" / "bwtvariants" / "_native.c"
    so = tmp_path_factory.mktemp("native") / (
        "_native" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        cc + ["-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
              str(c_file), "-o", str(so)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("bwtvariants._native", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
