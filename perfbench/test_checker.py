"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_checker.py

The checker is compared with brute-force rotation sorts written from the
definitions, on small collections with duplicates, proper suffixes and
non-primitive strings, and with the worked example of the repository
README.
"""

import json
import random

import pytest

import checker
from checker import Expected

TOY = [b"ATATG", b"TGA", b"ACG", b"ATCA", b"GGA"]


def brute_separator(seqs, order):
    """BWT of T_o1 $_1 ... T_ok $_k, separators distinct and below letters."""
    text = []
    for rank, i in enumerate(order):
        text += [(1, b) for b in seqs[i]] + [(0, rank)]
    rots = [text[p:] + text[:p] for p in range(len(text))]
    return bytes(ord("$") if r[-1][0] == 0 else r[-1][1] for r in sorted(rots))


def omega_ebwt(words):
    """eBWT: all rotations of all words in omega order (compare w^inf)."""
    span = 2 * max(len(w) for w in words)
    rots = [w[p:] + w[:p] for w in words for p in range(len(w))]
    return bytes(r[-1] for r in sorted(rots, key=lambda r: (r * (span // len(r) + 1))[:span]))


def brute_conc(seqs):
    """Normalized BWT of T_1 $ ... T_k $ # ('#' < '$' < letters), and the
    input index behind each separator row."""
    text = b"$".join(seqs) + b"$#"
    rows = sorted(range(len(text)), key=lambda p: text[p:] + text[:p])
    raw = bytes(text[p - 1] for p in rows)
    seps = [p for p in range(len(text)) if text[p] == ord("$")]
    order = [seps.index(p) for p in rows if text[p] == ord("$")]
    return raw[1:].replace(b"#", b"$"), order


def brute_intervals(seqs):
    """(count, total length) of interesting intervals, from the definition:
    a suffix U shared by two or more strings whose preceding symbols
    ('$' when U is the whole string) are not all equal."""
    groups = {}
    for s in seqs:
        for u in range(len(s) + 1):
            suffix = s[len(s) - u:]
            prev = "$" if u == len(s) else chr(s[len(s) - u - 1])
            groups.setdefault(suffix, []).append(prev)
    chosen = [g for g in groups.values() if len(g) >= 2 and len(set(g)) >= 2]
    return len(chosen), sum(len(g) for g in chosen)


def collections():
    rng = random.Random(7)
    yield TOY
    yield [b"AB", b"AB", b"B", b"AB"]
    yield [b"ABAB", b"AB", b"ABABAB", b"BA"]  # non-primitive strings
    yield [b"CA", b"GCA", b"TGCA", b"CA"]  # proper suffixes and a duplicate
    yield [b"A"]
    for _ in range(60):
        alpha = rng.choice([b"AB", b"ACGT", b"A"])
        k = rng.randint(1, 7)
        pool = [bytes(rng.choice(alpha) for _ in range(rng.randint(1, 6))) for _ in range(k)]
        yield [rng.choice(pool) for _ in range(k)]


@pytest.mark.parametrize("seqs", list(collections()))
def test_matches_brute_force(seqs):
    e = Expected(seqs)
    k = len(seqs)
    lex = sorted(range(k), key=lambda i: (seqs[i], i))
    colex = sorted(range(k), key=lambda i: (seqs[i][::-1], i))
    assert e.transforms["mdol"] == brute_separator(seqs, range(k))
    assert e.transforms["dol"] == brute_separator(seqs, lex)
    assert e.transforms["dol"] == omega_ebwt([s + b"$" for s in seqs])
    assert e.transforms["colex"] == brute_separator(seqs, colex)
    conc, order = brute_conc(seqs)
    assert e.transforms["conc"] == conc
    assert e.conc_order == order
    assert (e.interval_count, e.interval_total) == brute_intervals(seqs)
    for v in ("ebwt", "dol", "mdol", "conc", "colex"):
        text = omega_ebwt(seqs) if v == "ebwt" else e.transforms[v]
        assert e.check_transform(v, text + b"\n") is None


@pytest.mark.parametrize("seqs", list(collections()))
def test_ebwt_check_rejects_other_texts(seqs):
    e = Expected(seqs)
    good = omega_ebwt(seqs)
    rng = random.Random(len(good))
    for _ in range(5):
        bad = bytearray(good)
        i, j = rng.randrange(len(bad)), rng.randrange(len(bad))
        bad[i], bad[j] = bad[j], bad[i]
        if bytes(bad) != good:
            assert e.check_transform("ebwt", bytes(bad)) is not None


def test_readme_worked_example():
    e = Expected(TOY)
    assert e.transforms["colex"] == b"AAAGGCGG$$$TTACTGT$AAA$"
    assert e.transforms["mdol"] == b"GAGAAGCG$$$TTATCTG$AAA$"
    ebwt = omega_ebwt(TOY)
    runs = {v: checker.run_count(ebwt if v == "ebwt" else e.transforms[v])
            for v in checker.VARIANTS}
    assert runs == {"ebwt": 11, "dol": 14, "mdol": 17, "conc": 15, "colex": 14}
    reordered = [TOY[int(c) - 1] for c in "25431"]
    assert checker.run_count(checker.mdol_text(reordered)) == 12
    assert e.check_analyze(json.dumps(toy_report()).encode(), ebwt) is None
    assert e.check_piconc(json.dumps(toy_report()).encode()) is None


def toy_report():
    """The README's toy report, as `bwtv analyze` prints it."""
    runs = {"ebwt": 11, "dol_ebwt": 14, "mdol_bwt": 17, "conc_bwt": 15, "colex_bwt": 14}
    absolute = [[0, 8, 6, 4], [8, 0, 8, 10], [6, 8, 0, 4], [4, 10, 4, 0]]
    return {
        "datasetProperties": {
            "k": 5, "totalLength": 18, "avgLength": 4, "maxLength": 5, "minLength": 3,
            "intervalCount": 4, "totalIntervalLength": 12,
            "fractionInIntervals": "0.522", "variability": "1.000",
        },
        "runsTable": {**{v: {"r": r} for v, r in runs.items()},
                      "optimal": {"r": 12, "permutation": "25431"}},
        "hammingMatrix": {
            "kind": "hamming",
            "labels": ["dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt"],
            "absolute": absolute,
            "normalized": [[checker.round_half_up(checker.Fraction(d, 23), 5) for d in row]
                           for row in absolute],
        },
        "permutationProfile": {"rho": "25134", "piDe": "31452", "piMd": "25134",
                               "piConc": "45132", "gamma": "34512"},
    }


@pytest.mark.parametrize("path,value", [
    (("datasetProperties", "intervalCount"), 5),
    (("runsTable", "colex_bwt", "r"), 13),
    (("runsTable", "optimal", "permutation"), "25341"),
    (("hammingMatrix", "absolute", 0, 1), 7),
    (("permutationProfile", "gamma"), "34521"),
])
def test_analyze_check_rejects_a_wrong_field(path, value):
    rep = toy_report()
    node = rep
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert Expected(TOY).check_analyze(json.dumps(rep).encode(), omega_ebwt(TOY)) is not None


def test_piconc_order_on_duplicates():
    # the separators before the second and the fourth AB are tied on the
    # string that follows them; the text after it (B$... versus #) decides
    rep = {"permutationProfile": {"piConc": "3142"}}
    e = Expected([b"AB", b"AB", b"B", b"AB"])
    assert e.pi_conc == [3, 4, 1, 2]
    assert e.check_piconc(json.dumps(rep).encode()) is not None


@pytest.mark.parametrize("variant,expected", [
    ("mdol", [b"CA", b"GCA", b"A", b"CA"]),
    ("dol", [b"A", b"CA", b"CA", b"GCA"]),
    ("colex", [b"A", b"CA", b"CA", b"GCA"]),
    ("ebwt", [b"A", b"AC", b"AC", b"AGC"]),
])
def test_expected_inversion(variant, expected):
    assert Expected([b"CA", b"GCA", b"A", b"CA"]).expected_inversion(variant) == expected


def test_doubling_ranks_match_sorted():
    rng = random.Random(3)
    for _ in range(50):
        text = bytes(rng.choice(b"AB") for _ in range(rng.randint(1, 30))) + b"\x00"
        codes = checker.np.frombuffer(text, dtype=checker.np.uint8).astype(checker.np.int64)
        ranks = checker.doubling_ranks(codes, checker.np.full(len(text), len(text) - 1))
        order = sorted(range(len(text)), key=lambda p: text[p:])
        assert [int(ranks[p]) for p in order] == list(range(1, len(text) + 1))
