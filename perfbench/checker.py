"""Independent checker for the outputs of ``bwtv``.

Nothing here imports ``bwtvariants``. Every expected value is derived from
the input strings alone, by numpy prefix doubling and by the definitions
of the variants:

* mdol, dol and colex are the suffix order of T_1 $ ... T_k $ with the
  separators distinct and ordered by the variant's string rank (input,
  lexicographic, colexicographic). Two such suffixes compare first by
  their string suffix up to and including its separator, then by that
  rank, so one doubling over the truncated suffixes serves all three.
* conc is the plain BWT of T_1 $ ... T_k $ # with equal separators and
  the terminator smallest, normalized by dropping the first symbol and
  writing the terminator as '$'.
* ebwt and dol are also checked as eBWTs (Mantaci et al.): the cycles of
  the standard permutation of the output must spell the input's
  primitive roots, with multiplicity, as necklaces (for dol, the words
  T_i $).

Text forms match the CLI: separators '$', no terminator after
normalization.
"""

from __future__ import annotations

import json
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

SEP = ord("$")
VARIANTS = ("ebwt", "dol", "mdol", "conc", "colex")
# analyze report names, in the report's own order
REPORT_NAMES = {"ebwt": "ebwt", "dol": "dol_ebwt", "mdol": "mdol_bwt",
                "conc": "conc_bwt", "colex": "colex_bwt"}
HAMMING_ORDER = ("dol", "mdol", "conc", "colex")


def doubling_ranks(codes: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Rank of every suffix codes[p : end[p] + 1]; the comparison stops at
    end[p], so equal truncated suffixes share a rank. Prefix doubling:
    after the round with step h the ranks order prefixes of length 2h,
    and a round that splits no class leaves the ranks final."""
    n = len(codes)
    _, rank = np.unique(codes, return_inverse=True)
    rank = rank.astype(np.int64) + 1
    classes = int(rank.max())
    idx = np.arange(n, dtype=np.int64)
    h = 1
    while classes < n:
        nxt = idx + h
        second = np.zeros(n, dtype=np.int64)
        inside = nxt <= end
        second[inside] = rank[nxt[inside]]
        key = rank * (n + 1) + second
        order = np.argsort(key, kind="stable")
        sk = key[order]
        new = np.empty(n, dtype=np.int64)
        new[order] = np.cumsum(np.concatenate(([1], sk[1:] != sk[:-1])))
        new_classes = int(new[order[-1]])
        rank = new
        if new_classes == classes:
            break
        classes = new_classes
        h *= 2
    return rank


def ranks(seqs: list[bytes], key) -> list[int]:
    """0-based rank of each string sorted by ``key``, ties by input position."""
    rank = [0] * len(seqs)
    for r, i in enumerate(sorted(range(len(seqs)), key=lambda i: (key(seqs[i]), i))):
        rank[i] = r
    return rank


def run_count(text: bytes) -> int:
    a = np.frombuffer(text, dtype=np.uint8)
    return int(np.count_nonzero(a[1:] != a[:-1])) + 1


def least_rotation(s: bytes) -> bytes:
    """Lexicographically least rotation (two-pointer minimum-rotation scan)."""
    n = len(s)
    ss = s + s
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return ss[i:i + n]


def primitive_root(s: bytes) -> tuple[bytes, int]:
    p = (s + s).find(s, 1)
    return s[:p], len(s) // p


def lf_necklaces(text: bytes) -> list[bytes]:
    """Words spelled by the cycles of the standard permutation. Each cycle
    is read from its smallest row, which for an eBWT is the least rotation
    of the word, so a correct eBWT yields necklace representatives."""
    a = np.frombuffer(text, dtype=np.uint8)
    order = np.argsort(a, kind="stable")
    lf = np.empty(len(a), dtype=np.int64)
    lf[order] = np.arange(len(a))
    lf = lf.tolist()
    seen = bytearray(len(a))
    words = []
    for s in range(len(a)):
        if seen[s]:
            continue
        out = bytearray()
        r = s
        while not seen[r]:
            seen[r] = 1
            out.append(text[r])
            r = lf[r]
        out.reverse()
        words.append(bytes(out))
    return words


def round_half_up(x: Fraction, places: int) -> str:
    q = Decimal(1).scaleb(-places)
    return str((Decimal(x.numerator) / Decimal(x.denominator)).quantize(q, rounding=ROUND_HALF_UP))


def max_runs_bound(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Most runs an arrangement of a symbol multiset can have, per class."""
    rest = sizes - counts
    return np.where(counts - 1 <= rest, sizes, 2 * rest + 1)


def separator_classes(seqs: list[bytes]):
    """Text T_1 $ ... T_k $, the owner (0-based string index) of each
    position, and the rank of each position's string suffix up to and
    including its separator."""
    joined = b"$".join(seqs) + b"$"
    text = np.frombuffer(joined, dtype=np.uint8)
    lengths = np.fromiter((len(s) + 1 for s in seqs), dtype=np.int64, count=len(seqs))
    owner = np.repeat(np.arange(len(seqs), dtype=np.int64), lengths)
    end = np.cumsum(lengths)[owner] - 1
    codes = text.astype(np.int64)
    codes[text == SEP] = 0
    return text, owner, doubling_ranks(codes, end)


def separator_bwt(text, owner, q, string_rank) -> bytes:
    """Last column of the rotations of T_1 $ ... T_k $ with the separators
    distinct and ordered by ``string_rank`` (one value per string)."""
    rows = np.lexsort((np.asarray(string_rank)[owner], q))
    return np.roll(text, 1)[rows].tobytes()


def mdol_text(seqs: list[bytes]) -> bytes:
    text, owner, q = separator_classes(seqs)
    return separator_bwt(text, owner, q, np.arange(len(seqs)))


class Expected:
    """Everything the checker knows about one collection."""

    def __init__(self, seqs: list[bytes]):
        self.seqs = seqs
        self.k = len(seqs)
        self.n = sum(len(s) for s in seqs)
        self.lex_rank = ranks(seqs, lambda s: s)
        self.colex_rank = ranks(seqs, lambda s: s[::-1])
        text, owner, q = separator_classes(seqs)
        self.rows = len(text)
        self.transforms = {
            "mdol": separator_bwt(text, owner, q, np.arange(self.k)),
            "dol": separator_bwt(text, owner, q, self.lex_rank),
            "colex": separator_bwt(text, owner, q, self.colex_rank),
        }
        self._intervals(np.roll(text, 1), q)
        self._conc()
        self.roots = Counter()
        for s in seqs:
            root, m = primitive_root(s)
            self.roots[least_rotation(root)] += m
        self.dol_words = Counter(b"$" + s for s in seqs)
        self.rho = [r + 1 for r in self.lex_rank]
        self.pi_de = [0] * self.k
        for i, r in enumerate(self.rho):
            self.pi_de[r - 1] = i + 1
        colex_order = sorted(range(self.k), key=lambda i: self.colex_rank[i])
        self.gamma = [self.rho[i] for i in colex_order]
        self.pi_conc = [self.rho[i] for i in self.conc_order]

    def _intervals(self, prev: np.ndarray, q: np.ndarray) -> None:
        """Interesting intervals: classes of equal string suffixes (with
        separator) whose preceding symbols are not all equal."""
        cls = q - 1
        sizes = np.bincount(cls)
        uniq, cnt = np.unique(cls * 256 + prev, return_counts=True)
        ucls = uniq // 256
        distinct = np.bincount(ucls, minlength=len(sizes))
        biggest = np.zeros(len(sizes), dtype=np.int64)
        np.maximum.at(biggest, ucls, cnt)
        chosen = distinct >= 2
        self.interval_count = int(np.count_nonzero(chosen))
        self.interval_total = int(sizes[chosen].sum())
        self.interval_runs_bound = int(max_runs_bound(biggest[chosen], sizes[chosen]).sum())

    def _conc(self) -> None:
        joined = b"$".join(self.seqs) + b"$"
        display = np.frombuffer(joined + b"#", dtype=np.uint8)
        codes = display.astype(np.int64) + 1
        codes[display == SEP] = 1
        codes[-1] = 0
        m = len(codes)
        rank = doubling_ranks(codes, np.full(m, m - 1, dtype=np.int64))
        sa = np.empty(m, dtype=np.int64)
        sa[rank - 1] = np.arange(m)
        raw = display[(sa - 1) % m]
        # row 0 is the terminator's rotation, preceded by the last separator
        self.transforms["conc"] = raw[1:].tobytes().replace(b"#", b"$")
        sep_pos = sa[codes[sa] == 1]
        sep_at = np.cumsum([len(s) + 1 for s in self.seqs]) - 1
        self.conc_order = np.searchsorted(sep_at, sep_pos).tolist()

    # ------------------------------------------------------------------
    # checks; each returns None when the output is right, else a reason

    def check_transform(self, variant: str, out: bytes) -> str | None:
        text = out.rstrip(b"\n")
        if variant == "ebwt":
            if Counter(lf_necklaces(text)) != self.roots:
                return "LF cycles do not spell the input's primitive roots"
            return None
        if text != self.transforms[variant]:
            return f"{variant} differs from the independent build"
        if variant == "dol" and Counter(lf_necklaces(text)) != self.dol_words:
            return "dol LF cycles do not spell the words T_i $"
        return None

    def expected_inversion(self, variant: str) -> list[bytes]:
        seqs = self.seqs
        if variant == "mdol":
            return list(seqs)
        if variant == "dol":
            return sorted(seqs)
        if variant == "colex":
            return sorted(seqs, key=lambda s: s[::-1])
        if variant == "conc":
            return [seqs[i] for i in self.conc_order]
        return sorted(self.roots.elements())

    def check_invert(self, variant: str, out: bytes) -> str | None:
        got = parse_fasta(out)
        if got != self.expected_inversion(variant):
            return f"invert {variant} does not give the expected strings"
        return None

    def check_analyze(self, out: bytes, ebwt_text: bytes) -> str | None:
        """Check an analyze report; ``ebwt_text`` is a transform output that
        passed ``check_transform('ebwt', ...)``, used for the ebwt run count."""
        if self.check_transform("ebwt", ebwt_text):
            return "the round's ebwt transform is wrong, so the ebwt r cannot be checked"
        rep = json.loads(out)
        ds = rep["datasetProperties"]
        lengths = [len(s) for s in self.seqs]
        want = {
            "k": self.k,
            "totalLength": self.n,
            "avgLength": int(Decimal(round_half_up(Fraction(self.n, self.k), 0))),
            "maxLength": max(lengths),
            "minLength": min(lengths),
            "intervalCount": self.interval_count,
            "totalIntervalLength": self.interval_total,
            "fractionInIntervals": round_half_up(Fraction(self.interval_total, self.rows), 3),
            "variability": round_half_up(
                Fraction(self.interval_runs_bound, self.interval_total)
                if self.interval_total else Fraction(0), 3),
        }
        for key, val in want.items():
            if ds.get(key) != val:
                return f"datasetProperties.{key} is {ds.get(key)!r}, expected {val!r}"
        texts = dict(self.transforms, ebwt=ebwt_text.rstrip(b"\n"))
        table = rep["runsTable"]
        for v in VARIANTS:
            if table[REPORT_NAMES[v]]["r"] != run_count(texts[v]):
                return f"runsTable.{REPORT_NAMES[v]}.r differs from the independent count"
        r_opt = table["optimal"]["r"]
        perm = _one_line(table["optimal"]["permutation"])
        if sorted(perm) != list(range(1, self.k + 1)):
            return "optimal permutation is not a permutation of 1..k"
        if run_count(mdol_text([self.seqs[i - 1] for i in perm])) != r_opt:
            return "mdol of the optimal order does not have rOpt runs"
        if any(r_opt > table[REPORT_NAMES[v]]["r"] for v in HAMMING_ORDER):
            return "rOpt exceeds a separator-based variant's r"
        if table["colex_bwt"]["r"] > r_opt + 2 * self.interval_count:
            return "colex r exceeds rOpt + 2 * intervalCount"
        ham = rep["hammingMatrix"]
        if ham["labels"] != [REPORT_NAMES[v] for v in HAMMING_ORDER]:
            return "unexpected hamming labels"
        arrays = [np.frombuffer(self.transforms[v], dtype=np.uint8) for v in HAMMING_ORDER]
        for i, a in enumerate(arrays):
            for j, b in enumerate(arrays):
                d = int(np.count_nonzero(a != b))
                if ham["absolute"][i][j] != d or d > self.interval_total:
                    return f"hammingMatrix.absolute[{i}][{j}] is wrong"
                norm = round_half_up(Fraction(d, len(a)), 5)
                if ham["normalized"][i][j] != norm:
                    return f"hammingMatrix.normalized[{i}][{j}] is wrong"
        prof = rep["permutationProfile"]
        for key, val in (("rho", self.rho), ("piDe", self.pi_de),
                         ("piMd", self.rho), ("gamma", self.gamma)):
            if _one_line(prof[key]) != val:
                return f"permutationProfile.{key} differs from sorted ranks"
        return None

    def check_piconc(self, out: bytes) -> str | None:
        got = _one_line(json.loads(out)["permutationProfile"]["piConc"])
        if got != self.pi_conc:
            bad = sum(a != b for a, b in zip(got, self.pi_conc))
            return f"piConc differs from the conc separator-row order in {bad} of {self.k} entries"
        return None


def _one_line(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if "," in text else [int(c) for c in text]


def parse_fasta(raw: bytes) -> list[bytes]:
    seqs: list[bytes] = []
    chunks: list[bytes] | None = None
    for line in raw.split(b"\n"):
        if line.startswith(b">"):
            if chunks is not None:
                seqs.append(b"".join(chunks))
            chunks = []
        elif line and chunks is not None:
            chunks.append(line)
    if chunks is not None:
        seqs.append(b"".join(chunks))
    return seqs
