"""Seeded generators for the benchmark's three collection shapes.

The generators are the benchmark's own, not ``bwtvariants.synth``, so a
change to the program cannot change its inputs. Each uses
``random.Random`` seeded with the string ``"<workload>:<seed>"`` (string
seeds are hashed with SHA-512, independent of ``PYTHONHASHSEED``), so the
same seed always gives the same collection.
"""

from __future__ import annotations

import random

ALPHABET = b"ACGT"


def _mutate(rng: random.Random, s: bytearray, rate: float) -> None:
    """Point substitutions at ``rate`` per symbol, placed by geometric skips."""
    p = -1
    while True:
        p += 1 + int(rng.expovariate(rate))
        if p >= len(s):
            return
        s[p] = rng.choice([b for b in ALPHABET if b != s[p]])


def _repeat_second(seqs: list[bytes]) -> list[bytes]:
    """Make the last string a copy of the second. Separators 1 and k are
    then followed by equal strings, and the text after them (T_3 ... versus
    the terminator) orders them opposite to input position, so the
    concatenation variant's dollar order has a tie that input position
    does not resolve, on every seed."""
    return seqs[:-1] + [seqs[1]]


def similar_short(rng: random.Random) -> list[bytes]:
    """5,000 reads of 90-110 symbols, each the tail of one 110-symbol
    ancestor with substitutions at rate 0.01; half of the reads then take
    a planted tail (geometric, mean 24 symbols) from an earlier read. The
    last read repeats the second (see ``_repeat_second``)."""
    ancestor = bytes(rng.choice(ALPHABET) for _ in range(110))
    reads: list[bytes] = []
    for i in range(5000):
        s = bytearray(ancestor[-rng.randint(90, 110):])
        _mutate(rng, s, 0.01)
        if i and rng.random() < 0.5:
            src = reads[rng.randrange(i)]
            g = min(len(s), len(src), 1 + int(rng.expovariate(1 / 23)))
            s[len(s) - g:] = src[len(src) - g:]
        reads.append(bytes(s))
    return _repeat_second(reads)


def near_duplicate_long(rng: random.Random) -> list[bytes]:
    """24 copies of one 25,000-symbol ancestor, each with three
    substitutions, so exact shared suffixes run to thousands of symbols.
    The substituted positions are the same on every seed (drawn from a
    fixed stream), so every seed has the same shared-suffix structure; the
    seed picks the ancestor and the substituted symbols. The last copy
    repeats the second (see ``_repeat_second``)."""
    places = random.Random("near-duplicate-long:positions")
    ancestor = bytes(rng.choice(ALPHABET) for _ in range(25000))
    copies = []
    for _ in range(24):
        s = bytearray(ancestor)
        for p in places.sample(range(len(s)), 3):
            s[p] = rng.choice([b for b in ALPHABET if b != s[p]])
        copies.append(bytes(s))
    return _repeat_second(copies)


def diverse_pure(rng: random.Random) -> list[bytes]:
    """200 independent uniform strings, all distinct, whose lengths are
    300, 302, ..., 698 in a shuffled order (N = 99,800 on every seed)."""
    lengths = list(range(300, 700, 2))
    rng.shuffle(lengths)
    return [bytes(rng.choice(ALPHABET) for _ in range(m)) for m in lengths]


# name -> (generator, whether the program runs with BWTVARIANTS_PURE=1)
WORKLOADS = {
    "similar-short": (similar_short, False),
    "near-duplicate-long": (near_duplicate_long, False),
    "diverse-pure": (diverse_pure, True),
}


def generate(name: str, seed: int) -> list[bytes]:
    gen = WORKLOADS[name][0]
    return gen(random.Random(f"{name}:{seed}"))


def to_fasta(seqs: list[bytes]) -> bytes:
    out = bytearray()
    for i, s in enumerate(seqs, start=1):
        out += b">r%d\n" % i
        for j in range(0, len(s), 80):
            out += s[j:j + 80] + b"\n"
    return bytes(out)
