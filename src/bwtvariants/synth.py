"""Deterministic synthetic collections for tests and experiments.

The generator is a counter-based splitmix64 stream, fully specified here
so another implementation can reproduce collections byte-for-byte:

  mix(x): x ^= x >> 30; x *= 0xBF58476D1CE4E5B9; x ^= x >> 27;
          x *= 0x94D049BB133111EB; x ^= x >> 31   (all mod 2^64)
  draw t (0-based) of stream(seed) = mix((seed + (t+1)*0x9E3779B97F4A7C15) mod 2^64)
  below(m) = (draw * m) >> 64
  chance(p) = draw < floor(p * 2^64)

Draw order, with k strings and alphabet A:
  1. one `below` per string for its length (skipped entirely when the
     length is fixed),
  2. max-length many `below(|A|)` draws for the ancestor string,
  3. per string i = 1..k, in order: the base is the ancestor's suffix of
     the string's length; one `chance(mutation_rate)` per position, and
     on success one `below(|A|-1)` choosing a replacement among the
     other symbols (no draw when the alphabet has a single symbol);
     then, for i >= 2, one `chance(suffix_bias)`, and on
     success one `below(i-1)` choosing an earlier string j plus repeated
     `chance(0.5)` draws growing a shared-suffix length g (g starts at
     1, grows while the coin comes up heads, capped at both strings'
     lengths), after which string i's last g symbols are overwritten
     with string j's.

The planted shared suffix g is therefore geometric with mean 2 (capped at
both lengths): the bias sets how many strings get one, not how long it
is. Mutation rate 0 with a fixed length yields k copies of one ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collection import Collection, RESERVED_BYTES, from_seqs
from .errors import ValidationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


class _Stream:
    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.t = 0

    def next64(self) -> int:
        self.t += 1
        return _mix((self.seed + self.t * _GOLDEN) & _MASK)

    def below(self, m: int) -> int:
        return (self.next64() * m) >> 64

    def chance(self, p: float) -> bool:
        return self.next64() < int(p * (1 << 64))


@dataclass(frozen=True)
class GenSpec:
    seed: int
    k: int
    length: int | tuple[int, int] = 100
    alphabet: bytes = b"ACGT"
    mutation_rate: float = 0.0
    suffix_bias: float = 0.0


def generate(spec: GenSpec) -> Collection:
    if spec.k < 1:
        raise ValidationError("k must be at least 1")
    alpha = bytes(spec.alphabet)
    if not alpha:
        raise ValidationError("alphabet must be non-empty")
    if len(set(alpha)) != len(alpha):
        raise ValidationError("alphabet symbols must be distinct")
    bad = sorted(set(alpha) & RESERVED_BYTES)
    if bad:
        raise ValidationError(f"alphabet uses reserved bytes {bad}")
    for rate, name in ((spec.mutation_rate, "mutation_rate"), (spec.suffix_bias, "suffix_bias")):
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {rate}")

    rng = _Stream(spec.seed)
    if isinstance(spec.length, int):
        if spec.length < 1:
            raise ValidationError("length must be positive")
        lengths = [spec.length] * spec.k
    else:
        lo, hi = spec.length
        if not (1 <= lo <= hi):
            raise ValidationError(f"bad length range ({lo}, {hi})")
        lengths = [lo + rng.below(hi - lo + 1) for _ in range(spec.k)]

    lmax = max(lengths)
    ancestor = bytes(alpha[rng.below(len(alpha))] for _ in range(lmax))

    seqs: list[bytearray] = []
    for i in range(spec.k):
        s = bytearray(ancestor[lmax - lengths[i]:])
        for p in range(len(s)):
            if rng.chance(spec.mutation_rate):
                alts = [b for b in alpha if b != s[p]]
                if alts:
                    s[p] = alts[rng.below(len(alts))]
        if i >= 1 and rng.chance(spec.suffix_bias):
            j = rng.below(i)
            g = 1
            cap = min(len(s), len(seqs[j]))
            while g < cap and rng.chance(0.5):
                g += 1
            s[len(s) - g:] = seqs[j][len(seqs[j]) - g:]
        seqs.append(s)

    c = from_seqs([bytes(s) for s in seqs])
    c.require_valid()
    return c
