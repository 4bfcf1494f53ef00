"""Permutations induced by the variants and feasibility of dollar orders.

All permutations act on {1..k}. rho maps input positions to lexicographic
ranks; the dollar prefix of each separator-based transform is described by
pi_de = rho^-1, pi_md = rho, pi_conc (the rho values of the strings in the
separator-row order of conc_bwt) and gamma (the colex order). For
distinct strings pi_conc is a closed form of rho through the linking
permutation. A permutation pi is feasible when some input order rho makes
the concatenation variant produce pi as its dollar order; not all of them
are, the classic gap being 213 at k = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import factorial

from ._fmt import fmt
from .collection import Collection
from .errors import GuardError, ValidationError
from .kernels import feasible_image_size
from .ordering import colex_order, conc_order, lex_order, order_ranks


@dataclass(frozen=True)
class Perm:
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(1, len(self.mapping) + 1)):
            raise ValidationError(f"not a permutation of 1..k: {self.mapping!r}")

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.mapping):
            raise ValidationError(f"index {i} outside 1..{len(self.mapping)}")
        return self.mapping[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * len(self.mapping)
        for pos, image in enumerate(self.mapping, start=1):
            inv[image - 1] = pos
        return Perm(tuple(inv))

    def one_line(self) -> str:
        if len(self.mapping) <= 9:
            return "".join(str(v) for v in self.mapping)
        return ",".join(str(v) for v in self.mapping)

    @classmethod
    def from_one_line(cls, text: str) -> "Perm":
        text = text.strip()
        if not text:
            raise ValidationError("empty permutation")
        if "," in text:
            values = [int(part) for part in text.split(",")]
        else:
            values = [int(ch) for ch in text]
        return cls(tuple(values))

    @classmethod
    def identity(cls, k: int) -> "Perm":
        return cls(tuple(range(1, k + 1)))


def input_rank_permutation(c: Collection) -> Perm:
    """rho: position in the input -> lexicographic rank (ties stay in
    input order, which keeps rho total on multisets)."""
    c.require_valid()
    return Perm(tuple(order_ranks(lex_order(c.seqs()))))


def linking_permutation(p: Perm) -> Perm:
    """Phi: each value's successor along p, wrapping the last to the first.
    Always a single k-cycle."""
    k = len(p)
    if k == 0:
        raise ValidationError("empty permutation has no linking permutation")
    m = p.mapping
    out = [0] * k
    for pos in range(k):
        out[m[pos] - 1] = m[(pos + 1) % k]
    return Perm(tuple(out))


def pi_conc(rho: Perm) -> Perm:
    """Dollar order of the concatenation variant for input order rho:
    pi(1) = rho(k) and pi^-1(i) = f_{rho(1)}(Phi(i)) + 1 elsewhere, where
    f_j skips over j. Assumes distinct strings: equal strings tie on the
    text after their separators in a way rho alone does not decide (the
    profile reads the real order from ``conc_order``)."""
    k = len(rho)
    if k < 2:
        raise ValidationError("pi_conc needs k >= 2")
    phi = linking_permutation(rho)
    r1 = rho(1)
    rk = rho(k)
    pinv = [0] * k
    pinv[rk - 1] = 1
    for i in range(1, k + 1):
        if i == rk:
            continue
        f = phi(i) if phi(i) < r1 else phi(i) - 1
        pinv[i - 1] = f + 1
    return Perm(tuple(pinv)).inverse()


def gamma(c: Collection) -> Perm:
    """gamma(j) = lexicographic rank of the j-th string in colex order."""
    c.require_valid()
    seqs = c.seqs()
    lex_rank = order_ranks(lex_order(seqs))
    return Perm(tuple(lex_rank[idx] for idx in colex_order(seqs)))


@dataclass(frozen=True)
class PermutationProfile:
    rho: Perm
    pi_de: Perm
    pi_md: Perm
    pi_conc: Perm
    gamma: Perm


def profile(c: Collection) -> PermutationProfile:
    rho = input_rank_permutation(c)
    # rho values in the separator-row order of conc_bwt, duplicates included
    conc = Perm(tuple(rho.mapping[i] for i in conc_order(c.seqs())))
    return PermutationProfile(rho, rho.inverse(), rho, conc, gamma(c))


def enumerate_feasible(k: int, cap: int = 10) -> tuple[int, Decimal]:
    """Count distinct dollar orders over all k! input orders; percentage
    of k! rounded to two places. The census walks every input order, so
    the default cap is 10; pass cap=11 explicitly for the largest
    supported table row."""
    if k < 2:
        raise ValidationError("feasibility census needs k >= 2")
    if k > cap:
        raise GuardError(f"k={k} exceeds cap={cap}")
    count = int(feasible_image_size(k))
    pct = Decimal(fmt(Fraction(100 * count, factorial(k)), 2))
    return count, pct


def is_feasible(pi: Perm) -> tuple[bool, Perm | None]:
    """Search for an input order rho with pi_conc(rho) == pi.

    rho(k) is forced to pi(1); trying each candidate j = rho(1) determines
    Phi pointwise, and pi is feasible exactly when some candidate Phi is a
    single k-cycle. The witness is read off by walking that cycle. The
    smallest working j is returned, so the identity yields (k, ..., 1).
    """
    k = len(pi)
    if k < 2:
        raise ValidationError("feasibility needs k >= 2")
    pinv = pi.inverse()
    rk = pi(1)
    for j in range(1, k + 1):
        if j == rk:
            continue
        phi = [0] * (k + 1)
        phi[rk] = j
        for i in range(1, k + 1):
            if i == rk:
                continue
            m = pinv(i) - 1
            phi[i] = m if m < j else m + 1
        walk = [j]
        cur = j
        for _ in range(k - 1):
            cur = phi[cur]
            walk.append(cur)
        if len(set(walk)) == k and phi[walk[-1]] == j:
            witness = Perm(tuple(walk))
            if pi_conc(witness) == pi:
                return True, witness
    return False, None
