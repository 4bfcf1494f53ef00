"""The compiled kernels and the pure-Python fallback must agree exactly.

``native`` is the module compiled from the shipped C source (see
conftest)."""

import random
from array import array

import pytest

from bwtvariants import _fallback, transforms


def rand_bytes(rng, n, sigma=4):
    return bytes(65 + rng.randrange(sigma) for _ in range(n))


def test_backend_tags_differ(native):
    assert _fallback.BACKEND == "pure-python"
    assert native.BACKEND == "native"


def test_suffix_array_agreement(native):
    rng = random.Random(1)
    for trial in range(60):
        n = rng.randrange(1, 80)
        sigma = rng.choice([2, 3, 5, 17])
        data = [1 + rng.randrange(sigma - 1) for _ in range(n)]
        a = list(_fallback.suffix_array(data, sigma))
        b = list(native.suffix_array(data, sigma))
        assert a == b
        # definitional check on a sample
        if trial % 10 == 0:
            want = sorted(range(n), key=lambda i: data[i:])
            assert a == want
    assert list(native.suffix_array([], 4)) == []


def test_suffix_array_permuted_separator_ranks(native):
    # the separator sort: letters shifted past k separators whose values
    # are a permutation of 1..k, in text order
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randrange(1, 7)
        seqs = [rand_bytes(rng, rng.randrange(1, 10), rng.choice([1, 2, 4])) for _ in range(k)]
        ranks = list(range(1, k + 1))
        rng.shuffle(ranks)
        data = array("i")
        for s, rank in zip(seqs, ranks):
            data.extend(b + k + 1 for b in s)
            data.append(rank)
        a = list(_fallback.suffix_array(data, k + 257))
        assert a == list(native.suffix_array(data, k + 257))
        assert a == sorted(range(len(data)), key=lambda i: list(data[i:]))


def test_suffix_array_conc_rank_sequence(native):
    # conc_order: k dense lex ranks (from 2) followed by the terminator 1
    rng = random.Random(6)
    for _ in range(60):
        k = rng.randrange(1, 12)
        pool = [rand_bytes(rng, rng.randrange(1, 4), 2) for _ in range(rng.randrange(1, 4))]
        seqs = [rng.choice(pool) for _ in range(k)]
        dense = {s: r for r, s in enumerate(sorted(set(seqs)), start=2)}
        data = array("i", [dense[s] for s in seqs] + [1])
        sigma = len(dense) + 2
        a = list(_fallback.suffix_array(data, sigma))
        assert a == list(native.suffix_array(data, sigma))
        assert a == sorted(range(k + 1), key=lambda i: list(data[i:]))


@pytest.mark.parametrize("k", [1, 255, 256, 65280])
def test_separator_sa_byte_planes(native, monkeypatch, k):
    # letter b is stored as b + k + 1: from k = 255 the high letters
    # carry into a second byte, and at k = 65,280 letter 255 needs a third
    rng = random.Random(k)
    alphabet = bytes([2, 65, 0x7F, 0x80, 0xFE, 0xFF])
    seqs = [bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 3))) for _ in range(k)]
    ranks = list(range(1, k + 1))
    rng.shuffle(ranks)
    want = array("i")
    for s, rank in zip(seqs, ranks):
        want.extend([b + k + 1 for b in s])
        want.append(rank)
    for impl in (_fallback, native):
        fed = []

        def record(data, sigma, impl=impl):
            fed.append((array("i", data), sigma))
            return impl.suffix_array(data, sigma)

        monkeypatch.setattr(transforms, "suffix_array", record)
        got = transforms._separator_sa(seqs, ranks)
        assert fed == [(want, k + 257)]
        assert got == impl.suffix_array(want, k + 257)


def test_conjugate_sort_agreement(native):
    rng = random.Random(2)
    for _ in range(60):
        k = rng.randrange(1, 6)
        seqs = [rand_bytes(rng, rng.randrange(1, 12), rng.choice([1, 2, 4])) for _ in range(k)]
        assert list(_fallback.conjugate_sort(seqs)) == list(native.conjugate_sort(seqs))


def test_shared_suffix_mask_agreement(native):
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randrange(1, 6)
        seqs = [rand_bytes(rng, rng.randrange(1, 10), 2) for _ in range(k)]
        collapsed = bytearray()
        ulen = array("i")
        data = []
        for i, s in enumerate(seqs, start=1):
            for off in range(len(s)):
                ulen.append(len(s) - off)
            ulen.append(0)
            collapsed.extend(s)
            collapsed.append(0x01)
            data.extend(b + k + 1 for b in s)
            data.append(i)
        sa = native.suffix_array(data, k + 257)
        a = _fallback.shared_suffix_mask(bytes(collapsed), sa, ulen)
        b = native.shared_suffix_mask(bytes(collapsed), sa, ulen)
        assert a == b


def test_feasible_image_size_agreement(native):
    for k in range(2, 8):
        assert int(_fallback.feasible_image_size(k)) == int(native.feasible_image_size(k))


def test_distance_kernels_agreement(native):
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(0, 60)
        a = rand_bytes(rng, n)
        b = rand_bytes(rng, n)
        assert _fallback.hamming(a, b) == native.hamming(a, b)
        c = rand_bytes(rng, rng.randrange(0, 60))
        assert _fallback.edit_distance(a, c) == native.edit_distance(a, c)


def test_edit_distance_known_values(native):
    for impl in (_fallback, native):
        assert impl.edit_distance(b"kitten", b"sitting") == 3
        assert impl.edit_distance(b"", b"abc") == 3
        assert impl.edit_distance(b"abc", b"abc") == 0


def test_hamming_known_values(native):
    for impl in (_fallback, native):
        assert impl.hamming(b"ABCD", b"ABDD") == 1
        assert impl.hamming(b"", b"") == 0
