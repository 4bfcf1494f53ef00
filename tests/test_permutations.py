"""Induced permutations, their algebra, and dollar-order feasibility."""

import random
from decimal import Decimal
from itertools import permutations as iter_perms

import pytest

from bwtvariants import (
    GuardError,
    Perm,
    ValidationError,
    build,
    colex_order,
    enumerate_feasible,
    from_seqs,
    gamma,
    input_rank_permutation,
    is_feasible,
    lex_order,
    linking_permutation,
    naive_rotation_sort,
    pi_conc,
    profile,
    to_text,
    Variant,
)


def test_perm_basics():
    p = Perm((2, 5, 1, 3, 4))
    assert len(p) == 5
    assert p(1) == 2 and p(5) == 4
    assert p.inverse().mapping == (3, 1, 4, 5, 2)
    assert p.inverse().inverse() == p
    assert p.one_line() == "25134"
    assert Perm.from_one_line("25134") == p
    assert Perm.from_one_line("2,5,1,3,4") == p
    assert Perm.identity(3).mapping == (1, 2, 3)


def test_perm_validation():
    with pytest.raises(ValidationError):
        Perm((1, 1, 2))
    with pytest.raises(ValidationError):
        Perm((0, 1))
    with pytest.raises(ValidationError):
        Perm.from_one_line("")
    p = Perm((2, 1))
    with pytest.raises(ValidationError):
        p(3)


def test_long_one_line_uses_commas():
    p = Perm.identity(12)
    assert p.one_line() == "1,2,3,4,5,6,7,8,9,10,11,12"
    assert Perm.from_one_line(p.one_line()) == p


def test_toy_profile(toy):
    p = profile(toy)
    assert p.rho.one_line() == "25134"
    assert p.pi_de.one_line() == "31452"
    assert p.pi_md.one_line() == "25134"
    assert p.pi_conc.one_line() == "45132"
    assert p.gamma.one_line() == "34512"


def test_profile_invariants(corpus):
    for c in corpus:
        p = profile(c)
        assert p.pi_md == p.rho
        assert p.pi_de == p.rho.inverse()
        if c.k >= 2:
            assert p.pi_conc(1) == p.rho(c.k)


def test_rho_ranks_lexicographically(corpus):
    for c in corpus[:40]:
        rho = input_rank_permutation(c)
        seqs = c.seqs()
        by_rank = sorted(range(c.k), key=lambda i: rho(i + 1))
        assert [seqs[i] for i in by_rank] == [seqs[i] for i in lex_order(seqs)]


def test_gamma_is_lex_rank_in_colex_order(corpus):
    for c in corpus[:40]:
        g = gamma(c)
        seqs = c.seqs()
        lex_rank = {}
        for r, i in enumerate(lex_order(seqs), start=1):
            lex_rank[i] = r
        want = [lex_rank[i] for i in colex_order(seqs)]
        assert list(g.mapping) == want


def test_gamma_toy_example():
    g = gamma(from_seqs([b"GAA", b"ACA", b"TGA"]))
    assert g.one_line() == "213"
    ok, witness = is_feasible(g)
    assert not ok and witness is None


def test_linking_permutation_cycles():
    phi = linking_permutation(Perm((2, 5, 1, 3, 4)))
    # successor along the sequence 2,5,1,3,4 with wraparound
    assert phi.mapping == (3, 5, 4, 2, 1)
    # a linking permutation is always one k-cycle
    seen = {1}
    cur = 1
    for _ in range(4):
        cur = phi(cur)
        seen.add(cur)
    assert seen == {1, 2, 3, 4, 5}


def conc_separator_rows(c):
    """rho values of the strings in the order of their separator rows in
    the naive rotation sort of T_1 $ ... T_k $ #."""
    matrix, _ = naive_rotation_sort(Variant.CONC_BWT, c)
    owner = {}  # 1-based position of the separator after string i -> i
    pos = 0
    for i, s in enumerate(c.seqs()):
        pos += len(s) + 1
        owner[pos] = i
    rho = input_rank_permutation(c)
    return tuple(
        rho(owner[ref.offset] + 1) for ref, _, _ in matrix.rows if ref.offset in owner
    )


def test_profile_pi_conc_is_conc_separator_order_with_duplicates():
    c = from_seqs([b"AB", b"AB", b"B", b"AB"])
    assert profile(c).pi_conc.one_line() == "3412"
    assert pi_conc(profile(c).rho).one_line() == "3142"  # closed form: distinct strings only
    rng = random.Random(12)
    closed_form_wrong = 0
    for _ in range(200):
        pool = [
            bytes(rng.choice(b"AB") for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        c = from_seqs([rng.choice(pool) for _ in range(rng.randint(1, 7))])
        want = conc_separator_rows(c)
        assert profile(c).pi_conc.mapping == want
        if c.k >= 2 and pi_conc(profile(c).rho).mapping != want:
            closed_form_wrong += 1
    # the collections do reach the ties that rho does not decide
    assert closed_form_wrong > 0


def test_pi_conc_k3_table():
    table = {
        "123": "312",
        "132": "231",
        "213": "321",
        "231": "132",
        "312": "231",
        "321": "123",
    }
    for rho, pi in table.items():
        assert pi_conc(Perm.from_one_line(rho)).one_line() == pi
    with pytest.raises(ValidationError):
        pi_conc(Perm((1,)))


def test_pi_conc_first_value(corpus):
    for c in corpus[:40]:
        if c.k < 2:
            continue
        rho = input_rank_permutation(c)
        assert pi_conc(rho)(1) == rho(c.k)


def test_dollar_prefix_identities(corpus):
    """The first k symbols of each separator-based transform name the
    last characters of the inputs under the variant's own permutation."""
    from bwtvariants import normalize_conc

    for c in corpus[:40]:
        k = c.k
        seqs = c.seqs()
        p = profile(c)
        mdol = to_text(build(Variant.MDOL_BWT, c))
        assert mdol[:k] == "".join(chr(s[-1]) for s in seqs)
        dole = to_text(build(Variant.DOL_EBWT, c))
        want = "".join(chr(seqs[p.pi_de(j) - 1][-1]) for j in range(1, k + 1))
        assert dole[:k] == want
        colex = to_text(build(Variant.COLEX_BWT, c))
        inv_rho = p.rho.inverse()
        want = "".join(chr(seqs[inv_rho(p.gamma(j)) - 1][-1]) for j in range(1, k + 1))
        assert colex[:k] == want
        if k >= 2 and len(set(seqs)) == k:
            conc = to_text(normalize_conc(build(Variant.CONC_BWT, c)))
            by_lex = [seqs[i] for i in lex_order(seqs)]
            want = "".join(chr(by_lex[p.pi_conc(j) - 1][-1]) for j in range(1, k + 1))
            assert conc[:k] == want


def test_is_feasible_round_trip():
    rng = random.Random(7)
    for k in (2, 3, 4, 5, 6):
        for _ in range(20):
            vals = list(range(1, k + 1))
            rng.shuffle(vals)
            pi = Perm(tuple(vals))
            ok, witness = is_feasible(pi)
            if ok:
                assert pi_conc(witness) == pi
            else:
                # exhaustive confirmation on small k
                if k <= 5:
                    images = {
                        pi_conc(Perm(p)).mapping
                        for p in iter_perms(range(1, k + 1))
                    }
                    assert pi.mapping not in images


def test_identity_feasible_with_reversal_witness():
    for k in (2, 3, 4, 5, 6, 7):
        ok, witness = is_feasible(Perm.identity(k))
        assert ok
        assert witness.mapping == tuple(range(k, 0, -1))


def test_feasible_census_small():
    assert enumerate_feasible(3) == (5, Decimal("83.33"))
    assert enumerate_feasible(4) == (18, Decimal("75.00"))
    assert enumerate_feasible(5) == (82, Decimal("68.33"))


def test_feasible_census_matches_brute_force():
    for k in (2, 3, 4, 5, 6):
        count, _ = enumerate_feasible(k)
        brute = len({pi_conc(Perm(p)).mapping for p in iter_perms(range(1, k + 1))})
        assert count == brute


def test_census_guards():
    with pytest.raises(ValidationError):
        enumerate_feasible(1)
    with pytest.raises(GuardError):
        enumerate_feasible(11)  # needs an explicit cap raise
    with pytest.raises(ValidationError):
        is_feasible(Perm((1,)))
