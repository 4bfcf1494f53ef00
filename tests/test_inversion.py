"""Round-trip recovery of collections from their transforms."""

import pytest
from hypothesis import given, settings, strategies as st

from bwtvariants import (
    TransformError,
    Variant,
    build,
    colex_bwt,
    colex_order,
    conc_bwt,
    dol_ebwt,
    ebwt,
    from_seqs,
    from_text,
    invert_ebwt,
    invert_separator_based,
    least_rotation,
    lex_order,
    mdol_bwt,
    normalize_conc,
    pi_conc,
    primitive_root,
    profile,
    to_text,
)


def test_mdol_inversion_is_identity(corpus):
    for c in corpus:
        assert invert_separator_based(mdol_bwt(c)).seqs() == c.seqs()


def test_dol_ebwt_inverts_to_lex_order(corpus):
    for c in corpus[:50]:
        got = invert_separator_based(dol_ebwt(c)).seqs()
        assert got == [c.seqs()[i] for i in lex_order(c.seqs())]


def test_colex_inverts_to_colex_order(corpus):
    for c in corpus[:50]:
        got = invert_separator_based(colex_bwt(c)).seqs()
        assert got == [c.seqs()[i] for i in colex_order(c.seqs())]


def conc_dollar_order(seqs):
    """Strings in the order their separators appear among the sorted
    rotations of T_1 $ ... T_k $ #, computed directly."""
    flat = bytearray()
    sep_owner = {}
    for i, s in enumerate(seqs):
        flat.extend(s)
        sep_owner[len(flat)] = i  # the separator after string i
        flat.append(0x01)
    flat.append(0x00)
    ranked = sorted(sep_owner, key=lambda p: flat[p:] + flat[:p])
    return [seqs[sep_owner[p]] for p in ranked]


def test_conc_inverts_to_dollar_order(corpus):
    # the j-th recovered string is the one whose separator became the
    # j-th dollar of the normalized transform
    for c in corpus[:60]:
        got = invert_separator_based(normalize_conc(conc_bwt(c))).seqs()
        assert got == conc_dollar_order(c.seqs())


def test_conc_dollar_order_matches_linking_permutation(corpus):
    # with distinct strings the dollar order is a function of lex ranks
    for c in corpus[:60]:
        seqs = c.seqs()
        if len(set(seqs)) != c.k or c.k < 2:
            continue
        got = invert_separator_based(normalize_conc(conc_bwt(c))).seqs()
        pc = pi_conc(profile(c).rho)
        by_lex = [seqs[i] for i in lex_order(seqs)]
        assert got == [by_lex[pc(j) - 1] for j in range(1, c.k + 1)]


def test_toy_inversion_orders(toy):
    assert invert_separator_based(mdol_bwt(toy)).seqs() == toy.seqs()
    assert invert_separator_based(dol_ebwt(toy)).seqs() == [
        b"ACG",
        b"ATATG",
        b"ATCA",
        b"GGA",
        b"TGA",
    ]
    assert invert_separator_based(colex_bwt(toy)).seqs() == [
        b"ATCA",
        b"GGA",
        b"TGA",
        b"ACG",
        b"ATATG",
    ]
    assert invert_separator_based(normalize_conc(conc_bwt(toy))).seqs() == [
        b"GGA",
        b"TGA",
        b"ACG",
        b"ATCA",
        b"ATATG",
    ]


def test_raw_conc_must_be_normalized_first(toy):
    with pytest.raises(TransformError, match="normalize"):
        invert_separator_based(conc_bwt(toy))


def test_invert_rejects_rotation_variants(toy):
    with pytest.raises(TransformError):
        invert_separator_based(ebwt(toy))


def test_invert_ebwt_micro():
    t = from_text("TCTGG", Variant.EBWT)
    assert invert_ebwt(t) == [b"CGT", b"GT"]


def test_invert_ebwt_reencodes_to_same_transform(corpus):
    for c in corpus:
        t = ebwt(c)
        words = invert_ebwt(t)
        again = ebwt(from_seqs(words))
        assert again.symbols == t.symbols
        # canonical form: primitive words, each its own least rotation
        for w in words:
            assert primitive_root(w).exponent == 1
            rots = [w[i:] + w[:i] for i in range(len(w))]
            assert w == min(rots)
        assert words == sorted(words)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text("AB", min_size=1), st.text("ACGT", min_size=1)))
def test_every_string_inverts_as_an_ebwt(s):
    # Gessel-Reutenauer: every string is the ebwt of one multiset of
    # primitive necklaces, read off its LF cycles
    t = from_text(s, Variant.EBWT)
    words = invert_ebwt(t)
    assert words == sorted(words)
    assert len(words) == t.source_k
    for w in words:
        assert primitive_root(w).exponent == 1
        assert w == least_rotation(w)
    assert to_text(ebwt(from_seqs(words))) == s


def test_invert_ebwt_collapses_powers():
    got = invert_ebwt(ebwt(from_seqs([b"ABAB"])))
    assert got == [b"AB", b"AB"]


def test_invert_ebwt_single_bwt():
    t = from_text("nnbaaa", Variant.SINGLE_BWT)
    assert invert_ebwt(t) == [b"abanan"]  # banana, least rotation


def test_invert_malformed_text():
    with pytest.raises(TransformError, match="without separators"):
        from_text("ABBA", Variant.MDOL_BWT)
    # a dollar count that cannot close into strings
    with pytest.raises(TransformError):
        invert_separator_based(from_text("$AB$", Variant.MDOL_BWT))
    with pytest.raises(TransformError):
        invert_ebwt(from_text("A$", Variant.MDOL_BWT))
    # the walk from the one separator row closes after one symbol
    with pytest.raises(TransformError, match="left over"):
        invert_separator_based(from_text("A$A", Variant.MDOL_BWT))


def test_inversion_roundtrip_via_text(toy):
    for variant in (Variant.MDOL_BWT, Variant.DOL_EBWT, Variant.COLEX_BWT):
        text = to_text(build(variant, toy))
        back = invert_separator_based(from_text(text, variant))
        assert to_text(build(variant, back)) == text
