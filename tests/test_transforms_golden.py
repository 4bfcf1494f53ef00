"""Exact transform outputs on hand-checked collections."""

import pytest

from bwtvariants import (
    GuardError,
    TransformError,
    ValidationError,
    Variant,
    build,
    colex_bwt,
    conc_bwt,
    count_runs,
    dol_ebwt,
    ebwt,
    from_seqs,
    from_text,
    mdol_bwt,
    normalize_conc,
    single_bwt,
    to_text,
)
from bwtvariants.transforms import (
    _check_int32,
    _conjugate_last_column,
    _separator_sa,
)

TOY_GOLDEN = {
    Variant.EBWT: "CGGGATGTACGTTAAAAA",
    Variant.DOL_EBWT: "GGAAACGG$$$TTACTGT$AAA$",
    Variant.MDOL_BWT: "GAGAAGCG$$$TTATCTG$AAA$",
    Variant.CONC_BWT: "$AAGAGGGC$#$TTACTGT$AAA$",
    Variant.COLEX_BWT: "AAAGGCGG$$$TTACTGT$AAA$",
}


@pytest.mark.parametrize("variant,expected", sorted(TOY_GOLDEN.items(), key=lambda x: x[0].value))
def test_toy_goldens(toy, variant, expected):
    t = build(variant, toy)
    assert to_text(t) == expected
    assert t.source_k == 5
    assert t.source_n == 18


def test_toy_conc_normalization(toy):
    raw = conc_bwt(toy)
    assert raw.normalized is False
    assert len(raw) == 18 + 5 + 1
    norm = normalize_conc(raw)
    assert to_text(norm) == "AAGAGGGC$$$TTACTGT$AAA$"
    assert norm.normalized is True
    assert len(norm) == 18 + 5
    with pytest.raises(TransformError):
        normalize_conc(norm)  # already normalized
    with pytest.raises(TransformError):
        normalize_conc(mdol_bwt(toy))  # wrong variant


def test_separator_based_lengths_equal(toy):
    texts = [
        to_text(dol_ebwt(toy)),
        to_text(mdol_bwt(toy)),
        to_text(normalize_conc(conc_bwt(toy))),
        to_text(colex_bwt(toy)),
    ]
    assert all(len(t) == 23 for t in texts)
    # same multiset of symbols, different arrangements
    assert len({frozenset((ch, t.count(ch)) for ch in set(t)) for t in texts}) == 1


def test_two_string_ebwt():
    # GTC precedes GT in omega order, so the last column starts with T
    assert to_text(ebwt(from_seqs([b"GTC", b"GT"]))) == "TCTGG"
    assert to_text(ebwt(from_seqs([b"GT", b"GTC"]))) == "TCTGG"


def test_ebwt_second_example():
    c = from_seqs([b"AACGAC", b"TCAC"])
    assert to_text(ebwt(c)) == "CGACATAACC"
    assert to_text(dol_ebwt(c)) == "CC$GCAAATAC$"


def test_single_bwt_banana():
    banana = from_seqs([b"banana"])
    t = single_bwt(banana)
    assert to_text(t) == "nnbaaa"
    assert count_runs(t).r == 3
    # appending the sentinel changes the picture
    assert to_text(mdol_bwt(banana)) == "annb$aa"


def test_single_bwt_requires_one_string():
    with pytest.raises(TransformError):
        single_bwt(from_seqs([b"GT", b"GTC"]))


def test_singleton_collection():
    one = from_seqs([b"A"])
    assert to_text(dol_ebwt(one)) == "A$"
    assert to_text(mdol_bwt(one)) == "A$"
    assert to_text(colex_bwt(one)) == "A$"
    assert to_text(ebwt(one)) == "A"
    assert to_text(normalize_conc(conc_bwt(one))) == "A$"


def test_eight_string_goldens(eight):
    assert to_text(mdol_bwt(eight)) == "AAAAAAAAACACACACACACAC$$GTGTGT$$AC$$GT$$"
    assert to_text(colex_bwt(eight)) == "AAAAAAAAAAAACCCCAACCAC$$GGTTGT$$AC$$GT$$"
    assert count_runs(mdol_bwt(eight)).r == 28
    assert count_runs(colex_bwt(eight)).r == 18


def test_dol_ebwt_equals_mdol_of_lex_sorted(corpus):
    from bwtvariants import lex_order

    for c in corpus[:40]:
        sorted_c = c.reordered(lex_order(c.seqs()))
        assert dol_ebwt(c).symbols == mdol_bwt(sorted_c).symbols


def test_colex_bwt_equals_mdol_of_colex_sorted(corpus):
    from bwtvariants import colex_order

    for c in corpus[:40]:
        sorted_c = c.reordered(colex_order(c.seqs()))
        assert colex_bwt(c).symbols == mdol_bwt(sorted_c).symbols


def test_mdol_is_order_sensitive(toy):
    shuffled = toy.reordered([1, 4, 3, 2, 0])
    assert to_text(mdol_bwt(shuffled)) == "AAAGGGGC$$$TTACTTG$AAA$"
    assert to_text(mdol_bwt(shuffled)) != to_text(mdol_bwt(toy))
    # dolEBWT ignores input order entirely
    assert to_text(dol_ebwt(shuffled)) == to_text(dol_ebwt(toy))
    assert to_text(ebwt(shuffled)) == to_text(ebwt(toy))
    assert to_text(colex_bwt(shuffled)) == to_text(colex_bwt(toy))


def test_text_roundtrip(toy):
    for variant in Variant:
        if variant is Variant.SINGLE_BWT:
            continue
        t = build(variant, toy)
        back = from_text(to_text(t), variant)
        assert back.symbols == t.symbols
        assert back.variant is t.variant
        assert back.normalized == t.normalized


def test_from_text_rejects_garbage():
    with pytest.raises(TransformError):
        from_text("AB#BA", Variant.MDOL_BWT)  # terminator outside conc
    t = from_text("AB$BA$", Variant.MDOL_BWT)
    assert t.source_k == 2
    assert t.source_n == 4


def test_build_dispatch(toy):
    for variant in (v for v in Variant if v is not Variant.SINGLE_BWT):
        assert build(variant, toy).variant is variant
    assert build(Variant.SINGLE_BWT, from_seqs([b"banana"])).variant is Variant.SINGLE_BWT


def test_variant_from_name():
    assert Variant.from_name("mdol") is Variant.MDOL_BWT
    assert Variant.from_name("dol-ebwt") is Variant.DOL_EBWT
    assert Variant.from_name("COLEX") is Variant.COLEX_BWT
    assert Variant.from_name("bwt") is Variant.SINGLE_BWT
    with pytest.raises(ValidationError):
        Variant.from_name("nope")


def test_reserved_bytes_rejected_by_builders():
    with pytest.raises(ValidationError):
        mdol_bwt(from_seqs([b"A$B"]))
    with pytest.raises(ValidationError):
        ebwt(from_seqs([b"A\x01B"]))


class _Sized:
    """Stands in for a string of ``n`` symbols without allocating them."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def test_int32_guard():
    _check_int32(2**31 - 1, "size")
    with pytest.raises(GuardError, match="int32"):
        _check_int32(2**31, "size")
    # separator sorts index N + k symbols plus the kernel's sentinel
    with pytest.raises(GuardError):
        _separator_sa([_Sized(2**31 - 3), _Sized(1)], [1, 2])
    with pytest.raises(GuardError):
        _conjugate_last_column([_Sized(2**31 - 1), _Sized(1)])
