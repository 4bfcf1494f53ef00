"""Collection parsing, validation, and serialization."""

import pytest

from bwtvariants import (
    Collection,
    ParseError,
    SeqRecord,
    ValidationError,
    from_seqs,
    parse_fasta,
    parse_lines,
    serialize_fasta,
    serialize_lines,
    validate,
)


def test_parse_lines_basic():
    c = parse_lines(b"ATATG\nTGA\nACG\n")
    assert c.k == 3
    assert c.seqs() == [b"ATATG", b"TGA", b"ACG"]
    assert [r.id for r in c.records] == ["1", "2", "3"]


def test_parse_lines_skips_blank_lines_and_crlf():
    c = parse_lines(b"AB\r\n\r\n\nBA\r\n")
    assert c.seqs() == [b"AB", b"BA"]


def test_parse_lines_empty_input():
    with pytest.raises(ParseError):
        parse_lines(b"\n\n")


def test_parse_lines_rejects_reserved_bytes():
    with pytest.raises(ParseError, match="reserved"):
        parse_lines(b"AC$G\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_lines(b"AC\x00G\n")


def test_parse_fasta_multiline_and_header_trim():
    raw = b">s1 extra words ignored\nATA\nTG\n>s2\nTGA\n"
    c = parse_fasta(raw)
    assert c.seqs() == [b"ATATG", b"TGA"]
    assert [r.id for r in c.records] == ["s1", "s2"]


def test_parse_fasta_errors():
    with pytest.raises(ParseError):
        parse_fasta(b"ATATG\n")  # data before any header
    with pytest.raises(ParseError):
        parse_fasta(b">only_header\n")  # record with no sequence
    with pytest.raises(ParseError):
        parse_fasta(b"")


def test_fasta_roundtrip_with_wrapping():
    seqs = [b"A" * 151, b"CGT"]
    c = from_seqs(seqs, ids=["long", "short"])
    raw = serialize_fasta(c, width=70)
    back = parse_fasta(raw)
    assert back.seqs() == seqs
    assert [r.id for r in back.records] == ["long", "short"]


def test_lines_roundtrip(corpus):
    for c in corpus[:30]:
        assert parse_lines(serialize_lines(c)).seqs() == c.seqs()


def test_validate_reports_everything():
    c = Collection(
        (
            SeqRecord("ok", b"ACGT"),
            SeqRecord("empty", b""),
            SeqRecord("bad", b"A#B"),
        )
    )
    problems = validate(c)
    assert len(problems) == 2
    assert any("empty" in p for p in problems)
    assert any("reserved" in p for p in problems)
    with pytest.raises(ValidationError):
        c.require_valid()


def test_validate_messages_in_record_order():
    c = Collection(
        (
            SeqRecord("a", b"AC$G"),
            SeqRecord("b", b""),
            SeqRecord("c", b"ACGT"),
            SeqRecord("d", b"\x00#A\x01"),
            SeqRecord("e", b""),
            SeqRecord("f", b"$$"),
        )
    )
    assert validate(c) == [
        "record 1 ('a') contains reserved byte(s) 0x24",
        "record 2 ('b') has an empty sequence",
        "record 4 ('d') contains reserved byte(s) 0x00, 0x01, 0x23",
        "record 5 ('e') has an empty sequence",
        "record 6 ('f') contains reserved byte(s) 0x24",
    ]


def test_validate_valid_collection(toy):
    assert validate(toy) == []
    assert validate(from_seqs([b"\x02\xff", b"A"])) == []


def test_validate_empty_collection():
    assert validate(Collection(())) == ["collection is empty (k = 0)"]


def test_reordered():
    c = from_seqs([b"A", b"B", b"C"])
    assert c.reordered([2, 0, 1]).seqs() == [b"C", b"A", b"B"]
    with pytest.raises(ValidationError):
        c.reordered([0, 0, 1])


def test_from_seqs_ids_default_and_explicit():
    c = from_seqs([b"X", b"Y"])
    assert [r.id for r in c.records] == ["1", "2"]
    c = from_seqs([b"X"], ids=["name"])
    assert c.records[0].id == "name"


def test_total_length(toy):
    assert toy.total_length == 18
    assert toy.k == 5
