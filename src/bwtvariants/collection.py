"""String collections and their I/O.

Sequences are opaque byte strings: no case folding, no alphabet assumption.
Four byte values are reserved and may not occur in input sequences:

* 0x00 and 0x01 are the in-memory codes for the terminator and separator
  sentinels that transforms append,
* 0x23 ('#') and 0x24 ('$') are the text display forms of those sentinels,
  reserved so that serialized transforms stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import contains
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError

TERM_BYTE = 0x00
SEP_BYTE = 0x01
TERM_TEXT = 0x23  # '#'
SEP_TEXT = 0x24  # '$'

RESERVED_BYTES = frozenset({TERM_BYTE, SEP_BYTE, TERM_TEXT, SEP_TEXT})


@dataclass(frozen=True)
class SeqRecord:
    """One named sequence. The id is inert metadata."""

    id: str
    seq: bytes


@dataclass(frozen=True)
class Collection:
    """An ordered multiset of sequences. Duplicates are allowed."""

    records: tuple[SeqRecord, ...]

    @property
    def k(self) -> int:
        return len(self.records)

    @property
    def total_length(self) -> int:
        return sum(len(r.seq) for r in self.records)

    def seqs(self) -> list[bytes]:
        return [r.seq for r in self.records]

    def reordered(self, order: Sequence[int]) -> "Collection":
        """New collection presenting the same records in ``order`` (0-based)."""
        if sorted(order) != list(range(self.k)):
            raise ValidationError("order must be a permutation of 0..k-1")
        return Collection(tuple(self.records[i] for i in order))

    def require_valid(self) -> None:
        problems = validate(self)
        if problems:
            raise ValidationError("; ".join(problems))


def from_seqs(seqs: Iterable[bytes], ids: Iterable[str] | None = None) -> Collection:
    seqs = list(seqs)
    if ids is None:
        ids = [str(i + 1) for i in range(len(seqs))]
    return Collection(tuple(SeqRecord(i, s) for i, s in zip(ids, seqs)))


def validate(c: Collection) -> list[str]:
    """Report invariant violations without raising.

    Checks: k >= 1, every sequence non-empty, no reserved bytes.
    """
    seqs = [r.seq for r in c.records]
    # one C-level pass per reserved byte; the messages come from the
    # loop below, which runs only when some record fails
    if seqs and all(seqs) and not any(
        any(map(contains, seqs, repeat(b))) for b in RESERVED_BYTES
    ):
        return []
    problems = []
    if c.k == 0:
        problems.append("collection is empty (k = 0)")
    for idx, rec in enumerate(c.records, start=1):
        if len(rec.seq) == 0:
            problems.append(f"record {idx} ({rec.id!r}) has an empty sequence")
            continue
        bad = RESERVED_BYTES.intersection(rec.seq)
        if bad:
            shown = ", ".join(f"0x{b:02x}" for b in sorted(bad))
            problems.append(f"record {idx} ({rec.id!r}) contains reserved byte(s) {shown}")
    return problems


def _split_lines(raw: bytes) -> list[bytes]:
    # Accept LF and CRLF endings; stray CR is stripped at line ends only.
    return [ln[:-1] if ln.endswith(b"\r") else ln for ln in raw.split(b"\n")]


def parse_fasta(raw: bytes) -> Collection:
    """Parse FASTA bytes into a Collection.

    Headers are whatever follows '>' up to the first whitespace; the rest of
    the header line is ignored. Sequence lines between headers are
    concatenated.
    """
    lines = _split_lines(raw)
    records: list[SeqRecord] = []
    header: str | None = None
    chunks: list[bytes] = []

    def flush() -> None:
        if header is None:
            return
        seq = b"".join(chunks)
        if not seq:
            raise ParseError(f"record {header!r} has an empty sequence")
        records.append(SeqRecord(header, seq))

    for ln in lines:
        if not ln:
            continue
        if ln.startswith(b">"):
            flush()
            header = ln[1:].split(None, 1)[0].decode("latin-1") if len(ln) > 1 else ""
            chunks = []
        else:
            if header is None:
                raise ParseError("sequence data before the first '>' header")
            chunks.append(ln)
    flush()
    if not records:
        raise ParseError("no FASTA records found")
    c = Collection(tuple(records))
    problems = [p for p in validate(c) if "reserved" in p]
    if problems:
        raise ParseError("; ".join(problems))
    return c


def parse_lines(raw: bytes) -> Collection:
    """Parse one sequence per non-empty line; records are numbered from 1."""
    seqs = [ln for ln in _split_lines(raw) if ln]
    if not seqs:
        raise ParseError("no sequences found (empty input)")
    c = from_seqs(seqs)
    problems = [p for p in validate(c) if "reserved" in p]
    if problems:
        raise ParseError("; ".join(problems))
    return c


def serialize_lines(c: Collection) -> bytes:
    return b"\n".join(r.seq for r in c.records) + b"\n"


def serialize_fasta(c: Collection, width: int = 70) -> bytes:
    out = bytearray()
    for r in c.records:
        out += b">" + r.id.encode("latin-1") + b"\n"
        for i in range(0, len(r.seq), width):
            out += r.seq[i : i + width] + b"\n"
    return bytes(out)
