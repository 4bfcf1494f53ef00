"""Command-line driver.

Exit codes: 0 success, 1 usage error, 2 input or processing error,
3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .collection import (
    Collection,
    from_seqs,
    parse_fasta,
    parse_lines,
    serialize_fasta,
    serialize_lines,
)
from .errors import BwtError
from .intervals import derive_transform
from .ordering import colex_order, lex_order
from .permutations import Perm, enumerate_feasible
from .report import analyze
from .distances import distance_matrix
from .oracle import naive_rotation_sort
from .runs import count_runs, optimal_order, rle_text
from .synth import GenSpec, generate
from .transforms import (
    COLLECTION_VARIANTS,
    Variant,
    build,
    build_normalized,
    ebwt,
    from_text,
    invert_ebwt,
    invert_separator_based,
    normalize_conc,
    to_text,
)

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # input errors and uses 1 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(out: str | None, data: bytes) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _load_collection(args) -> Collection:
    raw = _read_input(args.input)
    c = parse_fasta(raw) if args.format == "fasta" else parse_lines(raw)
    if getattr(args, "order", "input") != "input":
        c = _apply_order(c, args.order)
    c.require_valid()
    return c


def _apply_order(c: Collection, order: str) -> Collection:
    if order == "input":
        return c
    if order == "lex":
        return c.reordered(lex_order(c.seqs()))
    if order == "colex":
        return c.reordered(colex_order(c.seqs()))
    if order == "reverse":
        return c.reordered(list(range(c.k - 1, -1, -1)))
    p = Perm.from_one_line(order)
    if len(p) != c.k:
        raise BwtError(f"order permutation has length {len(p)}, collection has k={c.k}")
    return c.reordered([v - 1 for v in p.mapping])


def _order_kind(text: str) -> str:
    if text in ("input", "lex", "colex", "reverse"):
        return text
    try:
        Perm.from_one_line(text)
    except BwtError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not input/lex/colex/reverse or a one-line permutation"
        )
    return text


def _variant_kind(text: str) -> Variant:
    try:
        return Variant.from_name(text)
    except BwtError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def cmd_transform(args) -> int:
    c = _load_collection(args)
    v = args.variant
    t = build(v, c)
    if args.oracle:
        _, ref = naive_rotation_sort(v, c)
        if ref.symbols != t.symbols:
            sys.stderr.write("oracle mismatch: naive rotation sort disagrees\n")
            return 3
    if v is Variant.CONC_BWT and not args.raw:
        t = normalize_conc(t)
    if args.rle:
        payload = rle_text(count_runs(t)).encode("latin-1")
    else:
        payload = (to_text(t) + "\n").encode("latin-1")
    _write_output(args.out, payload)
    return 0


def cmd_analyze(args) -> int:
    c = _load_collection(args)
    rep = analyze(c, edit_subset=args.edit_subset, max_cells=args.max_cells)
    text = rep.to_tsv() if args.tsv else rep.to_json()
    _write_output(args.out, text.encode())
    return 0


def cmd_compare(args) -> int:
    c = _load_collection(args)
    if args.variants:
        variants = [Variant.from_name(n) for n in args.variants.split(",") if n.strip()]
    else:
        variants = [
            v for v in COLLECTION_VARIANTS
            if v.separator_based or args.kind == "edit"
        ]
    ts = [build_normalized(v, c) for v in variants]
    m = distance_matrix(ts, kind=args.kind, max_cells=args.max_cells)
    if args.json:
        payload = json.dumps(m.to_json_obj(), indent=2) + "\n"
    else:
        payload = m.to_tsv()
    _write_output(args.out, payload.encode())
    return 0


def cmd_optimal(args) -> int:
    c = _load_collection(args)
    res = optimal_order(c)
    lines = [
        f"permutation\t{res.permutation.one_line()}",
        f"rOpt\t{res.r_opt}",
    ]
    for v in COLLECTION_VARIANTS:
        # the separator-based variants are read off the scan the order
        # was planned on
        t = ebwt(c) if v is Variant.EBWT else derive_transform(res.intervals, v, c)
        lines.append(f"{v.value}\t{count_runs(t).r}")
    _write_output(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def cmd_feasible(args) -> int:
    from math import factorial

    count, pct = enumerate_feasible(args.k, cap=args.cap)
    _write_output(args.out, f"{count}/{factorial(args.k)} = {pct}%\n".encode())
    return 0


def cmd_invert(args) -> int:
    text = _read_input(args.input).decode("latin-1")
    # drop only the line ending that transform appends: whitespace
    # bytes are symbols
    if text.endswith("\n"):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    if "\n" in text:
        # no input sequence holds a line break
        raise BwtError("transform text must be a single line")
    v = args.variant
    t = from_text(text, v)
    if v is Variant.CONC_BWT and not t.normalized:
        t = normalize_conc(t)
    if v in (Variant.EBWT, Variant.SINGLE_BWT):
        c = from_seqs(invert_ebwt(t))
    else:
        c = invert_separator_based(t)
    data = serialize_fasta(c) if args.format == "fasta" else serialize_lines(c)
    _write_output(args.out, data)
    return 0


def _length_kind(text: str):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not N or lo:hi")


def cmd_synth(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        k=args.k,
        length=args.length,
        alphabet=args.alphabet.encode("latin-1"),
        mutation_rate=args.mutation_rate,
        suffix_bias=args.suffix_bias,
    )
    c = generate(spec)
    _write_output(args.out, serialize_fasta(c))
    return 0


def _add_io_flags(p, with_order=True):
    p.add_argument("input", help="input path, or - for stdin")
    p.add_argument("--format", choices=("fasta", "lines"), default="fasta")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if with_order:
        p.add_argument(
            "--order",
            type=_order_kind,
            default="input",
            help="input|lex|colex|reverse or an explicit one-line permutation",
        )


def _build_parser() -> _Parser:
    ap = _Parser(prog="bwtv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[], help="build one transform")
    _add_io_flags(p)
    p.add_argument("--variant", type=_variant_kind, required=True)
    p.add_argument("--raw", action="store_true", help="skip concatenation-variant normalization")
    p.add_argument("--rle", action="store_true", help="emit run-length encoding")
    p.add_argument("--oracle", action="store_true", help="cross-check against the naive rotation sort")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("analyze", help="full dataset report")
    _add_io_flags(p)
    p.add_argument("--edit-subset", type=int, default=None, metavar="N",
                   help="also compute edit distances on the first N records")
    p.add_argument("--max-cells", type=int, default=10**8)
    p.add_argument("--tsv", action="store_true", help="TSV instead of JSON")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("compare", help="pairwise distance matrix")
    _add_io_flags(p)
    p.add_argument("--kind", choices=("hamming", "edit"), default="hamming")
    p.add_argument("--variants", default=None, help="comma-separated variant names")
    p.add_argument("--max-cells", type=int, default=10**8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("optimal", help="run-minimizing input order")
    _add_io_flags(p)
    p.set_defaults(fn=cmd_optimal)

    p = sub.add_parser("feasible", help="feasible dollar-order census")
    p.add_argument("k", type=int)
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_feasible)

    p = sub.add_parser("invert", help="invert a transform back to strings")
    p.add_argument("input", help="transform text path, or - for stdin")
    p.add_argument("--variant", type=_variant_kind, required=True)
    p.add_argument("--format", choices=("fasta", "lines"), default="fasta")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("synth", help="deterministic synthetic collection")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--length", type=_length_kind, default=100, help="fixed N or range lo:hi")
    p.add_argument("--alphabet", default="ACGT")
    p.add_argument("--mutation-rate", type=float, default=0.0)
    p.add_argument("--suffix-bias", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except BwtError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
