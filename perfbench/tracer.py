"""Run one ``bwtv`` command with spans around the program's public layers.

    python3 perfbench/tracer.py SPANS.json -- <bwtv arguments>

Nothing in the package changes: each function below is wrapped here, and
the wrapper replaces every reference a loaded ``bwtvariants`` module holds
(kernels are imported by name into several modules and the builders are
also reached through ``transforms._BUILDERS``). Per function the file gets
its call count and self time (span minus the spans of wrapped callees),
plus work counts summed from the arguments of three kernels.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANS = (
    "cli.main",
    "collection.parse_fasta", "collection.validate", "collection.serialize_fasta",
    "ordering.lex_order", "ordering.colex_order",
    "kernels.suffix_array", "kernels.conjugate_sort", "kernels.shared_suffix_mask",
    "kernels.hamming",
    "transforms.ebwt", "transforms.dol_ebwt", "transforms.mdol_bwt", "transforms.conc_bwt",
    "transforms.colex_bwt", "transforms.normalize_conc", "transforms.to_text",
    "transforms.from_text", "transforms.invert_separator_based", "transforms.invert_ebwt",
    "intervals.interesting_intervals", "runs.count_runs", "runs.optimal_order",
    "permutations.profile", "distances.distance_matrix", "report.analyze",
    "report.AnalyzeReport.to_json",
)

# work count name -> (span, size of one call's input)
WORK = {
    "kernels.suffix_array.symbols": ("kernels.suffix_array", lambda data, sigma: len(data)),
    "kernels.conjugate_sort.symbols": ("kernels.conjugate_sort", lambda seqs: sum(map(len, seqs))),
    "kernels.shared_suffix_mask.rows": ("kernels.shared_suffix_mask", lambda collapsed, sa, ulen: len(sa)),
}


class Recorder:
    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.work = dict.fromkeys(WORK, 0)
        self._child = []  # per open span, time covered by wrapped callees

    def wrap(self, name, fn):
        sizers = [(key, size) for key, (span, size) in WORK.items() if span == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            for key, size in sizers:
                self.work[key] += size(*args, **kwargs)
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - self._child.pop()
                if self._child:
                    self._child[-1] += span

        return wrapper


def _references(mods, obj):
    """(namespace, key) for every module global, and every value of a dict
    held in a module global, that is ``obj``."""
    for mod in mods:
        ns = vars(mod)
        for key, val in list(ns.items()):
            if val is obj:
                yield ns, key
            elif isinstance(val, dict):
                yield from ((val, k) for k, v in list(val.items()) if v is obj)


def install(rec: Recorder) -> None:
    """Wrap every function in SPANS wherever a loaded bwtvariants module
    refers to it, and the class attribute for methods."""
    import bwtvariants.cli  # noqa: F401  (with the package, loads every module)

    mods = [m for n, m in list(sys.modules.items())
            if n == "bwtvariants" or n.startswith("bwtvariants.")]
    for name in SPANS:
        mod_name, _, attr = name.partition(".")
        owner = sys.modules["bwtvariants." + mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        new = rec.wrap(name, orig)
        if path:
            setattr(owner, leaf, new)
        for ns, key in list(_references(mods, orig)):
            ns[key] = new
        if next(_references(mods, orig), None) is not None:
            raise RuntimeError(f"{name} is still reachable unwrapped")


def main(argv: list[str]) -> int:
    out_path, sep, *bwtv_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <bwtv arguments>")
    rec = Recorder()
    install(rec)
    import bwtvariants
    from bwtvariants import cli

    try:
        return cli.main(bwtv_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"backend": bwtvariants.BACKEND, "calls": rec.calls,
                       "self_s": rec.self_s, "work": rec.work}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
