"""End-to-end benchmark of the ``bwtv`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark compiles a private copy of
the package (set-up), writes the workload's collection as FASTA, and then
runs rounds of ``bwtv`` processes one after another (a closed loop with
one client) until S seconds of process time have passed. A round is three
bare interpreter start-ups (the speed gauge, see ``end_to_end``), one
``analyze``, one ``transform`` per collection variant and one ``invert``
of each transform, each in a fresh process; wall time runs from spawn to
exit and peak RSS comes from that process's own ``wait4`` usage. Every
output is checked against ``checker.Expected``, built from the input
alone, outside the timed processes. The last line of standard output is
one JSON object with the metrics; diagnostics go to standard error.

With ``--trace 1`` each process runs under ``tracer.py`` and the metrics
are the per-layer spans and counts instead; the traced analyze report must
be byte-identical to an untraced one.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import build
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
VARIANTS = ("ebwt", "dol", "mdol", "conc", "colex")
# the one operation allowed to fail: permutations.pi_conc breaks ties
# between equal strings by input position
KNOWN_FAULT = "piconc"
# the gauge: a start-up of the interpreter that loads nothing of the program
GAUGE = ["-c", "import random"]
GAUGE_RUNS = 3
# the gauge's time at the speed the times are reported in: the median of
# its per-round value on the 2-vCPU machine of the README's figures
GAUGE_REFERENCE_S = 0.025


def process_age() -> float:
    """Seconds since this process started, from /proc (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


class Spawner:
    """Handle on ``spawner.py``, started before this process grows."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, err: Path) -> tuple[float, float, int]:
        """Run one process to its end: (wall seconds, peak RSS in MB, exit code)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env, "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Bench:
    def __init__(self, spawner: Spawner, work: Path, pkg_root: Path, pure: bool,
                 backend: str, traced: bool):
        self.spawner = spawner
        self.work = work
        self.env = build.program_env(pkg_root, pure)
        self.backend = backend
        self.traced = traced
        self.fasta = work / "input.fa"
        self.verdicts: dict = {}
        self.reasons: set[str] = set()

    def command(self, args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "bwtvariants", *args]
        return [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]

    def run(self, tag: str, args: list[str], traced: bool) -> dict:
        spans = self.work / f"{tag}.spans.json" if traced else None
        err = self.work / f"{tag}.err"
        # unlink rather than let the process truncate: truncating a file
        # whose pages are being written back blocks for tens of milliseconds
        for path in (err, Path(args[args.index("--out") + 1])):
            path.unlink(missing_ok=True)
        wall, rss, code = self.spawner.run(self.command(args, spans), self.env, err)
        rec = {"tag": tag, "wall": wall, "rss": rss, "code": code}
        if code != 0:
            rec["error"] = f"{tag} exited {code}: {err.read_text(errors='replace')[-400:]}"
        if spans is not None and spans.exists():
            rec["spans"] = json.loads(spans.read_text())
            if rec["spans"]["backend"] != self.backend:
                raise build.SetupError(f"{tag} ran on backend {rec['spans']['backend']}")
        return rec

    def gauge(self) -> dict:
        """The fastest of ``GAUGE_RUNS`` bare start-ups: interference only
        adds time, so the fastest is the steadiest reading of speed."""
        err = self.work / "gauge.err"
        walls = []
        for _ in range(GAUGE_RUNS):
            wall, _, code = self.spawner.run([sys.executable, *GAUGE], self.env, err)
            if code != 0:
                raise RuntimeError(f"the gauge exited {code}: {err.read_text(errors='replace')[-400:]}")
            walls.append(wall)
        return {"tag": "gauge", "wall": min(walls)}

    def round(self) -> list[dict]:
        w = self.work
        recs = [self.gauge()]
        recs.append(self.run("analyze", ["analyze", str(self.fasta), "--out", str(w / "report.json")], self.traced))
        for v in VARIANTS:
            recs.append(self.run(f"transform-{v}", ["transform", str(self.fasta), "--variant", v,
                                                    "--out", str(w / f"{v}.txt")], self.traced))
        for v in VARIANTS:
            recs.append(self.run(f"invert-{v}", ["invert", str(w / f"{v}.txt"), "--variant", v,
                                                 "--out", str(w / f"{v}.inv.fa")], self.traced))
        return recs

    def verdict(self, kind: str, check, *data: bytes) -> str | None:
        key = (kind,) + tuple(hashlib.sha256(d).digest() for d in data)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = check(*data)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                self.verdicts[key] = f"{kind}: malformed output ({e!r})"
        return self.verdicts[key]

    def check_round(self, recs: list[dict], expected) -> dict[str, str | None]:
        """Reason for each failed operation of a round, None for a pass."""
        w = self.work
        out: dict[str, str | None] = {}
        by_tag = {r["tag"]: r for r in recs}

        for v in VARIANTS:
            rec = by_tag[f"transform-{v}"]
            out[rec["tag"]] = rec.get("error") or self.verdict(
                rec["tag"], lambda d, v=v: expected.check_transform(v, d), read(w / f"{v}.txt"))
            rec = by_tag[f"invert-{v}"]
            out[rec["tag"]] = rec.get("error") or self.verdict(
                rec["tag"], lambda d, v=v: expected.check_invert(v, d), read(w / f"{v}.inv.fa"))
        report = read(w / "report.json")
        rec = by_tag["analyze"]
        out["analyze"] = rec.get("error") or self.verdict(
            "analyze", expected.check_analyze, report, read(w / "ebwt.txt"))
        out[KNOWN_FAULT] = rec.get("error") or self.verdict(KNOWN_FAULT, expected.check_piconc, report)
        for reason in out.values():
            if reason and reason not in self.reasons:
                self.reasons.add(reason)
                print(f"FAILED: {reason}", file=sys.stderr)
        return out


def end_to_end(rounds: list[list[dict]]) -> dict[str, float]:
    """Times are in gauge seconds: a round's wall time divided by the
    gauge's time in the same round, times ``GAUGE_REFERENCE_S``, and the
    median of that over rounds. On a shared machine the speed of a core
    drifts by a quarter or more over minutes, so a run's wall times depend
    on when it ran; the gauge, read a few seconds earlier, slows with the
    program and cannot change with it. Transform and invert sum the five
    variants of a round. Peak RSS is each process's median over rounds;
    transform and invert take the largest of the five."""
    recs = [{r["tag"]: r for r in round_} for round_ in rounds]

    def scaled(tags):
        return statistics.median(sum(r[t]["wall"] for t in tags) / r["gauge"]["wall"] * GAUGE_REFERENCE_S
                                 for r in recs)

    def rss(tag):
        return statistics.median(r[tag]["rss"] for r in recs)

    return {
        "analyze_s": scaled(["analyze"]),
        "analyze_peak_rss_mb": rss("analyze"),
        "transform_s": scaled([f"transform-{v}" for v in VARIANTS]),
        "transform_peak_rss_mb": max(rss(f"transform-{v}") for v in VARIANTS),
        "invert_s": scaled([f"invert-{v}" for v in VARIANTS]),
        "invert_peak_rss_mb": max(rss(f"invert-{v}") for v in VARIANTS),
    }


def raw_times(rounds: list[list[dict]]) -> str:
    """Unscaled median wall times, for the log."""
    recs = [{r["tag"]: r for r in round_} for round_ in rounds]
    parts = []
    for name, tags in (("gauge", ["gauge"]), ("analyze", ["analyze"]),
                       ("transform", [f"transform-{v}" for v in VARIANTS]),
                       ("invert", [f"invert-{v}" for v in VARIANTS])):
        parts.append(f"{name} {statistics.median(sum(r[t]['wall'] for t in tags) for r in recs):.4f} s")
    return "raw median wall: " + ", ".join(parts)


def per_layer(rounds: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Per round: calls and self time summed over the round's processes;
    reported as the median over rounds."""
    import tracer

    totals = []
    for recs in rounds:
        t = {}
        # a process that died before writing its spans contributes nothing
        spans = [r.get("spans", {"calls": {}, "self_s": {}, "work": {}}) for r in recs]
        for name in tracer.SPANS:
            t[f"{name}.calls"] = sum(s["calls"].get(name, 0) for s in spans)
            t[f"{name}.self_s"] = sum(s["self_s"].get(name, 0.0) for s in spans)
        for name in tracer.WORK:
            t[name] = sum(s["work"].get(name, 0) for s in spans)
        totals.append(t)
    out = {}
    for key in totals[0]:
        values = [t[key] for t in totals]
        if key.endswith(".self_s"):
            out[key] = (statistics.median(values), "s")
        else:
            out[key] = (statistics.median_low(values), "count")
    return out


def paper_figures(report: bytes) -> str:
    if not report:
        return "no analyze report"
    rep = json.loads(report)
    rs = {k: v["r"] for k, v in rep["runsTable"].items()}
    variant_r = [rs[k] for k in ("ebwt", "dol_ebwt", "mdol_bwt", "conc_bwt", "colex_bwt")]
    ds = rep["datasetProperties"]
    return (f"N={ds['totalLength']} k={ds['k']} fractionInIntervals={ds['fractionInIntervals']} "
            f"r={rs} max/min={max(variant_r) / min(variant_r):.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    _, pure = workloads.WORKLOADS[args.workload]
    backend = "pure-python" if pure else "native"

    build_root = REPO / ".bench_build"
    build_root.mkdir(exist_ok=True)
    work = build_root / f"perfbench-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spawner = Spawner()
    try:
        try:
            pkg_root = build.setup(REPO, work, pure, backend)
        except (build.SetupError, subprocess.CalledProcessError, OSError) as e:
            print(f"set-up failed: {e}", file=sys.stderr)
            return 2
        setup_s = process_age()

        import checker

        seqs = workloads.generate(args.workload, args.seed)
        bench = Bench(spawner, work, pkg_root, pure, backend, bool(args.trace))
        bench.fasta.write_bytes(workloads.to_fasta(seqs))
        expected = checker.Expected(seqs)

        correct = identical = True
        if args.trace:
            ref = bench.run("reference", ["analyze", str(bench.fasta), "--out", str(work / "ref.json")], False)
            reference = (work / "ref.json").read_bytes() if ref["code"] == 0 else None

        rounds: list[list[dict]] = []
        attempted = failed = 0
        busy = 0.0
        while not rounds or busy < args.seconds:
            recs = bench.round()
            rounds.append(recs)
            busy += sum(r["wall"] for r in recs)
            verdicts = bench.check_round(recs, expected)
            attempted += len(verdicts)
            failed += sum(1 for reason in verdicts.values() if reason)
            if any(reason for op, reason in verdicts.items() if op != KNOWN_FAULT):
                correct = False
            if args.trace and read(work / "report.json") != reference:
                identical = correct = False
        if not identical:
            print("FAILED: traced analyze report differs from the untraced one", file=sys.stderr)

        print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
              f"{paper_figures(read(work / 'report.json'))}", file=sys.stderr)
        print(raw_times(rounds), file=sys.stderr)
        if args.trace:
            traced = min(r["wall"] for recs in rounds for r in recs if r["tag"] == "analyze")
            print(f"tracing overhead: fastest traced analyze {traced:.4f} s, "
                  f"untraced {ref['wall']:.4f} s", file=sys.stderr)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(rounds).items()}
        else:
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            for k, v in end_to_end(rounds).items():
                metrics[k] = {"value": v, "unit": "s" if k.endswith("_s") else "MB"}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            build_root.rmdir()
        except OSError:  # not empty: another run's directory is in it
            pass


if __name__ == "__main__":
    sys.exit(main())
