"""Dataset-level summary report combining every analysis surface."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from ._fmt import fmt, half_up_int
from .collection import Collection, from_seqs
from .distances import DistanceMatrix, distance_matrix
from .errors import ValidationError
from .intervals import IntervalReport
from .permutations import PermutationProfile, profile
from .runs import OptimalOrderResult, count_runs, optimal_order
from .transforms import COLLECTION_VARIANTS, Variant, build_normalized


@dataclass(frozen=True)
class AnalyzeReport:
    dataset: dict
    runs_table: dict
    hamming: DistanceMatrix
    edit: DistanceMatrix | None
    perms: PermutationProfile
    intervals: IntervalReport
    optimal: OptimalOrderResult

    def to_json_obj(self) -> dict:
        return {
            "datasetProperties": dict(self.dataset),
            "runsTable": {k: dict(v) for k, v in self.runs_table.items()},
            "hammingMatrix": self.hamming.to_json_obj(),
            "editMatrix": self.edit.to_json_obj() if self.edit else None,
            "permutationProfile": {
                "rho": self.perms.rho.one_line(),
                "piDe": self.perms.pi_de.one_line(),
                "piMd": self.perms.pi_md.one_line(),
                "piConc": self.perms.pi_conc.one_line(),
                "gamma": self.perms.gamma.one_line(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def to_tsv(self) -> str:
        out = []
        for key, val in self.dataset.items():
            out.append(f"{key}\t{val}")
        out.append("")
        out.append("variant\tr\tn\tmeanRunLength")
        for name, row in self.runs_table.items():
            out.append(f"{name}\t{row['r']}\t{row['n']}\t{row['meanRunLength']}")
        out.append("")
        out.append(self.hamming.to_tsv().rstrip("\n"))
        if self.edit is not None:
            out.append("")
            out.append(self.edit.to_tsv().rstrip("\n"))
        out.append("")
        for name, p in (
            ("rho", self.perms.rho),
            ("piDe", self.perms.pi_de),
            ("piMd", self.perms.pi_md),
            ("piConc", self.perms.pi_conc),
            ("gamma", self.perms.gamma),
        ):
            out.append(f"{name}\t{p.one_line()}")
        return "\n".join(out) + "\n"


def analyze(
    c: Collection, edit_subset: int | None = None, max_cells: int = 10**8
) -> AnalyzeReport:
    """Full report: dataset properties, per-variant run counts with the
    run-minimizing order, pairwise Hamming distances of the
    separator-based transforms, the induced permutations, and (when
    `edit_subset` caps the collection to its first records) pairwise
    edit distances including the sentinel-free transform."""
    c.require_valid()
    lengths = [len(s) for s in c.seqs()]
    # the other builds come first: they peak lower without the optimal
    # order's scan held alongside
    transforms = {
        v: build_normalized(v, c)
        for v in COLLECTION_VARIANTS
        if v is not Variant.DOL_EBWT
    }
    # one rotation scan gives the intervals, dol_ebwt and the template
    # of the optimal order
    opt = optimal_order(c)
    ireport = opt.intervals
    transforms[Variant.DOL_EBWT] = ireport.template
    runs_table: dict[str, dict] = {}
    for v in COLLECTION_VARIANTS:
        stats = count_runs(transforms[v])
        runs_table[v.value] = {
            "r": stats.r,
            "n": stats.n,
            "meanRunLength": str(stats.mean_run_length),
        }
    n_sep = c.total_length + c.k
    runs_table["optimal"] = {
        "r": opt.r_opt,
        "n": n_sep,
        "meanRunLength": fmt(Fraction(n_sep, opt.r_opt), 3),
        "permutation": opt.permutation.one_line(),
    }

    hamming_m = distance_matrix(
        [transforms[v] for v in COLLECTION_VARIANTS if v.separator_based],
        kind="hamming",
    )

    edit_m = None
    if edit_subset is not None:
        if edit_subset < 1:
            raise ValidationError("edit subset must be at least 1")
        sub = c
        if edit_subset < c.k:
            sub = from_seqs([s for s in c.seqs()[:edit_subset]])
        subs = [build_normalized(v, sub) for v in COLLECTION_VARIANTS]
        edit_m = distance_matrix(subs, kind="edit", max_cells=max_cells)

    dataset = {
        "k": c.k,
        "totalLength": c.total_length,
        "avgLength": half_up_int(Fraction(c.total_length, c.k)),
        "maxLength": max(lengths),
        "minLength": min(lengths),
        "intervalCount": ireport.count_intervals,
        "totalIntervalLength": ireport.total_interval_length,
        "fractionInIntervals": ireport.fraction_text(),
        "variability": ireport.variability_text(),
    }
    return AnalyzeReport(
        dataset=dataset,
        runs_table=runs_table,
        hamming=hamming_m,
        edit=edit_m,
        perms=profile(c),
        intervals=ireport,
        optimal=opt,
    )
