"""``run.py compare A B``: two sets of results, metric by metric.

``A`` is the base (the parent commit), ``B`` the candidate; each is a
``results-*.json`` file or a directory of them (their repeats pool).
Per workload × end-to-end metric the report gives both medians with
quartiles, the delta as a ratio *of the base*, the bound fixed in
``BENCHMARK.json``, and a verdict:

* ``unresolved`` — either set's own quartile spread exceeds the bound,
  so the sets cannot tell a change of that size from noise;
* ``worse`` / ``better`` — the candidate's median is beyond the bound
  in that direction;
* ``unchanged`` — within the bound.

Per-layer metrics (from traced results) are listed beside them without
a verdict, except counts (unit ``count``), which are compared for exact
equality.  Exit status is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple


def load_set(path: Path) -> Dict[str, Dict[str, Any]]:
    """Pool the results under ``path``: per workload, the end-to-end
    samples of every repeat and the last traced per-layer values."""
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit("compare: no results-*.json under %s" % path)
    pooled: Dict[str, Dict[str, Any]] = {}
    for file in files:
        results = json.loads(file.read_text(encoding="utf-8"))
        for name, workload in results["workloads"].items():
            entry = pooled.setdefault(name, {"end_to_end": {}, "per_layer": {}})
            for metric, summary in workload["end_to_end"].items():
                entry["end_to_end"].setdefault(metric, []).extend(summary["samples"])
            for metric, value in workload.get("per_layer", {}).items():
                entry["per_layer"][metric] = value
    return pooled


def spread(samples: Sequence[float]) -> Tuple[float, float, float]:
    """Median, first and third quartile."""
    middle = statistics.median(samples)
    if len(samples) < 2:
        return middle, middle, middle
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return middle, q1, q3


def verdict(
    base: Sequence[float], candidate: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict and the candidate's delta as a ratio of the base median."""
    base_median, base_q1, base_q3 = spread(base)
    cand_median, cand_q1, cand_q3 = spread(candidate)
    delta = (cand_median - base_median) / base_median
    if (
        (base_q3 - base_q1) / base_median > bound
        or (cand_q3 - cand_q1) / cand_median > bound
    ):
        return "unresolved", delta
    worsening = delta if better == "lower" else -delta
    if worsening > bound:
        return "worse", delta
    if worsening < -bound:
        return "better", delta
    return "unchanged", delta


def main(argv: List[str], benchmark: Dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    base_set = load_set(args.base)
    candidate_set = load_set(args.candidate)
    worse = 0
    for name in sorted(set(base_set) & set(candidate_set)):
        print("== %s" % name)
        base, candidate = base_set[name], candidate_set[name]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            if key not in base["end_to_end"] or key not in candidate["end_to_end"]:
                continue
            a, b = base["end_to_end"][key], candidate["end_to_end"][key]
            outcome, delta = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            a_median, a_q1, a_q3 = spread(a)
            b_median, b_q1, b_q3 = spread(b)
            print(
                "   %-26s base %.4f [%.4f, %.4f] n=%d   candidate %.4f [%.4f, %.4f] "
                "n=%d   delta %+.4f of base %.4f %s   bound %.2f (%s is better)   %s"
                % (
                    key, a_median, a_q1, a_q3, len(a), b_median, b_q1, b_q3, len(b),
                    delta, a_median, metric["unit"], metric["bound"],
                    metric["better"], outcome,
                )
            )
        for metric in benchmark["per_layer"]:
            key = metric["name"]
            if key not in base["per_layer"] or key not in candidate["per_layer"]:
                continue
            a_value = base["per_layer"][key]["value"]
            b_value = candidate["per_layer"][key]["value"]
            note = ""
            if metric["unit"] == "count":
                note = "   equal" if a_value == b_value else "   DIFFERENT"
            print(
                "   %-42s base %.4f   candidate %.4f %s%s"
                % (key, a_value, b_value, metric["unit"], note)
            )
    return 1 if worse else 0
