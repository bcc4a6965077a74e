"""Compare two sets of end-to-end benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py BASE.json[:SET] NEW.json[:SET]

Each argument is a results file written by ``run.py --out`` and, when the
file holds more than one run set, the set's name.  For every workload both
sides ran and every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles and one verdict:

``better``
    At least ten runs pair up, the new side wins at least nine tenths of the
    pairs (ties count for neither), and the medians differ by more than the
    base side's interquartile distance.
``worse``
    The new median is worse than the base median by more than the metric's
    bound, and either the base side's spread is within the bound or every
    new run reads worse than every base run.
``unresolved``
    The base side's spread (interquartile distance over median) exceeds the
    bound, and not every new run reads better than every base run.
``same``
    Anything else: no regression beyond the bound.

Runs pair up in file order, so record the two sides alternately.  A side
with more failed cells than the base is reported ``worse``.  Exits 1 when
any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> Dict:
    """Compare one metric's runs; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - n) > 0: n improves on b
    base_q, new_q = quartiles(base), quartiles(new)
    base_median, new_median = statistics.median(base), statistics.median(new)
    base_iqr = base_q[2] - base_q[0]
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    change = sign * (new_median - base_median) / abs(base_median)  # > 0: worse
    spread = base_iqr / abs(base_median)
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    all_worse = all(sign * (n - b) > 0 for b in base for n in new)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and change < 0
        and abs(new_median - base_median) > base_iqr
    ):
        outcome = "better"
    elif change > bound and (spread <= bound or all_worse):
        outcome = "worse"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "same"
    return {
        "verdict": outcome,
        "base": base_q,
        "new": new_q,
        "change": change,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
    }


def load_set(argument: str) -> Dict[str, list]:
    """``{workload: [run records]}`` of ``FILE[:SET]``."""
    path, _, name = argument.partition(":")
    sets = json.loads(Path(path).read_text())["sets"]
    if not name:
        if len(sets) != 1:
            raise SystemExit(f"{path} holds run sets {sorted(sets)}; name one as {path}:SET")
        (name,) = sets
    if name not in sets:
        raise SystemExit(f"{path} has no run set {name!r}; it has {sorted(sets)}")
    return sets[name]


def compare(base: Dict[str, list], new: Dict[str, list], metrics: List[Dict]) -> List[Dict]:
    """One row per (workload, metric) present on both sides, plus failure rows."""
    rows = []
    for workload in sorted(base.keys() & new.keys()):
        for metric in metrics:
            name = metric["name"]
            values = [
                [run["metrics"][name]["value"] for run in side[workload] if name in run["metrics"]]
                for side in (base, new)
            ]
            if not all(values):
                continue
            row = verdict(values[0], values[1], metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, **row})
        failed = [sum(run["failed"] for run in side[workload]) for side in (base, new)]
        if failed[1] > failed[0]:
            rows.append(
                {"workload": workload, "metric": "failed", "verdict": "worse",
                 "base": [failed[0]] * 3, "new": [failed[1]] * 3, "change": 0.0,
                 "spread": 0.0, "wins": 0, "pairs": 0}
            )
    return rows


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="FILE[:SET] of the parent commit's runs")
    parser.add_argument("new", help="FILE[:SET] of the change's runs")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    rows = compare(load_set(args.base), load_set(args.new), metrics)

    def summary(q: List[float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(
        f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>30s} "
        f"{'new median [q1, q3]':>30s} {'change':>8s} {'wins':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:14s} {row['metric']:12s} {summary(row['base']):>30s} "
            f"{summary(row['new']):>30s} {100 * row['change']:>+7.1f}% "
            f"{row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
