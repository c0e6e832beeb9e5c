"""Spread of one result set, or verdicts between two.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of ``<workload>-s<seed>-t0.json`` files, as
written by ``run.py --save DIR``.  With one directory, prints each
workload x end-to-end metric's median, quartiles and spread (the
interquartile range as a share of the median) against the metric's
bound.  With two, prints one row per workload x end-to-end metric with
both sides' medians and quartiles and a verdict:

* ``better``: the change wins at least 9 of 10 seed-matched pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: not better, and either side's spread exceeds the
  metric's bound, unless every change run reads better than every
  parent run (then ``better``);
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``same``: none of the above.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^(?P<workload>.+)-s(?P<seed>-?\d+)-t0\.json$")


def load(directory: Path) -> dict:
    """{workload: {metric: {seed: value}}} of one result set."""
    out: dict = {}
    for path in sorted(directory.iterdir()):
        match = NAME.match(path.name)
        if not match:
            continue
        result = json.loads(path.read_text())
        per_metric = out.setdefault(match["workload"], {})
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, {})[int(match["seed"])] = \
                entry["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    def improves(c: float, p: float) -> bool:
        return c < p if better == "lower" else c > p

    seeds = sorted(set(parent) & set(change))
    wins = sum(improves(change[s], parent[s]) for s in seeds)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    if seeds and wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1 \
            and improves(cm, pm):
        return "better"
    if spread(p_vals) > bound or spread(c_vals) > bound:
        if all(improves(c, p) for c in c_vals for p in p_vals):
            return "better"
        return "unresolved"
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    return "worse" if worse_by > bound else "same"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = {m["name"]: m for m in
            json.loads(SPEC.read_text())["end_to_end"]}
    sets = [load(Path(a)) for a in argv]
    for workload in sorted(sets[0]):
        for name, meta in spec.items():
            sides = [s.get(workload, {}).get(name, {}) for s in sets]
            if not all(sides):
                continue
            cells = []
            for side in sides:
                q1, q2, q3 = quartiles(list(side.values()))
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            row = f"{workload:14s} {name:14s} " + "  ".join(cells)
            if len(sides) == 1:
                s = spread(list(sides[0].values()))
                flag = "steady" if s < meta["bound"] / 3 else \
                    "within bound" if s <= meta["bound"] else "TOO WIDE"
                row += (f"  n={len(sides[0])} spread {s:.4f} "
                        f"(bound {meta['bound']}): {flag}")
            else:
                row += "  " + verdict(sides[0], sides[1], meta["better"],
                                      meta["bound"])
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
