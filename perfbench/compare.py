"""Print per-workload metric deltas between two sets of benchmark records.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a record file written by ``run.py --out`` or a
directory of them (say, ten seeds of the parent commit and ten of the
change).  Records are grouped by workload and trace mode; each metric is
summarized by its median, with the quartile spread as a share of the
median beside it.  End-to-end metrics are judged against their bounds in
BENCHMARK.json: ``worse`` when the change's median is worse than the
parent's by more than the bound, ``unresolved`` when the parent's own
spread exceeds the bound.  Per-layer metrics have no bound and show the
delta only.  A record whose op failed, or whose simulated outputs
differ between the two sides for the same seed, is reported too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text())
        if "workload" in record and "metrics" in record:
            records.append(record)
    if not records:
        raise SystemExit(f"no benchmark records in {path}")
    return records


def summary(values: list[float]) -> tuple[float, float]:
    """(median, quartile spread as a share of the median)."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / abs(mid)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"parent": load(args.parent), "change": load(args.change)}
    groups: dict[tuple[str, int], dict[str, list[dict]]] = defaultdict(
        lambda: {"parent": [], "change": []}
    )
    for side, records in sides.items():
        for record in records:
            groups[(record["workload"], record["trace"])][side].append(record)

    regressions = 0
    for (workload, trace), group in sorted(groups.items()):
        parent, change = group["parent"], group["change"]
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"\n== {workload}: {kind}; {len(parent)} parent vs {len(change)} change records")
        if not parent or not change:
            print("   (one side has no records; nothing to compare)")
            continue
        for side, records in group.items():
            bad = [r["seed"] for r in records if not r["correct"] or r["failed"]]
            if bad:
                print(f"   {side}: incorrect or failed ops on seeds {bad}")
        parent_sim = {r["seed"]: r.get("digest") for r in parent}
        moved = sorted(
            r["seed"] for r in change
            if r["seed"] in parent_sim and r.get("digest") != parent_sim[r["seed"]]
        )
        if moved:
            print(f"   simulated outputs differ from the parent on seeds {moved}")
        print(f"   {'metric':34} {'unit':>15} {'parent':>12} {'change':>12} "
              f"{'delta':>8} {'spread p/c':>13}  verdict")
        names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in change)]
        for name in names:
            unit = parent[0]["metrics"][name]["unit"]
            p_mid, p_spread = summary([r["metrics"][name]["value"] for r in parent])
            c_mid, c_spread = summary([r["metrics"][name]["value"] for r in change])
            delta = (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = delta > bound if better[name] == "lower" else -delta > bound
                if worse:
                    verdict = f"worse (bound {bound:.0%})"
                    regressions += 1
                elif p_spread > bound:
                    verdict = "unresolved (spread > bound)"
                else:
                    verdict = f"within {bound:.0%}"
            print(f"   {name:34} {unit:>15} {p_mid:12.6g} {c_mid:12.6g} {delta:+8.1%} "
                  f"{p_spread:6.1%}/{c_spread:6.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
