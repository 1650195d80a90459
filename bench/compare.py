"""Compare two sets of benchmark run records.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories of run records
written by ``bench/run.py --out`` (or single record files).  Untraced
records are grouped by workload and paired in seed order.  For every
workload and end-to-end metric the table gives each side's median and
quartiles, the share of pairs ``B`` won (ties count for neither) and a
verdict:

* ``improved``: there are at least ten pairs, ``B`` won at least nine
  tenths of them and its median is better by more than ``A``'s
  interquartile range (with fewer pairs such a result is
  ``unresolved``);
* ``regressed``: ``B``'s median is worse by more than the metric's
  ``BENCHMARK.json`` bound -- or, when ``A``'s spread exceeds the bound,
  every run of ``B`` is worse than every run of ``A`` by more than it;
* ``unresolved``: ``A``'s spread exceeds the bound and neither side's
  runs all beat the other's;
* ``unchanged``: otherwise.

Exits 1 on any regression, or when a workload's failed share
(failed / attempted) rose, and 2 when the records were measured for
different lengths of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.common import load_spec  # noqa: E402

NINE_TENTHS = 0.9
#: fewer pairs than this cannot show a gain: five runs of one commit
#: against five more of the same have come out "improved"
MIN_PAIRS = 10


def load_records(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if isinstance(record, dict) and "workload" in record and not record["trace"]:
            records.append(record)
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one metric, and the share of pairs ``change`` won."""

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    pairs = list(zip(parent, change))
    won = sum(beats(b, a) for a, b in pairs) / len(pairs)
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    # relative change, positive when the change is worse
    worse = (change_median - parent_median) / parent_median
    if better == "higher":
        worse = -worse
    spread = (q3 - q1) / parent_median
    all_better = all(beats(b, a) for a in parent for b in change)
    all_worse = all(beats(a, b) for a in parent for b in change)
    if won >= NINE_TENTHS and -worse > spread:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), won
    if spread > bound:
        if all_worse and worse > bound:
            return "regressed", won
        return ("unchanged" if all_better else "unresolved"), won
    return ("regressed" if worse > bound else "unchanged"), won


def by_workload(records: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in sorted(records, key=lambda r: r["seed"]):
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def failed_share(records: List[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(parent: List[dict], change: List[dict], spec: dict) -> Tuple[List[list], bool]:
    """Table rows and whether anything regressed."""
    rows: List[list] = []
    regressed = False
    parent_by, change_by = by_workload(parent), by_workload(change)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent_by or workload not in change_by:
            continue
        a_runs, b_runs = parent_by[workload], change_by[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            outcome, won = verdict(a, b, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            rows.append([workload, name, quartiles(a), quartiles(b), won, outcome])
        a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
        rose = b_failed > a_failed
        regressed |= rose
        rows.append(
            [workload, "failed_share", (a_failed,) * 3, (b_failed,) * 3, None,
             "regressed" if rose else "unchanged"]
        )
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/compare.py")
    parser.add_argument("parent", type=Path, help="records of the parent")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    parent, change = load_records(args.parent), load_records(args.change)
    lengths = sorted({r["seconds"] for r in parent + change})
    if len(lengths) > 1:
        print(f"records measured for different seconds: {lengths}", file=sys.stderr)
        return 2
    rows, regressed = compare(parent, change, load_spec())
    print(
        f"{'workload':<15} {'metric':<28} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'won':>5}  verdict"
    )
    for workload, name, a, b, won, outcome in rows:
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (a, b)]
        won_cell = "" if won is None else f"{won:.2f}"
        print(f"{workload:<15} {name:<28} {cells[0]:>34} {cells[1]:>34} {won_cell:>5}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
