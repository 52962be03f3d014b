"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``sweep.py``
(``<workload>.seed<n>.trace0.txt``: a run's standard output, whose last
line is the result object).  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints both sides' median and quartiles, the share
of seed-matched pairs the change won, and a verdict:

* ``improved``   — the change won at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the base's own
  quartile spread;
* ``regressed``  — the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` — the base's own spread is wider than the bound (unless
  every change run reads better than every base run: then ``unchanged``);
* ``unchanged``  — otherwise.

It also prints each side's failed-operation share.  Exit code 1 when any
metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT_NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_.-]+)\.seed(?P<seed>-?\d+)\.trace(?P<trace>[01])\.txt$")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def last_json_line(text: str) -> "dict | None":
    for line in reversed(text.strip().splitlines()):
        try:
            doc = json.loads(line)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None
    return None


def load_results(directory: Path, trace: int = 0) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result object, for one trace setting."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.iterdir()):
        match = RESULT_NAME.match(path.name)
        if match is None or int(match["trace"]) != trace:
            continue
        doc = last_json_line(path.read_text())
        if doc is not None:
            out.setdefault(match["workload"], {})[int(match["seed"])] = doc
    return out


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """The verdict and the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    b_q1, b_med, b_q3 = quartiles(base)
    _c_q1, c_med, _c_q3 = quartiles(change)
    gain = sign * (c_med - b_med)
    if pairs and won >= 0.9 and gain > (b_q3 - b_q1):
        return "improved", won
    worse_share = -gain / abs(b_med) if b_med else (float("inf") if gain < 0 else 0.0)
    if worse_share > bound:
        return "regressed", won
    if spread(base) > bound:
        every_better = all(sign * (c - b) > 0 for c in change for b in base)
        return ("unchanged" if every_better else "unresolved"), won
    return "unchanged", won


def compare(base_dir: Path, change_dir: Path, out=sys.stdout) -> int:
    spec = json.loads(BENCH_JSON.read_text())
    base = load_results(base_dir)
    change = load_results(change_dir)
    regressed = 0
    header = f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'won':>5}  verdict"
    print(header, file=out)
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        if not b_runs or not c_runs:
            print(f"{workload:<16} (no results on one side)", file=out)
            continue
        common = sorted(set(b_runs) & set(c_runs))
        if common:
            pair_keys = [(seed, seed) for seed in common]
        else:
            pair_keys = list(zip(sorted(b_runs), sorted(c_runs)))
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [r["metrics"][name]["value"] for r in runs.values() if name in r.get("metrics", {})]

            b_vals, c_vals = values(b_runs), values(c_runs)
            if not b_vals or not c_vals:
                continue
            pairs = [
                (b_runs[b]["metrics"][name]["value"], c_runs[c]["metrics"][name]["value"])
                for b, c in pair_keys
            ]
            result, won = verdict(b_vals, c_vals, pairs, metric["better"], metric["bound"])
            regressed += result == "regressed"
            b_txt, c_txt = (
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(v)) for v in (b_vals, c_vals)
            )
            print(f"{workload:<16} {name:<16} {b_txt:>32} {c_txt:>32} {won:>5.2f}  {result}", file=out)
        for label, runs in (("base", b_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs.values())
            failed = sum(r["failed"] for r in runs.values())
            share = failed / attempted if attempted else 0.0
            print(
                f"{workload:<16} failed ops ({label}): {failed}/{attempted} = {share:.4f} "
                f"over {len(runs)} run(s)",
                file=out,
            )
    return 1 if regressed else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark results")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
