"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out RESULTS_DIR --seeds 1-10 [--workload W ...] [--trace 0]
    python3 perfbench/sweep.py --out RESULTS_DIR --checkout base=PARENT_DIR --checkout change=.

Runs ``run.py`` once per (workload, seed), one after another, for
``run_seconds`` of ``BENCHMARK.json``, and keeps each run's standard output
as ``<workload>.seed<n>.trace<t>.txt`` (the input of ``compare.py``).
Without ``--checkout`` it runs this checkout into ``RESULTS_DIR``.  With two
``--checkout NAME=DIR`` it runs both checkouts on each seed back to back,
swapping which goes first from one seed to the next, into
``RESULTS_DIR/NAME``: the seed pairs ``compare.py`` forms are then
alternating pairs, and drift of the machine over minutes falls on both
sides alike.  Then prints, per checkout, workload and end-to-end metric,
the median and the quartile spread as a share of the median, marking
spreads at or above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import BENCH_JSON, load_results, quartiles, spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part[1:]:
            low, high = part.split("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def parse_checkout(text: str) -> tuple[str, Path]:
    name, sep, directory = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    return name, Path(directory).resolve()


def run_one(checkout: Path, target: Path, workload: str, seed: int, seconds: int, trace: int) -> int:
    argv = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    with open(target, "w") as handle:
        return subprocess.run(argv, cwd=checkout, stdout=handle, stderr=subprocess.DEVNULL).returncode


def print_spreads(spec: dict, out_dir: Path, workloads: list[str], label: str) -> None:
    results = load_results(out_dir)
    for workload in workloads:
        runs = list(results.get(workload, {}).values())
        if not runs:
            continue
        incorrect = sum(1 for run in runs if not run["correct"])
        print(f"{label}{workload}: {len(runs)} run(s), {incorrect} incorrect")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, med, q3 = quartiles(values)
            share = spread(values)
            flag = "  <-- at or above bound/3" if share >= metric["bound"] / 3 else ""
            print(
                f"  {metric['name']:<16} median {med:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                f"spread {share:.4f} (bound {metric['bound']}){flag}"
            )


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads(BENCH_JSON.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=parse_checkout, dest="checkouts")
    args = parser.parse_args(argv)
    if args.checkouts and len(args.checkouts) != 2:
        parser.error("--checkout is given twice or not at all")
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.checkouts:
        sides = [(name, checkout, args.out / name) for name, checkout in args.checkouts]
    else:
        sides = [("", HERE.parent, args.out)]
    for _name, _checkout, out_dir in sides:
        out_dir.mkdir(parents=True, exist_ok=True)
    failed_runs = 0
    for workload in workloads:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if index % 2 == 0 else sides[::-1]
            for name, checkout, out_dir in order:
                target = out_dir / f"{workload}.seed{seed}.trace{args.trace}.txt"
                code = run_one(checkout, target, workload, seed, spec["run_seconds"], args.trace)
                failed_runs += code != 0
                side = f" ({name})" if name else ""
                print(f"{workload} seed {seed}{side}: exit {code}", file=sys.stderr, flush=True)
    if not args.trace:
        for name, _checkout, out_dir in sides:
            print_spreads(spec, out_dir, workloads, f"{name}: " if name else "")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
