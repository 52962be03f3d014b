"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus-batch --seed 0 --seconds 30 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with nothing hooked;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics.  The metric lists, units and bounds live in ``BENCHMARK.json``
at the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Progress and
failure notes go to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from harness import (
    ROOT,
    SetupError,
    import_paths,
    log,
    median,
    require_checkout,
    run_reaped,
    warm_bytecode,
    work_dir,
)

WORKLOADS = ("corpus-batch", "paper-pipeline", "serve-mixed")
#: Fresh interpreters importing ``repro.cli``, per traced run.
IMPORT_SAMPLES = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(spec: dict, trace: bool) -> dict[str, str]:
    """name -> unit of the metrics ``BENCHMARK.json`` asks this run for."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cli_import_seconds() -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        finished = run_reaped([sys.executable, "-c", "import repro.cli"])
        if finished.returncode != 0:
            raise RuntimeError(f"import repro.cli exited {finished.returncode}")
        times.append(finished.wall_s)
    return median(times)


def untraced(workload: str, seed: int, seconds: float, work) -> tuple:
    if workload == "corpus-batch":
        import corpus_batch

        return corpus_batch.run(seed, seconds, work)
    if workload == "paper-pipeline":
        import paper_pipeline

        return paper_pipeline.run(seed, seconds)
    import serve_mixed

    return serve_mixed.run(seed, seconds, work)


def traced(workload: str, seed: int, seconds: float, work) -> tuple:
    """The traced run: per-layer metrics, tracing overhead, and the check
    that the machine-independent counts repeat between two traced passes."""
    import_paths()
    from layers import REPEATABLE_COUNTS, Probe

    import_s = cli_import_seconds()
    if workload == "corpus-batch":
        import corpus_batch

        tally, plain, passes = corpus_batch.traced(seed, work, Probe)
    elif workload == "paper-pipeline":
        import paper_pipeline

        tally, plain, passes = paper_pipeline.traced(seed, Probe)
    else:
        import serve_mixed

        tally, plain, passes = serve_mixed.traced(seed, seconds, work, Probe)

    probes = [p["probe"] for p in passes if p["probe"] is not None]
    metrics = probes[0].metrics()
    again = probes[1].metrics()
    for name in REPEATABLE_COUNTS:
        tally.check(
            metrics[name] == again[name],
            f"traced count {name} did not repeat: {metrics[name]} then {again[name]}",
        )
    log("per-layer table of the first traced pass:\n" + probes[0].hooks.table())
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead"] = sum(
        p["wall_s"] for p in passes if p["probe"] is not None
    ) / sum(p["wall_s"] for p in passes if p["probe"] is None)
    if workload == "corpus-batch":
        metrics["batch.overhead_s"] = (
            plain["cli_wall_s"] - metrics["batch.worker_s"] / corpus_batch.JOBS
        )
    else:
        metrics["batch.overhead_s"] = 0.0
    if workload == "paper-pipeline":
        metrics["pipeline.compile_s"] = plain["compile_s"]
        metrics["pipeline.run_s"] = plain["run_s"]
    else:
        metrics["pipeline.compile_s"] = metrics["pipeline.run_s"] = 0.0
    if workload == "serve-mixed":
        metrics["serve.http_ms"] = plain["http_p50_ms"] - plain["handle_p50_ms"]
        metrics["serve.rps"] = plain["rps"]
        metrics["serve.p99_ms"] = plain["http_p99_ms"]
        metrics["serve.coalesced"] = plain["coalesced"]
        metrics["serve.optimize_skipped"] = plain["optimize_skipped"]
    else:
        metrics["serve.http_ms"] = metrics["serve.rps"] = metrics["serve.p99_ms"] = 0.0
        metrics["serve.coalesced"] = metrics["serve.optimize_skipped"] = 0
    return tally, metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
        spec = load_spec()
        wanted = declared_metrics(spec, bool(args.trace))
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    except (SetupError, OSError, ValueError, KeyError) as error:
        log(f"cannot run: {error}")
        return 2
    # A SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    warm_bytecode()
    with work_dir(args.workload) as work:
        if args.trace:
            tally, metrics = traced(args.workload, args.seed, seconds, work)
        else:
            tally, metrics = untraced(args.workload, args.seed, seconds, work)
            metrics["ok_frac"] = tally.ok_frac
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        log(f"workload produced no value for {missing}")
        return 1
    for note in tally.notes:
        log(f"FAILED {note}")
    log(f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{tally.attempted} op(s), {tally.failed} failed, {time.perf_counter() - started:.1f}s")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash-ordered iteration inside the system under test must not
        # differ between runs, or the traced counts would not repeat.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
