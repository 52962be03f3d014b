"""corpus-batch: ``repro batch`` over the 200-program corpus, one CLI
subprocess per pass.

Each pass runs ``repro batch <corpus> examples/partition_sort.nml
examples/reverse.nml --jobs 2 --check --store <fresh empty dir> --json``.
(The two example files are named one by one: a fresh corpus lives outside
``examples/``, and naming the directory would pull the pinned corpus in
too.)  A pass is correct when it exits 0 and every file is answered
exactly, neither degraded nor quarantined, with as many analysed functions
as an independent count of its bindings with parameters.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from harness import Tally, log, median, run_reaped
from inputs import EXAMPLE_FILES, corpus_files, count_functions, prepare_corpus

JOBS = 2
#: Fewest ``repro --help`` processes timed per run for ``setup_s``.
SETUP_SAMPLES = 7


def batch_argv(corpus: Path, store: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "batch", str(corpus), *map(str, EXAMPLE_FILES),
        "--jobs", str(JOBS), "--check", "--store", str(store), "--json",
    ]


def expected_functions(corpus: Path) -> dict[str, int]:
    return {
        str(path.resolve()): count_functions(path.read_text())
        for path in corpus_files(corpus)
    }


def check_report(doc: dict, expected: dict[str, int], tally: Tally) -> None:
    """One operation per corpus file; a missing file is a failure."""
    seen = set()
    for entry in doc.get("files", []):
        path = entry.get("path", "?")
        seen.add(path)
        problems = []
        if not entry.get("ok"):
            problems.append(f"error {entry.get('error')}")
        if entry.get("degraded") or entry.get("quarantined"):
            problems.append("degraded or quarantined")
        if entry.get("attempts", 1) != 1:
            problems.append(f"{entry['attempts']} attempts")
        if (entry.get("check") or {}).get("error", 0) or entry.get("check_error"):
            problems.append("checker errors")
        if entry.get("functions") != expected.get(path):
            problems.append(
                f"{entry.get('functions')} functions, expected {expected.get(path)}"
            )
        if problems:
            tally.fail(f"{Path(path).name}: " + "; ".join(problems))
        else:
            tally.ok()
    for path in sorted(set(expected) - seen):
        tally.fail(f"{Path(path).name}: missing from the batch report")


def cli_pass(corpus: Path, work: Path, expected: dict[str, int], tally: Tally, index: int):
    """One ``repro batch`` subprocess on a fresh store; returns its
    :class:`~harness.Finished`."""
    store = work / f"store-{index}"
    finished = run_reaped(batch_argv(corpus, store))
    shutil.rmtree(store, ignore_errors=True)
    try:
        doc = json.loads(finished.stdout)
    except ValueError:
        doc = {}
    if finished.returncode != 0 or not doc:
        tally.fail(
            f"batch pass exited {finished.returncode}: {finished.stderr.strip()[-200:]}",
            count=len(expected),
        )
    else:
        check_report(doc, expected, tally)
    return finished


def setup_sample() -> float:
    """Spawn-to-exit seconds of one no-work ``repro --help``."""
    finished = run_reaped([sys.executable, "-m", "repro", "--help"])
    if finished.returncode != 0:
        raise RuntimeError(f"repro --help exited {finished.returncode}")
    return finished.wall_s


def run(seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    """Whole CLI passes until ``seconds`` pass, one set-up sample before
    each, so the samples spread over the run.  A pass is timed by the
    processor seconds of its process tree (CLI and workers)."""
    corpus = prepare_corpus(seed, work)
    expected = expected_functions(corpus)
    tally = Tally()
    setups, cpus, rss = [], [], []
    started = time.perf_counter()
    while not cpus or time.perf_counter() - started < seconds:
        setups.append(setup_sample())
        finished = cli_pass(corpus, work, expected, tally, len(cpus))
        cpus.append(finished.cpu_s)
        rss.append(finished.peak_rss_mb)
        log(f"corpus-batch: pass {len(cpus)}: {finished.wall_s:.2f}s wall, "
            f"{finished.cpu_s:.2f}s processor")
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    return tally, {
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
        "cpu_ms_per_item": median(cpus) * 1000.0 / len(expected),
        "latency_p50_ms": median(cpus) * 1000.0,
    }


def traced(seed: int, work: Path, probe_factory) -> tuple[Tally, dict, list[dict]]:
    """A CLI pass for the batch wall time, then the same corpus in process,
    twice: an untraced serial pass, then a traced serial pass plus a traced
    ``--jobs 2`` pass (which counts the worker spawns)."""
    from repro.batch import run_batch

    corpus = prepare_corpus(seed, work)
    expected = expected_functions(corpus)
    inputs = [str(path) for path in corpus_files(corpus)]
    tally = Tally()
    cli = cli_pass(corpus, work, expected, tally, 0)

    def in_process(jobs: int, label: str) -> float:
        store = work / f"store-{label}"
        started = time.perf_counter()
        report = run_batch(inputs, store_root=store, jobs=jobs, check=True)
        wall = time.perf_counter() - started
        shutil.rmtree(store, ignore_errors=True)
        check_report(report.to_json(), expected, tally)
        return wall

    run_batch(inputs[:2], store_root=work / "store-warm", jobs=1, check=True)
    passes = []
    for index in range(2):
        passes.append({"wall_s": in_process(1, f"plain-{index}"), "probe": None})
        probe = probe_factory()
        with probe:
            serial_s = in_process(1, f"traced-{index}")
            in_process(JOBS, f"jobs-{index}")
        passes.append({"wall_s": serial_s, "probe": probe})
    return tally, {"cli_wall_s": cli.wall_s}, passes
