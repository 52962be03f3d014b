"""paper-pipeline: the Appendix A programs through the whole optimizer.

For each program: ``EscapeAnalysis.global_all`` on every function,
``plan_optimizations``, ``apply_plan``, ``check_program`` and the heap
liveness facts (together: compile), then the optimized program on the
interpreter under the mark-sweep and the liveness collector at a fixed
threshold, and on the abstract machine (together: run).  Results are
checked against Python's ``sorted``/``reversed``; escape fingerprints of
the committed Appendix A artifacts against ``benchmarks/ir_oracle.json``.

Run as a script (``--child``), this module is the measured process: it
imports the package, prints ``ready`` and then runs one pass over the
programs per ``pass`` command on standard input (see :func:`child_main`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import threading
import time

from harness import ROOT, Tally, child_env, import_paths, log, median, reap
from inputs import PIPELINE_SIZES, SERVE_SIZES, paper_programs

#: Allocation threshold of the collectors (cells between collections).
GC_THRESHOLD = 256
#: Fresh interpreters timed from spawn to ready, per run.
SETUP_SAMPLES = 7


#: What the pipeline imports; a fresh interpreter is ready once these are.
PIPELINE_MODULES = (
    "repro.analysis.heap_liveness",
    "repro.check",
    "repro.escape.analyzer",
    "repro.lang.parser",
    "repro.machine.machine",
    "repro.opt.driver",
    "repro.semantics.interp",
)


def compile_and_run(program, tally: Tally) -> tuple[float, float]:
    """One program through the pipeline; returns (compile_s, run_s) in
    processor seconds of this process (it has one thread and never waits,
    so on an unshared core these are its wall times) and records the
    outcome in ``tally``.  A crash anywhere counts as one failed
    operation."""
    from repro.analysis.heap_liveness import analyze_program
    from repro.check import check_program
    from repro.escape.analyzer import EscapeAnalysis
    from repro.lang.parser import parse_program
    from repro.machine.machine import Machine
    from repro.opt.driver import apply_plan, plan_optimizations
    from repro.semantics.interp import Interpreter
    from repro.types.types import arity

    try:
        started = time.process_time()
        parsed = parse_program(program.source)
        analysis = EscapeAnalysis(parsed)
        for name in parsed.binding_names():
            if arity(analysis.scheme(name).body) > 0:
                analysis.global_all(name)
        optimized, _log = apply_plan(plan_optimizations(parsed))
        report = check_program(optimized)
        facts = analyze_program(optimized)
        compiled = time.process_time()
        results = []
        for collector, budgets in (
            ("mark-sweep", None),
            ("liveness", None if facts.degraded else facts.budget_map()),
        ):
            interp = Interpreter(
                auto_gc=True,
                gc_threshold=GC_THRESHOLD,
                collector=collector,
                liveness=budgets,
            )
            results.append(interp.to_python(interp.run(optimized)))
        machine = Machine(auto_gc=True, gc_threshold=GC_THRESHOLD)
        results.append(machine.to_python(machine.run(optimized)))
        finished = time.process_time()
    except Exception as error:  # a crash is a failed operation, not an abort
        tally.fail(f"{program.label}: {type(error).__name__}: {error}")
        return 0.0, 0.0
    wrong = [r for r in results if r != program.expected]
    if report.counts()["error"] or report.pass_errors:
        tally.fail(f"{program.label}: checker errors {report.counts()}")
    elif wrong:
        tally.fail(f"{program.label}: result differs from Python's ({wrong[0]!r:.60})")
    else:
        tally.ok()
    return compiled - started, finished - compiled


def check_oracle(tally: Tally) -> None:
    """Escape fingerprints of the Appendix A artifacts must equal the
    committed oracle, computed as the IR1 benchmark computes them; one
    operation per artifact."""
    from benchmarks.test_ir_worklist import PROGRAMS, run_engine

    oracle = json.loads((ROOT / "benchmarks" / "ir_oracle.json").read_text())
    for name, build in PROGRAMS.items():
        try:
            got = run_engine(build, "worklist")[0]
        except Exception as error:
            tally.fail(f"oracle {name}: {type(error).__name__}: {error}")
            continue
        tally.check(got == oracle[name], f"oracle {name}: fingerprints differ")


def run_pass(programs, tally: Tally) -> dict:
    """One pass over ``programs``: its wall and processor time, the ``ps``
    latency, and the compile and run seconds."""
    figures = {"compile_s": 0.0, "run_s": 0.0, "ps_ms": 0.0}
    started = time.perf_counter()
    started_cpu = time.process_time()
    for program in programs:
        spent_compile, spent_run = compile_and_run(program, tally)
        figures["compile_s"] += spent_compile
        figures["run_s"] += spent_run
        if program.label == "ps":
            figures["ps_ms"] = (spent_compile + spent_run) * 1000.0
    figures["wall_s"] = time.perf_counter() - started
    figures["cpu_s"] = time.process_time() - started_cpu
    return figures


def child_main(argv: list[str]) -> int:
    """The measured process: ``ready`` once imported, ``warm`` after a
    small warm-up pass, then one JSON line per ``pass`` command read from
    standard input; on ``stop``, the oracle check and a final tally
    line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)
    import_paths()
    for module in PIPELINE_MODULES:
        importlib.import_module(module)
    print("ready", flush=True)
    if args.ready_only:
        return 0
    run_pass(paper_programs(args.seed, SERVE_SIZES), Tally())
    print("warm", flush=True)
    programs = paper_programs(args.seed, PIPELINE_SIZES)
    tally = Tally()
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        print(json.dumps(run_pass(programs, tally)), flush=True)
    check_oracle(tally)
    print(json.dumps(vars(tally)), flush=True)
    return 0


def _spawn_child(seed: int, ready_only: bool):
    """Start a pipeline child; returns (process, seconds to ``ready``)."""
    argv = [sys.executable, __file__, "--child", "--seed", str(seed)]
    if ready_only:
        argv.append("--ready-only")
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        reap(proc)
        raise RuntimeError(f"pipeline child did not become ready: {line!r}")
    return proc, ready_s


def setup_sample(seed: int) -> float:
    """Spawn-to-ready seconds of one fresh interpreter."""
    proc, ready_s = _spawn_child(seed, ready_only=True)
    proc.stdin.close()
    proc.stdout.read()
    reap(proc)
    return ready_s


def run(seed: int, seconds: float) -> tuple[Tally, dict]:
    """The untraced run: whole passes in a child process until ``seconds``
    pass, one set-up sample taken before each pass while the child waits."""
    proc, ready_s = _spawn_child(seed, ready_only=False)
    timer = threading.Timer(170.0, proc.kill)
    timer.start()
    try:
        if proc.stdout.readline().strip() != "warm":
            raise RuntimeError("pipeline child failed its warm-up pass")
        setups, passes = [ready_s], []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            setups.append(setup_sample(seed))
            proc.stdin.write("pass\n")
            proc.stdin.flush()
            passes.append(json.loads(proc.stdout.readline()))
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(seed))
        proc.stdin.write("stop\n")
        proc.stdin.close()
        final = json.loads(proc.stdout.readline())
        code, rss, _cpu = reap(proc)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            reap(proc)
        raise
    finally:
        timer.cancel()
        timer.join()
    if code != 0:
        raise RuntimeError(f"pipeline child exited {code}")
    tally = Tally(**final)
    cpus = [p["cpu_s"] for p in passes]
    log(
        f"paper-pipeline: {len(cpus)} pass(es), median {median(cpus):.2f}s processor "
        f"({median([p['wall_s'] for p in passes]):.2f}s wall), "
        f"compile {sum(p['compile_s'] for p in passes):.2f}s, "
        f"run {sum(p['run_s'] for p in passes):.2f}s"
    )
    return tally, {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "cpu_ms_per_item": median(cpus) * 1000.0 / len(PIPELINE_SIZES),
        "latency_p50_ms": median([p["ps_ms"] for p in passes]),
    }


def traced(seed: int, probe_factory) -> tuple[Tally, dict, list[dict]]:
    """Two rounds of an untraced then a traced in-process pass over the
    programs.  Returns the tally, the first untraced pass's figures, and
    every pass's wall time (traced ones with their probe)."""
    import_paths()
    run_pass(paper_programs(seed, SERVE_SIZES), Tally())
    programs = paper_programs(seed, PIPELINE_SIZES)
    tally = Tally()
    passes, plain = [], None
    for _ in range(2):
        untraced = run_pass(programs, tally)
        plain = plain or untraced
        passes.append({"wall_s": untraced["wall_s"], "probe": None})
        probe = probe_factory()
        with probe:
            passes.append({"wall_s": run_pass(programs, tally)["wall_s"], "probe": probe})
    check_oracle(tally)
    return tally, plain, passes


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child_main(sys.argv[2:]))
    sys.exit("usage: paper_pipeline.py --child --seed N [--ready-only]")
