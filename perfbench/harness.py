"""Shared plumbing for the workloads: where the repository is, how to start
a subprocess and read its peak memory, order statistics, and the running
tally of attempted and failed operations.

The benchmark imports nothing from ``repro`` at module level, so a
checkout without the source tree fails cleanly before any work starts.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, bad corpus)."""


def require_checkout() -> None:
    """Refuse to run outside a full checkout of the repository."""
    needed = [
        SRC / "repro" / "__init__.py",
        ROOT / "examples" / "generated" / "MANIFEST.json",
        ROOT / "benchmarks" / "ir_oracle.json",
        ROOT / "benchmarks" / "test_ir_worklist.py",
        ROOT / "tests" / "strategies.py",
    ]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        raise SetupError(
            "not a full checkout of the repository; missing: " + ", ".join(missing)
        )


def child_env() -> dict[str, str]:
    """Environment for subprocesses of the system under test: the source
    tree (and the repository root, for the test suite's corpus generator)
    on ``PYTHONPATH``, nothing inherited that could redirect traces."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.pop("REPRO_FLIGHT_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_paths() -> None:
    """Put the source tree and the repository root on this process's path."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def warm_bytecode() -> None:
    """Compile the source tree once, so no timed region pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(ROOT / "tests")],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )


@contextmanager
def work_dir(label: str):
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


@dataclass
class Finished:
    """A reaped subprocess: exit code, wall time, its peak RSS in MB and
    its processor seconds (descendants it waited for included), and
    captured output."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def reap(proc: subprocess.Popen) -> tuple[int, float, float]:
    """Wait for ``proc`` with ``wait4``; returns (exit code, peak RSS MB,
    processor seconds, user plus system)."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def process_cpu_s(pid: int) -> float:
    """Processor seconds a live process has used so far, all its threads
    (living and ended) included, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime and stime 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_reaped(argv: list[str], timeout_s: float = 170.0) -> Finished:
    """Run ``argv`` to completion from the repository root, timing it
    from spawn to exit.  Reaping with ``wait4`` gives the child's own peak
    RSS; a timer thread kills it after ``timeout_s``."""
    with tempfile.TemporaryFile(dir=WORK_ROOT) as out, tempfile.TemporaryFile(
        dir=WORK_ROOT
    ) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            code, rss, cpu = reap(proc)
        except BaseException:
            proc.kill()
            reap(proc)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
        out.seek(0)
        err.seek(0)
        return Finished(
            returncode=code,
            wall_s=wall,
            peak_rss_mb=rss,
            cpu_s=cpu,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes
    (printed to stderr, never into the result line).

    ``wrong`` counts the failed operations whose output was wrong or
    missing; they make a run incorrect.  A failed operation that still
    gave a sound answer (a degraded ``repro serve`` reply) counts as
    failed only."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    wrong: int = 0

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str, count: int = 1, wrong: bool = True) -> None:
        self.attempted += count
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, condition: bool, note: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(note)
        return condition

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.wrong == 0

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
