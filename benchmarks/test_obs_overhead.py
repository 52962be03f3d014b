"""OB2 — the cost of the always-on crash flight recorder.

The flight recorder (:mod:`repro.obs.flight`) rides along on *every*
CLI command, so its cost is the price of the black box: the tracer is
active, every instrumentation point builds its event dict, and the
recorder appends it to a bounded deque.  This experiment measures that
price on the analysis hot path — repeated fresh global solves of a
recursive prelude knot — against the same workload with tracing
disabled (where every ``obs.tracing()`` guard short-circuits), and
asserts the overhead stays under 5% of eval-step wall time.

Each round times the two configurations back to back, alternating which
goes first, and yields one flight/untraced ratio; the gate reads the
median of those per-round ratios.  A pair measured seconds apart sees the
same machine load, so load that drifts between rounds (a shared 2-core
machine) cancels inside each ratio instead of moving the median of one
side only.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from repro.bench.tables import print_table
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.prelude import prelude_program
from repro.obs import Tracer, activate
from repro.obs.flight import FlightRecorder

KNOT = ["ps", "rev", "isort"]
ROUNDS = 15
SOLVES_PER_ROUND = 3

#: The acceptance bound: always-on flight recording must cost < 5%.
MAX_OVERHEAD_PCT = 5.0


def _solve_once() -> None:
    program = prelude_program(KNOT)
    analysis = EscapeAnalysis(program)
    for name in program.binding_names():
        analysis.global_all(name)


@contextmanager
def _tracing_off():
    # A disabled tracer: ``tracing()`` returns None, hot paths skip
    # event construction entirely — the AB4 zero-overhead baseline.
    with activate(Tracer(enabled=False)):
        yield


@contextmanager
def _flight_on():
    with activate(Tracer(sinks=[FlightRecorder()])):
        yield


def _round(scope) -> float:
    with scope():
        started = time.perf_counter()
        for _ in range(SOLVES_PER_ROUND):
            _solve_once()
        return (time.perf_counter() - started) / SOLVES_PER_ROUND


def test_ob2_flight_recorder_overhead(benchmark):
    # Warm both paths once (imports, parser tables, code caches).
    _round(_tracing_off)
    _round(_flight_on)

    off_times: list[float] = []
    flight_times: list[float] = []
    ratios: list[float] = []
    for n in range(ROUNDS):
        if n % 2:
            flight_times.append(_round(_flight_on))
            off_times.append(_round(_tracing_off))
        else:
            off_times.append(_round(_tracing_off))
            flight_times.append(_round(_flight_on))
        ratios.append(flight_times[-1] / off_times[-1])

    off = statistics.median(off_times)
    flight = statistics.median(flight_times)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0

    print_table(
        ["config", "median solve (ms)", "overhead"],
        [
            ["tracing off", f"{off * 1e3:.2f}", "—"],
            ["flight recorder", f"{flight * 1e3:.2f}", f"{overhead_pct:+.2f}%"],
        ],
        title="OB2: always-on flight recorder overhead",
    )

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"flight recorder costs {overhead_pct:.2f}% "
        f"(bound: {MAX_OVERHEAD_PCT}%)"
    )

    benchmark(_round, _flight_on)


def test_ob2_flight_recorder_captures_while_cheap():
    # The price buys an actual black box: the same workload leaves the
    # causal run-up in the ring, bounded at capacity.
    flight = FlightRecorder(capacity=256)
    with activate(Tracer(sinks=[flight])):
        _solve_once()
    assert flight.total > 0
    window = flight.snapshot()
    assert 0 < len(window) <= 256
    types = {event["type"] for event in window}
    assert "scc_solve_finish" in types or "transfer_eval" in types
