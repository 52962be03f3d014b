"""serve-mixed: ``repro serve`` under a closed loop of keep-alive callers.

The daemon runs as a child process on a fresh empty store.  One client
process holds ``CONNECTIONS`` persistent HTTP/1.1 connections, one thread
each; a thread sends its next request only after the previous reply
arrived, as editors and CI do.  A run sends a fixed number of requests,
``NOMINAL_RPS`` per second of ``--seconds`` (about ``--seconds`` long at
this commit's throughput), so a seed always sends the same requests and
its attempted and failed counts repeat from run to run.  Requests follow a seeded mix of endpoints
(60% ``/analyze``, 25% ``/check``, 15% ``/optimize``) over the corpus and
the paper programs with skewed popularity, so most requests repeat an
earlier source (store reads, sometimes coalescing) while the tail keeps
bringing new SCCs (store writes).

Every reply must be HTTP 200 and ``ok``, and its answer identical to every
other reply for the same (endpoint, source); a reply that is not makes the
run incorrect.  A degraded reply is a failed operation too, but not a wrong
one: the daemon answers soundly and says what it skipped.  At this commit
48 of the 206 sources at seed 0 get a degraded ``/optimize`` reply whose
only degradation is ``optimization-skipped`` (see ``README.md``, defects),
so ``ok_frac`` on this workload is below 1; ``serve.optimize_skipped``
counts those replies in the traced run.
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import ROOT, Tally, child_env, log, median, percentile, process_cpu_s, reap
from inputs import HEAVY_COUNT, RequestMix, prepare_corpus, serve_sources

CONNECTIONS = 2
#: Requests per run are this many per second of ``--seconds``: the
#: throughput two keep-alive callers get at this commit.
NOMINAL_RPS = 40
#: Daemons timed from spawn to their ``listening on`` line, per run: the
#: measured one, and one more in each pause between load segments.
SETUP_SAMPLES = 7
#: Requests replayed in process for the traced run.
TRACED_REQUESTS = 300
#: Reply fields that legitimately differ between identical requests.
VOLATILE_FIELDS = ("trace_id", "coalesced", "stats", "pass_timings")
WARMUP_SOURCE = "len l = if (null l) then 0 else 1 + len (cdr l);\nlen [1, 2]\n"


class Daemon:
    """A ``repro serve`` child on a fresh store, stopped with SIGTERM."""

    def __init__(self, store: Path):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        line = self.proc.stderr.readline()
        self.ready_s = time.perf_counter() - started
        if "listening on http://" not in line:
            self.proc.kill()
            reap(self.proc)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def stop(self) -> tuple[int, float, float]:
        """SIGTERM, wait; returns (exit code, peak RSS MB, processor s)."""
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30.0, self.proc.kill)
        timer.start()
        try:
            self.proc.stderr.read()
            return reap(self.proc)
        finally:
            timer.cancel()
            timer.join()
            self.proc.stderr.close()


def answer_of(doc: dict) -> str:
    """The part of a reply that must not change between identical requests."""
    stable = {key: value for key, value in doc.items() if key not in VOLATILE_FIELDS}
    return json.dumps(stable, sort_keys=True)


class Verifier:
    """Checks replies; thread-safe."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.answers: dict[tuple[str, int], str] = {}
        self.coalesced = 0
        self.optimize_skipped = 0
        self._lock = threading.Lock()

    def record(self, key: tuple[str, int], status: int, doc: "dict | None", note: str = "") -> None:
        with self._lock:
            if doc is None:
                self.tally.fail(f"{key}: {note or 'no reply'}")
                return
            if doc.get("coalesced"):
                self.coalesced += 1
            if status != 200 or not doc.get("ok"):
                self.tally.fail(f"{key}: status {status}, {str(doc)[:160]}")
                return
            answer = answer_of(doc)
            if answer != self.answers.setdefault(key, answer):
                self.tally.fail(f"{key}: reply differs from the first one")
            elif doc.get("degraded"):
                reasons = sorted({str(d.get("reason")) for d in doc.get("degradations", [])})
                self.optimize_skipped += key[0] == "optimize" and reasons == ["optimization-skipped"]
                self.tally.fail(f"{key}: degraded ({', '.join(reasons)})", wrong=False)
            else:
                self.tally.ok()


def post(conn: http.client.HTTPConnection, endpoint: str, source: str) -> tuple[int, dict]:
    body = json.dumps({"source": source}).encode("utf-8")
    conn.request("POST", f"/{endpoint}", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def closed_loop(daemon: Daemon, sources: list[str], mix: RequestMix, count: int, verifier: Verifier) -> tuple[list[float], float]:
    """``CONNECTIONS`` keep-alive callers send the next ``count`` requests
    of ``mix``; returns the per-request latencies (ms) and the wall time."""
    lock = threading.Lock()
    latencies: list[float] = []
    remaining = [count]
    started = time.perf_counter()

    def caller() -> None:
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
        try:
            while True:
                with lock:
                    if not remaining[0]:
                        break
                    remaining[0] -= 1
                    endpoint, index = mix.next()
                sent = time.perf_counter()
                try:
                    status, doc = post(conn, endpoint, sources[index])
                except (OSError, http.client.HTTPException, ValueError) as error:
                    verifier.record((endpoint, index), 0, None, f"{type(error).__name__}: {error}")
                    conn.close()
                    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
                    continue
                elapsed = time.perf_counter() - sent
                with lock:
                    latencies.append(elapsed * 1000.0)
                verifier.record((endpoint, index), status, doc)
        finally:
            conn.close()

    threads = [threading.Thread(target=caller) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - started


def warm_up(daemon: Daemon, sources: list[str]) -> None:
    """Every endpoint on a program outside the mix and on the heavy
    sources, before timing: lazy imports are done, and the heaviest
    requests have set the daemon's peak memory whatever the seed."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    try:
        for source in [WARMUP_SOURCE, *sources[-HEAVY_COUNT:]]:
            for endpoint in ("analyze", "check", "optimize"):
                post(conn, endpoint, source)
    finally:
        conn.close()


def setup_sample(store: Path) -> float:
    """Spawn-to-ready seconds of one daemon on a fresh store."""
    daemon = Daemon(store)
    daemon.stop()
    shutil.rmtree(store, ignore_errors=True)
    return daemon.ready_s


def measure_http(seed: int, seconds: float, work: Path, sources: list[str], segments: int) -> dict:
    """Send ``NOMINAL_RPS * seconds`` requests to one daemon, split into
    ``segments``; while the callers pause between segments, time one more
    daemon start-up.  The daemon's processor time while the callers send
    is read from ``/proc`` around each segment."""
    requests = round(NOMINAL_RPS * seconds)
    daemon = Daemon(work / "store")
    ready = [daemon.ready_s]
    verifier = Verifier()
    mix = RequestMix(sources, seed)
    latencies, wall, rates, cpu_ms = [], 0.0, [], []
    busy_s = 0.0
    try:
        warm_up(daemon, sources)
        for index in range(segments):
            if index:
                ready.append(setup_sample(work / f"setup-store-{index}"))
            count = requests * (index + 1) // segments - requests * index // segments
            cpu_before = process_cpu_s(daemon.proc.pid)
            segment, spent = closed_loop(daemon, sources, mix, count, verifier)
            busy = process_cpu_s(daemon.proc.pid) - cpu_before
            busy_s += busy
            cpu_ms.append(busy * 1000.0 / count)
            latencies += segment
            wall += spent
            rates.append(len(segment) / spent)
    finally:
        code, rss, _cpu = daemon.stop()
    verifier.tally.check(code == 0, f"daemon exited {code} on SIGTERM")
    log(
        f"serve-mixed: {len(latencies)} request(s) in {wall:.2f}s "
        f"({', '.join(f'{rate:.1f}' for rate in rates)} req/s, "
        f"{', '.join(f'{ms:.2f}' for ms in cpu_ms)} processor ms/request by segment), "
        f"{verifier.coalesced} coalesced, {len(verifier.answers)} distinct"
    )
    return {
        "tally": verifier.tally,
        "setup_s": median(ready),
        "peak_rss_mb": rss,
        "latencies": latencies,
        "rps": len(latencies) / wall,
        "cpu_ms_per_request": busy_s * 1000.0 / requests,
        "coalesced": verifier.coalesced,
        "optimize_skipped": verifier.optimize_skipped,
    }


def run(seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    sources = serve_sources(seed, prepare_corpus(seed, work))
    measured = measure_http(seed, seconds, work, sources, segments=SETUP_SAMPLES)
    latencies = measured["latencies"]
    return measured["tally"], {
        "setup_s": measured["setup_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
        "cpu_ms_per_item": measured["cpu_ms_per_request"],
        "latency_p50_ms": median(latencies),
    }


def traced(seed: int, seconds: float, work: Path, probe_factory) -> tuple[Tally, dict, list[dict]]:
    """A keep-alive HTTP run for the wire-side figures, then the first
    ``TRACED_REQUESTS`` requests of the same mix replayed serially through
    ``AnalysisService.handle`` in process, twice untraced then traced, each
    replay on a fresh store."""
    from repro.serve import AnalysisService

    sources = serve_sources(seed, prepare_corpus(seed, work))
    measured = measure_http(seed, seconds, work, sources, segments=1)
    tally = measured["tally"]
    mix = RequestMix(sources, seed)
    requests = [mix.next() for _ in range(TRACED_REQUESTS)]

    def replay(label: str) -> tuple[float, list[float]]:
        store = work / f"replay-{label}"
        service = AnalysisService(store_root=str(store))
        service.handle("analyze", {"source": WARMUP_SOURCE})
        verifier = Verifier()
        handle_ms = []
        started = time.perf_counter()
        for endpoint, index in requests:
            sent = time.perf_counter()
            status, doc = service.handle(endpoint, {"source": sources[index]})
            handle_ms.append((time.perf_counter() - sent) * 1000.0)
            verifier.record((endpoint, index), status, doc)
        wall = time.perf_counter() - started
        shutil.rmtree(store, ignore_errors=True)
        tally.merge(verifier.tally)
        return wall, handle_ms

    passes, plain_ms = [], []
    for index in range(2):
        wall, handle_ms = replay(f"plain-{index}")
        plain_ms += handle_ms
        passes.append({"wall_s": wall, "probe": None})
        probe = probe_factory()
        with probe:
            wall, _ms = replay(f"traced-{index}")
        passes.append({"wall_s": wall, "probe": probe})
    latencies = measured["latencies"]
    return tally, {
        "http_p50_ms": median(latencies),
        "rps": measured["rps"],
        "http_p99_ms": percentile(latencies, 99),
        "handle_p50_ms": median(plain_ms),
        "coalesced": measured["coalesced"],
        "optimize_skipped": measured["optimize_skipped"],
    }, passes
