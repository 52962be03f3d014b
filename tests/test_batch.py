"""The parallel batch driver (:mod:`repro.batch`) and its ``repro batch``
CLI: corpus collection, serial and process-parallel runs through a shared
store, warm-run accounting, and error containment."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.batch import BatchReport, FileReport, analyze_one, collect_inputs, run_batch
from repro.cli import main
from repro.lang.prelude import paper_partition_sort, prelude_source
from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.events import validate_trace
from repro.robust import faults
from repro.robust.faults import FaultPlan, SlowStage
from repro.robust.resilience import RetryPolicy

APPEND = prelude_source(["append"], "append [1, 2] [3]")
REV = prelude_source(["append", "rev"], "rev [1, 2, 3]")


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    (root / "nested").mkdir(parents=True)
    (root / "append.nml").write_text(APPEND)
    (root / "nested" / "rev.nml").write_text(REV)
    return root


class TestCollectInputs:
    def test_directories_recurse_sorted(self, corpus):
        found = collect_inputs([corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]

    def test_duplicates_dropped_files_pass_through(self, corpus):
        direct = corpus / "append.nml"
        found = collect_inputs([direct, corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]

    def test_non_nml_files_ignored_in_directories(self, corpus):
        (corpus / "README.md").write_text("not a program")
        assert len(collect_inputs([corpus])) == 2


class TestAnalyzeOne:
    def test_reports_functions_and_stats(self, corpus):
        report = analyze_one(str(corpus / "append.nml"), None)
        assert report.ok
        assert report.functions == 1
        assert report.d >= 1
        assert report.stats["iterations"] > 0
        assert "ok" in report.line()

    def test_bad_file_is_contained(self, tmp_path):
        bad = tmp_path / "bad.nml"
        bad.write_text("this is not ( valid")
        report = analyze_one(str(bad), None)
        assert not report.ok
        assert report.error
        assert "ERROR" in report.line()

    def test_report_is_picklable(self, corpus):
        import pickle

        report = analyze_one(str(corpus / "append.nml"), None)
        assert pickle.loads(pickle.dumps(report)) == report


class TestRunBatch:
    def test_serial_cold_then_warm(self, corpus, tmp_path):
        store = tmp_path / "store"
        cold = run_batch([corpus], store_root=store, jobs=1, d=2)
        assert cold.ok
        assert cold.totals()["iterations"] > 0
        assert cold.totals()["store_writes"] > 0
        # append is one typed SCC shared by both files at pinned d: the
        # second file decodes the first file's fixpoint even in run one.
        assert cold.totals()["store_hits"] >= 1

        warm = run_batch([corpus], store_root=store, jobs=1, d=2)
        totals = warm.totals()
        assert totals["scc_misses"] == 0
        assert totals["iterations"] == 0
        assert totals["store_misses"] == 0
        assert totals["store_hits"] == cold.totals()["scc_hits"] + cold.totals()[
            "scc_misses"
        ]

    def test_parallel_warm_run_does_no_fixpoint_work(self, corpus, tmp_path):
        store = tmp_path / "store"
        run_batch([corpus], store_root=store, jobs=1, d=2)
        warm = run_batch([corpus], store_root=store, jobs=2, d=2)
        assert warm.jobs == 2
        assert warm.totals()["iterations"] == 0
        assert warm.totals()["scc_misses"] == 0

    def test_parallel_matches_serial_results(self, corpus, tmp_path):
        serial = run_batch([corpus], jobs=1)
        parallel = run_batch([corpus], store_root=tmp_path / "store", jobs=2)
        assert [r.path for r in parallel.reports] == [r.path for r in serial.reports]
        assert [(r.ok, r.d, r.functions) for r in parallel.reports] == [
            (r.ok, r.d, r.functions) for r in serial.reports
        ]

    def test_no_store_runs_standalone(self, corpus):
        report = run_batch([corpus], store_root=None, jobs=1)
        assert report.ok
        assert report.store_root is None
        assert report.totals().get("store_hits", 0) == 0

    def test_failed_file_does_not_sink_the_batch(self, corpus):
        (corpus / "bad.nml").write_text("][")
        report = run_batch([corpus], jobs=1)
        assert not report.ok
        assert sum(1 for r in report.reports if r.ok) == 2
        assert "1 failed" in report.summary()

    def test_empty_batch_is_not_ok(self):
        assert not BatchReport(reports=[], jobs=1, store_root=None).ok

    def test_totals_skip_failed_files_and_bools(self):
        report = BatchReport(
            reports=[
                FileReport(path="a", ok=True, stats={"iterations": 2, "store": {"hits": 1}}),
                FileReport(path="b", ok=False, error="x", stats={"iterations": 99}),
            ],
            jobs=1,
            store_root=None,
        )
        assert report.totals() == {"iterations": 2, "store_hits": 1}


class TestBatchCli:
    def test_batch_text_output(self, corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", str(corpus), "--store", store, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "append.nml: ok" in out
        assert "rev.nml: ok" in out
        assert "-- 2 file(s), 1 job(s)" in out
        assert f"store: {store}" in out

    def test_batch_default_store_next_to_corpus(self, corpus, capsys):
        assert main(["batch", str(corpus)]) == 0
        assert (corpus / ".repro-store").is_dir()

    def test_batch_no_store(self, corpus, capsys):
        assert main(["batch", str(corpus), "--no-store"]) == 0
        assert not (corpus / ".repro-store").exists()
        assert "no store" in capsys.readouterr().out

    def test_batch_json_warm_run_reports_zero_misses(self, corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["batch", str(corpus), "--jobs", "2", "--store", store, "--d", "2", "--json"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        assert doc["jobs"] == 2
        assert doc["totals"]["scc_misses"] == 0
        assert doc["totals"]["iterations"] == 0
        assert {f["path"].rsplit("/", 1)[-1] for f in doc["files"]} == {
            "append.nml",
            "rev.nml",
        }

    def test_batch_error_exit_code(self, corpus, capsys):
        (corpus / "bad.nml").write_text("][")
        assert main(["batch", str(corpus), "--no-store"]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_batch_empty_corpus_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 1
        assert "error" in capsys.readouterr().err


class TestSupervisedFailures:
    """The supervised worker pool: hung workers are preempted, crashed
    workers are replaced, poison inputs are quarantined — and every path
    is deterministic under a seeded plan."""

    RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, seed=1)

    def test_hung_worker_is_killed_and_retried(self, corpus, tmp_path):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, seconds=10.0),))
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus],
                store_root=tmp_path / "store",
                jobs=2,
                timeout_s=0.4,
                retry=self.RETRY,
                fault_plan=plan,
            )
        assert report.ok and report.answered
        assert max(r.attempts for r in report.reports) == 2
        types = [e["type"] for e in ring.events]
        assert "timeout" in types and "retry" in types
        restarts = [e for e in ring.events if e["type"] == "worker_restart"]
        assert [e["cause"] for e in restarts] == ["timeout"]
        validate_trace(ring.events)

    def test_crashed_worker_is_replaced(self, corpus, tmp_path):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(worker_crash_at=1)
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus],
                store_root=tmp_path / "store",
                jobs=2,
                timeout_s=5.0,
                retry=self.RETRY,
                fault_plan=plan,
            )
        assert report.ok
        assert max(r.attempts for r in report.reports) == 2
        restarts = [e for e in ring.events if e["type"] == "worker_restart"]
        assert [e["cause"] for e in restarts] == ["worker-crashed"]
        validate_trace(ring.events)

    def test_always_hanging_file_is_quarantined_not_fatal(self, corpus, tmp_path):
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=10.0),))
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02, seed=1)
        report = run_batch(
            [corpus], jobs=2, timeout_s=0.25, retry=retry, fault_plan=plan
        )
        assert report.answered and not report.ok
        assert not report.hard_failures
        assert len(report.quarantined_files) == len(report.reports)
        assert report.exit_code() == 3
        quarantined = report.reports[0]
        assert quarantined.attempts == 2
        assert "QUARANTINED" in quarantined.line()
        doc = report.to_json()
        assert doc["exit_code"] == 3 and doc["quarantined"] == len(report.reports)

    def test_serial_injected_crash_retries_with_deterministic_jitter(
        self, corpus, tmp_path
    ):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(worker_crash_at=1)
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus], jobs=1, retry=self.RETRY, fault_plan=plan
            )
        assert report.ok
        retries = [e for e in ring.events if e["type"] == "retry"]
        assert len(retries) == 1
        failed = report.reports[0]
        assert failed.attempts == 2
        # the delay taken is exactly the policy's pure function of
        # (seed, key, attempt) — a chaos schedule replays bit-identically
        assert retries[0]["delay_s"] == round(self.RETRY.delay(failed.path, 1), 9)
        assert retries[0]["key"] == failed.path

    def test_quarantined_file_carries_failure_history(self, corpus):
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=10.0),))
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02, seed=1)
        report = run_batch([corpus], jobs=1, timeout_s=0.25, retry=retry, fault_plan=plan)
        doc = report.to_json()
        entry = next(f for f in doc["files"] if f["quarantined"])
        assert entry["attempts"] == 2 and not entry["ok"]


class TestExitCodeTaxonomy:
    """``repro batch`` honors the 0/1/3/4 contract end to end."""

    def test_degraded_only_run_exits_3(self, corpus, capsys):
        args = [
            "batch", str(corpus), "--no-store", "--deadline-ms", "0.0001", "--json",
        ]
        assert main(args) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["answered"]
        assert doc["exit_code"] == 3 and doc["degraded"] == len(doc["files"])
        assert all(f["degraded"] for f in doc["files"])

    def test_clean_run_still_exits_0(self, corpus):
        assert main(["batch", str(corpus), "--no-store"]) == 0

    def test_hard_failure_beats_degraded(self, corpus, capsys):
        (corpus / "bad.nml").write_text("][")
        args = ["batch", str(corpus), "--no-store", "--deadline-ms", "0.0001"]
        assert main(args) == 1


class TestInputValidation:
    """collect_inputs rejects bad paths loudly (exit 2 at the CLI) instead
    of silently analyzing an empty or aliased corpus."""

    def test_nonexistent_path_raises(self, tmp_path):
        from repro.batch import BatchInputError

        with pytest.raises(BatchInputError, match="no such file"):
            collect_inputs([tmp_path / "ghost"])

    def test_non_nml_explicit_file_raises(self, tmp_path):
        from repro.batch import BatchInputError

        readme = tmp_path / "README.md"
        readme.write_text("not a program")
        with pytest.raises(BatchInputError, match="not a .nml program"):
            collect_inputs([readme])

    def test_returns_resolved_paths_deduped_across_aliases(self, corpus):
        # The same file via its directory and via a ./-style alias must
        # collapse to ONE resolved entry, not two spellings of it.
        alias = corpus / "nested" / ".." / "append.nml"
        found = collect_inputs([alias, corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]
        assert all(p.is_absolute() and ".." not in p.parts for p in found)

    def test_cli_exits_2_on_bad_input(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "ghost")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestLegacyDeprecationWarning:
    """The legacy-engine warning is a driver concern: exactly once per
    run, regardless of --jobs N (each worker used to re-print it)."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self):
        from repro.escape.engine import reset_legacy_warning

        reset_legacy_warning()
        yield
        reset_legacy_warning()

    def test_parallel_batch_warns_exactly_once(self, corpus, capfd):
        from repro.escape.engine import LEGACY_DEPRECATION

        args = ["batch", str(corpus), "--no-store", "--jobs", "2",
                "--engine", "legacy"]
        assert main(args) == 0
        err = capfd.readouterr().err
        assert err.count(LEGACY_DEPRECATION) == 1

    def test_serial_batch_warns_exactly_once(self, corpus, capfd):
        from repro.escape.engine import LEGACY_DEPRECATION

        assert main(["batch", str(corpus), "--no-store", "--engine", "legacy"]) == 0
        assert capfd.readouterr().err.count(LEGACY_DEPRECATION) == 1

    def test_worklist_engine_does_not_warn(self, corpus, capfd):
        assert main(["batch", str(corpus), "--no-store", "--engine", "worklist"]) == 0
        assert "deprecated" not in capfd.readouterr().err


def _probe_worker(path, *rest):
    """A stand-in per-file body (module level, so workers can run it) that
    reports which process served the attempt, when it started, and what
    its fault scope looked like on entry."""
    faults.check_stage("probe")
    injector = faults.active()
    return FileReport(
        path=path,
        ok=True,
        stats={
            "pid": os.getpid(),
            "entered": time.monotonic(),
            "fired": list(injector.fired) if injector is not None else None,
        },
    )


class _BrokenRetry(RetryPolicy):
    """A retry policy that blows up, standing in for any driver-side bug."""

    def should_retry(self, attempt: int) -> bool:
        raise RuntimeError("driver bug")


class TestWorkerPool:
    """One long-lived worker per ``jobs`` slot: started lazily, replaced
    only after a crash or a kill, and always reaped."""

    RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, seed=1)
    FILES = 6

    @pytest.fixture
    def wide_corpus(self, tmp_path):
        root = tmp_path / "wide"
        root.mkdir()
        for index in range(self.FILES // 2):
            (root / f"append{index}.nml").write_text(APPEND)
            (root / f"rev{index}.nml").write_text(REV)
        return root

    @pytest.fixture
    def starts(self, monkeypatch):
        started: list = []
        original = BaseProcess.start

        def start(process):
            started.append(process)
            original(process)

        monkeypatch.setattr(BaseProcess, "start", start)
        return started

    def test_clean_parallel_run_starts_one_worker_per_slot(self, wide_corpus, starts):
        report = run_batch([wide_corpus], jobs=2)
        assert report.ok and len(report.reports) == self.FILES
        assert len(starts) == 2
        assert all(r.attempts == 1 for r in report.reports)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "plan, timeout_s",
        [
            (FaultPlan(worker_crash_at=3), 5.0),
            (FaultPlan(slow_stages=(SlowStage("worker", at=3, seconds=10.0),)), 1.0),
        ],
        ids=["crash", "timeout"],
    )
    def test_a_failed_attempt_starts_exactly_one_replacement(
        self, wide_corpus, starts, plan, timeout_s
    ):
        report = run_batch(
            [wide_corpus], jobs=2, timeout_s=timeout_s, retry=self.RETRY, fault_plan=plan
        )
        assert report.ok
        assert len(starts) == 3
        assert sorted(r.attempts for r in report.reports) == [1] * (self.FILES - 1) + [2]
        assert multiprocessing.active_children() == []

    def test_attempt_faults_do_not_carry_over_on_a_reused_worker(
        self, wide_corpus, starts
    ):
        hang_s = 0.6
        plan = FaultPlan(
            slow_stages=(
                SlowStage("worker", at=1, seconds=hang_s),
                SlowStage("probe", at=1, seconds=0.0),
            )
        )
        report = run_batch(
            [wide_corpus], jobs=1, timeout_s=30.0, fault_plan=plan, worker=_probe_worker
        )
        assert report.ok and len(starts) == 1
        stats = [r.stats for r in report.reports]
        assert len({s["pid"] for s in stats}) == 1
        # Every attempt opens a fresh fault scope: its first probe entry is
        # ordinal 1 again, and the supervisor's worker stage never reaches it.
        assert all(s["fired"] == ["slow:probe@1"] for s in stats)
        # Only attempt 1 hangs; the worker serves the rest back to back.
        entered = [s["entered"] for s in stats]
        gaps = [later - earlier for earlier, later in zip(entered, entered[1:])]
        assert max(gaps) < hang_s / 2, gaps

    def test_workers_are_reaped_when_the_driver_raises(self, wide_corpus, starts):
        with pytest.raises(RuntimeError, match="driver bug"):
            run_batch(
                [wide_corpus],
                jobs=2,
                timeout_s=5.0,
                retry=_BrokenRetry(),
                fault_plan=FaultPlan(worker_crash_at=2),
            )
        assert len(starts) == 2
        assert multiprocessing.active_children() == []


class TestOneAnalysisPerFile:
    """A file's checker audit reuses the file's own session; only a program
    with ``dcons`` sites (whose erasure is not the identity) gets a second,
    independent one."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import repro.query
        from repro.query import AnalysisSession

        tally = {"sessions": 0, "inferences": 0}
        infer = repro.query.infer_program
        init = AnalysisSession.__init__

        def counting_infer(*args, **kwargs):
            tally["inferences"] += 1
            return infer(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            tally["sessions"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(repro.query, "infer_program", counting_infer)
        monkeypatch.setattr(AnalysisSession, "__init__", counting_init)
        return tally

    def test_unchecked_file_is_one_session_and_one_inference(self, corpus, counts):
        report = analyze_one(str(corpus / "nested" / "rev.nml"), None)
        assert report.ok and report.functions == 2
        assert counts == {"sessions": 1, "inferences": 1}

    @pytest.mark.parametrize("deadline_ms", [None, 60_000.0], ids=["exact", "budgeted"])
    def test_checked_file_shares_its_session_with_the_audit(
        self, corpus, counts, deadline_ms
    ):
        report = analyze_one(
            str(corpus / "nested" / "rev.nml"), None, check=True, deadline_ms=deadline_ms
        )
        assert report.ok and report.check is not None and not report.check_error
        # Base inference, plus the local test's discovery and pinned passes.
        assert counts["sessions"] == 1
        assert counts["inferences"] <= 3

    def test_dcons_program_is_audited_by_its_own_session(self, tmp_path, counts):
        from repro.check import check_program
        from repro.escape.analyzer import EscapeAnalysis
        from repro.lang.pretty import pretty_program
        from repro.opt.reuse import make_reuse_specialization

        program = paper_partition_sort()
        with faults.inject(FaultPlan(unsound_reuse_at=1)) as injector:
            bad = make_reuse_specialization(
                program, "append", 2, new_name="append_bad"
            ).program
        assert injector.fired == ["unsound_reuse@1"]

        counts["sessions"] = 0
        report = check_program(bad, analysis=EscapeAnalysis(bad))
        assert counts["sessions"] == 2
        assert [d.rule.id for d in report.errors] == ["AUD003"]

        path = tmp_path / "bad.nml"
        path.write_text(pretty_program(bad))
        counts["sessions"] = 0
        report = analyze_one(str(path), None, check=True)
        assert report.ok and report.check["error"] == 1
        assert counts["sessions"] == 2


class TestStoreReapedOncePerRun:
    FILES = 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_driver_reaps_stale_tmp_once(self, tmp_path, monkeypatch, jobs):
        from repro.store import DEFAULT_REAP_AGE_S, AnalysisStore

        root = tmp_path / "corpus"
        root.mkdir()
        for index in range(self.FILES // 2):
            (root / f"append{index}.nml").write_text(APPEND)
            (root / f"rev{index}.nml").write_text(REV)
        store = tmp_path / "store"
        (store / "ab").mkdir(parents=True)
        stale = store / "ab" / ".abcdef01-orphan.tmp"
        stale.write_text("{")
        old = time.time() - DEFAULT_REAP_AGE_S - 60
        os.utime(stale, (old, old))

        # Every reap, in the driver or in a forked worker, appends its pid.
        log = tmp_path / "reaps.log"
        reap = AnalysisStore.reap_tmp

        def logged_reap(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return reap(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisStore, "reap_tmp", logged_reap)
        report = run_batch([root], store_root=store, jobs=jobs)
        assert report.ok and len(report.reports) == self.FILES
        assert not stale.exists()
        assert log.read_text().split() == [str(os.getpid())]
