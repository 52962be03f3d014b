"""Per-layer timing from outside the program: hooks on code objects.

Call sites bind the entry points with ``from module import name``, so
patching module attributes would miss most calls.  Instead each target
function keeps its identity and gets a new ``__code__``: a trampoline that
calls a private copy of the original and records, per layer, the number
of calls, inclusive time and self time (inclusive minus the time spent in
other hooked layers it called).  Removing the hooks restores the original
code objects.

Hooks are meant for one thread at a time: the traced runs call the system
under test serially.
"""

from __future__ import annotations

import builtins
import time
import types
from dataclasses import dataclass

from harness import median

#: The name the trampolines call through; resolved via ``builtins``
#: because a trampoline runs with its target's module globals.
_DISPATCH_NAME = "__perfbench_layer_dispatch__"

_TRAMPOLINE = """
def trampoline(*args, **kwargs):
    return {dispatch}({key}, args, kwargs)
"""


@dataclass
class Layer:
    """What one hooked entry point did: call count, inclusive and self
    seconds, and a callback that sees every completed call's arguments,
    result and duration."""

    name: str
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    on_return: object = None
    depth: int = 0


class Hooks:
    """Installs trampolines on a fixed set of functions (a context manager)."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self._targets: list[tuple[types.FunctionType, Layer]] = []
        self._originals: list[tuple[types.FunctionType, types.CodeType]] = []
        self._copies: list[tuple[types.FunctionType, Layer]] = []
        self._stack: list[list] = []

    def add(self, name: str, func, on_return=None) -> Layer:
        if func.__closure__:
            raise ValueError(f"{func.__qualname__}: closures cannot be hooked")
        layer = self.layers.setdefault(name, Layer(name))
        layer.on_return = on_return
        self._targets.append((func, layer))
        return layer

    def _call(self, key: int, args: tuple, kwargs: dict):
        copy, layer = self._copies[key]
        frame = [0.0]
        self._stack.append(frame)
        layer.depth += 1
        started = time.perf_counter()
        try:
            result = copy(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            layer.depth -= 1
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            layer.calls += 1
            layer.self_s += elapsed - frame[0]
            if layer.depth == 0:
                layer.inclusive_s += elapsed
        if layer.on_return is not None:
            layer.on_return(args, result, elapsed)
        return result

    def __enter__(self) -> "Hooks":
        if hasattr(builtins, _DISPATCH_NAME):
            raise RuntimeError("per-layer hooks are already installed")
        setattr(builtins, _DISPATCH_NAME, self._call)
        for key, (func, layer) in enumerate(self._targets):
            copy = types.FunctionType(
                func.__code__, func.__globals__, func.__name__, func.__defaults__
            )
            copy.__kwdefaults__ = func.__kwdefaults__
            self._copies.append((copy, layer))
            namespace: dict = {}
            exec(_TRAMPOLINE.format(dispatch=_DISPATCH_NAME, key=key), namespace)
            self._originals.append((func, func.__code__))
            func.__code__ = namespace["trampoline"].__code__.replace(
                co_name=func.__code__.co_name,
                co_qualname=func.__code__.co_qualname,
            )
        return self

    def __exit__(self, *exc_info) -> None:
        for func, code in self._originals:
            func.__code__ = code
        self._originals.clear()
        self._copies.clear()
        delattr(builtins, _DISPATCH_NAME)

    def table(self) -> str:
        """A human-readable calls / inclusive / self table."""
        rows = [f"{'layer':<24} {'calls':>8} {'incl_s':>10} {'self_s':>10}"]
        for layer in sorted(self.layers.values(), key=lambda l: -l.self_s):
            rows.append(
                f"{layer.name:<24} {layer.calls:>8} "
                f"{layer.inclusive_s:>10.4f} {layer.self_s:>10.4f}"
            )
        return "\n".join(rows)


class Probe:
    """The fixed list of public entry points, hooked, plus the objects and
    results seen crossing them, folded into the per-layer metrics."""

    def __init__(self) -> None:
        from multiprocessing.process import BaseProcess

        from repro.analysis.heap_liveness import analyze_program
        from repro.batch import analyze_one
        from repro.check import check_program
        from repro.escape.analyzer import EscapeAnalysis
        from repro.ir.lower import lower_expr, lower_program
        from repro.lang.parser import parse_program
        from repro.machine.machine import Machine
        from repro.opt.driver import apply_plan, plan_optimizations
        from repro.query import AnalysisSession
        from repro.semantics.gc import Collector, LivenessDirectedGC
        from repro.semantics.interp import Interpreter
        from repro.serve import AnalysisService
        from repro.store import AnalysisStore
        from repro.types.infer import infer_program

        self.session_stats: list = []
        self.interpreter_metrics: list = []
        self.machine_instructions = 0
        self.check_timings: dict[str, float] = {"lint": 0.0, "audit": 0.0, "machine": 0.0}
        self.findings = 0
        self.decisions = 0
        self.store_hits = 0
        self.store_misses = 0
        self.store_writes = 0
        self.handle_ms: dict[str, list[float]] = {}

        hooks = Hooks()
        hooks.add("lang.parse", parse_program)
        hooks.add("types.infer", infer_program)
        # ``lower_program`` has no caller in the package today; the fixpoint
        # engine and heap liveness lower expression by expression.
        hooks.add("ir.lower", lower_program)
        hooks.add("ir.lower", lower_expr)
        # ``repro batch`` solves each file's main SCC through
        # ``EscapeAnalysis.solve`` before any ``global_all``; both reach the
        # fixpoint through the session's ``solve``.
        hooks.add("escape.solve", EscapeAnalysis.global_all)
        hooks.add("escape.solve", AnalysisSession.solve)
        hooks.add(
            "escape.session",
            AnalysisSession.__init__,
            lambda args, result, s: self.session_stats.append(args[0].stats),
        )
        hooks.add("analysis.liveness", analyze_program)
        hooks.add("opt.plan", plan_optimizations, self._on_plan)
        hooks.add("opt.apply", apply_plan)
        hooks.add("check", check_program, self._on_check)
        hooks.add("store.read", AnalysisStore.read, self._on_read)
        hooks.add("store.write", AnalysisStore.write, self._on_write)
        hooks.add(
            "semantics.run",
            Interpreter.run,
            lambda args, result, s: self.interpreter_metrics.append(
                (args[0].metrics, isinstance(args[0].gc, LivenessDirectedGC))
            ),
        )
        hooks.add("semantics.gc", Collector.collect)
        hooks.add("machine.run", Machine.run, self._on_machine)
        hooks.add("batch.analyze_one", analyze_one)
        hooks.add("serve.handle", AnalysisService.handle, self._on_handle)
        hooks.add("batch.spawn", BaseProcess.start)
        self.hooks = hooks

    def _on_machine(self, args, result, seconds) -> None:
        self.machine_instructions += args[0].metrics.eval_steps

    def _on_plan(self, args, plan, seconds) -> None:
        self.decisions += len(plan.decisions)

    def _on_check(self, args, report, seconds) -> None:
        for name, spent in report.pass_timings.items():
            self.check_timings[name] = self.check_timings.get(name, 0.0) + spent
        self.findings += len(report.diagnostics)

    def _on_read(self, args, payload, seconds) -> None:
        if payload is None:
            self.store_misses += 1
        else:
            self.store_hits += 1

    def _on_write(self, args, landed, seconds) -> None:
        self.store_writes += bool(landed)

    def _on_handle(self, args, result, seconds) -> None:
        self.handle_ms.setdefault(args[1], []).append(seconds * 1000.0)

    def __enter__(self) -> "Probe":
        self.hooks.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.hooks.__exit__(*exc_info)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this probe can see (workload-specific
        ones, such as ``batch.overhead_s``, are added by the workload)."""
        layer = self.hooks.layers

        def self_s(name: str) -> float:
            return layer[name].self_s

        def calls(name: str) -> int:
            return layer[name].calls

        def session_sum(attr: str) -> int:
            return sum(getattr(stats, attr) for stats in self.session_stats)

        def interp_sum(attr: str, liveness: bool) -> int:
            return sum(
                getattr(metrics, attr)
                for metrics, is_liveness in self.interpreter_metrics
                if is_liveness == liveness
            )

        lookups = self.store_hits + self.store_misses
        return {
            "batch.spawns": calls("batch.spawn"),
            "batch.worker_s": layer["batch.analyze_one"].inclusive_s,
            "lang.parse_s": self_s("lang.parse"),
            "lang.parse_calls": calls("lang.parse"),
            "types.infer_s": self_s("types.infer"),
            "types.infer_calls": calls("types.infer"),
            "ir.lower_s": self_s("ir.lower"),
            "ir.lower_calls": calls("ir.lower"),
            "escape.sessions": calls("escape.session"),
            "escape.solve_s": self_s("escape.solve") + self_s("escape.session"),
            "escape.worklist_evals": session_sum("worklist_evals"),
            "escape.iterations": session_sum("iterations"),
            "escape.scc_misses": session_sum("scc_misses"),
            "analysis.liveness_s": self_s("analysis.liveness"),
            "analysis.liveness_calls": calls("analysis.liveness"),
            "opt.plan_s": self_s("opt.plan"),
            "opt.apply_s": self_s("opt.apply"),
            "opt.decisions": self.decisions,
            "check.lint_s": self.check_timings.get("lint", 0.0),
            "check.audit_s": self.check_timings.get("audit", 0.0),
            "check.machine_s": self.check_timings.get("machine", 0.0),
            "check.findings": self.findings,
            "store.read_s": layer["store.read"].inclusive_s,
            "store.write_s": layer["store.write"].inclusive_s,
            "store.hits": self.store_hits,
            "store.misses": self.store_misses,
            "store.writes": self.store_writes,
            "store.hit_ratio": self.store_hits / lookups if lookups else 0.0,
            "semantics.run_s": self_s("semantics.run"),
            "semantics.eval_steps": interp_sum("eval_steps", False),
            "semantics.heap_allocs": interp_sum("heap_allocs", False),
            "semantics.reused": interp_sum("reused", False),
            "semantics.stack_reclaimed": interp_sum("stack_reclaimed", False),
            "semantics.block_reclaimed": interp_sum("block_reclaimed", False),
            "semantics.gc_runs": interp_sum("gc_runs", False),
            "semantics.gc_s": layer["semantics.gc"].inclusive_s,
            "semantics.gc_marked": interp_sum("gc_marked", False),
            "semantics.gc_swept": interp_sum("gc_swept", False),
            "semantics.liveness_gc_marked": interp_sum("gc_marked", True),
            "machine.run_s": self_s("machine.run"),
            "machine.instructions": self.machine_instructions,
            "serve.analyze_ms": _median_or_zero(self.handle_ms.get("analyze", [])),
            "serve.check_ms": _median_or_zero(self.handle_ms.get("check", [])),
            "serve.optimize_ms": _median_or_zero(self.handle_ms.get("optimize", [])),
        }


def _median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


#: Counts that must repeat exactly between two traced passes over the
#: same inputs.
REPEATABLE_COUNTS = (
    "types.infer_calls",
    "escape.worklist_evals",
    "batch.spawns",
    "semantics.heap_allocs",
    "semantics.gc_marked",
)
