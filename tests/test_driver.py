"""Optimization driver tests: planning and mechanical application."""

import pytest

from repro.lang.prelude import prelude_program
from repro.opt.driver import OptimizationPlan, apply_plan, plan_optimizations
from repro.semantics.interp import run_program


class TestPlanning:
    def test_partition_sort_plan(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        reuse = plan.by_kind("reuse")
        # append param 1, split param 2, ps param 1 are all reusable
        assert {(d.function, d.param_index) for d in reuse} >= {
            ("append", 1),
            ("split", 2),
            ("ps", 1),
        }
        # the literal argument of the result call is stack-allocatable
        assert [(d.function, d.param_index) for d in plan.by_kind("stack")] == [
            ("<body>", 1)
        ]

    def test_producer_consumer_plan(self):
        program = prelude_program(["ps", "create_list"], "ps (create_list 8)")
        plan = plan_optimizations(program)
        blocks = plan.by_kind("block")
        assert [(d.function, d.param_index) for d in blocks] == [("create_list", 1)]

    def test_escaping_args_produce_no_decisions(self):
        program = prelude_program(["drop"], "drop 1 [1, 2, 3]")
        plan = plan_optimizations(program)
        assert plan.by_kind("stack") == []
        assert plan.by_kind("reuse") == []

    def test_reuse_decisions_carry_obligations(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        assert all("unshared" in d.obligation for d in plan.by_kind("reuse"))

    def test_summary_renders(self, partition_sort):
        text = plan_optimizations(partition_sort).summary()
        assert "[reuse]" in text and "[stack]" in text

    def test_empty_plan_summary(self):
        program = prelude_program(["length"], "length [1]")
        plan = plan_optimizations(program)
        assert plan.by_kind("reuse") == []
        assert "no storage optimization" in plan.summary() or plan.decisions


class TestApplication:
    def test_apply_preserves_results(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        optimized, log = apply_plan(plan)
        assert run_program(optimized)[0] == run_program(partition_sort)[0]
        assert any("DCONS" in line for line in log)

    def test_apply_redirects_literal_call(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        optimized, log = apply_plan(plan)
        _, metrics = run_program(optimized)
        # the body call goes to ps_reuse, so cells are recycled
        assert metrics.reused > 0
        assert any("redirected" in line for line in log)

    def test_apply_block_plan(self):
        program = prelude_program(["ps", "create_list"], "ps (create_list 10)")
        plan = plan_optimizations(program)
        optimized, log = apply_plan(plan)
        result, metrics = run_program(optimized)
        assert result == list(range(1, 11))
        assert metrics.block_reclaimed == 10

    def test_apply_improves_heap_traffic(self, partition_sort):
        _, baseline = run_program(partition_sort)
        optimized, _ = apply_plan(plan_optimizations(partition_sort))
        _, metrics = run_program(optimized)
        assert metrics.heap_allocs < baseline.heap_allocs


#: (label, program builder, analysis sessions the apply steps build).  Only
#: a step whose question changed needs its own session: the stack step of
#: a literal call that a reuse step redirected to its specialization.
APPLY_SESSIONS = [
    ("ps [literal]", lambda: prelude_program(["ps"], "ps [5, 2, 7, 1, 3, 4]"), 1),
    ("rev [literal]", lambda: prelude_program(["rev"], "rev [1, 2, 3, 4, 5]"), 1),
    (
        "ps (create_list 40)",
        lambda: prelude_program(["ps", "create_list"], "ps (create_list 40)"),
        0,
    ),
]


def step_sessions(monkeypatch, module, counts) -> dict[str, int]:
    """Wrap ``module.apply_decision`` so the sessions each step builds are
    tallied per decision kind."""
    from collections import Counter

    per_kind: Counter = Counter()
    original = module.apply_decision

    def counted(program, decision, plan):
        before = counts["sessions"]
        try:
            return original(program, decision, plan)
        finally:
            per_kind[decision.kind] += counts["sessions"] - before

    monkeypatch.setattr(module, "apply_decision", counted)
    return per_kind


class TestApplyReusesThePlanAnalysis:
    """Apply steps take their escape facts from the plan's analysis while
    the step's question is unchanged, instead of re-solving each rewritten
    program."""

    @pytest.mark.parametrize(
        "build,expected", [(b, e) for _, b, e in APPLY_SESSIONS],
        ids=[label for label, _, _ in APPLY_SESSIONS],
    )
    def test_apply_plan_sessions(self, build, expected, analysis_counts, monkeypatch):
        import repro.opt.driver as driver

        plan = plan_optimizations(build())
        per_kind = step_sessions(monkeypatch, driver, analysis_counts)
        analysis_counts["sessions"] = 0
        optimized, _ = apply_plan(plan)
        assert analysis_counts["sessions"] == expected
        assert sum(per_kind.values()) == expected
        assert per_kind["reuse"] == 0
        assert run_program(optimized)[0] == run_program(plan.program)[0]

    def test_plan_carries_its_unmetered_analysis(self, partition_sort):
        from repro.robust.budget import AnalysisBudget

        meter = AnalysisBudget().start()
        plan = plan_optimizations(partition_sort, meter=meter)
        assert plan.analysis.program is partition_sort
        assert plan.analysis.meter is None
        # excluded from repr and equality
        assert "analysis" not in repr(plan)
        assert plan == OptimizationPlan(partition_sort, list(plan.decisions))

    def test_hand_built_plan_gets_one_analysis_per_apply(self, analysis_counts):
        program = prelude_program(["ps", "create_list"], "ps (create_list 8)")
        decisions = list(plan_optimizations(program).decisions)
        hand_built = OptimizationPlan(program, decisions)
        analysis_counts["sessions"] = 0
        optimized, _ = apply_plan(hand_built)
        assert analysis_counts["sessions"] == 1
        assert hand_built.analysis is not None
        assert run_program(optimized)[0] == list(range(1, 9))

    def test_analysis_of_another_program_is_refused(self, partition_sort):
        from repro.escape.analyzer import EscapeAnalysis

        other = prelude_program(["rev"], "rev [1]")
        with pytest.raises(ValueError, match="different program"):
            OptimizationPlan(partition_sort, analysis=EscapeAnalysis(other))

    def test_cloned_program_fails_the_rule(self, partition_sort):
        from repro.lang.ast import clone_program
        from repro.opt.driver import plan_answers

        plan = plan_optimizations(partition_sort)
        reuse, stack = plan.by_kind("reuse")[0], plan.by_kind("stack")[0]
        assert plan_answers(partition_sort, reuse, plan) is plan.analysis
        assert plan_answers(partition_sort, stack, plan) is plan.analysis
        cloned = clone_program(partition_sort)
        assert plan_answers(cloned, reuse, plan) is None
        assert plan_answers(cloned, stack, plan) is None

    def test_auto_reuse_keeps_one_analysis(self, partition_sort, analysis_counts):
        from repro.opt.pipeline import auto_reuse

        outcome = auto_reuse(partition_sort)
        assert len(outcome.steps) >= 3
        assert analysis_counts["sessions"] == 1
