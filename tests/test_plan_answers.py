"""The plan's analysis answers every apply step it is used for exactly as a
fresh analysis of the step's input would.

Apply steps take their escape facts from the analysis that built the plan
whenever :func:`repro.opt.driver.plan_answers` says the step's question is
unchanged.  This replays every plan over the whole corpus — ``examples/``,
the 200 generated programs and the paper programs — and, at each step that
uses the plan's analysis, re-asks the question of a fresh
``EscapeAnalysis(step_input)``.
"""

from __future__ import annotations

from pathlib import Path

import repro.opt.driver as driver
from repro.check import check_program
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.parser import parse_program
from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.opt.driver import apply_plan, plan_answers, plan_optimizations
from repro.robust.faults import FaultPlan, inject

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _corpus() -> list:
    """Builders of every program the replay covers."""
    files = sorted(EXAMPLES.glob("*.nml")) + sorted(EXAMPLES.glob("generated/*.nml"))
    return [lambda path=path: parse_program(path.read_text()) for path in files] + [
        paper_partition_sort,
        lambda: prelude_program(["rev"], "rev [1, 2, 3, 4, 5]"),
        lambda: prelude_program(["ps", "create_list"], "ps (create_list 40)"),
        lambda: prelude_program(["msort"], "msort [3, 1, 2]"),
    ]


def _answer(analysis, program, decision):
    """The step's question, asked of ``analysis``: ``G(f, i)`` for a reuse
    step, the whole local-test list of the result call otherwise."""
    if decision.kind == "reuse":
        test = analysis.global_test(decision.function, decision.param_index)
        return (test.result, test.param_spines, test.non_escaping_spines, test.param_type)
    return analysis.local_test(program.body)


def test_plan_answers_equal_fresh_answers_over_the_corpus(monkeypatch):
    corpus = _corpus()
    assert len(corpus) >= 206
    replayed = {"reuse": 0, "stack": 0, "block": 0}
    apply = driver.apply_decision

    def checked(program, decision, plan):
        analysis = plan_answers(program, decision, plan)
        if analysis is not None:
            expected = _answer(EscapeAnalysis(program), program, decision)
            assert _answer(analysis, program, decision) == expected, (
                plan.program.source,
                decision,
            )
            replayed[decision.kind] += 1
        return apply(program, decision, plan)

    monkeypatch.setattr(driver, "apply_decision", checked)
    planned = 0
    for build in corpus:
        plan = plan_optimizations(build())
        apply_plan(plan)
        planned += bool(plan.decisions)
    # The replay is not vacuous: every kind of step reached the check.
    # The replay is not vacuous: every kind of step reached the check
    # (at this writing 152 plans with decisions; 20 reuse, 140 stack and 1
    # block step answered from the plan).
    assert planned > 100
    assert replayed["reuse"] >= 10 and replayed["stack"] > 100
    assert replayed["block"] >= 1


def test_planted_unsound_reuse_is_still_caught():
    # An injected compiler bug skips the escape gate and recycles append's
    # second parameter, whose spine escapes; taking the gate's answer from
    # the plan's analysis must not hide it from the auditor.
    from repro.opt.reuse import make_reuse_specialization

    program = paper_partition_sort()
    plan = plan_optimizations(program)
    with inject(FaultPlan(unsound_reuse_at=1)) as injector:
        bad = make_reuse_specialization(
            program, "append", 2, new_name="append_bad", analysis=plan.analysis
        ).program
    assert injector.fired == ["unsound_reuse@1"]
    assert [d.rule.id for d in check_program(bad).errors] == ["AUD003"]


def test_planted_fault_in_apply_plan_is_caught():
    # The same fault on apply_plan's own reuse step, whose gate is now
    # answered by the plan: on a program where the unsafe site selection
    # differs (two sibling cons sites on one path), the auditor condemns
    # the specialization.
    program = parse_program("f l = (cons (car l) nil, cons (car l) nil);\nf [1, 2]\n")
    plan = plan_optimizations(program)
    assert [d.kind for d in plan.decisions] == ["reuse", "stack"]
    clean, _ = apply_plan(plan)
    assert not check_program(clean).errors
    with inject(FaultPlan(unsound_reuse_at=1)) as injector:
        planted, _ = apply_plan(plan)
    assert injector.fired == ["unsound_reuse@1"]
    assert {d.rule.id for d in check_program(planted).errors} == {"AUD004", "AUD005"}
