"""The in-place reuse optimization (§6, §A.3.2).

Given ``f`` whose ``i``-th parameter is a list with ``dᵢ`` spines of which
``escᵢ`` escape, a *reuse specialization* ``f'`` recycles the top-spine
cells of that parameter for the cons cells ``f`` builds: eligible
``cons e1 e2`` in the body become ``DCONS xᵢ e1 e2`` (destructive cons,
reusing ``xᵢ``'s first cell).  Safety requires

* the reused spines not to escape (escape analysis, §4), and
* the actual argument to be unshared there (sharing analysis, Theorem 2),

which is the *caller's* obligation: :func:`redirect_calls` switches a call
site from ``f`` to ``f'`` once those facts are established (that is how the
paper builds ``PS'`` from ``PS`` by calling ``APPEND'``).

A cons site is eligible when the donor parameter has no further use after
the cons finishes (:mod:`repro.opt.liveness`), and at most one site may be
rewritten per execution path — two DCONS on one path would recycle the same
donor cell twice.  Sites in opposite branches of an ``if`` are compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.escape.analyzer import EscapeAnalysis
from repro.escape.results import EscapeResults
from repro.lang.ast import (
    App,
    Binding,
    Expr,
    If,
    Letrec,
    Prim,
    Program,
    Var,
    apply_n,
    clone,
    lambda_n,
    rename_var,
    transform,
    uncurry_app,
    uncurry_lambda,
    walk,
)
from repro.lang.errors import OptimizationError
from repro.opt.liveness import var_used_after


@dataclass
class ReuseResult:
    """Outcome of one reuse specialization."""

    program: Program
    function: str
    new_name: str
    param_index: int
    param_name: str
    rewritten_sites: int
    reusable_spines: int


def _is_saturated_cons(node: Expr) -> bool:
    if not isinstance(node, App):
        return False
    head, args = uncurry_app(node)
    return isinstance(head, Prim) and head.name == "cons" and len(args) == 2


def _parent_map(root: Expr) -> dict[int, Expr]:
    parents: dict[int, Expr] = {}
    for node in walk(root):
        for child in node.children():
            parents[child.uid] = node
    return parents


def _in_opposite_branches(a: Expr, b: Expr, parents: dict[int, Expr]) -> bool:
    """True iff some ``if`` has ``a`` in one branch and ``b`` in the other
    (so at most one of them evaluates per execution)."""

    def branch_chain(node: Expr) -> dict[int, str]:
        chain: dict[int, str] = {}
        current = node
        while current.uid in parents:
            parent = parents[current.uid]
            if isinstance(parent, If):
                if current is parent.then:
                    chain[parent.uid] = "then"
                elif current is parent.otherwise:
                    chain[parent.uid] = "else"
            current = parent
        return chain

    chain_a = branch_chain(a)
    chain_b = branch_chain(b)
    for if_uid, side in chain_a.items():
        other = chain_b.get(if_uid)
        if other is not None and other != side:
            return True
    return False


def _is_descendant(node: Expr, ancestor: Expr) -> bool:
    return any(child.uid == node.uid for child in walk(ancestor))


def select_reuse_sites(
    body: Expr, param: str, donor_type=None, unsafe: bool = False
) -> list[App]:
    """Eligible, pairwise path-disjoint cons sites for donor ``param``.

    Pre-order greedy: keep a site if the donor is dead after it, the list it
    builds has the donor's own type (a donor cell can only stand in for a
    cons cell of the same list type — ``dcons`` is typed), and it is neither
    nested in, nor on the same execution path as, a kept site.

    ``unsafe`` drops the liveness and path-disjointness gates (the typing
    gate stays — an ill-typed ``dcons`` would not even compile) and keeps
    *every* same-typed saturated cons site.  Only the injected-compiler-bug
    path (:class:`~repro.robust.faults.FaultPlan` ``unsound_reuse_at``)
    passes it: the point is to bake a genuinely unsound site selection into
    the program for the static auditor and the snapshot differ to catch.
    """
    parents = _parent_map(body)
    kept: list[App] = []
    for node in walk(body):
        if not _is_saturated_cons(node):
            continue
        if donor_type is not None and node.ty is not None and node.ty != donor_type:
            continue
        if unsafe:
            kept.append(node)
            continue
        if var_used_after(body, node.uid, param) is not False:
            continue
        compatible = True
        for existing in kept:
            if _is_descendant(node, existing) or _is_descendant(existing, node):
                compatible = False
                break
            if not _in_opposite_branches(node, existing, parents):
                compatible = False
                break
        if compatible:
            kept.append(node)
    return kept


def make_reuse_specialization(
    program: Program,
    function: str,
    param_index: int,
    new_name: str | None = None,
    analysis: EscapeResults | None = None,
    force: bool = False,
) -> ReuseResult:
    """Build ``f'`` — the §6 transformation — and return a new program with
    it appended as an extra top-level binding.

    Verifies (unless ``force``) that the donor parameter is a list with at
    least one non-escaping top spine, per the global escape test.  The test
    is asked of ``analysis`` when given — any analysis of a program whose
    bindings ``program`` still holds by identity answers it, such as the
    one an optimization plan was built from
    (:func:`repro.opt.driver.plan_answers`) — and of a fresh
    :class:`EscapeAnalysis` of ``program`` otherwise.
    """
    from repro.robust import faults

    new_name = new_name or f"{function}_reuse"
    if new_name in program.binding_names():
        raise OptimizationError(f"{new_name!r} already exists in the program")

    unsound = faults.take_unsound_reuse()
    if unsound:
        # Injected compiler bug: skip the escape gate below *and* the
        # liveness/path-disjointness site gates, producing a genuinely
        # unsound specialization for the static auditor to catch — even
        # when the escape facts alone would have licensed the decision.
        force = True

    analysis = analysis or EscapeAnalysis(program)
    test = analysis.global_test(function, param_index)
    if not force:
        if test.param_spines < 1:
            raise OptimizationError(
                f"parameter {param_index} of {function} is not a list "
                f"({test.param_type}); nothing to reuse"
            )
        if test.non_escaping_spines < 1:
            raise OptimizationError(
                f"every spine of parameter {param_index} of {function} may "
                f"escape ({test.result}); in-place reuse would be unsound"
            )

    binding = program.binding(function)
    cloned = clone(binding.expr)
    params, body = uncurry_lambda(cloned)
    if param_index > len(params):
        raise OptimizationError(
            f"{function} has {len(params)} parameters, no index {param_index}"
        )
    param = params[param_index - 1]

    # The specialization recurses into itself (APPEND' calls APPEND').
    body = rename_var(body, function, new_name)

    sites = select_reuse_sites(body, param, donor_type=test.param_type, unsafe=unsound)
    if not sites and not force:
        raise OptimizationError(
            f"no eligible cons site in {function} for donor {param!r} "
            "(the parameter is still live after every cons)"
        )
    site_uids = {site.uid for site in sites}

    def rewrite(node: Expr) -> Expr | None:
        if node.uid in site_uids and isinstance(node, App):
            head, args = uncurry_app(node)
            assert isinstance(head, Prim) and head.name == "cons"
            return apply_n(
                Prim(span=head.span, name="dcons"),
                Var(span=head.span, name=param),
                args[0],
                args[1],
                span=node.span,
            )
        return None

    new_body = transform(body, rewrite)
    new_binding = Binding(new_name, lambda_n(params, new_body, span=cloned.span))
    new_letrec = Letrec(
        span=program.letrec.span,
        bindings=program.bindings + (new_binding,),
        body=program.body,
    )
    return ReuseResult(
        program=Program(letrec=new_letrec, source=program.source),
        function=function,
        new_name=new_name,
        param_index=param_index,
        param_name=param,
        rewritten_sites=len(sites),
        reusable_spines=test.non_escaping_spines,
    )


def redirect_calls(
    program: Program,
    caller: str,
    callee: str,
    new_callee: str,
) -> Program:
    """Rewrite every application head ``callee`` inside ``caller``'s body to
    ``new_callee`` (the caller-side step of §6: switching a call to the
    reuse specialization once escape + sharing facts justify it)."""
    if new_callee not in program.binding_names():
        raise OptimizationError(f"{new_callee!r} is not defined in the program")
    binding = program.binding(caller)
    new_expr = rename_var(clone(binding.expr), callee, new_callee)
    new_bindings = tuple(
        Binding(b.name, new_expr if b.name == caller else b.expr, b.span)
        for b in program.bindings
    )
    return Program(
        letrec=Letrec(
            span=program.letrec.span, bindings=new_bindings, body=program.body
        ),
        source=program.source,
    )


def redirect_body_calls(program: Program, callee: str, new_callee: str) -> Program:
    """Rewrite applications of ``callee`` in the *program body* (the result
    expression) to ``new_callee``."""
    if new_callee not in program.binding_names():
        raise OptimizationError(f"{new_callee!r} is not defined in the program")
    new_body = rename_var(clone(program.body), callee, new_callee)
    return Program(
        letrec=Letrec(
            span=program.letrec.span, bindings=program.bindings, body=new_body
        ),
        source=program.source,
    )
