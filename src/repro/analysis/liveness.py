"""Static liveness / stall analysis (``E2xx``).

Computes, without executing anything, which task instances can ever become
ready, which bound input sets are unsatisfiable, and which root outcomes are
statically unreachable.  The model is a fixpoint over *producible events*:

* the root task is startable (the environment supplies one input set, the
  same default rule as :func:`repro.analysis.outcomes.analyze_outcomes`);
* a startable task may publish an ``INPUT`` event for each satisfiable set,
  and — implementations being opaque — any of its declared outputs;
* a startable compound publishes whatever mapped outputs its inner events
  can satisfy;
* an input set (or output mapping) is satisfiable when every binding has at
  least one producible alternative **and** the alternatives can be chosen
  consistently: a task instance terminates in exactly one final output per
  round, so a conjunction that needs two different outcomes of the same
  producer (the ghost-path mistake of the paper's Fig. 7 family) is
  unsatisfiable.

The result is a *may* analysis: everything the real engines can do is
producible here, so a task flagged dead (``E201``) or an outcome flagged
unreachable (``E202``) is a genuine composition bug.  ``repro analyze``
cross-checks these verdicts against the dynamic explorer
(:mod:`repro.analysis.outcomes`) and treats disagreement as an analyser bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    InputSetBinding,
    OutputKind,
    Script,
    Source,
    TaskClass,
)
from .findings import Finding
from .registry import DIAGNOSTICS

# One producible event: (producer local name, "input" | "output", event name)
Fact = Tuple[str, str, str]

# How many alternative combinations a consistency search may explore before
# falling back to the per-binding over-approximation.
_COMBO_CAP = 4096


class FlowNode:
    """One task instance in the static flow tree (mirrors the engine's
    :class:`~repro.engine.instance.TaskNode` structure, declaration-only)."""

    def __init__(
        self,
        decl: AnyTaskDecl,
        script: Script,
        parent: Optional["FlowNode"],
    ) -> None:
        self.decl = decl
        self.parent = parent
        self.path = f"{parent.path}/{decl.name}" if parent else decl.name
        self.local = decl.name
        self.scope = parent.path if parent else ""
        self.taskclass: Optional[TaskClass] = script.taskclasses.get(
            decl.taskclass_name
        )
        self.children: List["FlowNode"] = []
        if isinstance(decl, CompoundTaskDecl):
            self.children = [FlowNode(child, script, self) for child in decl.tasks]

    @property
    def is_compound(self) -> bool:
        return isinstance(self.decl, CompoundTaskDecl)

    def walk(self) -> List["FlowNode"]:
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def sibling_class(self, local_name: str) -> Optional[TaskClass]:
        """Task class of ``local_name`` as resolved from inside this compound
        (a constituent, or the compound itself for ``if input`` sources)."""
        if local_name == self.local:
            return self.taskclass
        for child in self.children:
            if child.local == local_name:
                return child.taskclass
        return None


@dataclass
class LivenessResult:
    """Everything the static liveness pass computed."""

    root_task: str
    input_set: str
    findings: List[Finding] = field(default_factory=list)
    # task path -> input-set names it can become ready through
    startable: Dict[str, Set[str]] = field(default_factory=dict)
    dead_tasks: List[str] = field(default_factory=list)
    reachable_outcomes: Set[str] = field(default_factory=set)
    unreachable_outcomes: List[str] = field(default_factory=list)
    root: Optional[FlowNode] = None
    # every analysed top-level flow tree (multi-root scripts have several)
    roots: List[FlowNode] = field(default_factory=list)
    # scope path -> producible facts there (see module docstring)
    facts: Dict[str, Set[Fact]] = field(default_factory=dict)

    def may_start(self, path: str) -> bool:
        return bool(self.startable.get(path))


@dataclass(frozen=True)
class _Requirement:
    """What one chosen source alternative demands of its producer."""

    producer: str
    # acceptable final outputs of the producer (None = unconstrained)
    finals: Optional[FrozenSet[str]]
    # acceptable input sets of the producer (None = unconstrained)
    inputs: Optional[FrozenSet[str]]


class _LivenessPass:
    def __init__(self, script: Script, root_task: str, input_set: str) -> None:
        self.script = script
        self.root = FlowNode(script.tasks[root_task], script, None)
        self.input_set = input_set
        # scope path -> producible facts in that scope
        self.facts: Dict[str, Set[Fact]] = {}
        # task path -> startable set names
        self.startable: Dict[str, Set[str]] = {
            node.path: set() for node in self.root.walk()
        }
        # (scope, producer local) -> has the producer a repeat output?
        self._node_at: Dict[str, FlowNode] = {
            node.path: node for node in self.root.walk()
        }

    # -- fact helpers -----------------------------------------------------------

    def _add_fact(self, scope: str, fact: Fact) -> bool:
        bucket = self.facts.setdefault(scope, set())
        if fact in bucket:
            return False
        bucket.add(fact)
        return True

    # -- satisfiability ---------------------------------------------------------

    def _source_options(
        self, node: FlowNode, source: Source, scope_owner: FlowNode, scope: str
    ) -> Optional[_Requirement]:
        """Requirement if ``source`` is producible right now, else None."""
        facts = self.facts.get(scope, set())
        producer_class = scope_owner.sibling_class(source.task_name)
        if producer_class is None:
            return None  # unknown producer: typeflow's E101, never satisfiable
        if source.guard_kind is GuardKind.INPUT:
            if (source.task_name, "input", source.guard_name) not in facts:
                return None
            spec = producer_class.input_set(source.guard_name)
            if spec is None:
                return None
            if source.object_name is not None and spec.object(source.object_name) is None:
                return None
            return _Requirement(
                source.task_name, None, frozenset({source.guard_name})
            )
        if source.guard_kind is GuardKind.OUTPUT:
            out = producer_class.output(source.guard_name)
            if out is None:
                return None
            if (source.task_name, "output", source.guard_name) not in facts:
                return None
            if source.object_name is not None and out.object(source.object_name) is None:
                return None
            if out.kind in (OutputKind.OUTCOME, OutputKind.ABORT):
                finals: Optional[FrozenSet[str]] = frozenset({source.guard_name})
            else:
                # marks precede non-abort termination and a class with marks
                # declares no aborts (schema rule); repeats precede any final
                finals = None
            return _Requirement(source.task_name, finals, None)
        # ANY guard: any producible outcome/mark carrying the object
        candidates = [
            out
            for out in producer_class.outputs
            if out.kind in (OutputKind.OUTCOME, OutputKind.MARK)
            and source.object_name is not None
            and out.object(source.object_name) is not None
            and (source.task_name, "output", out.name) in facts
        ]
        if not candidates:
            return None
        if any(out.kind is OutputKind.MARK for out in candidates):
            finals = None
        else:
            finals = frozenset(out.name for out in candidates)
        return _Requirement(source.task_name, finals, None)

    def _conjunction_satisfiable(
        self,
        node: FlowNode,
        bindings: Sequence[Sequence[Source]],
        scope_owner: FlowNode,
        scope: str,
    ) -> bool:
        """Can every binding pick a producible alternative consistently?

        Consistency: per producer, the intersection of demanded final
        outputs must be non-empty (a task terminates once per round), and —
        unless the producer has a repeat output, letting it restart with a
        different set — the intersection of demanded input sets likewise.
        """
        options: List[List[_Requirement]] = []
        for sources in bindings:
            viable = []
            for source in sources:
                req = self._source_options(node, source, scope_owner, scope)
                if req is not None:
                    viable.append(req)
            if not viable:
                return False
            options.append(viable)

        budget = [_COMBO_CAP]

        def producer_repeats(local: str) -> bool:
            cls = scope_owner.sibling_class(local)
            return cls is not None and bool(cls.outputs_of_kind(OutputKind.REPEAT))

        def search(
            index: int,
            finals: Dict[str, FrozenSet[str]],
            inputs: Dict[str, FrozenSet[str]],
        ) -> bool:
            if budget[0] <= 0:
                return True  # cap hit: accept (over-approximate, stays sound)
            if index == len(options):
                return True
            for req in options[index]:
                budget[0] -= 1
                new_finals = finals
                if req.finals is not None:
                    merged = finals.get(req.producer, req.finals) & req.finals
                    if not merged:
                        continue
                    new_finals = dict(finals)
                    new_finals[req.producer] = merged
                new_inputs = inputs
                if req.inputs is not None and not producer_repeats(req.producer):
                    merged_in = inputs.get(req.producer, req.inputs) & req.inputs
                    if not merged_in:
                        continue
                    new_inputs = dict(inputs)
                    new_inputs[req.producer] = merged_in
                if search(index + 1, new_finals, new_inputs):
                    return True
            return False

        return search(0, {}, {})

    def _set_satisfiable(self, node: FlowNode, binding: InputSetBinding) -> bool:
        scope_owner = node.parent if node.parent is not None else None
        if scope_owner is None:
            return True  # root: environment supplies the inputs
        groups: List[Sequence[Source]] = [obj.sources for obj in binding.objects]
        groups.extend(notif.sources for notif in binding.notifications)
        return self._conjunction_satisfiable(node, groups, scope_owner, node.scope)

    # -- the fixpoint -----------------------------------------------------------

    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self.root.walk():
                changed |= self._step(node)

    def _candidate_sets(self, node: FlowNode) -> List[InputSetBinding]:
        if node.decl.input_sets:
            return list(node.decl.input_sets)
        if node.taskclass is not None and not node.taskclass.input_sets:
            # no input sets at all: starts unconditionally with its parent
            return [InputSetBinding("")]
        return []

    def _step(self, node: FlowNode) -> bool:
        changed = False
        startable = self.startable[node.path]
        if node.parent is None:
            chosen = self._root_input_set()
            if chosen not in startable:
                startable.add(chosen)
                changed = True
        elif self.startable[node.parent.path]:
            for binding in self._candidate_sets(node):
                if binding.name in startable:
                    continue
                if self._set_satisfiable(node, binding):
                    startable.add(binding.name)
                    changed = True
        if not startable:
            return changed
        # publish INPUT facts
        for set_name in startable:
            changed |= self._add_fact(node.scope, (node.local, "input", set_name))
            if node.is_compound:
                changed |= self._add_fact(node.path, (node.local, "input", set_name))
        # publish outputs
        if node.taskclass is None:
            return changed
        if not node.is_compound:
            finals = node.taskclass.final_outputs()
            markable = not finals or any(
                out.kind is not OutputKind.ABORT for out in finals
            )
            for out in node.taskclass.outputs:
                if out.kind is OutputKind.MARK and not markable:
                    continue
                changed |= self._add_fact(node.scope, (node.local, "output", out.name))
        else:
            decl = node.decl  # CompoundTaskDecl
            for binding in decl.outputs:
                fact = (node.local, "output", binding.name)
                if fact in self.facts.get(node.scope, set()):
                    continue
                groups: List[Sequence[Source]] = [
                    obj.sources for obj in binding.objects
                ]
                groups.extend(notif.sources for notif in binding.notifications)
                if self._conjunction_satisfiable(node, groups, node, node.path):
                    changed |= self._add_fact(node.scope, fact)
        return changed

    def _root_input_set(self) -> str:
        taskclass = self.root.taskclass
        if taskclass is None or not taskclass.input_sets:
            return ""
        if taskclass.input_set(self.input_set) is not None:
            return self.input_set
        return taskclass.input_sets[0].name

    # -- findings ----------------------------------------------------------------

    def report(self) -> LivenessResult:
        result = LivenessResult(
            root_task=self.root.local,
            input_set=self._root_input_set(),
            startable=self.startable,
            root=self.root,
            facts=self.facts,
        )

        def finding(code: str, location: str, message: str) -> None:
            spec = DIAGNOSTICS.require(code)
            result.findings.append(Finding(code, spec.severity, location, message))

        for node in self.root.walk():
            startable = self.startable[node.path]
            if node.parent is None:
                continue
            parent_alive = bool(self.startable[node.parent.path])
            if not startable:
                result.dead_tasks.append(node.path)
                if parent_alive:
                    # only the topmost dead task is reported; its descendants
                    # are dead as a consequence, not as separate bugs
                    finding(
                        "E201",
                        node.path,
                        "task can never become ready: every alternative source "
                        "of every input set is transitively unsatisfiable",
                    )
                continue
            for binding in node.decl.input_sets:
                if binding.name not in startable:
                    finding(
                        "E203",
                        node.path,
                        f"input set {binding.name!r} can never be satisfied; "
                        f"the task only starts via "
                        f"{', '.join(sorted(repr(s) for s in startable))}",
                    )
            if node.is_compound and node.taskclass is not None:
                produced = self.facts.get(node.scope, set())
                for binding in node.decl.outputs:
                    if (node.local, "output", binding.name) not in produced:
                        finding(
                            "E204",
                            node.path,
                            f"output mapping {binding.name!r} can never fire",
                        )

        # root outcomes
        root_class = self.root.taskclass
        if root_class is not None:
            produced = self.facts.get("", set())
            for out in root_class.final_outputs():
                if (self.root.local, "output", out.name) in produced or (
                    not self.root.is_compound
                ):
                    result.reachable_outcomes.add(out.name)
                else:
                    result.unreachable_outcomes.append(out.name)
                    finding(
                        "E202",
                        self.root.path,
                        f"root outcome {out.name!r} is statically unreachable "
                        f"through the output mapping",
                    )
            if root_class.final_outputs() and not result.reachable_outcomes:
                finding(
                    "E200",
                    self.root.path,
                    "no final output of the root task is statically "
                    "producible: the workflow is guaranteed to stall",
                )
        return result


def check_liveness(
    script: Script,
    root_task: Optional[str] = None,
    input_set: str = "main",
) -> LivenessResult:
    """Run the static liveness pass; see :class:`LivenessResult`.

    With several top-level tasks and no ``root_task``, each top-level
    compound is analysed independently and the findings are merged (the
    per-root details come from the first).
    """
    if root_task is None:
        roots = list(script.tasks)
    else:
        if root_task not in script.tasks:
            raise KeyError(f"script has no top-level task {root_task!r}")
        roots = [root_task]
    results: List[LivenessResult] = []
    for name in roots:
        run = _LivenessPass(script, name, input_set)
        run.run()
        results.append(run.report())
    if not results:
        return LivenessResult(root_task="", input_set=input_set)
    merged = results[0]
    merged.roots = [r.root for r in results if r.root is not None]
    for extra in results[1:]:
        merged.findings.extend(extra.findings)
        merged.startable.update(extra.startable)
        merged.dead_tasks.extend(extra.dead_tasks)
        for scope, facts in extra.facts.items():
            merged.facts.setdefault(scope, set()).update(facts)
    return merged
