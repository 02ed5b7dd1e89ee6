"""Lowering loop IR to static dataflow graphs (our substitute for the
SISAL → A-code path of the paper's testbed).

Each statement's expression tree becomes a tree of instruction actors;
the root actor carries the statement's target name (so loop L1 lowers
to nodes ``A``–``E`` exactly as in Figure 1).  Operand resolution:

* constants and loop-invariant scalars fold into instruction
  immediates (constant subtrees are folded away entirely);
* reads of input arrays become LOAD actors, shared per ``(array,
  offset)`` pair;
* reads of loop-defined values at distance 0 become forward data arcs
  from the defining statement's root;
* reads at distance 1 become feedback arcs (the SDSP's loop-carried
  dependences); larger distances are outside the paper's loop class
  and raise :class:`LoopIRError`;
* array targets gain STORE actors; accumulator (scalar) targets gain
  an observation STORE by default so their value stream is testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..dataflow.builder import GraphBuilder, OutputRef
from ..dataflow.graph import DataflowGraph
from ..digraph import has_path
from ..errors import LoopIRError
from .dependence import DependenceInfo, analyze
from .ir import (
    ArrayRef,
    Assign,
    Binary,
    Const,
    Expr,
    Loop,
    ScalarRef,
    Ternary,
    Unary,
)

__all__ = ["TranslationResult", "translate"]


@dataclass
class TranslationResult:
    """The lowered loop.

    ``root_of`` maps each statement's target to its root actor (always
    the target's own name); ``feedback_initial_keys`` maps each defined
    name with a loop-carried use to the arc identifiers that need
    initial values at interpretation time.
    """

    loop: Loop
    graph: DataflowGraph
    info: DependenceInfo
    root_of: Dict[str, str]
    scalar_bindings: Dict[str, float]
    feedback_initial_keys: Dict[str, List[str]] = field(default_factory=dict)
    feedback_depths: Dict[str, int] = field(default_factory=dict)

    def initial_values_for(
        self, boundary: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Expand per-name boundary values into the per-arc initial-value
        map the interpreter expects.

        ``boundary["X"]`` may be a scalar — used for every carried depth
        — or a sequence where element ``d − 1`` is the pre-loop value
        ``X[-d]`` (multi-distance recurrences need one value per
        distance crossed).
        """
        values: Dict[str, Any] = {}
        for name, keys in self.feedback_initial_keys.items():
            supplied = boundary.get(name, 0)
            for key in keys:
                depth = self.feedback_depths.get(key, 1)
                if isinstance(supplied, (list, tuple)):
                    values[key] = (
                        supplied[depth - 1]
                        if depth - 1 < len(supplied)
                        else 0
                    )
                else:
                    values[key] = supplied
        return values


class _Lowering:
    """One-shot lowering context."""

    def __init__(
        self,
        loop: Loop,
        scalars: Mapping[str, float],
        store_scalars: bool,
    ) -> None:
        self.loop = loop
        self.scalars = dict(scalars)
        self.store_scalars = store_scalars
        self.builder = GraphBuilder(loop.name)
        self.info = analyze(loop)
        self.defined = loop.defined_names
        self.order = {s.target_name: i for i, s in enumerate(loop.statements)}
        self.loads: Dict[Tuple[str, int], str] = {}
        self.root_of: Dict[str, str] = {}
        self.counter = 0
        # (source_root_name, target_actor, port, distance) for
        # loop-carried uses, wired after all roots exist.
        self.pending_feedback: List[Tuple[str, str, int, int]] = []
        self.feedback_keys: Dict[str, List[str]] = {}
        self.feedback_depths: Dict[str, int] = {}
        # Conditional lowering state: the active (control, branch-port)
        # gate, and the cache of switches already built per
        # (control, operand) pair.
        self._gate: Optional[Tuple[str, int]] = None
        self._switch_cache: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    def run(self) -> TranslationResult:
        missing = self.loop.invariant_scalars - set(self.scalars)
        if missing:
            raise LoopIRError(
                "no values bound for loop-invariant scalars: "
                + ", ".join(sorted(missing))
            )
        for statement in self.loop.statements:
            self._lower_statement(statement)
        self._wire_feedback_arcs()
        graph = self.builder.build()
        return TranslationResult(
            loop=self.loop,
            graph=graph,
            info=self.info,
            root_of=self.root_of,
            scalar_bindings=self.scalars,
            feedback_initial_keys=self.feedback_keys,
            feedback_depths=self.feedback_depths,
        )

    def _wire_feedback_arcs(self) -> None:
        """Attach the loop-carried operands, inserting delay nodes where
        a direct feedback arc would deadlock the SDSP.

        A feedback arc ``u -> v`` contributes a *token-free* edge
        ``v -> u`` (its acknowledgement) to the net; combined with
        token-free forward data arcs, any cycle made only of those
        edges deadlocks the one-token-per-arc discipline (the feedback
        buffer starts full, so the producer waits on a consumer that
        transitively waits on the producer).  We therefore wire each
        carried operand directly only when no ``u ⇝ v`` path exists in
        the graph of forward arcs plus previously-added direct-feedback
        acknowledgements; otherwise the value is routed through a delay
        (register move) node ``u -> dly_u --feedback--> v``, whose only
        output is the feedback arc — a sink in the token-free graph, so
        no new token-free cycle can form.  Direct feedback is kept for
        the paper's shapes (Figure 2's ``E -> C``); delays appear
        exactly where a real dataflow compiler would spill the carried
        value to a register.
        """
        graph = self.builder._graph  # lowering is a friend of the builder
        token_free = graph.adjacency(include_feedback=False)

        def add_edge(source: str, target: str) -> None:
            token_free.setdefault(source, []).append(target)
            token_free.setdefault(target, [])

        for producer_name, target_actor, port, distance in self.pending_feedback:
            root = self.root_of[producer_name]
            if root == target_actor:
                # A multi-distance self-chain of back-to-back full
                # feedback buffers deadlocks (each hop waits for the
                # other hop's acknowledgement), so it must start with a
                # forward hop into the delay node.
                needs_delay = distance >= 2
            else:
                needs_delay = root in token_free and has_path(
                    token_free, root, target_actor
                )
            if distance == 1 and root == target_actor:
                # self-arc: no acknowledgement, never deadlocks
                self.builder.feedback(root, target_actor, port)
                arc_key = f"{root}.0->{target_actor}.{port}"
                self.feedback_keys.setdefault(producer_name, []).append(arc_key)
                self.feedback_depths[arc_key] = 1
                continue

            # Head of the chain: the root itself, or a forward delay
            # node when a direct feedback acknowledgement would close a
            # token-free cycle (see the docstring above).
            if needs_delay:
                head = f"dly_{root}"
                if not graph.has_actor(head):
                    self.builder.identity(head, root)
                    add_edge(root, head)
            else:
                head = root

            # distance-1: head --fb--> target.  distance d >= 2: insert
            # d-1 carry nodes, each hop a distance-1 feedback arc; the
            # j-th hop's initial token is the value X[i-j] (recorded via
            # feedback_depths for boundary-value assignment).
            previous = head
            for depth in range(1, distance):
                carry = f"carry_{root}_{depth + 1}_{target_actor}_{port}"
                self.builder.identity(carry)
                self.builder.feedback(previous, carry, 0)
                arc_key = f"{previous}.0->{carry}.0"
                self.feedback_keys.setdefault(producer_name, []).append(arc_key)
                self.feedback_depths[arc_key] = depth
                add_edge(carry, previous)
                previous = carry
            self.builder.feedback(previous, target_actor, port)
            arc_key = f"{previous}.0->{target_actor}.{port}"
            self.feedback_keys.setdefault(producer_name, []).append(arc_key)
            self.feedback_depths[arc_key] = distance
            add_edge(target_actor, previous)

    # ------------------------------------------------------------------
    def _lower_statement(self, statement: Assign) -> None:
        target = statement.target_name
        root = self._lower_expr(statement.expr, root_name=target)
        if isinstance(root, _Immediate):
            raise LoopIRError(
                f"statement {target!r} reduces to the constant {root.value}; "
                "constant statements have no dataflow node"
            )
        if isinstance(root, _Deferred):
            # pure copy of a carried value: X[i] = Y[i-d]
            self.builder.identity(target)
            self.pending_feedback.append(
                (root.producer, target, 0, root.distance)
            )
            root = target
        elif root != target:
            # copy statement (bare array/scalar reference): materialise
            # a move instruction so the statement owns a node named
            # after its target — keeps figures, storage chains and
            # feedback sources well-defined.
            root = self.builder.identity(target, root)
        self.root_of[target] = root
        if isinstance(statement.target, ArrayRef) or self.store_scalars:
            self.builder.store(f"st_{target}", target, root)

    # ------------------------------------------------------------------
    # Expression lowering
    # ------------------------------------------------------------------
    def _lower_expr(
        self, expr: Expr, root_name: Optional[str] = None
    ) -> "Union[str, _Immediate, _Deferred]":
        """Returns an actor name, an immediate constant, or a deferred
        feedback operand (wired after all statements lower)."""
        if isinstance(expr, Const):
            return _Immediate(expr.value)
        if isinstance(expr, ScalarRef):
            if expr.name in self.defined:
                return self._defined_use(expr.name, self._scalar_distance(expr))
            return _Immediate(self.scalars[expr.name])
        if isinstance(expr, ArrayRef):
            if expr.array in self.defined:
                return self._defined_use(expr.array, -expr.offset)
            key = (expr.array, expr.offset)
            if key not in self.loads:
                suffix = (
                    f"p{expr.offset}"
                    if expr.offset > 0
                    else (f"m{-expr.offset}" if expr.offset < 0 else "")
                )
                name = f"ld_{expr.array}{suffix}"
                self.builder.load(name, expr.array, expr.offset)
                self.loads[key] = name
            return self._gated(self.loads[key])
        if isinstance(expr, Unary):
            operand = self._lower_expr(expr.operand)
            if isinstance(operand, _Immediate):
                from ..dataflow.actors import UNARY_OPERATIONS

                return _Immediate(UNARY_OPERATIONS[expr.op](operand.value))
            name = root_name or self._fresh(root_hint="u")
            return self._attach_unary(name, expr.op, operand)
        if isinstance(expr, Binary):
            return self._lower_binary(expr, root_name)
        if isinstance(expr, Ternary):
            return self._lower_ternary(expr, root_name)
        raise LoopIRError(f"unknown expression node {expr!r}")

    def _lower_binary(
        self, expr: Binary, root_name: Optional[str]
    ) -> "Union[str, _Immediate]":
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        if isinstance(left, _Immediate) and isinstance(right, _Immediate):
            from ..dataflow.actors import BINARY_OPERATIONS

            return _Immediate(BINARY_OPERATIONS[expr.op](left.value, right.value))
        name = root_name or self._fresh()
        if isinstance(left, _Immediate):
            self.builder.binop(name, expr.op, right=_as_operand(right, self),
                               immediate=left.value, immediate_port=0)
            self._wire_deferred(right, name, 0)
            return name
        if isinstance(right, _Immediate):
            self.builder.binop(name, expr.op, left=_as_operand(left, self),
                               immediate=right.value, immediate_port=1)
            self._wire_deferred(left, name, 0)
            return name
        self.builder.binop(
            name, expr.op, _as_operand(left, self), _as_operand(right, self)
        )
        self._wire_deferred(left, name, 0)
        self._wire_deferred(right, name, 1)
        return name

    def _attach_unary(
        self, name: str, op: str, operand: "Union[str, _Deferred]"
    ) -> str:
        self.builder.unop(name, op, _as_operand(operand, self))
        self._wire_deferred(operand, name, 0)
        return name

    # ------------------------------------------------------------------
    # Uses of loop-defined names
    # ------------------------------------------------------------------
    def _scalar_distance(self, ref: ScalarRef) -> int:
        # Use-before-def in program order reads the previous iteration.
        # (The *current* statement's position is where the use occurs;
        # lowering runs statements in program order, so the defining
        # statement has been lowered already iff its position is lower.)
        return 0 if ref.name in self.root_of else 1

    def _defined_use(
        self, name: str, distance: int
    ) -> "Union[str, _Deferred]":
        if distance == 0:
            root = self.root_of.get(name)
            if root is None:
                raise LoopIRError(
                    f"use of {name}[i] before the statement computing it; "
                    "reorder the loop body or use a loop-carried reference"
                )
            return self._gated(root)
        if distance >= 1:
            if self._gate is not None:
                raise LoopIRError(
                    "loop-carried references inside conditional branches "
                    "are not supported; hoist the carried value into its "
                    "own statement before the conditional"
                )
            # Distances above one are normalised at wiring time into a
            # chain of carry (register-move) nodes connected by
            # distance-1 feedback arcs, keeping the graph inside the
            # paper's SDSP class (Section 3.2 assumes distance 1).
            return _Deferred(name, distance)
        raise LoopIRError(
            f"invalid dependence distance {distance} on {name!r}"
        )

    def _gated(self, operand: str) -> "Union[str, OutputRef]":
        """Route a leaf operand through the active conditional gate.

        Inside a ``where`` branch every value entering the branch passes
        through a SWITCH controlled by the condition (Section 3.2's
        well-formed conditional subgraph): the selected branch receives
        the real token, the other a dummy.  Switches are shared per
        (control, operand) pair, so an operand used by both branches
        gets a single switch with both output ports consumed.
        """
        if self._gate is None:
            return operand
        control, port = self._gate
        key = (control, operand)
        name = self._switch_cache.get(key)
        if name is None:
            name = f"sw_{operand}"
            if self.builder._graph.has_actor(name):
                name = self._fresh(f"sw_{operand}_")
            self.builder.switch(name, control, operand)
            self._switch_cache[key] = name
        return OutputRef(name, port)

    def _lower_ternary(
        self, expr: Ternary, root_name: Optional[str]
    ) -> "Union[str, _Immediate]":
        """Lower ``where(cond, then, els)`` to a switch/merge subgraph.

        A constant condition statically selects a branch; otherwise the
        condition gates every leaf operand of both branches through
        switches, the branch subexpressions are evaluated on the gated
        values (firing on dummies when unselected, exactly like regular
        nodes — the paper's altered firing rule), and a MERGE joins the
        branch results.  Switch output ports that only one branch uses
        are drained by SINK actors so every place stays bounded.
        """
        cond = self._lower_expr(expr.cond)
        if isinstance(cond, _Immediate):
            chosen = expr.then if cond.value else expr.els
            return self._lower_expr(chosen, root_name)
        if isinstance(cond, _Deferred):
            raise LoopIRError(
                "loop-carried conditional controls are not supported; "
                "compute the condition in its own statement first"
            )
        saved_gate = self._gate
        switches_before = set(self._switch_cache.values())

        self._gate = (cond, 0)
        then_value = self._lower_expr(expr.then)
        self._gate = (cond, 1)
        else_value = self._lower_expr(expr.els)
        self._gate = saved_gate

        for branch, value in (("then", then_value), ("else", else_value)):
            if isinstance(value, _Immediate):
                raise LoopIRError(
                    f"the {branch} branch of a where() reduces to the "
                    f"constant {value.value}; constant branches have no "
                    "token source — rewrite as an arithmetic expression of "
                    "a loop value (e.g. 0 * Y[i] + c)"
                )

        name = root_name or self._fresh("m")
        self.builder.merge(name, cond, then_value, else_value)

        # Drain switch ports only one branch consumed.
        graph = self.builder._graph
        new_switches = {
            sw
            for sw in self._switch_cache.values()
            if sw not in switches_before
        }
        for sw in sorted(new_switches):
            used = {arc.source_port for arc in graph.out_arcs(sw)}
            for port in (0, 1):
                if port not in used:
                    from ..dataflow import actors as actor_lib
                    from ..dataflow.graph import DataArc

                    sink_name = f"snk_{sw}_{port}"
                    graph.add_actor(actor_lib.sink(sink_name))
                    graph.add_arc(
                        DataArc(sw, sink_name, 0, source_port=port)
                    )
        return name

    def _wire_deferred(
        self, operand: "Union[str, _Immediate, _Deferred]", actor: str, port: int
    ) -> None:
        if isinstance(operand, _Deferred):
            self.pending_feedback.append(
                (operand.producer, actor, port, operand.distance)
            )

    def _fresh(self, root_hint: str = "t") -> str:
        self.counter += 1
        return f"{root_hint}{self.counter}"


@dataclass(frozen=True)
class _Immediate:
    value: float


@dataclass(frozen=True)
class _Deferred:
    """A loop-carried operand: wired as a feedback arc (or, for
    distances above one, a chain of carry nodes) once every statement's
    root actor exists."""

    producer: str
    distance: int = 1


def _as_operand(
    value: "Union[str, _Immediate, _Deferred]", lowering: _Lowering
) -> Optional[str]:
    """Deferred operands leave their port unwired for now (the builder
    allows it; validation would flag it if the feedback never lands)."""
    if isinstance(value, _Deferred):
        return None
    if isinstance(value, _Immediate):  # pragma: no cover - guarded earlier
        raise LoopIRError("immediate reached operand wiring")
    return value


def translate(
    loop: Loop,
    scalars: Optional[Mapping[str, float]] = None,
    store_scalars: bool = True,
) -> TranslationResult:
    """Lower ``loop`` to a dataflow graph.

    Parameters
    ----------
    scalars:
        Numeric bindings for the loop-invariant scalars (they become
        instruction immediates).  Required when the loop uses any.
    store_scalars:
        Emit an observation STORE for accumulator targets so their
        per-iteration streams can be checked; disable to match
        instruction counts where accumulators live in registers.

    Conservative-dependence variants (the paper's Loop 9 "with LCD")
    are expressed in the source itself with an explicitly carried,
    value-neutral term such as ``+ 0 * PX1[i-1]`` — see
    :mod:`repro.loops.livermore`.
    """
    lowering = _Lowering(loop, scalars or {}, store_scalars)
    return lowering.run()
