"""Loop unrolling: replicate an SDSP dataflow graph ``U`` times.

The paper's optimality results (Theorem 5.2.2, Section 6) give the
time-optimal computation rate as an exact rational ``γ = p/q``.  A
1-periodic schedule of the *base* loop body issues each instruction at
most once per initiation interval, so whenever the binding constraint
is the one-token-per-arc storage discipline rather than a dependence
cycle, the base net under-achieves the dependence bound — the loop must
be *unrolled*: the body is replicated ``U`` times and the steady state
issues ``U`` base iterations per period (the k-periodic schedules of
the balanced-binary-words line of work).

The transformation is purely structural, on the dataflow graph:

* node ``v`` becomes copies ``v@0 .. v@U-1``;
* an arc with dependence distance ``d`` (its ``initial_tokens``: 0 for
  forward arcs, ``d >= 1`` for feedback arcs) from ``u`` to ``v``
  becomes, for every copy ``k``, an arc ``u@k -> v@(k + d) mod U``
  carrying ``(k + d) // U`` tokens — the mod-U rewiring rule.  Arcs
  whose rewired token count is 0 are forward arcs of the unrolled
  graph, the rest are feedback arcs.

The acknowledgement structure is *not* copied — it is re-derived from
the unrolled data graph by the usual SDSP-PN construction, which is
exactly what gives the unrolled loop ``U`` independent buffers per base
arc and lets the steady-state rate per *base* instruction climb to the
dependence bound (:func:`repro.core.rate.dependence_bound_rate`).  That
bound is Howard's on the data rows of the base SDSP-PN's edge table
(:func:`repro.core.sdsp_pn.sdsp_pn_table`), with no net built.
``--unroll auto`` picks the smallest factor that reaches it
(:func:`repro.compiler.stages.select_unroll`); each candidate is this
module's unrolled graph plus its table's rows, analysed by Howard, with
no net built and no validation, because unrolling keeps a valid SDSP
valid (:func:`unroll_graph`).

``unroll_graph(g, 1)`` returns a plain copy with the original node
names, so the ``U = 1`` path of the compiler is byte-identical to the
pre-unrolling pipeline.
"""

from __future__ import annotations

from typing import Dict, Union

from ..dataflow.actors import Actor
from ..dataflow.graph import ArcKind, DataArc, DataflowGraph
from ..errors import DataflowError, ReproError

__all__ = [
    "MAX_UNROLL",
    "COPY_SEPARATOR",
    "copy_name",
    "base_instruction",
    "base_firing_totals",
    "validate_unroll",
    "unroll_graph",
]

#: The documented cap on explicit and auto-selected unroll factors.
#: The unrolled net has ``U * n`` transitions and ``Θ(U * |arcs|)``
#: places, so an absurd factor turns one compile into an unbounded
#: amount of work — requests beyond the cap are rejected up front
#: (manifest validation, the service wire layer, and ``compile_loop``
#: itself all share this constant).
MAX_UNROLL = 64

#: Separator between a base instruction name and its copy index.  The
#: loop frontend never emits it in node names, which keeps the
#: ``copy -> base`` mapping unambiguous.
COPY_SEPARATOR = "@"


def copy_name(name: str, k: int) -> str:
    """The name of copy ``k`` of base instruction ``name``."""
    return f"{name}{COPY_SEPARATOR}{k}"


def base_instruction(name: str) -> str:
    """The base instruction a (possibly unrolled) transition belongs
    to: ``"B@2" -> "B"``; names without a copy suffix map to
    themselves, so the function is safe on ``U = 1`` nets."""
    base, _, _ = name.rpartition(COPY_SEPARATOR)
    return base if base else name


def base_firing_totals(
    firing_counts: Dict[str, int], transitions
) -> Dict[str, int]:
    """Sum per-copy firing counts up to base instructions.

    ``transitions`` enumerates every transition that *should* appear
    (a copy missing from ``firing_counts`` counts as 0 rather than
    silently disappearing — the caller's rate check then fails loudly).
    """
    totals: Dict[str, int] = {}
    for name in transitions:
        base = base_instruction(name)
        totals[base] = totals.get(base, 0) + firing_counts.get(name, 0)
    return totals


def validate_unroll(value: object, where: str = "unroll") -> Union[int, str]:
    """Validate an unroll request: a positive integer up to
    :data:`MAX_UNROLL`, or the string ``"auto"``.

    Raises :class:`~repro.errors.ReproError` (so manifest validation
    and the service wire layer reject bad values with their stable
    error paths) for zero, negative, non-integer, or beyond-the-cap
    values.
    """
    if isinstance(value, str):
        if value == "auto":
            return "auto"
        raise ReproError(
            f"{where}: expected a positive integer or 'auto', got {value!r}"
        )
    # bool is an int subclass; `true` is not a meaningful unroll factor.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(
            f"{where}: expected a positive integer or 'auto', got "
            f"{type(value).__name__} {value!r}"
        )
    if value < 1:
        raise ReproError(f"{where}: unroll factor must be >= 1, got {value}")
    if value > MAX_UNROLL:
        raise ReproError(
            f"{where}: unroll factor {value} exceeds the cap of "
            f"{MAX_UNROLL}"
        )
    return value


def unroll_graph(graph: DataflowGraph, factor: int) -> DataflowGraph:
    """Replicate ``graph`` ``factor`` times with the mod-U rewiring rule.

    ``factor = 1`` returns a plain :meth:`~repro.dataflow.graph.
    DataflowGraph.copy` (original names, original arcs).  For larger
    factors every node gains copies ``name@0 .. name@factor-1`` and an
    arc of distance ``d`` from ``u`` to ``v`` becomes ``factor`` arcs
    ``u@k -> v@(k+d) mod factor`` carrying ``(k+d) // factor`` tokens.

    **Unrolling keeps a valid SDSP valid**, so the compiler validates a
    graph once, before unrolling it (:meth:`repro.core.sdsp.Sdsp.
    unrolled`).  In a valid SDSP every distance ``d`` is 0 (a forward
    arc) or 1 (a feedback arc, one initial token), and
    :func:`repro.dataflow.validate.validate` finds no error in the
    unrolled graph ``U = factor``:

    * *Each input port is driven by exactly one copy arc.*  Port ``p``
      of ``v@j`` is driven by the copy ``k = (j − d) mod U`` of the one
      base arc driving port ``p`` of ``v``, and by no other.
    * *Token-free arcs form no cycle.*  A token-free copy arc has
      ``k + d < U``: it never wraps past copy ``U − 1``, so along a
      token-free path the copy index never falls, and it rises on
      every distance-1 arc.  A token-free cycle in the copy therefore
      uses only distance-0 arcs, all within one copy, and would project
      to a cycle of forward arcs in the base, which validation
      excluded.
    * *Feedback arcs carry exactly one token.*  An arc of distance 1
      leaves ``⌊(k+1)/U⌋ ≤ 1`` token (``k ≤ U − 1``), and an arc of
      distance 0 leaves none.
    * *Switches and merges keep their pairing.*  Every copy of a switch
      has both branches consumed, because every base arc is copied for
      every ``k``, and the copies hold merges only if the base does.

    Its warnings may differ (``U`` copies of a DOALL body are not
    weakly connected); they are not errors.  A property test checks
    the claim on generated loops for ``U`` up to 16, in both I/O
    modes.  A distance above 1 is outside the SDSP model: it can leave
    more than one token on an unrolled arc, which validation rejects.
    """
    if isinstance(factor, bool) or not isinstance(factor, int):
        raise DataflowError(
            f"unroll_graph needs a concrete integer factor, got "
            f"{factor!r} (resolve 'auto' before unrolling)"
        )
    if factor < 1:
        raise DataflowError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return graph.copy()
    for name in graph.actor_names:
        if COPY_SEPARATOR in name:
            raise DataflowError(
                f"actor name {name!r} already contains the copy "
                f"separator {COPY_SEPARATOR!r}; refusing to unroll an "
                "already-unrolled graph"
            )

    unrolled = DataflowGraph(f"{graph.name}x{factor}")
    for k in range(factor):
        for actor in graph.actors:
            unrolled.add_actor(
                Actor(copy_name(actor.name, k), actor.kind, actor.arity,
                      actor.params)
            )
    for arc in graph.arcs:
        distance = arc.initial_tokens  # 0 on forward arcs, d on feedback
        for k in range(factor):
            tokens = (k + distance) // factor
            unrolled.add_arc(
                DataArc(
                    copy_name(arc.source, k),
                    copy_name(arc.target, (k + distance) % factor),
                    arc.target_port,
                    ArcKind.FEEDBACK if tokens else ArcKind.FORWARD,
                    arc.source_port,
                    tokens,
                )
            )
    return unrolled
