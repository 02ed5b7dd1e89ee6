"""Property-based tests: random loops through the whole pipeline.

A hypothesis strategy generates random-but-valid loop bodies (chains of
assignments over input arrays, earlier targets, and distance-1 carried
references).  Every generated loop must satisfy the paper's invariants
end to end:

* the SDSP-PN is a live, safe marked graph (Section 3.2's construction
  guarantees);
* the three cycle-time algorithms agree;
* the critical cycles counted and listed from Howard's critical graph,
  the dash's slack and the liveness and safety checks are what
  enumerating every cycle finds, unrolled or not;
* the earliest-firing frustum achieves exactly the analytic optimal
  rate (time-optimality, Appendix A.7);
* the derived schedule passes dependence verification and preserves
  the loop's semantics against the reference evaluator.
"""

import json
from fractions import Fraction
from itertools import islice

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import compile_loop
from repro.digraph import simple_cycles
from repro.core import (
    Sdsp,
    attribute_bottlenecks,
    build_sdsp_pn,
    count_critical_cycles,
    critical_cycles,
    dependence_cycle_time,
    derive_schedule,
    execute_schedule,
    optimal_rate,
    optimize_storage,
    verify_allocation,
    verify_dependences,
)
from repro.dataflow import validate
from repro.loops import parse_loop, reference_execute, translate, unroll_graph
from repro.obs import stable_json
from repro.pipeline import CompiledLoopSummary
from repro.petrinet import (
    critical_cycle_report,
    cycle_metrics,
    cycle_time_by_enumeration,
    cycle_time_lawler,
    detect_frustum,
)
from tests.conftest import assert_view_matches_live

OPS = ["+", "-", "*"]


@st.composite
def loop_sources(draw):
    """Random valid loop body with 1–4 statements.

    Each statement after the first reads its predecessor's value, so
    the loop body is connected — the setting of the paper's uniform
    cycle-time results (a disconnected body is several independent
    loops, each with its own rate).
    """
    n_statements = draw(st.integers(1, 4))
    statements = []
    targets = []
    for index in range(n_statements):
        target = f"T{index}"
        operands = [f"IN{draw(st.integers(0, 2))}[i]"]
        # chain to the previous statement to keep the body connected
        if targets:
            operands.append(f"{targets[-1]}[i]")
        # maybe read another earlier target this iteration
        if targets and draw(st.booleans()):
            operands.append(f"{draw(st.sampled_from(targets))}[i]")
        # maybe read any target's previous iteration (incl. self)
        if draw(st.booleans()):
            carried = draw(st.sampled_from(targets + [target]))
            operands.append(f"{carried}[i-1]")
        # maybe a constant
        if draw(st.booleans()):
            operands.append(str(draw(st.integers(1, 9))))
        expr = operands[0]
        for operand in operands[1:]:
            expr = f"({expr} {draw(st.sampled_from(OPS))} {operand})"
        statements.append(f"  {target}[i] = {expr}")
        targets.append(target)
    return "do fuzz:\n" + "\n".join(statements)


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Enumerating every simple cycle is the oracle for the critical-cycle
#: count, and a dense four-statement body unrolled four times in A-code
#: has over three million of them (five minutes to enumerate), so a
#: draw whose net has more node cycles than this is skipped.
ORACLE_CYCLES = 5000


class TestRandomLoops:
    @given(source=loop_sources())
    @settings(**COMMON)
    def test_construction_guarantees(self, source):
        pn = build_sdsp_pn(translate(parse_loop(source)).graph)
        assert pn.net.is_marked_graph()
        view = pn.view()
        assert view.is_live()
        assert view.is_safe()

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_cycle_time_algorithms_agree(self, source):
        pn = build_sdsp_pn(translate(parse_loop(source)).graph)
        view = pn.view()
        assert cycle_time_by_enumeration(view, pn.durations) == (
            cycle_time_lawler(view, pn.durations)
        )

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_frustum_achieves_optimal_rate(self, source):
        pn = build_sdsp_pn(translate(parse_loop(source)).graph)
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        assert frustum.uniform_rate() == optimal_rate(pn)

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_schedule_verifies_and_preserves_semantics(self, source):
        translation = translate(parse_loop(source))
        pn = build_sdsp_pn(translation.graph)
        frustum, behavior = detect_frustum(pn.timed, pn.initial)
        schedule = derive_schedule(frustum, behavior)
        assert verify_dependences(pn, schedule).ok

        iterations = 5
        arrays = {
            f"IN{i}": [float(j + i + 1) for j in range(iterations)]
            for i in range(3)
        }
        outputs = execute_schedule(
            translation.graph,
            schedule,
            arrays,
            iterations,
            translation.initial_values_for({}),
        )
        reference = reference_execute(
            parse_loop(source), arrays, iterations=iterations
        )
        for name, stream in reference.items():
            assert np.allclose(outputs[name], stream)

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_storage_optimisation_never_lowers_rate(self, source):
        pn = build_sdsp_pn(translate(parse_loop(source)).graph)
        allocation = optimize_storage(pn)
        verify_allocation(pn, allocation)  # raises on any regression
        assert allocation.locations <= allocation.baseline_locations


class TestUnrollProperties:
    """Structural and rate invariants of the mod-U unrolling rule."""

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_factor_one_is_structurally_identical(self, source):
        graph = translate(parse_loop(source)).graph
        copied = unroll_graph(graph, 1)
        assert copied.actor_names == graph.actor_names
        assert copied.arcs == graph.arcs

    @given(
        source=loop_sources(),
        factor=st.integers(1, 16),
        include_io=st.booleans(),
    )
    @settings(**COMMON)
    def test_unrolling_keeps_the_sdsp_valid(self, source, factor, include_io):
        """The compiler validates a graph once, before unrolling it, and
        takes every unrolled graph as valid (``unroll_graph``'s
        docstring has the argument).  Validation agrees, and the net
        built from the unvalidated unrolling is the one a validating
        build makes, live."""
        graph = translate(parse_loop(source)).graph
        assert validate(unroll_graph(graph, factor)).errors == []
        trusted = build_sdsp_pn(
            Sdsp(graph).unrolled(factor), include_io=include_io
        )
        checked = build_sdsp_pn(unroll_graph(graph, factor), include_io=include_io)
        assert trusted.edges == checked.edges
        assert trusted.view().token_free_cycle() is None

    @given(source=loop_sources(), factor=st.integers(2, 4))
    @settings(**COMMON)
    def test_dependence_cycle_time_scales_with_the_factor(
        self, source, factor
    ):
        """One unrolled iteration is ``U`` base iterations: lifting a
        data cycle of ratio ``Ω/M`` through the mod-U rewiring gives
        ratio ``U * Ω/M`` exactly.  An acyclic (DOALL) body has no data
        cycle at any factor — its dependence cycle time stays at the
        non-reentrance floor ``max τ``."""
        graph = translate(parse_loop(source)).graph
        base = dependence_cycle_time(graph, include_io=False)
        unrolled = dependence_cycle_time(
            unroll_graph(graph, factor), include_io=False
        )
        if nx.is_directed_acyclic_graph(nx.DiGraph(graph.adjacency())):
            assert unrolled == base
        else:
            # unit durations: every data cycle's ratio is >= max τ, so
            # the cyclic bound dominates at every factor
            assert unrolled == factor * base

    @given(
        source=loop_sources(),
        factor=st.integers(1, 4),
        include_io=st.booleans(),
    )
    @settings(**COMMON)
    def test_critical_graph_count_matches_enumeration(
        self, source, factor, include_io
    ):
        """Every report reads Howard's critical graph and potentials;
        enumeration of the whole net is the oracle for the bounds'
        count, the ``analyze``/``explain`` listing, the dash's slack
        and Theorems A.5.1/A.5.2."""
        graph = unroll_graph(translate(parse_loop(source)).graph, factor)
        pn = build_sdsp_pn(graph, include_io=include_io)
        view = pn.view()
        cycles = simple_cycles(view._transition_hops())
        assume(sum(1 for _ in islice(cycles, ORACLE_CYCLES + 1)) <= ORACLE_CYCLES)
        report = critical_cycle_report(view, pn.durations)
        expected = len(report.critical_cycles) + len(report.critical_self_loops)
        assert count_critical_cycles(pn.howard) == (expected, False)

        listing = critical_cycles(pn)
        assert listing.cycle_time == report.cycle_time
        assert listing.critical_cycles == report.critical_cycles
        assert listing.critical_self_loops == report.critical_self_loops
        assert not listing.capped

        # slack(t) = min over cycles C through t of α·M(C) − Ω(C),
        # the implicit self-loop (M = 1, Ω = τ) included
        alpha = report.cycle_time
        slack = {t: alpha - pn.durations[t] for t in pn.net.transition_names}
        for metrics in cycle_metrics(view, pn.durations):
            margin = alpha * metrics.tokens - metrics.value
            for t in metrics.cycle.transitions:
                slack[t] = min(slack[t], margin)
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        attribution = attribute_bottlenecks(pn, frustum)
        assert {row.transition: row.slack for row in attribution.transitions} == slack
        assert attribution.critical_transitions == (
            report.transitions_on_critical_cycles
        )
        # the binding cycle is a cycle through t that attains its slack
        hops = view._transition_hops()
        for row in attribution.transitions:
            cycle = row.binding_cycle
            assert row.transition in cycle
            if len(cycle) == 1:  # the implicit self-loop or a self-place
                places = hops[cycle[0]].get(cycle[0], [])
                fewest = min([1] + [view.initial[p] for p in places])
            else:
                fewest = sum(
                    min(view.initial[p] for p in hops[u][v])
                    for u, v in zip(cycle, cycle[1:] + cycle[:1])
                )
            value = sum(pn.durations[t] for t in cycle)
            assert alpha * fewest - value == row.slack

        # Theorem A.5.1: live iff every simple cycle carries a token;
        # Theorem A.5.2: safe iff every place lies on a token-1 cycle
        tokens = {c: c.token_sum(view.initial) for c in view.simple_cycles()}
        assert view.is_live() == all(tokens.values())
        covered = {p for c, count in tokens.items() if count == 1 for p in c.places}
        unsafe = [p for p in pn.net.place_names if p not in covered]
        assert view.unsafe_places() == unsafe
        assert view.is_safe() == (not unsafe)

    @given(source=loop_sources(), factor=st.integers(1, 3))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unrolled_compile_achieves_a_uniform_base_rate(
        self, source, factor
    ):
        """``compile_loop``'s hard verifier proves every base
        instruction runs at exactly ``U`` times the unrolled net's
        rate — it must hold for arbitrary bodies, not just the curated
        examples."""
        result = compile_loop(source, include_io=False, unroll=factor)
        assert result.unroll == factor
        assert result.achieved_rate == factor * result.optimal_rate

    @given(source=loop_sources(), factor=st.integers(1, 3))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unrolled_payload_round_trips_byte_identically(
        self, source, factor
    ):
        compiled = compile_loop(source, include_io=False, unroll=factor)
        payload = compiled.summary().payload()
        rehydrated = CompiledLoopSummary.from_payload(
            json.loads(stable_json(payload))
        )
        assert stable_json(rehydrated.payload()) == stable_json(payload)
        assert_view_matches_live(rehydrated, compiled)
