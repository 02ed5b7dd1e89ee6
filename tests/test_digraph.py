"""``repro.digraph`` against networkx, the oracle.

The compile path runs its own graph algorithms; networkx stays in the
test suite to check them: on small random digraphs with parallel edges
and self-loops, on the marked graphs of the example and Livermore
loops, and on the liveness witness Howard reports.
"""

from __future__ import annotations

import itertools
import pathlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_sdsp_pn
from repro.digraph import (
    find_cycle,
    has_path,
    is_weakly_connected,
    shortest_paths,
    simple_cycles,
    strongly_connected_components,
    topological_order,
)
from repro.errors import AnalysisError
from repro.loops import KERNELS, parse_loop, translate, unroll_graph
from repro.petrinet import Marking, MarkedGraphView, PetriNet, howard_analysis

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@st.composite
def digraphs(draw, max_nodes=8, max_edges=20):
    """A successor map over up to ``max_nodes`` nodes, keyed in a random
    order (so key order and name order differ), with parallel edges and
    self-loops."""
    size = draw(st.integers(1, max_nodes))
    names = [f"n{i}" for i in draw(st.permutations(range(size)))]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=max_edges,
        )
    )
    graph = {name: [] for name in names}
    for source, target in edges:
        graph[source].append(target)
    return graph


def to_nx(graph):
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph)
    oracle.add_edges_from((u, v) for u, targets in graph.items() for v in targets)
    return oracle


def rotated(cycle):
    start = min(range(len(cycle)), key=cycle.__getitem__)
    return tuple(cycle[start:]) + tuple(cycle[:start])


def is_cycle_of(graph, cycle):
    return len(cycle) == len(set(cycle)) > 0 and all(
        cycle[(i + 1) % len(cycle)] in graph[node] for i, node in enumerate(cycle)
    )


class TestAgainstNetworkx:
    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_simple_cycles(self, graph):
        ours = [rotated(cycle) for cycle in simple_cycles(graph)]
        assert len(ours) == len(set(ours)), "a cycle was reported twice"
        assert all(is_cycle_of(graph, cycle) for cycle in ours)
        assert set(ours) == {rotated(c) for c in nx.simple_cycles(to_nx(graph))}

    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_strongly_connected_components(self, graph):
        ours = [frozenset(c) for c in strongly_connected_components(graph)]
        assert sum(map(len, ours)) == len(graph)
        assert set(ours) == {
            frozenset(c) for c in nx.strongly_connected_components(to_nx(graph))
        }

    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_topological_order(self, graph):
        try:
            expected = list(nx.lexicographical_topological_sort(to_nx(graph)))
        except nx.NetworkXUnfeasible:
            expected = None
        assert topological_order(graph) == expected

    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_cycle_witness(self, graph):
        witness = find_cycle(graph)
        cyclic = not nx.is_directed_acyclic_graph(to_nx(graph))
        assert (witness is not None) == cyclic
        if witness is not None:
            assert is_cycle_of(graph, witness)

    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_weak_connectivity(self, graph):
        assert is_weakly_connected(graph) == nx.is_weakly_connected(to_nx(graph))

    @given(graph=digraphs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_shortest_paths(self, graph, data):
        weighted = {
            node: {
                succ: data.draw(st.integers(0, 5), label=f"{node}->{succ}")
                for succ in successors
            }
            for node, successors in graph.items()
        }
        oracle = nx.DiGraph()
        oracle.add_nodes_from(weighted)
        oracle.add_weighted_edges_from(
            (u, v, w) for u, targets in weighted.items() for v, w in targets.items()
        )
        source = data.draw(st.sampled_from(sorted(weighted)), label="source")
        distance, predecessor = shortest_paths(weighted, source)
        assert distance == nx.single_source_dijkstra_path_length(oracle, source)
        assert set(predecessor) == set(distance) - {source}
        for node, before in predecessor.items():
            assert distance[before] + weighted[before][node] == distance[node]

    @given(graph=digraphs())
    @settings(max_examples=100, deadline=None)
    def test_reachability(self, graph):
        oracle = to_nx(graph)
        for source, target in itertools.product(graph, repeat=2):
            assert has_path(graph, source, target) == nx.has_path(
                oracle, source, target
            )


# ----------------------------------------------------------------------
# Marked graphs
# ----------------------------------------------------------------------
def nx_place_cycles(view):
    """The simple cycles of a marked graph as networkx enumerates them,
    expanded over parallel places and rotated like
    :meth:`MarkedGraphView.simple_cycles`."""
    net = view.net
    places = {}
    for place in net.place_names:
        (producer,) = net.input_transitions(place)
        (consumer,) = net.output_transitions(place)
        places.setdefault((producer, consumer), []).append(place)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(net.transition_names)
    oracle.add_edges_from(places)
    cycles = set()
    for nodes in nx.simple_cycles(oracle):
        hops = [places[(u, nodes[(i + 1) % len(nodes)])] for i, u in enumerate(nodes)]
        start = min(range(len(nodes)), key=nodes.__getitem__)
        for combo in itertools.product(*hops):
            cycles.add(
                (
                    tuple(nodes[start:] + nodes[:start]),
                    tuple(combo[start:] + combo[:start]),
                )
            )
    return cycles


def paper_nets():
    """SDSP-PNs of the example loops (A-code and abstract) and the
    Livermore kernels (A-code), each at U = 1 and U = 4."""
    graphs = {}
    for path in sorted(EXAMPLES.glob("*.loop")):
        graph = translate(parse_loop(path.read_text())).graph
        graphs[(path.stem, True)] = graph
        graphs[(path.stem, False)] = graph
    for key, kernel in sorted(KERNELS.items()):
        graphs[(key, True)] = kernel.translation().graph
    for (name, include_io), graph in graphs.items():
        for factor in (1, 4):
            yield (
                f"{name}-{'acode' if include_io else 'abstract'}-U{factor}",
                build_sdsp_pn(unroll_graph(graph, factor), include_io=include_io),
            )


@pytest.mark.parametrize(
    "pn", [pytest.param(pn, id=name) for name, pn in paper_nets()]
)
def test_marked_graph_cycles_match_networkx(pn):
    view = pn.view()
    ours = [(c.transitions, c.places) for c in view.simple_cycles()]
    assert ours == sorted(ours)
    assert set(ours) == nx_place_cycles(view)
    assert len(ours) == len(set(ours))


@st.composite
def marked_graphs(draw):
    """A marked graph from a random digraph: one place per edge (so
    parallel places and self-loop places occur) with 0 or 1 token."""
    graph = draw(digraphs(max_nodes=6, max_edges=14))
    net = PetriNet(name="random")
    for transition in graph:
        net.add_transition(transition)
    tokens = {}
    for index, (source, target) in enumerate(
        (u, v) for u, targets in graph.items() for v in targets
    ):
        place = f"p{index}"
        net.add_place(place)
        net.add_arc(source, place)
        net.add_arc(place, target)
        tokens[place] = draw(st.integers(0, 1))
    return net, Marking(tokens)


@given(marked=marked_graphs())
@settings(max_examples=200, deadline=None)
def test_random_marked_graph_cycles_match_networkx(marked):
    view = MarkedGraphView(*marked)
    ours = {(c.transitions, c.places) for c in view.simple_cycles()}
    assert ours == nx_place_cycles(view)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(view.net.transition_names)
    oracle.add_edges_from(
        (view.net.input_transitions(p)[0], view.net.output_transitions(p)[0])
        for p in view.net.place_names
    )
    assert view.is_strongly_connected() == (
        len(oracle) == 0 or nx.is_strongly_connected(oracle)
    )


@given(marked=marked_graphs())
@settings(max_examples=200, deadline=None)
def test_liveness_witness_is_a_token_free_cycle(marked):
    net, marking = marked
    view = MarkedGraphView(net, marking)
    zero = nx.DiGraph()
    zero.add_nodes_from(net.transition_names)
    zero.add_edges_from(
        (net.input_transitions(p)[0], net.output_transitions(p)[0])
        for p in net.place_names
        if marking[p] == 0
    )
    durations = {t: 1 for t in net.transition_names}
    if nx.is_directed_acyclic_graph(zero):
        howard_analysis(view, durations)
        return
    with pytest.raises(AnalysisError, match="carries no token") as caught:
        howard_analysis(view, durations)
    message = str(caught.value)
    named = message[len("cycle through "):message.index(" carries no token")]
    cycle = named.split(" -> ")
    assert len(cycle) == len(set(cycle))
    assert all(
        zero.has_edge(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)
    )


@given(marked=marked_graphs())
@settings(max_examples=200, deadline=None)
def test_liveness_and_safety_match_the_cycle_definitions(marked):
    """Theorem A.5.1 (live iff every simple cycle carries a token) and,
    on a live net, Theorem A.5.2 (a place is safe iff it lies on a
    simple cycle carrying exactly one token), against networkx's
    cycles; the views decide both without listing cycles."""
    view = MarkedGraphView(*marked)
    cycles = nx_place_cycles(view)
    tokens = {places: sum(view.initial[p] for p in places) for _, places in cycles}
    assert view.is_live() == all(tokens.values())
    witness = view.token_free_cycle()
    assert (witness is None) == view.is_live()
    if witness is not None:
        assert (witness.transitions, witness.places) in {
            (nodes[i:] + nodes[:i], places[i:] + places[:i])
            for nodes, places in cycles
            for i in range(len(nodes))
        }
        assert witness.token_sum(view.initial) == 0
        return
    covered = {p for places, count in tokens.items() if count == 1 for p in places}
    unsafe = [p for p in view.net.place_names if p not in covered]
    assert view.unsafe_places() == unsafe
    assert view.is_safe() == (not unsafe)
