"""Directed-graph algorithms for the compile path.

A compile needs five graph operations: the simple cycles of Howard's
critical graph (the bounds of the ``rate`` stage), a token-free cycle
as a liveness witness (Howard), a topological order of the forward
data arcs, weak connectivity of a dataflow graph, and reachability
while lowering loop-carried operands.  They are written here, iteratively,
over a plain successor map, so a compile needs no graph library and no
recursion limit.

A *graph* is a mapping from every node to an iterable of its
successors; a successor listed twice is a parallel edge, and a node
listed among its own successors is a self-loop.  Every node must be a
key.  Nodes only need to be hashable, except for
:func:`topological_order`, which also compares them.

>>> ring = {"a": ["b"], "b": ["c", "a"], "c": ["a"]}
>>> sorted(sorted(cycle) for cycle in simple_cycles(ring))
[['a', 'b'], ['a', 'b', 'c']]
>>> find_cycle({"a": ["b"], "b": []}) is None
True
>>> topological_order({"b": [], "a": ["b"], "c": ["b"]})
['a', 'c', 'b']
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set

__all__ = [
    "find_cycle",
    "has_path",
    "is_weakly_connected",
    "simple_cycles",
    "strongly_connected_components",
    "topological_order",
]

Graph = Mapping[Hashable, Iterable[Hashable]]


def strongly_connected_components(graph: Graph) -> List[List[Hashable]]:
    """The strongly connected components (Tarjan), each a list of
    nodes; every node is in exactly one component."""
    index: Dict[Hashable, int] = {}
    low: Dict[Hashable, int] = {}
    stack: List[Hashable] = []
    on_stack: Set[Hashable] = set()
    components: List[List[Hashable]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def simple_cycles(graph: Graph) -> Iterator[List[Hashable]]:
    """Every simple cycle once, as its list of nodes in edge order
    (Johnson's algorithm, run inside one strongly connected component
    at a time).  Parallel edges give one node cycle; self-loops are
    cycles of length one."""
    # parallel edges collapse; dicts keep the enumeration order
    # independent of string hashing
    succ = {node: dict.fromkeys(successors) for node, successors in graph.items()}
    for node, successors in succ.items():
        if node in successors:
            yield [node]
            del successors[node]
    pending = [c for c in strongly_connected_components(succ) if len(c) > 1]
    while pending:
        component = pending.pop()
        members = set(component)
        sub = {node: [s for s in succ[node] if s in members] for node in component}
        start = component[0]
        yield from _circuits(start, sub)
        # every cycle through ``start`` is out; search the rest
        del sub[start]
        rest = {node: [s for s in out if s != start] for node, out in sub.items()}
        pending.extend(c for c in strongly_connected_components(rest) if len(c) > 1)


def _circuits(
    start: Hashable, graph: Mapping[Hashable, List[Hashable]]
) -> Iterator[List[Hashable]]:
    """Johnson's CIRCUIT search: the simple cycles through ``start`` in
    a strongly connected ``graph``, with blocked nodes released only
    when a cycle was found beyond them."""
    path = [start]
    blocked = {start}
    blockers: Dict[Hashable, Set[Hashable]] = {}
    closed: Set[Hashable] = set()
    work = [(start, list(graph[start]))]
    while work:
        node, todo = work[-1]
        if todo:
            succ = todo.pop()
            if succ == start:
                yield list(path)
                closed.update(path)
            elif succ not in blocked:
                path.append(succ)
                work.append((succ, list(graph[succ])))
                closed.discard(succ)
                blocked.add(succ)
                continue
        if not todo:
            if node in closed:
                release = [node]
                while release:
                    freed = release.pop()
                    if freed in blocked:
                        blocked.remove(freed)
                        release.extend(blockers.pop(freed, ()))
            else:
                for succ in graph[node]:
                    blockers.setdefault(succ, set()).add(node)
            work.pop()
            path.pop()


def find_cycle(graph: Graph) -> Optional[List[Hashable]]:
    """Some directed cycle as its list of nodes in edge order (depth
    first from the nodes in key order), or ``None`` if the graph is
    acyclic."""
    done: Set[Hashable] = set()
    for root in graph:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        work = [iter(graph[root])]
        while work:
            for succ in work[-1]:
                if succ in on_path:
                    return path[path.index(succ):]
                if succ not in done:
                    path.append(succ)
                    on_path.add(succ)
                    work.append(iter(graph[succ]))
                    break
            else:
                work.pop()
                finished = path.pop()
                on_path.discard(finished)
                done.add(finished)
    return None


def topological_order(graph: Graph) -> Optional[List[Hashable]]:
    """The lexicographically smallest topological order (Kahn's
    algorithm, taking the smallest ready node each time), or ``None``
    if the graph has a cycle."""
    indegree: Dict[Hashable, int] = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for succ in successors:
            indegree[succ] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: List[Hashable] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in graph[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    return order if len(order) == len(indegree) else None


def is_weakly_connected(graph: Graph) -> bool:
    """True iff ignoring edge directions leaves one connected piece
    (vacuously true for an empty graph)."""
    neighbours: Dict[Hashable, Set[Hashable]] = {node: set() for node in graph}
    for node, successors in graph.items():
        for succ in successors:
            neighbours[node].add(succ)
            neighbours[succ].add(node)
    if not neighbours:
        return True
    root = next(iter(neighbours))
    seen = {root}
    todo = [root]
    while todo:
        for other in neighbours[todo.pop()]:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return len(seen) == len(neighbours)


def has_path(graph: Graph, source: Hashable, target: Hashable) -> bool:
    """True iff a directed path leads from ``source`` to ``target``
    (a node reaches itself)."""
    seen = {source}
    todo = [source]
    while todo:
        node = todo.pop()
        if node == target:
            return True
        for succ in graph[node]:
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return False
