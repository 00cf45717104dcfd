"""Independent oracles: the reference optimum and assignment evaluation.

The reference network is the paper's construction, built here from a
model's generating terms rather than from the solver's decomposition: a
chain (v, 0) .. (v, M) per variable, infinite source, sink and chain
edges, and for each term (p, q, a, b, rho) an edge (q, b) -> (p, a - 1) of
capacity rho.  A finite cut's weight is the evaluation of the assignment
whose value for v is the lowest level of v on the source side.

Capacities are scaled to integers by the least common denominator, and
infinity becomes one more than the sum of the finite capacities, so a
flow value at or above that bound means an infinite optimum.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

INT32_MAX = 2 ** 31 - 1


def evaluate(model, assignment) -> Fraction | None:
    """The assignment's evaluation from the generating terms; None is inf."""
    total = Fraction(0)
    for p, q, a, b, rho in model.terms:
        if assignment[p] >= a and assignment[q] <= b:
            if rho is None:
                return None
            total += rho
    return total


def integer_capacities(penalties: Counter):
    """(capacity, scale, big) for penalties counted by value, None = inf.

    ``capacity`` maps each penalty to its integer capacity; infinity maps
    to ``big``, one more than the sum of all finite capacities.
    """
    finite = [rho for rho in penalties if rho is not None]
    scale = lcm(1, *(rho.denominator for rho in finite))
    capacity = {rho: int(rho * scale) for rho in finite}
    big = sum(capacity[rho] * penalties[rho] for rho in finite) + 1
    capacity[None] = big
    return capacity, scale, big


def integer_network(model):
    """(n, arcs, scale, big): arcs are (tail, head, capacity) over node ids
    0 = source, 1 = sink, 2 + i*(M+1) + d = (variable i, level d).

    Self-loops and zero capacities are dropped; neither can cross a cut.
    """
    m = model.m
    base = {v: 2 + i * (m + 1) for i, v in enumerate(model.variables)}
    capacity, scale, big = integer_capacities(
        Counter(rho for *_, rho in model.terms))
    arcs = []
    for v in model.variables:
        arcs.append((0, base[v] + m, big))
        arcs.append((base[v], 1, big))
        arcs.extend((base[v] + d, base[v] + d + 1, big) for d in range(m))
    for p, q, a, b, rho in model.terms:
        tail, head = base[q] + b, base[p] + a - 1
        if tail != head and capacity[rho]:
            arcs.append((tail, head, capacity[rho]))
    return 2 + len(model.variables) * (m + 1), arcs, scale, big


def as_value(flow: int, scale: int, big: int) -> Fraction | None:
    """The evaluation a scaled flow value stands for; None is infinity."""
    return None if flow >= big else Fraction(flow, scale)


def optimum_scipy(model) -> Fraction | None:
    """The minimum evaluation, by scipy's Dinic max flow (int32 only)."""
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    n, arcs, scale, big = integer_network(model)
    if big > INT32_MAX // 2:
        return optimum_networkx(model)
    tails, heads, caps = zip(*arcs)
    graph = csr_array((np.array(caps, dtype=np.int64),
                       (np.array(tails), np.array(heads))), shape=(n, n))
    graph.sum_duplicates()
    graph.data = np.minimum(graph.data, big).astype(np.int32)
    flow = maximum_flow(graph, 0, 1, method="dinic").flow_value
    return as_value(int(flow), scale, big)


def integer_graph_networkx(n, arcs):
    """A networkx DiGraph of the arcs, parallel capacities summed."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for tail, head, cap in arcs:
        if graph.has_edge(tail, head):
            graph[tail][head]["capacity"] += cap
        else:
            graph.add_edge(tail, head, capacity=cap)
    return graph


def optimum_networkx(model) -> Fraction | None:
    """The minimum evaluation, by networkx's preflow-push max flow."""
    import networkx as nx

    n, arcs, scale, big = integer_network(model)
    graph = integer_graph_networkx(n, arcs)
    flow = nx.maximum_flow_value(graph, 0, 1)
    return as_value(int(flow), scale, big)
