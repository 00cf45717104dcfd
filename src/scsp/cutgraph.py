"""Reduction of interval-constraint instances to minimum weighted cut.

Each variable v becomes a chain of level nodes (v, 0) .. (v, M).  A cut
separating the source from the sink must, for each variable, sever the
chain at exactly one level when finite, and the lowest severed level reads
off the variable's value.  A constraint <(v, w), f> with penalty p adds an
edge from (w, f.y_max) to (v, f.x_min - 1) of capacity p: the edge crosses
the cut exactly when the assignment pays p.

Infinite capacities never enter the flow computation as a sentinel the
arithmetic could overflow; they are replaced by one unit more than the sum
of all finite capacities, which no finite-evaluation cut can reach, and a
computed value at or above that bound is reported as infinite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import TooLarge, WrongConstraintKind
from .evaluation import INF, ZERO, Evaluation
from .functions import IntervalFunction
from .model import Instance, check_assignment

SOURCE = "S"
SINK = "T"

NETWORK_GUARD = 10 ** 6  # most level nodes build_network will allocate


@dataclass(frozen=True)
class FlowEdge:
    """A directed capacity; constraint_index is None for structural edges."""

    tail: object
    head: object
    capacity: Evaluation
    constraint_index: int | None


@dataclass(frozen=True)
class FlowNetwork:
    variables: tuple[str, ...]
    m: int
    edges: tuple[FlowEdge, ...]

    @property
    def nodes(self) -> tuple:
        level_nodes = tuple((v, d) for v in self.variables
                            for d in range(self.m + 1))
        return (SOURCE, SINK) + level_nodes


@dataclass(frozen=True)
class CutResult:
    """A source side containing SOURCE but not SINK, the edges leaving it
    (as indices into the network's edge tuple), and their total weight."""

    value: Evaluation
    source_side: frozenset
    cut_edges: tuple[int, ...]


def build_network(instance: Instance) -> FlowNetwork:
    """Translate an interval-constraint instance into its flow network.

    Zero-penalty constraints contribute no edge; parallel edges from
    duplicate constraints are kept separate.  Raises TooLarge, before
    allocating anything, when there would be more than NETWORK_GUARD level
    nodes.
    """
    m = instance.domain_size
    if len(instance.variables) * (m + 1) > NETWORK_GUARD:
        raise TooLarge(f"{len(instance.variables)} chains of {m + 1} level "
                       "nodes exceed the network guard")
    edges = []
    for v in instance.variables:
        edges.append(FlowEdge(SOURCE, (v, m), INF, None))
        edges.append(FlowEdge((v, 0), SINK, INF, None))
        for d in range(m):
            edges.append(FlowEdge((v, d), (v, d + 1), INF, None))
    for index, c in enumerate(instance.constraints):
        f = c.function
        if not isinstance(f, IntervalFunction):
            raise WrongConstraintKind(
                f"constraint {index} is a {type(f).__name__}; "
                "decompose tables before building the network")
        if f.penalty == ZERO:
            continue
        v, w = c.scope
        edges.append(FlowEdge((w, f.y_max), (v, f.x_min - 1), f.penalty, index))
    return FlowNetwork(tuple(instance.variables), m, tuple(edges))


def min_cut(network: FlowNetwork) -> CutResult:
    """Minimum source-sink cut, exact over the rationals.

    Capacities are scaled by the least common denominator and the flow is
    computed over the integers, so the result is exact.  The source side
    is the set of nodes reachable from the source in the final residual
    graph, which makes the answer deterministic.
    """
    nodes = network.nodes
    index = {node: i for i, node in enumerate(nodes)}
    finite = [e.capacity.fraction for e in network.edges
              if not e.capacity.is_infinite]
    scale = lcm(*(f.denominator for f in finite))
    big = sum(f.numerator * (scale // f.denominator) for f in finite) + 1

    # adjacency as arc lists; arc i and i^1 are a residual pair
    arc_to: list[int] = []
    arc_cap: list[int] = []
    adjacency: list[list[int]] = [[] for _ in nodes]
    for e in network.edges:
        u, v = index[e.tail], index[e.head]
        cap = e.capacity
        c = big if cap.is_infinite else (
            cap.fraction.numerator * (scale // cap.fraction.denominator))
        adjacency[u].append(len(arc_to))
        adjacency[v].append(len(arc_to) + 1)
        arc_to += (v, u)
        arc_cap += (c, 0)

    flow, level = _dinic(len(nodes), arc_to, arc_cap, adjacency, 0, 1)
    side = frozenset(node for node, d in zip(nodes, level) if d >= 0)
    value = INF if flow >= big else Evaluation(Fraction(flow, scale))
    return CutResult(value, side, _leaving(network, side))


def _dinic(n, arc_to, arc_cap, adjacency, source, sink):
    """The maximum flow value and the levels of the final breadth-first
    search: level[u] >= 0 exactly when u is reachable from the source in
    the final residual graph."""
    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for a in adjacency[u]:
                v = arc_to[a]
                if arc_cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return total, level
        cursor = [0] * n
        # depth-first blocking flow, iterative to keep recursion out of it
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min(arc_cap[a] for a in path)
                for a in path:
                    arc_cap[a] -= bottleneck
                    arc_cap[a ^ 1] += bottleneck
                total += bottleneck
                # retreat to just before the first saturated arc
                for k, a in enumerate(path):
                    if arc_cap[a] == 0:
                        del path[k:]
                        break
                u = arc_to[path[-1]] if path else source
                continue
            advanced = False
            arcs = adjacency[u]
            while cursor[u] < len(arcs):
                a = arcs[cursor[u]]
                v = arc_to[a]
                if arc_cap[a] > 0 and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                cursor[u] += 1
            if advanced:
                continue
            if u == source:
                break
            level[u] = -1  # dead end; prune the node for this phase
            last = path.pop()
            u = arc_to[last ^ 1]


def extract_assignment(network: FlowNetwork, cut: CutResult) -> dict:
    """Read a variable's value as its lowest level on the source side.

    In the all-infinite regime the cut may miss a variable's chain
    entirely; the value then falls back to M (clamped to at least 1),
    which is as good as any other, the evaluation being infinite.
    """
    side = cut.source_side
    assignment = {}
    for v in network.variables:
        levels = [d for d in range(network.m + 1) if (v, d) in side]
        value = min(levels) if levels else network.m
        assignment[v] = max(1, value)
    return assignment


def cut_from_assignment(network: FlowNetwork, assignment) -> CutResult:
    """The canonical cut of an assignment: (v, d) is on the source side
    exactly when assignment[v] <= d.

    Structural edges never cross it, and a constraint edge crosses it
    exactly when the constraint charges the assignment, so the cut weight
    equals the assignment's evaluation.
    """
    check_assignment(Instance(network.variables, network.m, ()), assignment)
    side = {SOURCE}
    for v in network.variables:
        side.update((v, d) for d in range(assignment[v], network.m + 1))
    cut_edges = _leaving(network, side)
    value = ZERO
    for i in cut_edges:
        value = value + network.edges[i].capacity
    return CutResult(value, frozenset(side), cut_edges)


def _leaving(network: FlowNetwork, side) -> tuple[int, ...]:
    """Indices of the edges whose tail is in ``side`` and head is not."""
    return tuple(i for i, e in enumerate(network.edges)
                 if e.tail in side and e.head not in side)


def _node_name(node) -> str:
    if node == SOURCE or node == SINK:
        return node
    return f"{node[0]}_{node[1]}"


def format_network(network: FlowNetwork) -> str:
    """One line per edge: ``from to capacity tag``."""
    lines = []
    for e in network.edges:
        tag = ("structural" if e.constraint_index is None
               else f"constraint:{e.constraint_index}")
        lines.append(f"{_node_name(e.tail)} {_node_name(e.head)} "
                     f"{e.capacity} {tag}")
    return "".join(line + "\n" for line in lines)
