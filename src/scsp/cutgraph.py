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
computed value at or above that bound is reported as infinite.  The
flow comes from Boykov and Kolmogorov's search trees, and each cut is
proved minimum by a flow of equal value before it is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CutMismatch, ParameterError, TooLarge, WrongConstraintKind
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
    graph, which makes the answer deterministic.  A linear-time optimality
    certificate (_certify) checks each answer; a failure raises CutMismatch.
    An edge naming a node outside the network raises ParameterError.
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
    for i, e in enumerate(network.edges):
        try:
            u, v = index[e.tail], index[e.head]
        except KeyError as err:
            raise ParameterError(f"edge {i} names {err.args[0]!r}, which is "
                                 "not a node of the network") from None
        cap = e.capacity
        c = big if cap.is_infinite else (
            cap.fraction.numerator * (scale // cap.fraction.denominator))
        adjacency[u].append(len(arc_to))
        adjacency[v].append(len(arc_to) + 1)
        arc_to += (v, u)
        arc_cap += (c, 0)

    residual = arc_cap.copy()
    flow, reached = _max_flow(len(nodes), arc_to, residual, adjacency, 0, 1)
    cut_edges = _certify(arc_to, arc_cap, residual, flow, reached)
    side = frozenset(node for node, r in zip(nodes, reached) if r)
    value = INF if flow >= big else Evaluation(Fraction(flow, scale))
    return CutResult(value, side, cut_edges)


def _max_flow(n, arc_to, arc_cap, adjacency, source, sink):
    """The maximum flow value, and per node whether it is reachable from
    the source in the final residual graph.

    Boykov and Kolmogorov's search trees (TPAMI 2004): a source and a sink
    tree grow breadth first from active nodes until a residual arc joins
    them.  Pushing the path's bottleneck orphans each node whose parent arc
    saturates; an orphan adopts the first neighbour of its tree whose path
    to the terminal meets no orphan, or is freed.  A walk up such a path
    stops at a node stamped this round and stamps the nodes it passed,
    which keeps adoption fast on deep chains.  tree[v] is 1, -1 or 0
    (source tree, sink tree, free); parent[v] is the arc from v to its
    parent, whose reverse carries the flow in the source tree.
    """
    TERMINAL, ORPHAN = -1, -2
    tree, parent, stamp, queued = [0] * n, [ORPHAN] * n, [0] * n, [False] * n
    tree[source], tree[sink] = 1, -1
    parent[source] = parent[sink] = TERMINAL
    queued[source] = queued[sink] = True
    active = deque((source, sink))
    orphans: list[int] = []
    time = total = 0
    while True:
        # growth: scan the front active node for a residual arc into the
        # other tree; a node that finds one stays at the front
        bridge = -1
        while active:
            u = active[0]
            side = tree[u]
            if side:
                down = side < 0  # the sink tree grows along reverse arcs
                for a in adjacency[u]:
                    if arc_cap[a ^ down]:
                        v = arc_to[a]
                        if not tree[v]:
                            tree[v], parent[v] = side, a ^ 1
                            if not queued[v]:
                                queued[v] = True
                                active.append(v)
                        elif tree[v] != side:
                            bridge = a ^ down
                            break
                if bridge >= 0:
                    break
            queued[active.popleft()] = False
        if bridge < 0:
            return total, [t > 0 for t in tree]

        # augmentation: each path arc is kept with the child it feeds, the
        # child orphaned when the arc saturates
        path = []
        for v, up in ((arc_to[bridge ^ 1], 1), (arc_to[bridge], 0)):
            while parent[v] != TERMINAL:
                path.append((v, parent[v] ^ up))
                v = arc_to[parent[v]]
        bottleneck = min([arc_cap[bridge]] + [arc_cap[a] for _, a in path])
        arc_cap[bridge] -= bottleneck
        arc_cap[bridge ^ 1] += bottleneck
        for v, a in path:
            arc_cap[a] -= bottleneck
            arc_cap[a ^ 1] += bottleneck
            if not arc_cap[a]:
                parent[v] = ORPHAN
                orphans.append(v)
        total += bottleneck

        # adoption: stamp[v] == time marks a path known to meet no orphan
        time += 1
        stamp[source] = stamp[sink] = time
        for v in orphans:
            side = tree[v]
            up = side > 0  # a ^ up: the way flow crosses a to or from v
            for a in adjacency[v]:
                w = arc_to[a]
                if tree[w] != side or not arc_cap[a ^ up]:
                    continue
                j = w
                while stamp[j] != time and parent[j] != ORPHAN:
                    j = arc_to[parent[j]]
                if stamp[j] != time:
                    continue  # w hangs below an orphan
                while stamp[w] != time:
                    stamp[w] = time
                    w = arc_to[parent[w]]
                parent[v], stamp[v] = a, time
                break
            else:
                # no valid parent: free v, wake the neighbours that could
                # grow into it again and orphan its children
                for a in adjacency[v]:
                    w = arc_to[a]
                    if tree[w] == side:
                        if arc_cap[a ^ up] and not queued[w]:
                            queued[w] = True
                            active.append(w)
                        if parent[w] >= 0 and arc_to[parent[w]] == v:
                            parent[w] = ORPHAN
                            orphans.append(w)
                tree[v] = 0
        orphans.clear()


def _certify(arc_to, capacity, residual, flow, reached) -> tuple[int, ...]:
    """Check that ``residual`` holds a maximum flow of value ``flow`` and
    ``reached`` a minimum cut; return the indices of the edges leaving it.

    Edge i is the arc pair 2i, 2i + 1 and carries the flow on its reverse
    arc; S and T are nodes 0 and 1.  A flow within the capacities, conserved
    at every other node, whose value is the weight of a cut proves both
    optimal.
    """
    if not reached[0] or reached[1]:
        raise CutMismatch("the cut's source side must hold S and not T")
    excess = [0] * len(reached)
    weight = 0
    cut_edges = []
    for i in range(0, len(arc_to), 2):
        c, f = capacity[i], residual[i + 1]
        if not 0 <= f <= c or residual[i] != c - f:
            raise CutMismatch(f"edge {i // 2} of capacity {c} carries "
                              f"flow {f} with residual {residual[i]}")
        head, tail = arc_to[i], arc_to[i + 1]
        excess[head] += f
        excess[tail] -= f
        if reached[tail] and not reached[head]:
            weight += c
            cut_edges.append(i // 2)
    if excess[0] != -flow or excess[1] != flow or any(excess[2:]):
        raise CutMismatch(f"a flow of value {flow} must leave S, reach T "
                          "and be conserved at every other node")
    if weight != flow:
        raise CutMismatch(f"cut weight {weight} differs from the flow "
                          f"{flow}: the cut is not minimal")
    return tuple(cut_edges)


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
    cut_edges = tuple(i for i, e in enumerate(network.edges)
                      if e.tail in side and e.head not in side)
    value = ZERO
    for i in cut_edges:
        value = value + network.edges[i].capacity
    return CutResult(value, frozenset(side), cut_edges)


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
