"""The level-chain flow network, its exact minimum cut, and the
correspondence between cuts and assignments.

Each variable v becomes a chain of level nodes (v, 0) .. (v, M).  A cut
separating the source from the sink must, for each variable, sever the
chain at exactly one level when finite, and the lowest severed level reads
off the variable's value.  An interval constraint <(v, w), f> with penalty
p is an edge from (w, f.y_max) to (v, f.x_min - 1) of capacity p: the edge
crosses the cut exactly when the assignment pays p.
``solver.build_network`` puts one such edge on the network for each
interval constraint and each interval term of a decomposed table; it
lives beside the solver's decomposition memo, which this module does not
import.

The node set depends on the variables alone, so every node has an integer
id before any constraint is read: S is 0, T is 1, and (v, d) for the i-th
variable is 2 + i*(M + 1) + d, its position in ``FlowNetwork.nodes``.  A
network is its variables, M and four parallel tuples in edge order: tail
ids, head ids, capacities and constraint indices.  Its ``edges``, a tuple
of :class:`FlowEdge`, is built from them on each access.

Infinite capacities never enter the flow computation as a sentinel the
arithmetic could overflow; they are replaced by one unit more than the sum
of all finite capacities, which no finite-evaluation cut can reach, and a
computed value at or above that bound is reported as infinite.  The
flow comes from Boykov and Kolmogorov's search trees over residual arc
pairs, one pair per edge except that an edge and its reverse edge share
one, so the search scans such a neighbour once.  Each cut is proved
minimum by a flow of equal value before it is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import gt

from .errors import CutMismatch, ParameterError, TooLarge
from .evaluation import INF, ZERO, Evaluation, frozen_slots
from .functions import as_tuple, check_integer, check_type
from .model import Instance, check_assignment, name_set

SOURCE = "S"
SINK = "T"

NETWORK_GUARD = 10 ** 6  # most level nodes a network may have
TERMS_GUARD = 10 ** 6  # most interval constraints an instance compiles to


@frozen_slots
@dataclass(frozen=True, slots=True)
class FlowEdge:
    """A directed capacity; constraint_index is None for structural edges."""

    tail: object
    head: object
    capacity: Evaluation
    constraint_index: int | None


def _level_nodes(variables, m: int) -> int:
    """How many level nodes there are; TooLarge past NETWORK_GUARD."""
    if len(variables) * (m + 1) > NETWORK_GUARD:
        raise TooLarge(f"{len(variables)} chains of {m + 1} level "
                       "nodes exceed the network guard")
    return len(variables) * (m + 1)


@frozen_slots
@dataclass(frozen=True, slots=True)
class FlowNetwork:
    """A flow network over S, T and the level nodes of ``variables``.

    Edge i runs from node ``tails[i]`` to node ``heads[i]``, ids being
    positions in ``nodes``; ``constraint_indices[i]`` is None for a
    structural edge.  Every network is checked when it is constructed:
    TooLarge past NETWORK_GUARD level nodes, before any id is allocated;
    ParameterError for a field that is not iterable (or is a str) where a
    tuple is expected, an m that is not a positive integer, repeated
    variables, edge tuples of unequal lengths, a capacity that is not an
    Evaluation, an id that is not a node's or a constraint index that is
    neither None nor a non-negative integer.
    """

    variables: tuple[str, ...]
    m: int
    tails: tuple[int, ...] = field(repr=False)
    heads: tuple[int, ...] = field(repr=False)
    capacities: tuple[Evaluation, ...] = field(repr=False)
    constraint_indices: tuple[int | None, ...] = field(repr=False)

    def __post_init__(self):
        variables, m = as_tuple("variables", self.variables), self.m
        check_integer("m", m)
        n = 2 + _level_nodes(variables, m)
        name_set(variables)
        tails, heads, capacities, constraints = (
            as_tuple(name, getattr(self, name)) for name in (
                "tails", "heads", "capacities", "constraint_indices"))
        if not len(tails) == len(heads) == len(capacities) == len(constraints):
            raise ParameterError("tails, heads, capacities and constraint "
                                 "indices must have one length")
        if not all(map(isinstance, capacities, repeat(Evaluation))):
            i = [isinstance(c, Evaluation) for c in capacities].index(False)
            raise ParameterError(f"edge {i} has capacity {capacities[i]!r}, "
                                 "which is not an Evaluation")
        # type() also refuses a bool; filter drops None, and 0 is valid
        if not set(map(type, constraints)) <= {int, type(None)} or min(
                filter(None, constraints), default=0) < 0:
            i, k = next((i, k) for i, k in enumerate(constraints)
                        if k is not None and (type(k) is not int or k < 0))
            raise ParameterError(f"edge {i} has constraint index {k!r}, "
                                 "neither None nor a non-negative integer")
        # equal ids share one int object, so the engine touches fewer objects
        node = list(range(n)).__getitem__
        try:
            ids = tuple(map(node, tails)), tuple(map(node, heads))
            valid = min(tails, default=0) >= 0 and min(heads, default=0) >= 0
        except (IndexError, TypeError):
            valid = False
        if not valid:
            i = next(i for i, ends in enumerate(zip(tails, heads)) if not all(
                isinstance(u, int) and 0 <= u < n for u in ends))
            raise ParameterError(f"edge {i} runs from {tails[i]!r} to "
                                 f"{heads[i]!r}, not between node ids")
        for name, value in zip(self.__dataclass_fields__, (
                variables, m, *ids, capacities, constraints)):
            object.__setattr__(self, name, value)

    @property
    def nodes(self) -> tuple:
        level_nodes = tuple((v, d) for v in self.variables
                            for d in range(self.m + 1))
        return (SOURCE, SINK) + level_nodes

    @property
    def edges(self) -> tuple[FlowEdge, ...]:
        """The edges as FlowEdges over ``nodes``, built on each access."""
        node = self.nodes.__getitem__
        return tuple(map(FlowEdge, map(node, self.tails),
                         map(node, self.heads), self.capacities,
                         self.constraint_indices))


@frozen_slots
@dataclass(frozen=True, slots=True)
class CutResult:
    """A source side containing SOURCE but not SINK, the edges leaving it
    (as indices into the network's edge tuple), and their total weight."""

    value: Evaluation
    source_side: frozenset
    cut_edges: tuple[int, ...]

    def __post_init__(self):
        check_type("value", self.value, Evaluation)
        check_type("source side", self.source_side, frozenset)
        cut_edges = as_tuple("cut edges", self.cut_edges)
        for i in cut_edges:  # type() also refuses a bool
            if type(i) is not int or i < 0:
                raise ParameterError(f"cut edge {i!r} is not a "
                                     "non-negative integer")
        object.__setattr__(self, "cut_edges", cut_edges)


def min_cut(network: FlowNetwork) -> CutResult:
    """Minimum source-sink cut, exact over the rationals.

    Capacities are scaled by the least common denominator and the flow is
    computed over the integers, so the result is exact.  The source side
    is the set of nodes reachable from the source in the final residual
    graph, which makes the answer deterministic.  A linear-time optimality
    certificate (_certify) checks each answer; a failure raises CutMismatch.
    """
    check_type("network", network, FlowNetwork)
    tails, heads, capacities = (network.tails, network.heads,
                                network.capacities)
    nodes = network.nodes
    # each distinct capacity object is scaled once; None stands for INF
    distinct = dict(zip(map(id, capacities), capacities))
    finite = [c.fraction for c in distinct.values() if not c.is_infinite]
    scale = lcm(*(f.denominator for f in finite))
    scaled = {key: None if c.is_infinite
              else c.fraction.numerator * (scale // c.fraction.denominator)
              for key, c in distinct.items()}
    caps = list(map(scaled.__getitem__, map(id, capacities)))
    big = sum(filter(None, caps)) + 1
    caps = [big if c is None else c for c in caps]

    # arc 2p runs along the edge that opened residual pair p, arc 2p + 1
    # against it.  An edge whose reverse edge opened a pair with a free
    # back arc takes that arc, so a pair holds one edge or two antiparallel
    # ones; a parallel duplicate or a self-loop opens a pair of its own.
    # free maps (tail, head) to the latest free back arc running so
    arc_to: list[int] = []
    arc_cap: list[int] = []
    adjacency: list[list[int]] = [[] for _ in nodes]
    free: dict = {}
    for u, v, c in zip(tails, heads, caps):
        a = free.pop((u, v), None)
        if a is None:
            a = len(arc_to)
            arc_to += v, u
            arc_cap += c, 0
            adjacency[u].append(a)
            adjacency[v].append(a + 1)
            if u != v:  # a self-loop keeps its pair to itself
                free[v, u] = a + 1
        else:
            arc_cap[a] = c
    del free

    residual = arc_cap.copy()
    flow, reached = _max_flow(len(nodes), arc_to, residual, adjacency, 0, 1)
    cut_edges = _certify(arc_to, arc_cap, residual, flow, reached,
                         (tails, heads, caps))
    side = frozenset(compress(nodes, reached))
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

        # augmentation: walk each half of the path to the bridge once for
        # the bottleneck and once to push it; a child whose parent arc
        # saturates is orphaned.  Flow runs down the source tree against
        # parent arcs and up the sink tree along them
        halves = (arc_to[bridge ^ 1], 1), (arc_to[bridge], 0)
        bottleneck = arc_cap[bridge]
        for v, up in halves:
            while parent[v] != TERMINAL:
                a = parent[v]
                if arc_cap[a ^ up] < bottleneck:
                    bottleneck = arc_cap[a ^ up]
                v = arc_to[a]
        arc_cap[bridge] -= bottleneck
        arc_cap[bridge ^ 1] += bottleneck
        for v, up in halves:
            while parent[v] != TERMINAL:
                a = parent[v]
                arc_cap[a ^ up] -= bottleneck
                arc_cap[a ^ up ^ 1] += bottleneck
                if not arc_cap[a ^ up]:
                    parent[v] = ORPHAN
                    orphans.append(v)
                v = arc_to[a]
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


def _certify(arc_to, capacity, residual, flow, reached,
             edges) -> tuple[int, ...]:
    """Check that ``residual`` holds a maximum flow of value ``flow`` and
    ``reached`` a minimum cut; return the indices of the edges leaving it.

    Arcs 2p and 2p + 1 are residual pair p, of forward and back capacity
    ``capacity[2p]`` and ``capacity[2p + 1]``; its net flow runs along the
    forward arc.  ``edges`` holds the network's tail ids, head ids and
    scaled capacities; S and T are nodes 0 and 1.  A flow within every
    pair's capacities, conserved at every other node, whose value is the
    weight of a cut proves both optimal.
    """
    if not reached[0] or reached[1]:
        raise CutMismatch("the cut's source side must hold S and not T")
    excess = [0] * len(reached)
    for p in range(0, len(arc_to), 2):
        forward, back, r = capacity[p], capacity[p + 1], residual[p]
        f = forward - r
        if not -back <= f <= forward or r + residual[p + 1] != forward + back:
            raise CutMismatch(
                f"arc pair {p // 2} of forward capacity {forward} and back "
                f"capacity {back} carries net flow {f} with residuals {r} "
                f"and {residual[p + 1]}")
        if f:
            excess[arc_to[p]] += f
            excess[arc_to[p + 1]] -= f
    if excess[0] != -flow or excess[1] != flow or any(excess[2:]):
        raise CutMismatch(f"a flow of value {flow} must leave S, reach T "
                          "and be conserved at every other node")
    tails, heads, caps = edges
    side = reached.__getitem__  # True > False: the edge leaves the side
    cut_edges = tuple(compress(count(), map(gt, map(side, tails),
                                            map(side, heads))))
    weight = sum(map(caps.__getitem__, cut_edges))
    if weight != flow:
        raise CutMismatch(f"cut weight {weight} differs from the flow "
                          f"{flow}: the cut is not minimal")
    return cut_edges


def extract_assignment(network: FlowNetwork, cut: CutResult) -> dict:
    """Read a variable's value as its lowest level on the source side.

    In the all-infinite regime the cut may miss a variable's chain
    entirely; the value then falls back to M (clamped to at least 1),
    which is as good as any other, the evaluation being infinite.
    """
    check_type("network", network, FlowNetwork)
    check_type("cut", cut, CutResult)
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
    check_type("network", network, FlowNetwork)
    check_assignment(Instance(network.variables, network.m, ()), assignment)
    inside = [True, False]  # by node id, starting with S and T
    for v in network.variables:
        inside += [assignment[v] <= d for d in range(network.m + 1)]
    cut_edges = tuple(i for i, u, v in zip(count(), network.tails,
                                           network.heads)
                      if inside[u] and not inside[v])
    value = sum(map(network.capacities.__getitem__, cut_edges), ZERO)
    return CutResult(value, frozenset(compress(network.nodes, inside)),
                     cut_edges)


def format_network(network: FlowNetwork) -> str:
    """One line per edge: ``from to capacity tag``."""
    check_type("network", network, FlowNetwork)
    name = [SOURCE, SINK] + [f"{v}_{d}" for v in network.variables
                             for d in range(network.m + 1)]
    capacities = network.capacities
    distinct = {id(c): c for c in capacities}
    text = {key: str(c) for key, c in distinct.items()}
    return "".join(
        f"{name[u]} {name[v]} {cap} "
        f"{'structural' if k is None else f'constraint:{k}'}\n"
        for u, v, cap, k in zip(network.tails, network.heads,
                                map(text.__getitem__, map(id, capacities)),
                                network.constraint_indices))
