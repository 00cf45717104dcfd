"""Network construction, exact min cut, and the assignment/cut dictionary."""

import dataclasses
import itertools
import pickle
import random
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bad_values, random_assignment, random_gi_instance,
                     random_mixed_instance, reaches_sink_avoiding, unary)
from scsp import (INF, ZERO, SINK, SOURCE, FlowEdge, FlowNetwork, Instance,
                  IntervalFunction, SoftConstraint, as_evaluation,
                  brute_force, build_network, compile_to_intervals,
                  cut_from_assignment, evaluate, extract_assignment,
                  format_network, min_cut, parse_instance, product_complement,
                  solve)
from scsp import cutgraph
from scsp.cutgraph import NETWORK_GUARD
from scsp.errors import (CutMismatch, DomainError, ParameterError, ScopeError,
                         TooLarge)


def networkx_cut(network, flow_func=None):
    """networkx's maximum flow value as an Evaluation (None when unbounded)
    and the nodes reachable from SOURCE in its residual graph."""
    import networkx as nx
    capacity = {}  # parallel edges merged
    for e in network.edges:
        if e.tail != e.head:
            key = (e.tail, e.head)
            capacity[key] = capacity.get(key, ZERO) + e.capacity
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes)
    for (u, v), c in capacity.items():
        if c.is_infinite:
            graph.add_edge(u, v)  # no capacity: unbounded
        else:
            graph.add_edge(u, v, capacity=c.fraction)
    try:
        value, flow = nx.maximum_flow(graph, SOURCE, SINK,
                                      flow_func=flow_func)
    except nx.NetworkXUnbounded:
        return None, None
    residual = {}
    for (u, v), c in capacity.items():
        if c.is_infinite or flow[u][v] < c.fraction:
            residual.setdefault(u, []).append(v)
        if flow[u][v] > 0:
            residual.setdefault(v, []).append(u)
    reachable = {SOURCE}
    queue = deque([SOURCE])
    while queue:
        for v in residual.get(queue.popleft(), ()):
            if v not in reachable:
                reachable.add(v)
                queue.append(v)
    return as_evaluation(value), reachable


def both_ways_instance():
    """Two chains over 1..3 with gi terms across them in both directions,
    and one on each chain that runs down a chain arc."""
    def gi(v, w, x_min, y_max, p):
        return SoftConstraint((v, w), IntervalFunction(
            x_min, y_max, as_evaluation(p)))
    return Instance(("a", "b"), 3, (
        gi("a", "b", 2, 1, 1),  # (b, 1) -> (a, 1)
        gi("b", "a", 2, 1, 2),  # (a, 1) -> (b, 1)
        gi("a", "a", 2, 2, 3),  # (a, 2) -> (a, 1), against a chain arc
        gi("b", "b", 3, 3, 1),  # (b, 3) -> (b, 2), against a chain arc
        gi("a", "b", 3, 2, 4),  # (b, 2) -> (a, 2), alone
    ))


class TestBuildNetwork:
    def test_chain_instance_layout(self, chain_text):
        net = build_network(parse_instance(chain_text))
        assert len(net.nodes) == 17  # 3 variables x 5 levels + S + T
        assert net.nodes[0] == SOURCE and net.nodes[1] == SINK
        structural = [e for e in net.edges if e.constraint_index is None]
        assert len(structural) == 18  # per variable: source, sink, 4 chain
        for v in net.variables:
            assert FlowEdge(SOURCE, (v, 4), INF, None) in structural
            assert FlowEdge((v, 0), SINK, INF, None) in structural
            for d in range(4):
                assert FlowEdge((v, d), (v, d + 1), INF, None) in structural
        constraint = [e for e in net.edges if e.constraint_index is not None]
        assert constraint == [
            FlowEdge(("x", 4), ("y", 2), as_evaluation(3), 0),
            FlowEdge(("z", 3), ("y", 3), as_evaluation(2), 1),
            FlowEdge(("y", 3), ("z", 0), as_evaluation(7), 2),
            FlowEdge(("z", 4), ("z", 1), INF, 3),
        ]

    def test_zero_penalty_constraints_add_no_edge(self):
        inst = Instance(("a", "b"), 3, (
            SoftConstraint(("a", "b"), IntervalFunction(2, 2, 0)),
            SoftConstraint(("a", "b"), IntervalFunction(2, 2, 5)),
            SoftConstraint(("a", "b"), IntervalFunction(2, 2, 5)),
        ))
        net = build_network(inst)
        tagged = [e.constraint_index for e in net.edges
                  if e.constraint_index is not None]
        # edges are numbered as the compiled instance's constraints, where
        # the zero-penalty one is dropped; parallel edges from duplicate
        # constraints stay separate
        assert tagged == [0, 1]
        assert net == build_network(compile_to_intervals(inst))

    def test_table_instance_builds_its_compiled_network(self):
        # xor_penalty is not submodular, but a repeated scope reads only
        # its diagonal
        from scsp import abs_diff, xor_penalty
        inst = Instance(("p", "q"), 2, (
            SoftConstraint(("p", "q"), abs_diff(2)),
            SoftConstraint(("q", "q"), xor_penalty()),
            SoftConstraint(("p",), unary([0, 3])),
            SoftConstraint(("q", "p"), abs_diff(2)),
        ))
        net = build_network(inst)
        assert net == build_network(compile_to_intervals(inst))
        tagged = [k for k in net.constraint_indices if k is not None]
        assert tagged == list(range(len(compile_to_intervals(inst)
                                        .constraints)))

    def test_guard_refuses_oversized_networks(self):
        # one variable at domain NETWORK_GUARD needs NETWORK_GUARD + 1 nodes
        inst = Instance(("v",), NETWORK_GUARD, ())
        with pytest.raises(TooLarge):
            build_network(inst)
        with pytest.raises(TooLarge):
            solve(inst)

    def test_guard_counts_level_nodes(self, monkeypatch):
        monkeypatch.setattr("scsp.cutgraph.NETWORK_GUARD", 10)
        assert len(build_network(Instance(("a", "b"), 4, ())).nodes) == 2 + 10
        with pytest.raises(TooLarge):
            build_network(Instance(("a", "b"), 5, ()))

    def test_solve_builds_no_flow_edge(self, monkeypatch):
        # the network is numbered from the start; FlowEdge is only a view
        class Refused(FlowEdge):
            def __init__(self, *args):
                raise AssertionError("solve built a FlowEdge")

        rng = random.Random(71)
        instances = [random_mixed_instance(rng) for _ in range(40)]
        instances += [random_gi_instance(rng) for _ in range(40)]
        expected = [solve(inst) for inst in instances]
        monkeypatch.setattr(cutgraph, "FlowEdge", Refused)
        assert [solve(inst) for inst in instances] == expected
        for inst in instances:
            assert (solve(inst).network
                    == build_network(compile_to_intervals(inst)))
        with pytest.raises(AssertionError, match="built a FlowEdge"):
            solve(instances[-1]).network.edges

    def test_network_rebuilt_from_its_fields_is_equal(self):
        # the fields are the whole network: passed back in as lists, they
        # give an equal network that cuts and prints the same
        rng = random.Random(72)
        for _ in range(200):
            net = build_network(compile_to_intervals(
                random_mixed_instance(rng)))
            rebuilt = FlowNetwork(
                list(net.variables), net.m, list(net.tails), list(net.heads),
                list(net.capacities), list(net.constraint_indices))
            assert rebuilt == net
            assert hash(rebuilt) == hash(net)
            assert pickle.loads(pickle.dumps(net)) == net
            assert min_cut(rebuilt) == min_cut(net)
            assert format_network(rebuilt) == format_network(net)

    def test_replace_checks_like_the_constructor(self):
        net = build_network(Instance(("a", "b"), 3, (
            SoftConstraint(("a", "b"), IntervalFunction(2, 3, 5)),)))
        assert dataclasses.replace(net) == net
        stray = len(net.nodes)
        with pytest.raises(ParameterError, match=f"to {stray}, not between"):
            dataclasses.replace(net, heads=net.heads[:-1] + (stray,))
        # at m = 2 the ids of b's levels 2 and 3 name no node
        with pytest.raises(ParameterError, match="not between node ids"):
            dataclasses.replace(net, m=2)

    def test_reading_edges_leaves_the_network_as_it_was(self):
        net = build_network(Instance(("a", "b"), 3, (
            SoftConstraint(("a", "b"), IntervalFunction(2, 3, 5)),)))
        size = len(pickle.dumps(net))
        assert len(net.edges) == 11
        assert len(pickle.dumps(net)) == size

    def test_hand_built_networks_are_guarded(self, monkeypatch):
        monkeypatch.setattr("scsp.cutgraph.NETWORK_GUARD", 10)
        assert len(FlowNetwork(("a", "b"), 4, (), (), (), ()).nodes) == 12
        with pytest.raises(TooLarge):
            FlowNetwork(("a", "b"), 5, (), (), (), ())

    @pytest.mark.parametrize("variables, m, message", [
        (("x", "x"), 2, "unique"),
        (("x",), 0, "positive integer"),
        (("x",), -1, "positive integer"),
        (("x",), 1.5, "positive integer"),
        (("x",), "2", "positive integer"),
        ([["x"]], 2, "hashable"),
        (("x",), True, "positive integer"),
    ])
    def test_malformed_variables_or_m_raise(self, variables, m, message):
        with pytest.raises(ParameterError, match=message):
            FlowNetwork(variables, m, (), (), (), ())


class TestMinCut:
    def test_unconstrained_variable_costs_nothing(self):
        net = build_network(Instance(("v",), 3, ()))
        cut = min_cut(net)
        assert cut.value == ZERO
        assert cut.cut_edges == ()
        assert 1 <= extract_assignment(net, cut)["v"] <= 3

    def test_chain_instance_optimum(self, chain_text):
        inst = parse_instance(chain_text)
        net = build_network(inst)
        cut = min_cut(net)
        assert str(cut.value) == "5"
        assignment = extract_assignment(net, cut)
        assert assignment == {"x": 4, "y": 4, "z": 1}
        assert evaluate(inst, assignment) == cut.value

    def test_quadratic_instance_optimum(self, data_dir):
        inst = parse_instance((data_dir / "quadratic.scsp").read_text())
        net = build_network(compile_to_intervals(inst))
        assert str(min_cut(net).value) == "11/4"

    def test_everything_infinite(self):
        # the constraint charges infinity at every assignment
        inst = Instance(("a", "b"), 2,
                        (SoftConstraint(("a", "b"),
                                        IntervalFunction(1, 2, INF)),))
        net = build_network(inst)
        cut = min_cut(net)
        assert cut.value == INF
        assignment = extract_assignment(net, cut)
        assert evaluate(inst, assignment) == INF
        assert set(assignment) == {"a", "b"}
        assert all(1 <= t <= 2 for t in assignment.values())

    def test_forced_infinite_self_loop(self):
        inst = Instance(("v",), 1,
                        (SoftConstraint(("v", "v"),
                                        IntervalFunction(1, 1, INF)),))
        cut = min_cut(build_network(inst))
        assert cut.value == INF

    def test_cut_separates_source_from_sink(self):
        rng = random.Random(61)
        for _ in range(60):
            net = build_network(random_gi_instance(rng))
            cut = min_cut(net)
            assert SOURCE in cut.source_side and SINK not in cut.source_side
            assert not reaches_sink_avoiding(net, cut.cut_edges)

    def test_finite_cuts_use_only_constraint_edges(self):
        rng = random.Random(62)
        seen_finite = 0
        for _ in range(60):
            net = build_network(random_gi_instance(rng))
            cut = min_cut(net)
            if cut.value.is_infinite:
                continue
            seen_finite += 1
            for i in cut.cut_edges:
                assert net.edges[i].constraint_index is not None
            total = ZERO
            for i in cut.cut_edges:
                total = total + net.edges[i].capacity
            assert total == cut.value
        assert seen_finite > 20

    def test_matches_brute_force(self):
        rng = random.Random(63)
        for _ in range(80):
            inst = random_gi_instance(rng, max_vars=4, max_domain=4)
            net = build_network(inst)
            cut = min_cut(net)
            best = brute_force(inst)
            assert cut.value == best.evaluation
            if not cut.value.is_infinite:
                assignment = extract_assignment(net, cut)
                assert evaluate(inst, assignment) == best.evaluation

    def test_matches_networkx_max_flow(self):
        # An oracle independent of the engine: networkx's maximum flow, then
        # the nodes reachable from S in its residual graph.  That set is the
        # same for every maximum flow, so it pins the source side too.  The
        # compiled mixed instances bring infinite staircases, parallel
        # edges and self-loops, where the search trees are repaired most.
        pytest.importorskip("networkx")
        rng = random.Random(66)
        nets = [build_network(random_gi_instance(rng)) for _ in range(250)]
        rng = random.Random(70)
        nets += [build_network(compile_to_intervals(
                     random_mixed_instance(rng))) for _ in range(250)]
        finite = 0
        for net in nets:
            cut = min_cut(net)
            value, reachable = networkx_cut(net)
            if value is None:
                assert cut.value.is_infinite
                continue
            finite += 1
            assert cut.value == value
            assert cut.source_side == reachable
        assert finite > 250

    def test_edges_outside_the_network_raise(self):
        # one variable at m = 2: node ids 0..4; edge 0 is a chain edge
        one = as_evaluation(1)
        for stray in (5, -1, "x", 1.0, None):
            for tail, head in ((2, stray), (stray, 3)):
                with pytest.raises(ParameterError, match=re.escape(
                        f"edge 1 runs from {tail!r} to {head!r},")):
                    FlowNetwork(("x",), 2, (2, tail), (3, head), (INF, one),
                                (None, 0))
        with pytest.raises(ParameterError, match="edge 1 has capacity 1,"):
            FlowNetwork(("x",), 2, (2, 2), (3, 3), (INF, 1), (None, 0))
        with pytest.raises(ParameterError, match="one length"):
            FlowNetwork(("x",), 2, (2,), (3, 4), (INF,), (None,))

    def test_antiparallel_edges_share_one_arc_pair(self, monkeypatch):
        # 10 structural edges and 5 constraint edges hold 3 antiparallel
        # couples: the engine gets 15 - 3 = 12 arc pairs
        net = build_network(both_ways_instance())
        reverse = [(v, u) for u, v in zip(net.tails, net.heads)]
        edges = list(zip(net.tails, net.heads))
        assert sum(e in edges for e in reverse) == 2 * 3
        pairs = []
        real = cutgraph._max_flow

        def engine(n, arc_to, arc_cap, adjacency, source, sink):
            pairs.extend(zip(arc_to[1::2], arc_to[0::2]))
            return real(n, arc_to, arc_cap, adjacency, source, sink)
        monkeypatch.setattr(cutgraph, "_max_flow", engine)
        cut = min_cut(net)
        assert len(pairs) == 12 and len(set(pairs)) == 12
        # each edge runs along one arc of a pair, forward or back
        assert all((u, v) in pairs or (v, u) in pairs for u, v in edges)
        assert cut.value == brute_force(both_ways_instance()).evaluation

    def test_each_node_is_queued_once(self, monkeypatch):
        # a dense table on every pair of four variables: freed orphans
        # wake neighbours that are still pending in the queue
        class PendingOnce(deque):
            def append(self, node):
                if node in self:
                    raise AssertionError(f"node {node} queued twice")
                super().append(node)

        names = ("a", "b", "c", "d")
        constraints = [SoftConstraint(pair, product_complement(8))
                       for pair in itertools.combinations(names, 2)]
        constraints += [SoftConstraint((v,), unary(
            [(3 * d + i) % 8 for d in range(8)])) for i, v in enumerate(names)]
        net = build_network(compile_to_intervals(
            Instance(names, 8, tuple(constraints))))
        expected = min_cut(net)
        monkeypatch.setattr(cutgraph, "deque", PendingOnce)
        assert min_cut(net) == expected

    def test_deep_chains_match_networkx(self):
        # two chains of 2001 levels crossed by gi terms both ways, some of
        # which charge one variable alone for being high or low: tree paths
        # run thousands of arcs long, far past the recursion limit
        pytest.importorskip("networkx")
        rng = random.Random(67)
        m = 2000
        constraints = []
        for _ in range(60):
            scope = rng.choice((("a", "b"), ("b", "a")))
            x, y = rng.choice(((rng.randint(1, m), rng.randint(1, m)),
                               (rng.randint(1, m), m), (1, rng.randint(1, m))))
            constraints.append(SoftConstraint(scope, IntervalFunction(
                x, y, as_evaluation(rng.randint(1, 9)))))
        net = build_network(Instance(("a", "b"), m, tuple(constraints)))
        cut = min_cut(net)
        # networkx's default preflow-push takes seconds here
        from networkx.algorithms.flow import edmonds_karp
        value, reachable = networkx_cut(net, edmonds_karp)
        assert not cut.value.is_zero
        assert cut.value == value
        assert cut.source_side == reachable


@st.composite
def flow_networks(draw):
    """Hand-built networks with arbitrary edges among S, T and the level
    nodes: parallel and antiparallel pairs, cycles, self-loops, arcs into
    S and out of T, and about one capacity in ten infinite."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    node = st.integers(0, 1 + n * (m + 1))
    capacity = st.tuples(st.integers(0, 9),
                         st.fractions(0, 12, max_denominator=3))
    edges = draw(st.lists(st.tuples(node, node, capacity), max_size=30))
    return FlowNetwork(
        tuple(f"x{i}" for i in range(n)), m, [u for u, _, _ in edges],
        [v for _, v, _ in edges],
        [INF if k == 0 else as_evaluation(c) for _, _, (k, c) in edges],
        range(len(edges)))


# one variable at m = 1: S is 0, T is 1, x0_0 is 2 and x0_1 is 3
@settings(max_examples=300, deadline=None)
@example(FlowNetwork(
    ("x0",), 1, (0, 2, 3, 3, 3, 3, 2, 1), (2, 3, 2, 3, 1, 1, 0, 3),
    (as_evaluation(3), as_evaluation(2), as_evaluation(Fraction(1, 2)), INF,
     as_evaluation(5), as_evaluation(1), INF, as_evaluation(4)),
    range(8)))
@example(FlowNetwork(("x0",), 1, (0, 3, 0), (3, 1, 1),
                     (INF, INF, as_evaluation(2)), range(3)))
# an antiparallel pair finite both ways
@example(FlowNetwork(("x0",), 1, (0, 2, 3, 3, 0, 2), (2, 3, 2, 1, 3, 1),
                     tuple(map(as_evaluation, (5, 2, 1, 5, 1, 1))), range(6)))
# an antiparallel pair infinite both ways
@example(FlowNetwork(("x0",), 1, (0, 2, 3, 3, 2, 0), (2, 3, 2, 1, 1, 3),
                     (as_evaluation(3), INF, INF, as_evaluation(2),
                      as_evaluation(1), as_evaluation(4)), range(6)))
# two parallel edges against one reverse edge
@example(FlowNetwork(("x0",), 1, (0, 2, 2, 3, 3, 0, 2), (2, 3, 3, 2, 1, 3, 1),
                     tuple(map(as_evaluation, (4, 1, 2, 5, 4, 3, 2))),
                     range(7)))
# an S <-> T pair
@example(FlowNetwork(("x0",), 1, (0, 1, 0, 2), (1, 0, 2, 1),
                     tuple(map(as_evaluation, (2, 3, 1, 1))), range(4)))
# a pair of self-loops
@example(FlowNetwork(("x0",), 1, (2, 2, 0, 2), (2, 2, 2, 1),
                     (as_evaluation(1), INF, as_evaluation(2),
                      as_evaluation(3)), range(4)))
@given(flow_networks())
def test_hand_built_networks_match_networkx(net):
    pytest.importorskip("networkx")
    value, reachable = networkx_cut(net)
    cut = min_cut(net)
    if value is None:
        assert cut.value.is_infinite
    else:
        assert cut.value == value
        assert cut.source_side == reachable


def augmenting_paths(limit):
    """A max-flow engine with min_cut's contract that stops after ``limit``
    shortest augmenting paths and reports the nodes it reaches from S
    without passing T: a consistent cut that is minimal only when the
    flow is maximum."""
    def engine(n, arc_to, arc_cap, adjacency, source, sink):
        total = 0
        for _ in range(limit):
            via = {source: None}
            queue = deque([source])
            while queue and sink not in via:
                for a in adjacency[queue.popleft()]:
                    if arc_cap[a] and arc_to[a] not in via:
                        via[arc_to[a]] = a
                        queue.append(arc_to[a])
            if sink not in via:
                break
            path = []
            v = sink
            while via[v] is not None:
                path.append(via[v])
                v = arc_to[via[v] ^ 1]
            bottleneck = min(arc_cap[a] for a in path)
            for a in path:
                arc_cap[a] -= bottleneck
                arc_cap[a ^ 1] += bottleneck
            total += bottleneck
        reached = [False] * n
        reached[source] = True
        queue = deque([source])
        while queue:
            for a in adjacency[queue.popleft()]:
                v = arc_to[a]
                if arc_cap[a] and not reached[v] and v != sink:
                    reached[v] = True
                    queue.append(v)
        return total, reached
    return engine


def tampered(tamper):
    """The real engine, with ``tamper(arc_to, arc_cap, flow)`` rewriting its
    answer before min_cut checks it."""
    real = cutgraph._max_flow

    def engine(n, arc_to, arc_cap, adjacency, source, sink):
        flow, reached = real(n, arc_to, arc_cap, adjacency, source, sink)
        return tamper(arc_to, arc_cap, flow), reached
    return engine


def shift_one_unit(arc_to, arc_cap, flow):
    # one more unit on an arc between two level nodes: its ends lose
    # conservation
    for a in range(0, len(arc_to), 2):
        if arc_cap[a] and 1 < arc_to[a] != arc_to[a ^ 1] > 1:
            arc_cap[a] -= 1
            arc_cap[a ^ 1] += 1
            return flow
    raise AssertionError("no arc to tamper with")


def overfill(arc_to, arc_cap, flow):
    # a saturated edge's reverse arc gains a unit its capacity lacks
    for a in range(0, len(arc_to), 2):
        if not arc_cap[a] and arc_cap[a ^ 1]:
            arc_cap[a ^ 1] += 1
            return flow
    raise AssertionError("no saturated edge")


class TestOptimalityCertificate:
    def test_other_maximum_flow_engines_pass(self, monkeypatch):
        rng = random.Random(68)
        nets = [build_network(compile_to_intervals(random_mixed_instance(rng)))
                for _ in range(40)]
        expected = [min_cut(net) for net in nets]
        monkeypatch.setattr(cutgraph, "_max_flow", augmenting_paths(10 ** 6))
        assert [min_cut(net) for net in nets] == expected

    def test_stopping_early_is_not_minimal(self, monkeypatch):
        rng = random.Random(69)
        nets = [build_network(random_gi_instance(rng)) for _ in range(60)]
        truth = [min_cut(net).value for net in nets]
        stopped = []
        for limit in (0, 1, 2):
            monkeypatch.setattr(cutgraph, "_max_flow",
                                augmenting_paths(limit))
            stopped.append(0)
            for net, value in zip(nets, truth):
                try:
                    cut = min_cut(net)
                except CutMismatch as err:
                    assert "not minimal" in str(err)
                    stopped[-1] += 1
                else:
                    assert cut.value == value
        # with no path pushed every network of positive value is caught
        assert stopped[0] == sum(not value.is_zero for value in truth)
        assert stopped[0] > stopped[1] > stopped[2] > 0

    @pytest.mark.parametrize("tamper, message", [
        (shift_one_unit, "conserved"),
        (overfill, "capacity"),
        (lambda arc_to, arc_cap, flow: flow + 1, "conserved"),
        (lambda arc_to, arc_cap, flow: flow - 1, "conserved"),
    ], ids=["conservation", "capacity", "value+1", "value-1"])
    def test_tampered_flows_raise(self, monkeypatch, chain_text, tamper,
                                  message):
        net = build_network(parse_instance(chain_text))
        monkeypatch.setattr(cutgraph, "_max_flow", tampered(tamper))
        with pytest.raises(CutMismatch, match=message):
            min_cut(net)

    def test_net_flow_past_the_back_capacity_raises(self, monkeypatch):
        real = cutgraph._max_flow

        def engine(n, arc_to, arc_cap, adjacency, source, sink):
            capacity = arc_cap.copy()
            flow, reached = real(n, arc_to, arc_cap, adjacency, source, sink)
            # a pair holding two edges: its net flow runs one unit further
            # against the forward arc than the back arc holds, and its
            # residuals still sum to its capacities
            p = next(p for p in range(0, len(arc_to), 2)
                     if capacity[p] and capacity[p + 1])
            arc_cap[p] += arc_cap[p + 1] + 1
            arc_cap[p + 1] = -1
            return flow, reached
        net = build_network(both_ways_instance())
        monkeypatch.setattr(cutgraph, "_max_flow", engine)
        with pytest.raises(CutMismatch, match="capacity"):
            min_cut(net)

    @pytest.mark.parametrize("node, mark", [(1, True), (0, False)],
                             ids=["T-reached", "S-unreached"])
    def test_cuts_separating_no_terminals_raise(self, monkeypatch, chain_text,
                                                node, mark):
        real = cutgraph._max_flow

        def engine(*args):
            flow, reached = real(*args)
            reached[node] = mark
            return flow, reached
        net = build_network(parse_instance(chain_text))
        monkeypatch.setattr(cutgraph, "_max_flow", engine)
        with pytest.raises(CutMismatch, match="must hold S and not T"):
            min_cut(net)


class TestCutFromAssignment:
    def test_chain_optimal_assignment(self, chain_text):
        inst = parse_instance(chain_text)
        net = build_network(inst)
        cut = cut_from_assignment(net, {"x": 4, "y": 4, "z": 1})
        assert str(cut.value) == "5"
        charged = {net.edges[i].constraint_index for i in cut.cut_edges}
        assert charged == {0, 1}
        assert not reaches_sink_avoiding(net, cut.cut_edges)

    def test_chain_all_ones(self, chain_text):
        inst = parse_instance(chain_text)
        net = build_network(inst)
        cut = cut_from_assignment(net, {"x": 1, "y": 1, "z": 1})
        assert str(cut.value) == "7"
        assert [net.edges[i].constraint_index for i in cut.cut_edges] == [2]

    def test_rejects_bad_assignments(self, chain_text):
        net = build_network(parse_instance(chain_text))
        with pytest.raises(ScopeError):
            cut_from_assignment(net, {"x": 1, "y": 1})
        for d in bad_values(4):
            with pytest.raises(DomainError):
                cut_from_assignment(net, {"x": 1, "y": 1, "z": d})

    def test_weight_equals_evaluation(self):
        rng = random.Random(64)
        for _ in range(100):
            inst = random_gi_instance(rng)
            net = build_network(inst)
            assignment = random_assignment(rng, inst)
            cut = cut_from_assignment(net, assignment)
            assert cut.value == evaluate(inst, assignment)
            assert SOURCE in cut.source_side and SINK not in cut.source_side
            assert not reaches_sink_avoiding(net, cut.cut_edges)
            for i in cut.cut_edges:
                assert net.edges[i].constraint_index is not None

    def test_never_below_min_cut(self):
        rng = random.Random(65)
        for _ in range(60):
            inst = random_gi_instance(rng, max_vars=4, max_domain=4)
            net = build_network(inst)
            best = min_cut(net)
            assignment = random_assignment(rng, inst)
            assert cut_from_assignment(net, assignment).value >= best.value


class TestFormatNetwork:
    def test_chain_listing(self, chain_text):
        net = build_network(parse_instance(chain_text))
        lines = format_network(net).splitlines()
        assert len(lines) == 22
        assert lines[0] == "S x_4 inf structural"
        assert "x_0 T inf structural" in lines
        assert "z_2 z_3 inf structural" in lines
        assert lines[-4:] == [
            "x_4 y_2 3 constraint:0",
            "z_3 y_3 2 constraint:1",
            "y_3 z_0 7 constraint:2",
            "z_4 z_1 inf constraint:3",
        ]
