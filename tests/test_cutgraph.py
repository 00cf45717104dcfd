"""Network construction, exact min cut, and the assignment/cut dictionary."""

import random
from collections import deque

import pytest

from helpers import random_gi_instance, random_assignment
from scsp import (INF, ZERO, SINK, SOURCE, FlowEdge, Instance,
                  IntervalFunction, SoftConstraint, as_evaluation,
                  brute_force, build_network, compile_to_intervals,
                  cut_from_assignment, evaluate, extract_assignment,
                  format_network, min_cut, parse_instance, solve)
from scsp.cutgraph import NETWORK_GUARD
from scsp.errors import DomainError, ScopeError, TooLarge, WrongConstraintKind


def reaches_sink_avoiding(network, cut_edges):
    """Directed reachability from SOURCE to SINK skipping the cut edges."""
    skip = set(cut_edges)
    outgoing = {}
    for i, e in enumerate(network.edges):
        if i not in skip:
            outgoing.setdefault(e.tail, []).append(e.head)
    seen = {SOURCE}
    queue = deque([SOURCE])
    while queue:
        u = queue.popleft()
        for v in outgoing.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return SINK in seen


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
        # parallel edges from duplicate constraints stay separate
        assert tagged == [1, 2]

    def test_rejects_table_constraints(self):
        from scsp import xor_penalty
        inst = Instance(("p", "q"), 2,
                        (SoftConstraint(("p", "q"), xor_penalty()),))
        with pytest.raises(WrongConstraintKind):
            build_network(inst)

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
        # An oracle independent of Dinic: networkx's maximum flow, then the
        # nodes reachable from S in its residual graph.  That set is the
        # same for every maximum flow, so it pins the source side too.
        nx = pytest.importorskip("networkx")
        rng = random.Random(66)
        finite = 0
        for _ in range(250):
            net = build_network(random_gi_instance(rng))
            cut = min_cut(net)
            capacity = {}  # parallel edges merged
            for e in net.edges:
                if e.tail != e.head:
                    key = (e.tail, e.head)
                    capacity[key] = capacity.get(key, ZERO) + e.capacity
            graph = nx.DiGraph()
            graph.add_nodes_from(net.nodes)
            for (u, v), c in capacity.items():
                if c.is_infinite:
                    graph.add_edge(u, v)  # no capacity: unbounded
                else:
                    graph.add_edge(u, v, capacity=c.fraction)
            try:
                value, flow = nx.maximum_flow(graph, SOURCE, SINK)
            except nx.NetworkXUnbounded:
                assert cut.value.is_infinite
                continue
            finite += 1
            assert as_evaluation(value) == cut.value
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
            assert cut.source_side == reachable
        assert finite > 100


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
        with pytest.raises(DomainError):
            cut_from_assignment(net, {"x": 1, "y": 1, "z": 5})
        with pytest.raises(DomainError):
            cut_from_assignment(net, {"x": 1, "y": 1, "z": 0})

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
