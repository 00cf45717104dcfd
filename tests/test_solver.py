"""Compilation to interval constraints and end-to-end solving."""

import random
from collections.abc import Hashable
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (perturb_entry, random_gi_instance, random_mixed_instance,
                     random_submodular_table, unary)
import scsp.solver
from scsp import (BinaryTable, Instance, IntervalFunction, SoftConstraint,
                  abs_diff, arith_relation, as_evaluation, brute_force,
                  build_network, compile_to_intervals, crisp_relation, delay,
                  evaluate, expand_constraint, linear, parse_instance,
                  solve, xor_penalty)
from scsp.errors import CutMismatch, NotSubmodular, TooLarge
from scsp.solver import Solution, check_submodular


def all_assignments(instance):
    import itertools
    names = instance.variables
    for combo in itertools.product(range(1, instance.domain_size + 1),
                                   repeat=len(names)):
        yield dict(zip(names, combo))


class TestExpandConstraint:
    def test_interval_passes_through(self):
        c = SoftConstraint(("a", "b"), IntervalFunction(2, 3, 5))
        assert expand_constraint(c) == (c,)

    def test_zero_penalty_interval_is_dropped(self):
        c = SoftConstraint(("a", "b"), IntervalFunction(2, 3, 0))
        assert expand_constraint(c) == ()

    def test_unary_table_becomes_diagonal_intervals(self):
        c = SoftConstraint(("a",), unary([6, 3, 0]))
        expanded = expand_constraint(c)
        assert all(e.scope == ("a", "a") for e in expanded)
        inst = Instance(("a",), 3, (c,))
        compiled = Instance(("a",), 3, expanded)
        for assignment in ({"a": 1}, {"a": 2}, {"a": 3}):
            assert evaluate(compiled, assignment) == evaluate(inst, assignment)

    def test_repeated_scope_table_needs_no_submodularity(self):
        # only the diagonal is ever consulted, so the xor table is fine here
        c = SoftConstraint(("a", "a"), xor_penalty())
        expanded = expand_constraint(c)
        inst = Instance(("a",), 2, (c,))
        compiled = Instance(("a",), 2, expanded)
        for assignment in ({"a": 1}, {"a": 2}):
            assert evaluate(compiled, assignment) == evaluate(inst, assignment)

    def test_repeated_scope_diagonal_spans_the_tables_domain(self):
        # 3x + y on (a, a) charges 4d at a = d, for every d of the table's 1..3
        c = SoftConstraint(("a", "a"), linear(3, 3, 1, 0))
        inst = Instance(("a",), 3, (c,))
        compiled = Instance(("a",), 3, expand_constraint(c))
        for d in (1, 2, 3):
            assert evaluate(compiled, {"a": d}) == evaluate(inst, {"a": d})
            assert evaluate(compiled, {"a": d}) == as_evaluation(4 * d)

    def test_terms_share_their_constraints_scopes(self):
        # one scope tuple per pattern, however many terms the table has
        expanded = expand_constraint(SoftConstraint(("a", "b"), abs_diff(8)))
        assert len(expanded) > 4
        assert len({id(part.scope) for part in expanded}) <= 4

    def test_non_submodular_table_is_rejected(self):
        c = SoftConstraint(("a", "b"), xor_penalty())
        with pytest.raises(NotSubmodular) as info:
            expand_constraint(c, index=7)
        assert info.value.constraint_index == 7
        assert info.value.witness == (1, 1, 2, 2)


PASSING = (
    SoftConstraint(("a", "a"), xor_penalty()),
    SoftConstraint(("a",), unary([1, 0])),
    SoftConstraint(("a", "b"), IntervalFunction(1, 2, 3)),
)


class TestCheckSubmodular:
    def test_distinct_scope_table_must_be_submodular(self):
        c = SoftConstraint(("a", "b"), xor_penalty())
        inst = Instance(("a", "b"), 2, PASSING + (c, c))
        with pytest.raises(NotSubmodular) as info:
            check_submodular(inst)
        assert info.value.constraint_index == 3
        assert info.value.witness == (1, 1, 2, 2)

    def test_other_constraints_pass(self):
        check_submodular(Instance(("a", "b"), 2, PASSING))


class TestCompile:
    def test_results_are_all_intervals(self):
        rng = random.Random(71)
        for _ in range(40):
            inst = random_mixed_instance(rng)
            compiled = compile_to_intervals(inst)
            assert compiled.variables == inst.variables
            assert all(isinstance(c.function, IntervalFunction)
                       for c in compiled.constraints)

    def test_pointwise_equivalence(self):
        rng = random.Random(72)
        for _ in range(60):
            inst = random_mixed_instance(rng, max_vars=3, max_domain=3)
            compiled = compile_to_intervals(inst)
            for assignment in all_assignments(inst):
                assert evaluate(compiled, assignment) == \
                    evaluate(inst, assignment)

    def test_reports_offending_constraint(self):
        inst = Instance(("p", "q"), 2, (
            SoftConstraint(("p",), unary([1, 2])),
            SoftConstraint(("p", "q"), xor_penalty()),
        ))
        with pytest.raises(NotSubmodular) as info:
            compile_to_intervals(inst)
        assert info.value.constraint_index == 1
        assert "u=1" in str(info.value)


class TestCompileRepeatedTables:
    """compile_to_intervals checks and decomposes each distinct table once;
    the compiled instance must not show it."""

    @staticmethod
    def repeated_instance():
        t = random_submodular_table(random.Random(74), 3, inf_share=0.2)
        # equal to t, but built separately from its text
        copy = BinaryTable([[as_evaluation(str(v)) for v in row]
                            for row in t.rows])
        assert copy == t and copy is not t
        u = unary([2, 0, None])
        return t, Instance(("a", "b", "c"), 3, (
            SoftConstraint(("a", "b"), t),
            SoftConstraint(("c", "c"), t),
            SoftConstraint(("b", "c"), t),
            SoftConstraint(("c", "a"), copy),
            SoftConstraint(("a", "a"), copy),
            SoftConstraint(("a",), u),
            SoftConstraint(("b",), unary([2, 0, None])),
            SoftConstraint(("a", "c"), IntervalFunction(2, 3, 5)),
            SoftConstraint(("b", "a"), copy),
        ))

    def test_equals_expanding_each_constraint(self):
        _, inst = self.repeated_instance()
        expected = tuple(part for index, c in enumerate(inst.constraints)
                         for part in expand_constraint(c, index))
        compiled = compile_to_intervals(inst)
        assert compiled == Instance(inst.variables, 3, expected)

    def test_each_distinct_table_is_decomposed_once(self, monkeypatch):
        t, inst = self.repeated_instance()
        calls = []
        original = scsp.solver.decompose_binary

        def counting(table, *args, **kwargs):
            calls.append(table)
            return original(table, *args, **kwargs)

        monkeypatch.setattr(scsp.solver, "decompose_binary", counting)
        for route in (compile_to_intervals, build_network, solve):
            calls.clear()
            route(inst)
            assert calls == [t]

    def test_repeated_bad_table_reports_its_first_holder(self):
        inst = Instance(("p", "q"), 2, (
            SoftConstraint(("p", "p"), xor_penalty()),  # diagonal only: fine
            SoftConstraint(("p",), unary([1, 2])),
            SoftConstraint(("q", "p"), xor_penalty()),
            SoftConstraint(("p", "q"), xor_penalty()),
        ))
        for route in (compile_to_intervals, build_network, solve):
            with pytest.raises(NotSubmodular) as info:
                route(inst)
            assert info.value.constraint_index == 2

    def test_solve_matches_brute_force(self):
        _, inst = self.repeated_instance()
        solution = solve(inst)
        best = brute_force(inst).evaluation
        assert solution.evaluation == best
        assert evaluate(inst, solution.assignment) == best


class TestDirectRoute:
    """build_network routes each table's terms straight into arcs; the
    network, its numbering and its refusals are the compiled route's."""

    def test_equals_the_compiled_route(self):
        rng = random.Random(75)
        instances = [random_mixed_instance(rng) for _ in range(300)]
        instances += [random_gi_instance(rng) for _ in range(300)]
        seen = set()
        for inst in instances:
            net = build_network(inst)
            assert net == build_network(compile_to_intervals(inst))
            for c in inst.constraints:
                f = c.function
                if isinstance(f, BinaryTable) and c.scope[0] == c.scope[1]:
                    seen.add("repeated scope")
                if isinstance(f, IntervalFunction) and f.penalty.is_zero:
                    seen.add("zero penalty")
            if any(c.is_infinite and k is not None for c, k in zip(
                    net.capacities, net.constraint_indices)):
                seen.add("infinite penalty")
        assert seen == {"repeated scope", "zero penalty", "infinite penalty"}

    def test_refuses_a_table_as_compile_does(self):
        rng = random.Random(76)
        refused = 0
        for _ in range(300):
            inst = random_mixed_instance(rng)
            inst = Instance(inst.variables, inst.domain_size, tuple(
                SoftConstraint(c.scope, perturb_entry(rng, c.function))
                if isinstance(c.function, BinaryTable)
                else c for c in inst.constraints))
            try:
                compile_to_intervals(inst)
            except NotSubmodular as err:
                expected = err.constraint_index, err.witness
            else:
                assert solve(inst).network == build_network(inst)
                continue
            for route in (build_network, solve):
                with pytest.raises(NotSubmodular) as info:
                    route(inst)
                assert (info.value.constraint_index,
                        info.value.witness) == expected
            refused += 1
        assert refused > 50


class TestSolve:
    def test_chain_instance(self, chain_text):
        sol = solve(parse_instance(chain_text))
        assert sol.assignment == {"x": 4, "y": 4, "z": 1}
        assert str(sol.evaluation) == "5"

    def test_quadratic_instance(self, data_dir):
        inst = parse_instance((data_dir / "quadratic.scsp").read_text())
        sol = solve(inst)
        assert sol.evaluation == as_evaluation(Fraction(11, 4))
        named = {"v1": 1, "v2": 1, "v3": 2, "v4": 2, "v5": 3, "v6": 3}
        assert evaluate(inst, named) == sol.evaluation

    def test_infinite_optimum_is_reported(self):
        inst = Instance(("a",), 2, (
            SoftConstraint(("a",), unary([None, None])),))
        sol = solve(inst)
        assert sol.evaluation.is_infinite
        assert evaluate(inst, sol.assignment).is_infinite

    def test_empty_instance(self):
        sol = solve(Instance((), 2, ()))
        assert sol.assignment == {} and sol.evaluation.is_zero

    def test_rejects_non_submodular_tables(self):
        inst = Instance(("p", "q"), 2,
                        (SoftConstraint(("p", "q"), xor_penalty()),))
        with pytest.raises(NotSubmodular) as info:
            solve(inst)
        assert info.value.constraint_index == 0

    def test_solution_keeps_the_network_it_cut(self, chain_text):
        inst = parse_instance(chain_text)
        sol = solve(inst)
        assert sol.network == build_network(compile_to_intervals(inst))
        assert sol == Solution(sol.assignment, sol.evaluation)
        assert "network" not in repr(sol)
        assert brute_force(inst).network is None
        assert not isinstance(sol, Hashable)
        with pytest.raises(TypeError):
            hash(sol)

    def test_cut_must_match_evaluation(self, chain_text, monkeypatch):
        monkeypatch.setattr(scsp.solver, "evaluate",
                            lambda instance, assignment: as_evaluation(99))
        with pytest.raises(CutMismatch):
            solve(parse_instance(chain_text))

    def test_deterministic(self):
        rng = random.Random(73)
        for _ in range(20):
            inst = random_mixed_instance(rng)
            first = solve(inst)
            second = solve(inst)
            assert first.assignment == second.assignment
            assert first.evaluation == second.evaluation

    def test_matches_brute_force(self):
        rng = random.Random(74)
        for _ in range(200):
            inst = random_mixed_instance(rng)
            sol = solve(inst)
            best = brute_force(inst)
            assert sol.evaluation == best.evaluation
            assert evaluate(inst, sol.assignment) == best.evaluation


def _lattice_closure(pairs):
    """The smallest superset closed under componentwise min and max; its
    crisp table is submodular."""
    closed = set(pairs)
    while True:
        more = {(f(a[0], b[0]), f(a[1], b[1])) for a in closed for b in closed
                for f in (min, max)} - closed
        if not more:
            return closed
        closed |= more


@st.composite
def submodular_instances(draw):
    """Up to 4 variables over 1..M, 2 <= M <= 4: unary tables with coprime
    denominators and submodular binary tables, some on a repeated scope."""
    m = draw(st.integers(2, 4))
    names = tuple(f"x{i}" for i in range(draw(st.integers(1, 4))))
    finite = st.builds(Fraction, st.integers(0, 9),
                       st.sampled_from((1, 2, 3, 5)))
    value = st.one_of(finite, finite, finite, st.none())
    ratio = st.builds(Fraction, st.integers(1, 4), st.sampled_from((1, 2, 3)))
    point = st.integers(1, m)
    random_table = st.integers(0, 2 ** 32).map(
        lambda seed: random_submodular_table(random.Random(seed), m))
    binary = st.one_of(
        random_table, random_table,
        st.builds(delay, st.just(m), st.integers(1, 2)),
        st.builds(arith_relation, st.just(m),
                  st.sampled_from(("leq", "geq", "eq")), ratio,
                  st.just(0) | ratio, st.just(0) | ratio),
        st.sets(st.tuples(point, point), min_size=1).map(
            lambda pairs: crisp_relation(m, 2, _lattice_closure(pairs))))
    constraints = []
    for _ in range(draw(st.integers(0, 6))):
        v = draw(st.sampled_from(names))
        kind = draw(st.sampled_from(("pair", "pair", "unary", "repeated")))
        if kind == "unary":
            t = unary(draw(st.lists(value, min_size=m, max_size=m)))
            constraints.append(SoftConstraint((v,), t))
            continue
        others = [w for w in names if w != v]
        w = v if kind == "repeated" or not others else draw(
            st.sampled_from(others))
        constraints.append(SoftConstraint((v, w), draw(binary)))
    return Instance(names, m, tuple(constraints))


@settings(max_examples=100, deadline=None)
@example(Instance(("x0", "x1"), 3, (
    SoftConstraint(("x0", "x1"), delay(3)),
    SoftConstraint(("x1", "x0"), crisp_relation(3, 2, ())))))  # all infinite
@given(submodular_instances())
def test_solve_matches_brute_force_on_drawn_instances(inst):
    sol = solve(inst)
    assert evaluate(inst, sol.assignment) == sol.evaluation
    assert sol.evaluation == brute_force(inst).evaluation


class TestTermsGuard:
    def test_refuses_before_routing_past_the_guard(self, monkeypatch):
        rng = random.Random(93)
        instances = [random_mixed_instance(rng) for _ in range(100)]
        instances += [random_gi_instance(rng) for _ in range(40)]
        sizes = [len(compile_to_intervals(inst).constraints)
                 for inst in instances]
        routed = []
        monkeypatch.setattr(scsp.solver, "SoftConstraint", lambda *args: (
            routed.append(args) or SoftConstraint(*args)))
        refused = 0
        for inst, n in zip(instances, sizes):
            monkeypatch.setattr("scsp.cutgraph.TERMS_GUARD", n)
            assert len(compile_to_intervals(inst).constraints) == n
            assert solve(inst).evaluation == brute_force(inst).evaluation
            assert build_network(inst) == build_network(
                compile_to_intervals(inst))
            if n == 0:
                continue
            monkeypatch.setattr("scsp.cutgraph.TERMS_GUARD", n - 1)
            routed.clear()
            with pytest.raises(TooLarge) as compiled:
                compile_to_intervals(inst)
            assert len(routed) <= n - 1
            # build_network and solve refuse at the same constraint
            for route in (build_network, solve):
                with pytest.raises(TooLarge) as info:
                    route(inst)
                assert str(info.value) == str(compiled.value)
            refused += 1
        assert refused > 110

    def test_one_constraint_past_the_guard(self, monkeypatch):
        c = SoftConstraint(("a", "b"), abs_diff(4))
        inst = Instance(("a", "b"), 4, (c,))
        terms = len(expand_constraint(c))
        monkeypatch.setattr("scsp.cutgraph.TERMS_GUARD", terms)
        assert len(build_network(inst).capacities) == 2 * 6 + terms
        monkeypatch.setattr("scsp.cutgraph.TERMS_GUARD", terms - 1)
        with pytest.raises(TooLarge):
            expand_constraint(c)
        for route in (build_network, solve):
            with pytest.raises(TooLarge, match="constraint 0 takes"):
                route(inst)


class TestBruteForce:
    def test_prefers_lexicographically_first_optimum(self):
        inst = Instance(("a", "b"), 3, ())
        assert brute_force(inst).assignment == {"a": 1, "b": 1}
        # make value 2 strictly better for b only
        inst = Instance(("a", "b"), 3, (
            SoftConstraint(("b",), unary([4, 1, 4])),))
        assert brute_force(inst).assignment == {"a": 1, "b": 2}

    def test_guard_limits_enumeration(self, monkeypatch):
        inst = Instance(tuple(f"v{i}" for i in range(4)), 3, ())
        monkeypatch.setattr("scsp.solver.BRUTE_FORCE_GUARD", 80)
        with pytest.raises(TooLarge):
            brute_force(inst)
        monkeypatch.setattr("scsp.solver.BRUTE_FORCE_GUARD", 81)
        assert brute_force(inst).evaluation.is_zero
