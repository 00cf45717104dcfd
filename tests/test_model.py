import copy
import pickle
import random

import pytest

from scsp import (INF, ZERO, DomainError, Instance, IntervalFunction,
                  ParameterError, ScopeError, SoftConstraint, abs_diff,
                  as_evaluation, check_assignment, evaluate, parse_instance)
from helpers import bad_values, random_mixed_instance, table, unary


def chain_instance():
    return Instance(("x", "y", "z"), 4, (
        SoftConstraint(("y", "x"), IntervalFunction(3, 4, 3)),
        SoftConstraint(("y", "z"), IntervalFunction(4, 3, 2)),
        SoftConstraint(("z", "y"), IntervalFunction(1, 3, 7)),
        SoftConstraint(("z", "z"), IntervalFunction(2, 4, INF)),
    ))


class TestConstruction:
    def test_scope_arity_must_match_function(self):
        with pytest.raises(ScopeError):
            SoftConstraint(("x", "y"), unary([0, 1]))
        with pytest.raises(ScopeError):
            SoftConstraint(("x",), table([[0, 1], [1, 0]]))
        with pytest.raises(ScopeError):
            SoftConstraint(("x",), IntervalFunction(1, 1, 1))
        with pytest.raises(ParameterError):
            SoftConstraint(("x",), "not a function")
        # a str is a sequence of one-letter names, never meant as a scope
        with pytest.raises(ParameterError):
            SoftConstraint("ab", IntervalFunction(1, 1, 1))
        with pytest.raises(ParameterError):
            SoftConstraint("x1", unary([0, 1]))

    def test_repeated_scope_is_allowed(self):
        c = SoftConstraint(("x", "x"), abs_diff(3))
        assert c.scope == ("x", "x")

    def test_instance_validation(self):
        with pytest.raises(ParameterError):
            Instance(("x", "x"), 3, ())
        with pytest.raises(ParameterError):
            Instance(("x",), 0, ())
        with pytest.raises(ParameterError):
            Instance(("a",), True, ())
        with pytest.raises(ParameterError):
            Instance(("x", ""), 3, ())
        with pytest.raises(ScopeError):
            Instance(("x",), 3, (SoftConstraint(("y",), unary([0, 1, 2])),))
        with pytest.raises(ParameterError):
            Instance(("x",), 3, (SoftConstraint(("x",), unary([0, 1])),))
        with pytest.raises(ParameterError):
            Instance(("x", "y"), 3,
                     (SoftConstraint(("x", "y"), IntervalFunction(1, 4, 1)),))

    def test_unhashable_variable_names_raise(self):
        with pytest.raises(ParameterError, match="hashable"):
            Instance([["a"]], 2, ())

    def test_constraints_must_be_soft_constraints(self):
        with pytest.raises(ParameterError, match="constraint 0 is a NoneType"):
            Instance(("a",), 2, [None])
        with pytest.raises(ParameterError, match="constraint 1 is a tuple"):
            Instance(("a",), 2, [SoftConstraint(("a",), unary([0, 1])),
                                 (("a",), unary([0, 1]))])

    def test_copy_and_pickle(self):
        inst = Instance(("a", "b"), 2, (
            SoftConstraint(("a",), unary([0, None])),
            SoftConstraint(("a", "b"), table([[1, None], [0, "1/2"]])),
            SoftConstraint(("b", "a"), IntervalFunction(1, 2, INF)),
        ))
        for other in (copy.copy(inst), copy.deepcopy(inst),
                      pickle.loads(pickle.dumps(inst))):
            assert other == inst and hash(other) == hash(inst)

    def test_empty_instances_are_fine(self):
        assert evaluate(Instance((), 3, ()), {}) == ZERO
        assert evaluate(Instance(("x",), 3, ()), {"x": 2}) == ZERO


class TestCheckAssignment:
    def test_missing_variable(self):
        with pytest.raises(ScopeError):
            check_assignment(chain_instance(), {"x": 1, "y": 1})

    def test_out_of_range_value(self):
        inst = chain_instance()
        for d in bad_values(4) + (1.0,):
            with pytest.raises(DomainError, match="z = "):
                check_assignment(inst, {"x": 1, "y": 1, "z": d})
            with pytest.raises(DomainError):
                evaluate(inst, {"x": d, "y": 1, "z": 1})
        # and on a table-only instance, whose tables read the values
        tables = Instance(("a",), 2, (SoftConstraint(("a",), unary([3, 0])),))
        for d in bad_values(2):
            with pytest.raises(DomainError):
                evaluate(tables, {"a": d})

    def test_extra_keys_are_ignored(self):
        check_assignment(chain_instance(), {"x": 1, "y": 1, "z": 1, "w": 9})


class TestEvaluate:
    def test_chain_values(self):
        inst = chain_instance()
        assert evaluate(inst, {"x": 4, "y": 4, "z": 1}) == as_evaluation(5)
        # z = 2 lands inside the infinite diagonal interval
        assert evaluate(inst, {"x": 1, "y": 3, "z": 2}) == INF
        assert evaluate(inst, {"x": 1, "y": 1, "z": 1}) == as_evaluation(7)
        assert evaluate(inst, {"x": 1, "y": 2, "z": 5 - 4}) == as_evaluation(7)

    def test_every_function_kind_contributes(self):
        inst = Instance(("a", "b"), 2, (
            SoftConstraint(("a",), unary([1, 0])),
            SoftConstraint(("a", "b"), table([[0, "1/2"], [3, 0]])),
            SoftConstraint(("b", "a"), IntervalFunction(2, 1, 4)),
            SoftConstraint(("b", "b"), table([[0, 9], [9, 5]])),
        ))
        # a=1: unary 1; table(1,2) = 1/2; interval(b=2, a=1) charges 4;
        # repeated scope reads the diagonal: table(2,2) = 5.
        assert evaluate(inst, {"a": 1, "b": 2}) == as_evaluation("21/2")

    def test_additive_over_constraints(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = random_mixed_instance(rng)
            t = {v: rng.randint(1, inst.domain_size) for v in inst.variables}
            total = ZERO
            for c in inst.constraints:
                part = evaluate(
                    Instance(inst.variables, inst.domain_size, (c,)), t)
                total = total + part
            assert evaluate(inst, t) == total


def test_parse_produces_equal_instance(chain_text):
    assert evaluate(parse_instance(chain_text), {"x": 4, "y": 4, "z": 1}) \
        == as_evaluation(5)
