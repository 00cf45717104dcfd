"""Exact symmetries of the problem, checked at full size without an oracle.

Domain reversal maps each value d to M + 1 - d on every variable.  A table
is reversed on both axes, which keeps it submodular, and an interval
constraint (x_min, y_max) on (v, w) becomes (M + 1 - y_max, M + 1 - x_min)
on (w, v): it charges the reversed assignment exactly when the original
charges the original.  So the reversed instance has the same optimum, and
a reversed optimum read back through the same map is an optimum of the
original.  The reversed network routes other term patterns onto other arcs
and pairs other antiparallel edges, so the relation cross-checks
decomposition, routing and the cut where brute force cannot reach.
"""

import random

import pytest

from helpers import (criterion_10_instance, random_gi_instance,
                     random_mixed_instance)
from scsp import (BinaryTable, Instance, IntervalFunction, SoftConstraint,
                  UnaryTable, evaluate, solve)


def reversed_instance(instance: Instance) -> Instance:
    """The instance with every domain value d read as M + 1 - d."""
    top = instance.domain_size + 1
    constraints = []
    for c in instance.constraints:
        f = c.function
        if isinstance(f, IntervalFunction):
            v, w = c.scope
            c = SoftConstraint((w, v), IntervalFunction(
                top - f.y_max, top - f.x_min, f.penalty))
        elif isinstance(f, UnaryTable):
            c = SoftConstraint(c.scope, UnaryTable(f.values[::-1]))
        else:
            c = SoftConstraint(c.scope, BinaryTable(
                [row[::-1] for row in f.rows[::-1]]))
        constraints.append(c)
    return Instance(instance.variables, instance.domain_size,
                    tuple(constraints))


def assert_reversal_keeps_the_optimum(instance: Instance):
    """Solve the instance and its reversal; return the common optimum."""
    top = instance.domain_size + 1
    original = solve(instance)
    mirrored = solve(reversed_instance(instance))
    assert mirrored.evaluation == original.evaluation
    back = {v: top - d for v, d in mirrored.assignment.items()}
    assert evaluate(instance, back) == original.evaluation
    return original.evaluation


def test_reversal_keeps_the_criterion_10_optimum():
    optimum = assert_reversal_keeps_the_optimum(criterion_10_instance())
    assert str(optimum) == "762"


@pytest.mark.parametrize("make, seed", [
    (random_gi_instance, 82), (random_mixed_instance, 83)],
    ids=["gi", "mixed"])
def test_reversal_keeps_random_optima(make, seed):
    rng = random.Random(seed)
    for _ in range(150):
        assert_reversal_keeps_the_optimum(make(rng))
