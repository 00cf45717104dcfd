"""Exact symmetries of the problem, checked at full size without an oracle.

Scaling every penalty by a rational c > 0 scales every assignment's
evaluation, so the optimum, by c.  A c with a new prime in its denominator
changes each table's integer scale in the decomposition and the network's
scale in the cut, so the relation checks that both are applied and undone
exactly.

Transposing a table constraint, (v, w) with table t read as (w, v) with
its transpose, charges every assignment the same; the decomposition of
the transpose runs its row and column halves the other way round and
emits other patterns, so the optimum is a check on them.

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
from fractions import Fraction

import pytest

from helpers import (criterion_10_instance, random_gi_instance,
                     random_mixed_instance)
from scsp import (BinaryTable, Evaluation, Instance, IntervalFunction,
                  SoftConstraint, UnaryTable, evaluate, solve)


def rebuilt(instance: Instance, constraint) -> Instance:
    """The instance with each constraint replaced by ``constraint(c)``."""
    return Instance(instance.variables, instance.domain_size,
                    tuple(map(constraint, instance.constraints)))


def scaled_instance(instance: Instance, c: Fraction) -> Instance:
    """The instance with every penalty multiplied by c."""
    times = {}  # one product per distinct penalty

    def scale(e):
        if e not in times:
            times[e] = e if e.is_infinite else Evaluation(e.fraction * c)
        return times[e]

    def constraint(con):
        f = con.function
        if isinstance(f, IntervalFunction):
            f = IntervalFunction(f.x_min, f.y_max, scale(f.penalty))
        elif isinstance(f, UnaryTable):
            f = UnaryTable(map(scale, f.values))
        else:
            f = BinaryTable([map(scale, row) for row in f.rows])
        return SoftConstraint(con.scope, f)
    return rebuilt(instance, constraint)


def transposed_instance(instance: Instance) -> Instance:
    """The instance with each table constraint on (v, w) written on (w, v)
    with the transposed table."""
    def constraint(con):
        if not isinstance(con.function, BinaryTable):
            return con
        v, w = con.scope
        return SoftConstraint((w, v), BinaryTable(zip(*con.function.rows)))
    return rebuilt(instance, constraint)


def assert_scaled_optimum(instance: Instance, c: Fraction, optimum):
    """Solve the instance scaled by c; its optimum must be c * optimum."""
    scaled = solve(scaled_instance(instance, c)).evaluation
    if optimum.is_infinite:
        assert scaled.is_infinite
    else:
        assert scaled == Evaluation(optimum.fraction * c)


def assert_transposed_optimum(instance: Instance, optimum):
    """Solve the transposed instance; its optimum must be ``optimum``, and
    its optimal assignment must cost as much in the original."""
    transposed = solve(transposed_instance(instance))
    assert transposed.evaluation == optimum
    assert evaluate(instance, transposed.assignment) == optimum


# new primes in the denominator and in the numerator
C = (Fraction(7, 11), Fraction(13, 3))


def test_scaling_scales_the_criterion_10_optimum():
    assert_scaled_optimum(criterion_10_instance(), C[0], Evaluation(762))


def test_transposition_keeps_the_criterion_10_optimum():
    assert_transposed_optimum(criterion_10_instance(), Evaluation(762))


@pytest.mark.parametrize("make, seed", [
    (random_gi_instance, 84), (random_mixed_instance, 85)],
    ids=["gi", "mixed"])
def test_scaling_scales_random_optima(make, seed):
    rng = random.Random(seed)
    for _ in range(100):
        instance = make(rng)
        optimum = solve(instance).evaluation
        for c in C:
            assert_scaled_optimum(instance, c, optimum)


def test_transposition_keeps_random_optima():
    rng = random.Random(86)
    for _ in range(150):
        instance = random_mixed_instance(rng)
        assert_transposed_optimum(instance, solve(instance).evaluation)


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
