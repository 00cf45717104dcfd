"""Shared generators and table builders for the test suite.

Random submodular tables are built constructively, as sums of interval
terms with random rectangles and penalties, so they are submodular by
construction and the decomposition round trip has a known-good input.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from fractions import Fraction

from scsp import (INF, PATTERNS, SINK, SOURCE, BinaryTable, Instance,
                  IntervalFunction, SoftConstraint, UnaryTable, as_evaluation)


def table(rows) -> BinaryTable:
    """BinaryTable from ints, strings, Fractions, or None (= infinity)."""
    return BinaryTable([[INF if v is None else as_evaluation(v) for v in row]
                        for row in rows])


def unary(values) -> UnaryTable:
    return UnaryTable([INF if v is None else as_evaluation(v) for v in values])


def bad_values(m: int) -> tuple:
    """Values that no domain 1..m holds: each must raise DomainError."""
    return (True, 1.5, "1", 0, m + 1)


def random_submodular_table(rng: random.Random, m: int, max_terms: int = 6,
                            inf_share: float = 0.15) -> BinaryTable:
    """Sum of random interval terms; submodular by construction."""
    grid = [[Fraction(0)] * m for _ in range(m)]
    inf_mask = [[False] * m for _ in range(m)]
    for _ in range(rng.randint(1, max_terms)):
        pattern = rng.choice(PATTERNS)
        a, b = rng.randint(1, m), rng.randint(1, m)
        if pattern in ("xx", "yy") and a > b:
            continue  # empty diagonal interval adds nothing
        infinite = rng.random() < inf_share
        rho = None if infinite else Fraction(rng.randint(1, 12),
                                             rng.choice((1, 2, 3)))
        if pattern == "xy":
            rows, cols = range(a - 1, m), range(0, b)
        elif pattern == "yx":
            rows, cols = range(0, b), range(a - 1, m)
        elif pattern == "xx":
            rows, cols = range(a - 1, b), range(0, m)
        else:
            rows, cols = range(0, m), range(a - 1, b)
        for i in rows:
            for j in cols:
                if infinite:
                    inf_mask[i][j] = True
                else:
                    grid[i][j] += rho
    return BinaryTable([[INF if inf_mask[i][j] else as_evaluation(grid[i][j])
                         for j in range(m)] for i in range(m)])


def random_unary_table(rng: random.Random, m: int,
                       inf_share: float = 0.1) -> UnaryTable:
    return UnaryTable([INF if rng.random() < inf_share
                       else as_evaluation(Fraction(rng.randint(0, 9),
                                                   rng.choice((1, 2))))
                       for _ in range(m)])


def random_mixed_instance(rng: random.Random, max_vars: int = 5,
                          max_domain: int = 4) -> Instance:
    """Unary tables, submodular binary tables (some with a repeated scope),
    and raw interval constraints, over a small variable set."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_domain)
    names = tuple(f"x{i}" for i in range(n))
    constraints = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.3 or n == 1:
            constraints.append(SoftConstraint(
                (rng.choice(names),), random_unary_table(rng, m)))
        elif kind < 0.55:
            v, w = rng.sample(names, 2)
            constraints.append(SoftConstraint(
                (v, w), random_submodular_table(rng, m)))
        elif kind < 0.7:
            v = rng.choice(names)
            constraints.append(SoftConstraint(
                (v, v), random_submodular_table(rng, m)))
        else:
            v, w = rng.sample(names, 2)
            rho = INF if rng.random() < 0.15 else as_evaluation(rng.randint(0, 8))
            constraints.append(SoftConstraint(
                (v, w), IntervalFunction(rng.randint(1, m), rng.randint(1, m),
                                         rho)))
    return Instance(names, m, tuple(constraints))


def random_gi_instance(rng: random.Random, max_vars: int = 6,
                       max_domain: int = 5) -> Instance:
    """Instance whose constraints are all interval functions."""
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_domain)
    names = tuple(f"x{i}" for i in range(n))
    constraints = []
    for _ in range(rng.randint(1, 8)):
        v, w = rng.sample(names, 2)
        rho = INF if rng.random() < 0.2 else as_evaluation(
            Fraction(rng.randint(0, 9), rng.choice((1, 2, 4))))
        constraints.append(SoftConstraint(
            (v, w), IntervalFunction(rng.randint(1, m), rng.randint(1, m), rho)))
    return Instance(names, m, tuple(constraints))


@functools.cache
def criterion_10_instance() -> Instance:
    """Acceptance criterion 10's instance: 1000 random submodular tables on
    pairs of 200 variables over 1..16, drawn from seed 5 (optimum 762)."""
    rng = random.Random(5)
    m, n = 16, 200
    names = tuple(f"v{k}" for k in range(n))
    constraints = []
    for _ in range(1000):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        constraints.append(SoftConstraint(
            (names[i], names[j]),
            random_submodular_table(rng, m, max_terms=5, inf_share=0.08)))
    return Instance(names, m, tuple(constraints))


def random_assignment(rng: random.Random, instance: Instance):
    return {v: rng.randint(1, instance.domain_size)
            for v in instance.variables}


def perturb_entry(rng: random.Random, t: BinaryTable) -> BinaryTable:
    """Raise one entry, sometimes to infinity; usually breaks submodularity."""
    m = t.m
    i, j = rng.randrange(m), rng.randrange(m)
    rows = [list(row) for row in t.rows]
    if rng.random() < 0.2:
        rows[i][j] = INF
    else:
        rows[i][j] = rows[i][j] + as_evaluation(rng.randint(1, 10))
    return BinaryTable(rows)


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
