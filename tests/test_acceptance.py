"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
one pass line; a failed criterion fails its test.  Run with ``-s`` (or
read the -v listing) to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

from helpers import (criterion_10_instance, random_assignment,
                     random_gi_instance, random_mixed_instance,
                     random_submodular_table, reaches_sink_avoiding)
from scsp import (INF, FlowEdge, Instance, IntervalFunction, IntervalTerm,
                  SoftConstraint, as_evaluation, brute_force, build_network,
                  cut_from_assignment, decompose_binary, evaluate,
                  find_violation, find_violation_full, is_submodular,
                  parse_instance, product_complement, reconstruct, solve,
                  term_table, xor_gadget, xor_penalty)


def ok(n, text):
    print(f"criterion {n}: pass - {text}")


def test_criterion_01_chain_fixture(chain_text):
    start = time.perf_counter()
    inst = parse_instance(chain_text)
    sol = solve(inst)
    net = build_network(inst)
    elapsed = time.perf_counter() - start
    assert str(sol.evaluation) == "5"
    assert sol.assignment["z"] == 1
    constraint_edges = [e for e in net.edges if e.constraint_index is not None]
    assert constraint_edges == [
        FlowEdge(("x", 4), ("y", 2), as_evaluation(3), 0),
        FlowEdge(("z", 3), ("y", 3), as_evaluation(2), 1),
        FlowEdge(("y", 3), ("z", 0), as_evaluation(7), 2),
        FlowEdge(("z", 4), ("z", 1), INF, 3),
    ]
    assert len(net.nodes) == 17
    assert elapsed < 1.0
    ok(1, f"chain fixture solves to 5 with t(z)=1, 4 constraint edges, "
          f"17 nodes, {elapsed:.3f}s")


def test_criterion_02_quadratic_fixture(data_dir):
    start = time.perf_counter()
    inst = parse_instance((data_dir / "quadratic.scsp").read_text())
    sol = solve(inst)
    elapsed = time.perf_counter() - start
    assert sol.evaluation == as_evaluation(Fraction(11, 4))
    named = {"v1": 1, "v2": 1, "v3": 2, "v4": 2, "v5": 3, "v6": 3}
    assert evaluate(inst, named) == as_evaluation(Fraction(11, 4))
    assert elapsed < 1.0
    ok(2, f"quadratic fixture solves to 11/4, named assignment matches, "
          f"{elapsed:.3f}s")


def test_criterion_03_eight_term_decomposition():
    target = product_complement(3)  # (8,7,6)/(7,5,3)/(6,3,0)
    eight = (
        IntervalTerm(IntervalFunction(1, 1, 6), "xx"),
        IntervalTerm(IntervalFunction(2, 2, 3), "xx"),
        IntervalTerm(IntervalFunction(1, 1, 2), "yy"),
        IntervalTerm(IntervalFunction(2, 2, 1), "yy"),
        IntervalTerm(IntervalFunction(2, 2, 1), "xy"),
        IntervalTerm(IntervalFunction(3, 2, 1), "xy"),
        IntervalTerm(IntervalFunction(2, 1, 1), "xy"),
        IntervalTerm(IntervalFunction(3, 1, 1), "xy"),
    )
    assert reconstruct(eight, 3) == target
    # the library's own decomposition may pick different terms but must
    # reconstruct the same table
    assert reconstruct(decompose_binary(target).terms, 3) == target
    ok(3, "hard-coded eight-term sum and decompose_binary both rebuild "
          "9 - xy over 1..3")


def general_terms(m):
    """9 - xy generalized: diagonal weights m*(m-d) on x, m-d on y, and a
    unit rectangle grid."""
    terms = []
    for d in range(1, m):
        terms.append(IntervalTerm(IntervalFunction(d, d, m * (m - d)), "xx"))
        terms.append(IntervalTerm(IntervalFunction(d, d, m - d), "yy"))
        for e in range(1, m):
            terms.append(IntervalTerm(IntervalFunction(d + 1, e, 1), "xy"))
    return tuple(terms)


def symmetric_terms(m):
    """The symmetric split: half-weight diagonals plus mirrored rectangles."""
    terms = []
    for pattern_diag, pattern_rect in (("xx", "xy"), ("yy", "yx")):
        for d in range(1, m):
            terms.append(IntervalTerm(
                IntervalFunction(d, d, Fraction(m * m - d * d, 2)),
                pattern_diag))
            terms.append(IntervalTerm(
                IntervalFunction(d + 1, d, Fraction(1, 2)), pattern_rect))
            for e in range(1, d):
                terms.append(IntervalTerm(
                    IntervalFunction(d + 1, e, 1), pattern_rect))
    return tuple(terms)


def test_criterion_04_general_formula_identity():
    for m in range(2, 7):
        target = product_complement(m)
        assert reconstruct(general_terms(m), m) == target
        assert reconstruct(symmetric_terms(m), m) == target
    ok(4, "general and symmetric term formulas rebuild M*M - xy for "
          "M in 2..6")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(501)
    start = time.perf_counter()
    for _ in range(200):
        inst = random_mixed_instance(rng, max_vars=5, max_domain=4)
        assert solve(inst).evaluation == brute_force(inst).evaluation
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(5, f"200 random mixed instances agree with the exhaustive oracle, "
          f"{elapsed:.1f}s")


def test_criterion_06_decomposition_round_trip():
    rng = random.Random(601)
    start = time.perf_counter()
    saw_interior_inf = False
    for _ in range(500):
        m = rng.randint(1, 8)
        t = random_submodular_table(rng, m, inf_share=0.2)
        saw_interior_inf = saw_interior_inf or any(
            t.value_at(i, j).is_infinite
            for i in range(2, m) for j in range(2, m))
        d = decompose_binary(t)
        assert reconstruct(d.terms, m) == t
        assert len(d.terms) <= 2 * m * (m + 1)
        for term in d.terms:
            assert is_submodular(term_table(term, m))
    elapsed = time.perf_counter() - start
    assert saw_interior_inf
    assert elapsed < 60.0
    ok(6, f"500 random tables round trip with submodular terms within the "
          f"2M(M+1) bound, {elapsed:.1f}s")


def test_criterion_07_check_equivalence():
    rng = random.Random(701)
    agreements = 0
    for _ in range(500):
        m = rng.randint(1, 8)
        t = random_submodular_table(rng, m)
        if rng.random() < 0.5:
            i, j = rng.randrange(m), rng.randrange(m)
            rows = [list(row) for row in t.rows]
            rows[i][j] = INF if rng.random() < 0.2 else \
                rows[i][j] + as_evaluation(rng.randint(1, 9))
            from scsp import BinaryTable
            t = BinaryTable(rows)
        assert (find_violation(t) is None) == (find_violation_full(t) is None)
        agreements += 1
    assert agreements == 500
    ok(7, "fast submodularity check matches the full-quadruple reference "
          "on 500 tables")


def test_criterion_08_assignment_cuts():
    rng = random.Random(801)
    for _ in range(100):
        inst = random_gi_instance(rng)
        net = build_network(inst)
        assignment = random_assignment(rng, inst)
        cut = cut_from_assignment(net, assignment)
        assert not reaches_sink_avoiding(net, cut.cut_edges)
        assert cut.value == evaluate(inst, assignment)
    ok(8, "100 random assignment cuts disconnect the network at exactly "
          "the assignment's evaluation")


def test_criterion_09_xor_gadget():
    r = xor_gadget(xor_penalty(), epsilon=1)
    assert str(r.lam) == "1" and str(r.mu) == "1"
    base = xor_penalty().value_at(r.a, r.d) + xor_penalty().value_at(r.b, r.c)
    assert base.is_zero
    assert base < r.lam + r.mu  # 0 < 2
    assert not (r.lam + r.mu).is_infinite  # 2 < inf
    assert is_submodular(r.zeta) and is_submodular(r.phi)
    # independent projection: wire the six constraints explicitly and
    # minimize out the four inner variables by brute force
    m = 2
    inner = Instance(("x", "t", "v", "y", "u", "w"), m, (
        SoftConstraint(("x", "t"), r.zeta),
        SoftConstraint(("t", "v"), xor_penalty()),
        SoftConstraint(("v", "y"), r.phi),
        SoftConstraint(("y", "u"), r.zeta),
        SoftConstraint(("u", "w"), xor_penalty()),
        SoftConstraint(("w", "x"), r.phi),
    ))
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            best = INF
            for t, v, u, w in itertools.product(range(1, m + 1), repeat=4):
                value = evaluate(inner, {"x": x, "y": y, "t": t, "v": v,
                                         "u": u, "w": w})
                best = min(best, value)
            assert best == r.chi.value_at(x, y)
    assert r.projection == r.chi and r.verified
    ok(9, "xor gadget prices lam = mu = 1 with 0 < 2 < inf and projects "
          "exactly to chi")


def test_criterion_10_scale():
    inst = criterion_10_instance()
    start = time.perf_counter()
    sol = solve(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(sol.network.nodes) == 200 * 17 + 2 == 3402
    assert str(sol.evaluation) == "762"  # frozen from this generator
    assert evaluate(inst, sol.assignment) == sol.evaluation
    ok(10, f"200 variables x 1000 constraints over 1..16 solve in "
           f"{elapsed:.1f}s with 3402 nodes")
