import itertools
import random
from fractions import Fraction

import pytest

from scsp import (INF, Decomposition, DomainError,
                  IntervalFunction, IntervalTerm, NotSubmodular,
                  ParameterError, SubmodularityWitness, TooLarge, abs_diff,
                  arith_relation, as_evaluation, decompose_binary,
                  decompose_unary, delay, equality_penalty,
                  find_kary_violation, find_violation, find_violation_full,
                  is_submodular, product_complement, reconstruct,
                  strip_inconsistent, strip_penalized, term_table,
                  tightness, xor_penalty)
from helpers import (kary_dict, perturb_entry, random_submodular_table, table,
                     unary)
from scsp.errors import DecompositionError
from scsp.submodular import _peel


def quadruple_holds(t, w):
    left = t.value_at(w.u, w.v) + t.value_at(w.x, w.y)
    right = t.value_at(w.u, w.y) + t.value_at(w.x, w.v)
    return left <= right


class TestViolationSearch:
    def test_xor_witness(self):
        assert find_violation(xor_penalty()) == SubmodularityWitness(1, 1, 2, 2)
        assert find_violation_full(xor_penalty()) == \
            SubmodularityWitness(1, 1, 2, 2)

    def test_equality_penalty_witness(self):
        # (1,2) and (2,3) both cost 1 while (1,3) costs 1 and (2,2) is free.
        assert find_violation(equality_penalty(3)) == \
            SubmodularityWitness(1, 2, 2, 3)
        assert is_submodular(equality_penalty(2))

    def test_submodular_tables_pass(self):
        for t in (abs_diff(4), delay(4), product_complement(4),
                  table([[0]]), table([[None, None], [None, None]])):
            assert find_violation(t) is None
            assert find_violation_full(t) is None

    def test_full_witness_is_lexicographically_first(self):
        rng = random.Random(321)
        hits = 0
        for _ in range(120):
            m = rng.randint(2, 6)
            t = perturb_entry(rng, random_submodular_table(rng, m))
            w = find_violation_full(t)
            if w is None:
                continue
            hits += 1
            assert not quadruple_holds(t, w)
            all_violations = [
                SubmodularityWitness(u, v, x, y)
                for u in range(1, m + 1) for v in range(1, m + 1)
                for x in range(u + 1, m + 1) for y in range(v + 1, m + 1)
                if not quadruple_holds(t, SubmodularityWitness(u, v, x, y))]
            assert w == min(all_violations)
            # the fast scan must agree and return a genuine violation
            wf = find_violation(t)
            assert wf is not None
            assert wf.u < wf.x and wf.v < wf.y
            assert not quadruple_holds(t, wf)
        assert hits > 30

    def test_fast_witness_is_adjacent_first_on_finite_tables(self):
        rng = random.Random(322)
        hits = 0
        for _ in range(100):
            m = rng.randint(2, 6)
            t = perturb_entry(rng, random_submodular_table(rng, m,
                                                           inf_share=0.0))
            if any(t.value_at(x, y).is_infinite
                   for x in range(1, m + 1) for y in range(1, m + 1)):
                continue
            w = find_violation(t)
            if w is None:
                continue
            hits += 1
            assert (w.x, w.y) == (w.u + 1, w.v + 1)
            earlier = [
                SubmodularityWitness(u, v, u + 1, v + 1)
                for u in range(1, m) for v in range(1, m)
                if not quadruple_holds(t, SubmodularityWitness(u, v,
                                                               u + 1, v + 1))]
            assert w == min(earlier)
        assert hits > 30

    def test_fast_agrees_with_full(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 6)
            t = random_submodular_table(rng, m)
            if rng.random() < 0.5:
                t = perturb_entry(rng, t)
            assert (find_violation(t) is None) == (find_violation_full(t) is None)

    def test_violation_hidden_behind_infinite_rows(self):
        # the middle all-infinite rows satisfy every adjacent quadruple
        # trivially, yet rows 1 and 4 together violate the inequality
        t = table([[4, 2, 2, 2],
                   [None, None, None, None],
                   [None, None, None, None],
                   [15, 15, 3, 3]])
        w = find_violation(t)
        assert w is not None and not quadruple_holds(t, w)
        wf = find_violation_full(t)
        assert wf == SubmodularityWitness(1, 1, 4, 2)
        assert not quadruple_holds(t, wf)

    def test_violation_from_infinite_staircase(self):
        # no adjacent quadruple has a finite greater side, but the corner
        # infinities beat the finite anti-diagonal
        t = table([[None, None, 0], [5, None, None], [0, 5, None]])
        w = find_violation(t)
        assert w is not None and not quadruple_holds(t, w)
        assert find_violation_full(t) is not None

    def test_greater_side_infinity_is_never_exceeded(self):
        # inf on the greater side of the inequality cannot be beaten, even
        # by inf on the lesser side: inf > inf is false.
        t = table([[None, None], [None, None]])
        assert is_submodular(t)
        t2 = table([[3, None], [None, 5]])
        assert is_submodular(t2)
        # flipped onto the other diagonal the infinities are on the lesser
        # side, which does exceed the finite 3 + 5
        assert find_violation(table([[None, 3], [5, None]])) == \
            SubmodularityWitness(1, 1, 2, 2)


class TestKaryCheck:
    def test_unary_is_always_submodular(self):
        assert find_kary_violation({(1,): 5, (2,): 0, (3,): 7}, 3, 1) is None

    def test_binary_agrees_with_table_check(self):
        rng = random.Random(55)
        for _ in range(60):
            m = rng.randint(1, 4)
            t = random_submodular_table(rng, m)
            if rng.random() < 0.5:
                t = perturb_entry(rng, t)
            pair = find_kary_violation(kary_dict(t), m, 2)
            assert (pair is None) == (find_violation_full(t) is None)
            if pair is not None:
                a, b = pair
                lo = tuple(map(min, a, b))
                hi = tuple(map(max, a, b))
                assert kary_dict(t)[lo] + kary_dict(t)[hi] > \
                    kary_dict(t)[a] + kary_dict(t)[b]

    def test_ternary_example(self):
        values = {t: 0 for t in itertools.product((1, 2), repeat=3)}
        values[(1, 1, 1)] = 1
        values[(2, 2, 2)] = 1
        pair = find_kary_violation(values, 2, 3)
        # independent enumeration of every violating pair, lex order
        def violates(a, b):
            lo = tuple(map(min, a, b))
            hi = tuple(map(max, a, b))
            if lo == a or lo == b:
                return False
            return values[lo] + values[hi] > values[a] + values[b]
        tuples = sorted(itertools.product((1, 2), repeat=3))
        expected = min((a, b) for a in tuples for b in tuples if violates(a, b))
        assert pair == expected == ((1, 1, 2), (1, 2, 1))

    def test_parameter_checks(self):
        for k in (True, 1.0, 4, 0):
            with pytest.raises(ParameterError):
                find_kary_violation({(1,): 0, (2,): 0}, 2, k)
        with pytest.raises(ParameterError):
            find_kary_violation({}, 0, 2)
        with pytest.raises(TooLarge):
            find_kary_violation({}, 101, 3)
        with pytest.raises(ParameterError):
            find_kary_violation({(1,): 0}, 2, 1)  # (2,) missing


class TestTightness:
    def test_counts(self):
        assert tightness(table([[0, 0], [0, 0]])) == 0
        assert tightness(product_complement(3)) == 8
        assert tightness(table([[None, None], [None, None]])) == 4
        assert tightness(unary([0, "1/2", None])) == 2


class TestTermsAndReconstruct:
    def test_pattern_validation(self):
        with pytest.raises(ParameterError):
            IntervalTerm(IntervalFunction(1, 1, 1), "xz")

    def test_term_table_patterns(self):
        f = IntervalFunction(2, 1, 5)
        assert term_table(IntervalTerm(f, "xy"), 2) == \
            table([[0, 0], [5, 0]])
        assert term_table(IntervalTerm(f, "yx"), 2) == \
            table([[0, 5], [0, 0]])
        assert term_table(IntervalTerm(f, "xx"), 2) == \
            table([[0, 0], [0, 0]])  # empty diagonal interval
        g = IntervalFunction(1, 1, 5)
        assert term_table(IntervalTerm(g, "xx"), 2) == \
            table([[5, 5], [0, 0]])
        assert term_table(IntervalTerm(g, "yy"), 2) == \
            table([[5, 0], [5, 0]])

    def test_reconstruct_empty(self):
        assert reconstruct((), 3) == table([[0] * 3] * 3)

    def test_reconstruct_bounds_check(self):
        t = IntervalTerm(IntervalFunction(1, 4, 1), "xy")
        with pytest.raises(DomainError):
            reconstruct((t,), 3)

    def test_known_eight_term_sum(self):
        # the stock dense example: 9 - xy over 1..3 as eight terms
        terms = (
            IntervalTerm(IntervalFunction(1, 1, 6), "xx"),
            IntervalTerm(IntervalFunction(2, 2, 3), "xx"),
            IntervalTerm(IntervalFunction(1, 1, 2), "yy"),
            IntervalTerm(IntervalFunction(2, 2, 1), "yy"),
            IntervalTerm(IntervalFunction(2, 2, 1), "xy"),
            IntervalTerm(IntervalFunction(3, 2, 1), "xy"),
            IntervalTerm(IntervalFunction(2, 1, 1), "xy"),
            IntervalTerm(IntervalFunction(3, 1, 1), "xy"),
        )
        assert reconstruct(terms, 3) == product_complement(3)


class TestStripInconsistent:
    def test_infinite_row_is_replaced_by_neighbour(self):
        t = table([[None, None], [0, 1]])
        terms, residual = strip_inconsistent(t)
        assert [(term.pattern, term.interval.x_min, term.interval.y_max)
                for term in terms] == [("xx", 1, 1)]
        assert terms[0].interval.penalty == INF
        assert residual == table([[0, 1], [0, 1]])

    def test_infinite_column_gets_yy_term(self):
        t = table([[0, None], [1, None]])
        terms, residual = strip_inconsistent(t)
        assert [(term.pattern, term.interval.x_min) for term in terms] == \
            [("yy", 2)]
        assert residual == table([[0, 0], [1, 1]])

    def test_all_infinite_table(self):
        terms, residual = strip_inconsistent(table([[None, None],
                                                    [None, None]]))
        assert len(terms) == 1
        term = terms[0]
        assert term.pattern == "xy"
        assert (term.interval.x_min, term.interval.y_max) == (1, 2)
        assert term.interval.penalty == INF
        assert residual == table([[0, 0], [0, 0]])

    def test_no_op_without_infinite_lines(self):
        t = table([[0, None], [0, 0]])  # inf entry but no full line
        terms, residual = strip_inconsistent(t)
        assert terms == ()
        assert residual == t

    def test_sum_property_on_random_tables(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(150):
            m = rng.randint(1, 6)
            t = random_submodular_table(rng, m, inf_share=0.35)
            terms, residual = strip_inconsistent(t)
            assert reconstruct(terms, m) + residual == t
            assert is_submodular(residual)
            for i in range(1, m + 1):
                assert any(not residual.value_at(i, j).is_infinite
                           for j in range(1, m + 1))
                assert any(not residual.value_at(j, i).is_infinite
                           for j in range(1, m + 1))
            checked += bool(terms)
        assert checked > 20

    def test_requires_submodular_input(self):
        with pytest.raises(NotSubmodular):
            strip_inconsistent(xor_penalty())


class TestStripPenalized:
    def test_constant_table(self):
        terms, residual = strip_penalized(table([[5, 5], [5, 5]]))
        assert [(term.pattern, term.interval.x_min,
                 str(term.interval.penalty)) for term in terms] == \
            [("xx", 1, "5"), ("xx", 2, "5")]
        assert residual == table([[0, 0], [0, 0]])

    def test_no_op_when_zeros_everywhere(self):
        t = table([[0, 1], [1, 0]])
        terms, residual = strip_penalized(t)
        assert terms == ()
        assert residual == t

    def test_dense_example_minima(self):
        terms, residual = strip_penalized(product_complement(3))
        assert sorted((term.pattern, term.interval.x_min,
                       str(term.interval.penalty)) for term in terms) == \
            [("xx", 1, "6"), ("xx", 2, "3"), ("yy", 1, "2"), ("yy", 2, "1")]
        assert residual == table([[0, 0, 0], [2, 1, 0], [4, 2, 0]])
        for i in range(1, 4):
            assert any(residual.value_at(i, j).is_zero for j in range(1, 4))
            assert any(residual.value_at(j, i).is_zero for j in range(1, 4))

    def test_sum_property_on_random_tables(self):
        rng = random.Random(14)
        for _ in range(150):
            m = rng.randint(1, 6)
            t = random_submodular_table(rng, m)
            no_inf_lines, partial = strip_inconsistent(t)
            terms, residual = strip_penalized(partial)
            assert reconstruct(terms, m) + residual == partial
            assert is_submodular(residual)
            for i in range(1, m + 1):
                assert any(residual.value_at(i, j).is_zero
                           for j in range(1, m + 1))
                assert any(residual.value_at(j, i).is_zero
                           for j in range(1, m + 1))


class TestDecomposeUnary:
    def test_examples(self):
        terms = decompose_unary(unary([6, 3, 0]))
        assert [(term.interval.x_min, term.interval.y_max,
                 str(term.interval.penalty)) for term in terms] == \
            [(1, 1, "6"), (2, 2, "3")]
        assert all(term.pattern == "xx" for term in terms)
        assert decompose_unary(unary([0, 0])) == ()
        quarter = decompose_unary(unary([Fraction(1, 4), Fraction(9, 4),
                                         Fraction(25, 4)]))
        assert [str(term.interval.penalty) for term in quarter] == \
            ["1/4", "9/4", "25/4"]

    def test_reconstructs_on_diagonal(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(1, 6)
            values = [INF if rng.random() < 0.2 else
                      as_evaluation(rng.randint(0, 9)) for _ in range(m)]
            u = unary(values)
            t = reconstruct(decompose_unary(u), m)
            for d in range(1, m + 1):
                assert t.value_at(d, d) == u.value_at(d)


class TestDecomposeBinary:
    def test_not_submodular_is_rejected(self):
        with pytest.raises(NotSubmodular) as err:
            decompose_binary(xor_penalty())
        assert err.value.witness == SubmodularityWitness(1, 1, 2, 2)
        assert "u=1" in str(err.value)

    def test_all_zero_gives_empty_decomposition(self):
        d = decompose_binary(table([[0, 0], [0, 0]]))
        assert d.terms == ()
        assert isinstance(d, Decomposition) and d.m == 2

    def test_dense_example_round_trip(self):
        d = decompose_binary(product_complement(3))
        assert reconstruct(d.terms, 3) == product_complement(3)

    def test_squared_difference_round_trip(self):
        d = decompose_binary(abs_diff(3, 2))
        assert reconstruct(d.terms, 3) == abs_diff(3, 2)
        # one row-pass and one column-pass triple, by symmetry
        got = sorted((term.pattern, term.interval.x_min, term.interval.y_max,
                      str(term.interval.penalty)) for term in d.terms)
        assert got == [("xy", 2, 1, "1"), ("xy", 3, 1, "2"), ("xy", 3, 2, "1"),
                       ("yx", 2, 1, "1"), ("yx", 3, 1, "2"), ("yx", 3, 2, "1")]

    def test_single_cell_tables(self):
        assert decompose_binary(table([[0]])).terms == ()
        d = decompose_binary(table([[7]]))
        assert reconstruct(d.terms, 1) == table([[7]])
        d_inf = decompose_binary(table([[None]]))
        assert reconstruct(d_inf.terms, 1) == table([[None]])

    def test_interior_infinity_round_trip(self):
        # delay keeps an infinite upper triangle after preprocessing
        for m in (2, 3, 5):
            t = delay(m, 2)
            assert reconstruct(decompose_binary(t).terms, m) == t

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(200):
            m = rng.randint(1, 8)
            t = random_submodular_table(rng, m)
            d = decompose_binary(t)
            assert reconstruct(d.terms, m) == t
            assert len(d.terms) <= 2 * m * (m + 1)

    def test_emitted_terms_are_submodular(self):
        rng = random.Random(78)
        for _ in range(40):
            m = rng.randint(1, 6)
            d = decompose_binary(random_submodular_table(rng, m))
            for term in d.terms:
                tab = term_table(term, m)
                assert is_submodular(tab)
                assert find_kary_violation(kary_dict(tab), m, 2) is None

    @pytest.mark.parametrize("t, expected", [
        (product_complement(3), [
            ("xx", 1, 1, "6"), ("xx", 2, 2, "3"),
            ("yy", 1, 1, "2"), ("yy", 2, 2, "1"),
            ("xy", 2, 2, "1"), ("xy", 3, 2, "1"),
            ("xy", 2, 1, "1"), ("xy", 3, 1, "1"),
        ]),
        (delay(4, 2), [
            ("yx", 4, 3, "inf"), ("yx", 3, 2, "inf"), ("yx", 2, 1, "inf"),
            ("xy", 4, 3, "1"), ("xy", 3, 2, "1"), ("xy", 4, 2, "2"),
            ("xy", 2, 1, "1"), ("xy", 3, 1, "2"), ("xy", 4, 1, "2"),
        ]),
        # row 2 and column 2 are all infinite
        (table([[0, None, 1, 2],
                [None, None, None, None],
                [None, None, 0, 1],
                [None, None, None, 0]]), [
            ("xx", 2, 2, "inf"), ("yy", 2, 2, "inf"),
            ("yx", 4, 3, "1"), ("yx", 3, 2, "1"),
            ("xy", 4, 3, "inf"), ("xy", 3, 2, "inf"),
        ]),
        # rows 1, 2 and 4 are all infinite: the block above row 3 is filled
        # bottom-up, then row 4 from the row above
        (table([[None] * 4, [None] * 4, [0, 1, 2, None], [None] * 4]), [
            ("xx", 2, 2, "inf"), ("xx", 1, 1, "inf"), ("xx", 4, 4, "inf"),
            ("yy", 4, 4, "inf"), ("yy", 2, 2, "1"), ("yy", 3, 3, "2"),
            ("yy", 4, 4, "2"),
        ]),
    ], ids=["product_complement", "delay", "infinite_row_and_column",
            "infinite_row_blocks"])
    def test_emitted_term_order(self, t, expected):
        got = [(term.pattern, term.interval.x_min, term.interval.y_max,
                str(term.interval.penalty))
               for term in decompose_binary(t).terms]
        assert got == expected

    @pytest.mark.parametrize("build", [
        lambda m: delay(m), lambda m: delay(m, 2),
        lambda m: arith_relation(m, "leq", 1, 1),
        lambda m: arith_relation(m, "geq", 1, 1),
    ], ids=["delay", "delay_squared", "leq", "geq"])
    def test_infinite_staircase_costs_one_term_per_step(self, build):
        for m in range(1, 13):
            t = build(m)
            terms = decompose_binary(t).terms
            assert sum(term.interval.penalty == INF for term in terms) == m - 1
            assert reconstruct(terms, m) == t

    def test_finite_cell_under_an_infinite_term(self):
        # Not submodular, so only a direct call reaches the peel: the
        # infinite term anchored at (2, 2) would also cover the finite 5.
        grid = [[Fraction(0), Fraction(5)], [Fraction(0), None]]
        with pytest.raises(DecompositionError, match="finite cell"):
            _peel(grid, 2, [])

    def test_remaining_terms_sum_to_submodular_tables(self):
        # After each emitted term, the residual left to decompose is the
        # sum of the terms still to come; every such suffix sum must stay
        # submodular, down to the empty one.
        rng = random.Random(79)
        for _ in range(25):
            m = rng.randint(2, 5)
            t = random_submodular_table(rng, m, inf_share=0.25)
            terms = decompose_binary(t).terms
            assert reconstruct(terms, m) == t
            for k in range(len(terms) + 1):
                assert is_submodular(reconstruct(terms[k:], m))


def test_zero_anchored_column_bound():
    # For a submodular table with a zero somewhere in column b, no row can
    # prefer b to both of its flanking columns a <= b <= c.
    rng = random.Random(80)
    for _ in range(60):
        m = rng.randint(2, 6)
        t = random_submodular_table(rng, m)
        for b in range(1, m + 1):
            if not any(t.value_at(e, b).is_zero for e in range(1, m + 1)):
                continue
            for a in range(1, b + 1):
                for c in range(b, m + 1):
                    for x in range(1, m + 1):
                        assert t.value_at(x, b) <= max(t.value_at(x, a),
                                                       t.value_at(x, c))
