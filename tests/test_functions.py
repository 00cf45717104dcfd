import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import scsp
from scsp import (INF, ZERO, ApproximationBrokeSubmodularity, BinaryTable,
                  DomainError, Instance, IntervalFunction, ParameterError,
                  SoftConstraint, UnaryTable, abs_diff, arith_relation,
                  as_evaluation, centered_square, crisp_relation, delay,
                  equality_penalty, euclidean_rounded, evaluate, excess,
                  is_submodular, linear, product_complement, xor_penalty)
from helpers import bad_values, random_submodular_table, table, unary


class TestIntervalFunction:
    def test_charges_inside_zero_outside(self):
        f = IntervalFunction(3, 4, 3)
        assert f.value_at(2, 1) == ZERO      # x below the lower bound
        assert f.value_at(3, 5) == ZERO      # y above the upper bound
        assert f.value_at(3, 4) == as_evaluation(3)
        assert f.value_at(5, 1) == as_evaluation(3)

    def test_reversed_bounds_are_legal(self):
        # x_min > y_max gives an empty diagonal but still charges corners.
        f = IntervalFunction(4, 3, 2)
        assert f.value_at(4, 3) == as_evaluation(2)
        assert all(f.value_at(d, d) == ZERO for d in range(1, 7))

    def test_domain_checks(self):
        f = IntervalFunction(1, 1, 1)
        for x, y in ((0, 1), (1, 0), (True, 1), (1, True), (1.5, 1),
                     (1, 1.5), ("1", 1)):
            with pytest.raises(DomainError):
                f.value_at(x, y)
        # the upper bound M is the instance's: evaluate checks it first
        inst = Instance(("a", "b"), 2, (
            SoftConstraint(("a", "b"), IntervalFunction(1, 2, 1)),))
        with pytest.raises(DomainError):
            evaluate(inst, {"a": 1, "b": 3})
        with pytest.raises(ParameterError):
            IntervalFunction(0, 1, 1)
        with pytest.raises(ParameterError):
            IntervalFunction("1", 1, 1)
        with pytest.raises(ParameterError):
            IntervalFunction(True, 1, 1)


class TestTables:
    def test_unary_basics(self):
        t = unary([0, "1/2", None])
        assert t.m == 3
        assert t.value_at(1) == ZERO
        assert t.value_at(2) == as_evaluation("1/2")
        assert t.value_at(3) == INF
        for d in bad_values(3):
            with pytest.raises(DomainError):
                t.value_at(d)
        with pytest.raises(ParameterError):
            UnaryTable([])

    def test_binary_basics(self):
        t = table([[8, 7], [7, 5]])
        assert t.m == 2
        assert t.value_at(1, 2) == as_evaluation(7)
        for d in bad_values(2):
            with pytest.raises(DomainError):
                t.value_at(d, 1)
            with pytest.raises(DomainError):
                t.value_at(1, d)
        with pytest.raises(ParameterError):
            BinaryTable([[1, 2], [3]])
        with pytest.raises(ParameterError):
            BinaryTable([])

    def test_addition_is_entrywise(self):
        a = table([[1, 2], [3, None]])
        b = table([[10, 0], [0, 5]])
        assert a + b == table([[11, 2], [3, None]])
        assert unary([1, None]) + unary([2, 3]) == unary([3, None])

    def test_from_function(self):
        t = BinaryTable.from_function(2, lambda x, y: x * 10 + y)
        assert t == table([[11, 12], [21, 22]])

    def test_repr_round_readability(self):
        assert repr(table([[8, 7], [7, 5]])) == "BinaryTable(8 7 / 7 5)"

    def test_copy_and_pickle(self):
        for t in (unary([0, "1/2", None]), table([[1, None], [0, "3/4"]])):
            hash(t)  # cache the hash first
            for other in (copy.copy(t), copy.deepcopy(t),
                          pickle.loads(pickle.dumps(t))):
                assert other == t and hash(other) == hash(t)

    @pytest.mark.parametrize("make, name", [
        (lambda: unary([0, "1/2", None]), "values"),
        (lambda: unary([0, "1/2", None]), "_hash"),
        (lambda: table([[1, None], [0, "3/4"]]), "rows"),
        (lambda: table([[1, None], [0, "3/4"]]), "_hash"),
    ], ids=["unary-values", "unary-hash", "binary-rows", "binary-hash"])
    def test_immutable_once_hashed(self, make, name):
        t, fresh = make(), make()
        hash(t)  # the cached hash must not go stale
        with pytest.raises(AttributeError):
            setattr(t, name, ())
        assert t == fresh and hash(t) == hash(fresh)
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert t == fresh and hash(t) == hash(fresh)

    def test_unpickled_hash_matches_a_fresh_table(self):
        # the pickle carries the cached hash, so it must not depend on the
        # process's hash seed, as hash("inf") would: a table pickled under
        # another seed, its hash cached first, must load with this
        # process's hash
        code = ("import pickle, sys\n"
                "from scsp import INF, BinaryTable, UnaryTable\n"
                "tables = (UnaryTable([1, INF]),\n"
                "          BinaryTable([[INF, 1], [0, 2]]))\n"
                "[hash(t) for t in tables]\n"
                "sys.stdout.buffer.write(pickle.dumps(tables))\n")
        package_root = str(Path(scsp.__file__).resolve().parent.parent)
        fresh = [hash(unary([1, None])), hash(table([[None, 1], [0, 2]]))]
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=package_root)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, check=True).stdout
            assert [hash(t) for t in pickle.loads(out)] == fresh


class TestBuilders:
    def test_abs_diff(self):
        assert abs_diff(3) == table([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert abs_diff(3, 2) == table([[0, 1, 4], [1, 0, 1], [4, 1, 0]])

    def test_excess_and_delay(self):
        assert excess(3) == table([[0, 0, 0], [1, 0, 0], [2, 1, 0]])
        assert delay(3) == table([[0, None, None], [1, 0, None], [2, 1, 0]])
        assert delay(3, 2) == table([[0, None, None], [1, 0, None], [4, 1, 0]])

    def test_linear(self):
        assert linear(2, 1, 2, "1/2") == table(
            [["7/2", "11/2"], ["9/2", "13/2"]])
        for a in (-1, 0.1, "1/0", None, "inf"):
            with pytest.raises(ParameterError):
                linear(2, a, 0, 0)

    def test_product_complement(self):
        assert product_complement(3) == table(
            [[8, 7, 6], [7, 5, 3], [6, 3, 0]])

    def test_euclidean_rounded_exact_cells(self):
        t = euclidean_rounded(3)
        assert t.value_at(1, 1) == as_evaluation(1)   # sqrt(2) -> 1
        assert t.value_at(2, 2) == as_evaluation(3)   # sqrt(8) = 2.83 -> 3
        fine = euclidean_rounded(4, denom=100)
        assert fine.value_at(3, 4) == as_evaluation(5)   # 3-4-5 triangle
        assert fine.value_at(1, 1) == as_evaluation(Fraction(141, 100))
        assert fine.value_at(2, 2) == as_evaluation(Fraction(283, 100))

    def test_euclidean_rounding_matches_reference(self):
        for denom in (7, 10, 100):
            t = euclidean_rounded(5, denom)
            for x in range(1, 6):
                for y in range(1, 6):
                    # nearest integer to denom*sqrt(x^2+y^2), ties up
                    target = (x * x + y * y) * denom * denom
                    n = isqrt(target)
                    if (n + 1) ** 2 + n ** 2 <= 2 * target:
                        n += 1
                    assert t.value_at(x, y) == as_evaluation(Fraction(n, denom))

    def test_euclidean_rejects_ruinous_rounding(self):
        # Some coarse roundings break the Monge condition; the builder
        # must notice rather than hand back a bad table.
        broke = 0
        for m in range(2, 9):
            for denom in (1, 2, 3, 5, 7):
                try:
                    t = euclidean_rounded(m, denom)
                except ApproximationBrokeSubmodularity:
                    broke += 1
                else:
                    assert is_submodular(t)
        assert broke > 0

    def test_crisp_relation(self):
        leq = crisp_relation(3, 2, [(x, y) for x in (1, 2, 3)
                                    for y in (1, 2, 3) if x <= y])
        assert leq == table([[0, 0, 0], [None, 0, 0], [None, None, 0]])
        point = crisp_relation(3, 1, [2])
        assert point == unary([None, 0, None])
        for arity in (True, 1.0, 3, 0):
            with pytest.raises(ParameterError):
                crisp_relation(3, arity, [])
        for d in bad_values(3):
            with pytest.raises(DomainError):
                crisp_relation(3, 1, [d])
            with pytest.raises(DomainError):
                crisp_relation(3, 1, [(d,)])
            with pytest.raises(DomainError):
                crisp_relation(3, 2, [(1, 1), (d, 2)])
        with pytest.raises(ParameterError):
            crisp_relation(3, 2, [(1,)])
        with pytest.raises(ParameterError):
            crisp_relation(3, 2, [2])

    def test_arith_relation(self):
        assert arith_relation(3, "leq", 1, 1) == table(
            [[0, 0, 0], [None, 0, 0], [None, None, 0]])
        assert arith_relation(3, "geq", 1, 1) == table(
            [[0, None, None], [0, 0, None], [0, 0, 0]])
        assert arith_relation(4, "eq", 1, 2) == table(
            [[None] * 4, [0, None, None, None],
             [None] * 4, [None, 0, None, None]])
        assert arith_relation(3, "neq_const", 1, 2) == unary([0, None, 0])
        with pytest.raises(ParameterError):
            arith_relation(3, "lt", 1, 1)
        with pytest.raises(ParameterError):
            arith_relation(3, "eq", 0, 1)
        with pytest.raises(ParameterError):
            arith_relation(3, "leq", 0.5)

    def test_named_small_tables(self):
        assert xor_penalty() == table([[1, 0], [0, 1]])
        assert equality_penalty(3) == table(
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert centered_square(3, 3) == unary(
            [Fraction(1, 4), Fraction(1, 4), Fraction(9, 4)])
        assert centered_square(3, 1) == unary(
            [Fraction(1, 4), Fraction(9, 4), Fraction(25, 4)])

    def test_parameter_validation(self):
        for builder in (abs_diff, excess, delay, product_complement):
            with pytest.raises(ParameterError):
                builder(0)
        with pytest.raises(ParameterError):
            abs_diff(3, 0)
        with pytest.raises(ParameterError):
            abs_diff(True)
        with pytest.raises(ParameterError):
            euclidean_rounded(3, 0)
        with pytest.raises(ParameterError):
            centered_square(3, -1)


class TestBuildersAreSubmodular:
    def test_difference_builders(self):
        for m in (1, 2, 3, 5, 8):
            for r in (1, 2, 3):
                assert is_submodular(abs_diff(m, r))
                assert is_submodular(excess(m, r))
                assert is_submodular(delay(m, r))

    def test_other_builders(self):
        for m in (1, 2, 3, 5):
            assert is_submodular(product_complement(m))
            assert is_submodular(linear(m, 2, 3, 1))
            assert is_submodular(arith_relation(m, "leq", 1, 1))
            assert is_submodular(arith_relation(m, "geq", 1, 1))

    def test_random_interval_sums(self):
        rng = random.Random(2024)
        for _ in range(100):
            assert is_submodular(random_submodular_table(rng, rng.randint(1, 7)))
