"""The exclusive-or simulation built from a non-submodular table."""

import random
from fractions import Fraction

import pytest

from helpers import perturb_entry, random_submodular_table, table
from scsp import (INF, find_violation_full, is_submodular, product_complement,
                  xor_gadget, xor_penalty)
from scsp.errors import IsSubmodular, ParameterError, PenaltyError, TooLarge


class TestXorTable:
    def test_witness_and_prices(self):
        r = xor_gadget(xor_penalty())
        assert (r.a, r.c, r.b, r.d) == (1, 1, 2, 2)
        assert str(r.epsilon) == "1"
        assert str(r.lam) == "1" and str(r.mu) == "1"

    def test_chi_is_scaled_exclusive_or(self):
        r = xor_gadget(xor_penalty())
        assert r.chi == table([[4, 2], [2, 4]])
        assert r.projection == r.chi
        assert r.verified

    def test_agreement_stays_strictly_cheaper(self):
        # the simulated penalty keeps the defining gap of the original:
        # disagreeing costs strictly more than the finite agreement price
        r = xor_gadget(xor_penalty())
        base = r.chi.value_at(1, 2)  # lam + mu + psi(a,d) + psi(b,c)
        agreement = r.chi.value_at(1, 1)
        assert base < agreement
        assert not agreement.is_infinite

    def test_inner_tables(self):
        r = xor_gadget(xor_penalty())
        assert r.zeta == table([[1, None], [None, 1]])
        assert r.phi == table([[0, 1], [1, 0]])
        assert is_submodular(r.zeta)
        assert is_submodular(r.phi)

    def test_violation_inequality_is_strict(self):
        # psi(a,d) + psi(b,c) < lam + mu < infinity: for the exclusive-or
        # table this reads 0 < 2 < inf
        r = xor_gadget(xor_penalty())
        base = xor_penalty().value_at(r.a, r.d) + \
            xor_penalty().value_at(r.b, r.c)
        assert base.is_zero
        assert base < r.lam + r.mu
        assert not (r.lam + r.mu).is_infinite


class TestGuards:
    def test_submodular_input_is_refused(self):
        with pytest.raises(IsSubmodular):
            xor_gadget(product_complement(3))

    def test_epsilon_must_be_finite_positive(self):
        with pytest.raises(ParameterError):
            xor_gadget(xor_penalty(), epsilon=0)
        with pytest.raises(ParameterError):
            xor_gadget(xor_penalty(), epsilon="inf")
        with pytest.raises(ParameterError):
            xor_gadget(xor_penalty(), epsilon=0.5)
        for epsilon in (True, "1.5", None):
            with pytest.raises(PenaltyError, match="epsilon"):
                xor_gadget(xor_penalty(), epsilon=epsilon)

    def test_projection_guard(self):
        rows = [[0] * 15 for _ in range(15)]
        rows[0][0] = 99  # violates at (1,1,2,2), but the guard fires first
        with pytest.raises(TooLarge):
            xor_gadget(table(rows))


class TestRandomTables:
    def test_projection_reproduces_chi(self):
        rng = random.Random(81)
        built = 0
        for _ in range(120):
            m = rng.randint(2, 5)
            psi = perturb_entry(rng, random_submodular_table(rng, m))
            if find_violation_full(psi) is None:
                continue
            for eps in (1, Fraction(1, 2), 3):
                r = xor_gadget(psi, epsilon=eps)
                built += 1
                assert r.verified and r.projection == r.chi
                assert is_submodular(r.zeta)
                # the gap survives arbitrary tables and epsilons
                agree = r.chi.value_at(1, 1)
                disagree = r.chi.value_at(1, 2)
                assert disagree < agree and not agree.is_infinite
                assert r.chi.value_at(2, 2) == agree
                assert r.chi.value_at(2, 1) == disagree
                if m > 2:
                    assert r.chi.value_at(3, 1) == INF
                    assert r.chi.value_at(1, 3) == INF
        assert built > 90

    def test_prices_never_leave_the_allowed_range(self):
        rng = random.Random(82)
        for _ in range(80):
            m = rng.randint(2, 5)
            psi = perturb_entry(rng, random_submodular_table(rng, m))
            w = find_violation_full(psi)
            if w is None:
                continue
            r = xor_gadget(psi)
            base = psi.value_at(r.a, r.d) + psi.value_at(r.b, r.c)
            assert not base.is_infinite
            assert base < r.lam + r.mu
            assert r.lam <= base + r.epsilon
            assert r.mu <= base + r.epsilon
