"""Operator application, MUM detection, and the Frobenius basis."""

import functools
import math
import random
from fractions import Fraction as F

import pytest

from cyworkbench import picard_fuchs
from cyworkbench.errors import NotMUM
from cyworkbench.picard_fuchs import PeriodBasis, PFOperator, frobenius_solve
from cyworkbench.series import LogSeries, _mul_trunc

from conftest import degree_two_operator, random_mum_operator, shipped_family


def theta4() -> PFOperator:
    return PFOperator(coefficients=((), (), (), (), (F(1),)),
                      singular_radius=F(1))


def factorial_period(n):
    """Independent oracle: sum_d (5d)!/(d!)^5 z^d."""
    return LogSeries(
        {(F(d), 0): F(math.factorial(5 * d), math.factorial(d) ** 5)
         for d in range(n)},
        order=n)


def _jet_mul(u, v):
    out = [F(0)] * 4
    for i in range(4):
        for j in range(4 - i):
            out[i + j] += u[i] * v[j]
    return out


def jet_ring_basis(op, order):
    """The jet-ring solve the _mul_trunc kernel replaced: P_j(lam + s) by
    repeated jet products, every product one Fraction at a time."""
    jets = [[F(1), F(0), F(0), F(0)]]
    for n in range(1, order):
        acc = [F(0)] * 4
        for j in range(1, min(n, op.z_degree) + 1):
            pj, xpow = [F(0)] * 4, [F(1), F(0), F(0), F(0)]
            for p in op.coefficients:
                if j < len(p):
                    pj = [a + p[j] * x for a, x in zip(pj, xpow)]
                xpow = _jet_mul(xpow, [F(n - j), F(1), F(0), F(0)])
            acc = [a + b for a, b in zip(acc, _jet_mul(pj, jets[n - j]))]
        nf = F(n)
        inv = [nf ** -4, -4 * nf ** -5, 10 * nf ** -6, -20 * nf ** -7]
        jets.append([-c for c in _jet_mul(acc, inv)])
    return tuple(
        LogSeries.from_rows([[jet[k - j] / math.factorial(j) for jet in jets]
                             for j in range(k + 1)], order)
        for k in range(4))


def frobenius_reference(op, order):
    """The recurrence in Fraction jets, one (lam+n)^-4 inverse per step, as
    it ran before the integer jets: the reference for frobenius_solve."""
    maxj = op.z_degree
    taylor = [[[(k - i, p[j] * math.comb(k, i))
                for k, p in enumerate(op.coefficients)
                if k >= i and j < len(p) and p[j]] for i in range(4)]
              for j in range(maxj + 1)]
    jets = [[F(1), F(0), F(0), F(0)]]
    for n in range(1, order):
        acc = [0] * 4
        for j in range(1, min(n, maxj) + 1):
            pj = [sum(c * (n - j) ** e for e, c in col) for col in taylor[j]]
            acc = [x + y for x, y in zip(acc, _mul_trunc(pj, jets[n - j], 4))]
        inv = [F(c, n ** e) for c, e in ((1, 4), (-4, 5), (10, 6), (-20, 7))]
        jets.append([-F(c) for c in _mul_trunc(acc, inv, 4)])
    return PeriodBasis(tuple(LogSeries.from_rows([list(f)], order)
                             for f in zip(*jets)), op, F(order))


def unnormalized_operator(seed):
    """random_mum_operator(seed) with a_4(0) != 1 before normalization, so
    the normalized operator carries the lead's denominators."""
    rng = random.Random(1000 + seed)
    lead = F(rng.choice([-1, 1]) * rng.randrange(2, 30), rng.randrange(1, 8))
    coeffs = random_mum_operator(seed).coefficients
    return PFOperator(coeffs[:4] + ((lead,) + coeffs[4][1:],), F(1, 100))


REFERENCE_OPERATORS = {
    "quintic": lambda: shipped_family("quintic").pf,
    "sextic": lambda: shipped_family("sextic").pf,
    "degree-two": degree_two_operator,
    "degree-three": functools.partial(random_mum_operator, 31, degree=3),
    **{f"random-{seed}": functools.partial(random_mum_operator, seed)
       for seed in range(20)},
    **{f"unnormalized-{seed}": functools.partial(unnormalized_operator, seed)
       for seed in range(20)},
}


class TestApplyOperator:
    def test_theta4_on_z(self):
        z = LogSeries({(1, 0): 1}, order=5)
        assert theta4().apply(z) == z

    def test_theta4_on_one(self):
        assert theta4().apply(LogSeries.constant(1, order=5)).is_zero

    def test_quintic_annihilates_factorial_sum(self):
        op = shipped_family("quintic").pf
        assert op.apply(factorial_period(15)).is_zero


class TestCheckMum:
    def test_quintic(self):
        op = shipped_family("quintic").pf
        assert op.is_mum()
        assert op.indicial_polynomial() == (F(0), F(0), F(0), F(0), F(1))

    def test_theta4_minus_z(self):
        op = PFOperator(coefficients=((F(0), F(-1)), (), (), (), (F(1),)),
                        singular_radius=F(1))
        assert op.is_mum()

    def test_distinct_roots(self):
        # theta^2 (theta - 1)^2 = theta^4 - 2 theta^3 + theta^2
        op = PFOperator(coefficients=((), (), (F(1),), (F(-2),), (F(1),)),
                        singular_radius=F(1))
        assert not op.is_mum()
        assert op.indicial_polynomial() == (F(0), F(0), F(1), F(-2), F(1))


class TestFrobenius:
    def test_quintic_fundamental_period(self):
        basis = frobenius_solve(shipped_family("quintic").pf, 12)
        assert basis.omega0 == factorial_period(12)

    def test_quintic_sigma1_leading(self):
        basis = frobenius_solve(shipped_family("quintic").pf, 6)
        sigma1 = basis.sigma1
        assert sigma1.is_log_free
        assert sigma1.constant_term == 0
        assert sigma1[1] == 770
        assert sigma1[2] == 810225

    def test_all_solutions_annihilated(self):
        fam = shipped_family("quintic")
        basis = frobenius_solve(fam.pf, 10)
        for w in basis.omegas:
            assert fam.pf.apply(w).is_zero

    def test_log_structure(self):
        basis = frobenius_solve(shipped_family("quintic").pf, 8)
        for k, w in enumerate(basis.omegas):
            assert w.log_degree == k
            # top log part is omega_0 log^k z / k!, exactly
            top = LogSeries(
                {(e, 0): c for (e, kk), c in w.items() if kk == k},
                order=basis.order)
            assert top == basis.omega0 * F(1, math.factorial(k))
            # corrections vanish at z = 0
            for (e, kk), c in w.items():
                if kk < k and e == 0:
                    pytest.fail(f"nonzero constant at log degree {kk}")

    def test_theta4_kernel(self):
        basis = frobenius_solve(theta4(), 5)
        lz = LogSeries({(0, 1): 1}, 5)
        assert basis.omegas[0] == LogSeries.constant(1, order=5)
        assert basis.omegas[1] == lz
        assert basis.omegas[2] == lz * lz * F(1, 2)
        assert basis.omegas[3] == lz * lz * lz * F(1, 6)

    def test_degree_two_coefficients(self):
        """Operators with z^2 terms exercise the full convolution."""
        op = degree_two_operator()
        basis = frobenius_solve(op, 10)
        for w in basis.omegas:
            assert op.apply(w).is_zero
        assert basis.omega0.constant_term == 1
        assert basis.omega0[1] == 1  # (0+1)^4 / 1^4

    @pytest.mark.parametrize("op", [
        lambda: shipped_family("quintic").pf,
        lambda: shipped_family("sextic").pf,
        lambda: random_mum_operator(23),
        lambda: random_mum_operator(31, degree=3)],
        ids=["quintic", "sextic", "degree-2", "degree-3"])
    def test_jets_match_jet_ring(self, op):
        op = op()
        basis = frobenius_solve(op, 14)
        assert basis.omegas == jet_ring_basis(op, 14)
        assert all(type(c) is F for w in basis.omegas
                   for row in w.rows() for c in row)

    def test_determinism(self):
        op = shipped_family("quintic").pf
        b1 = frobenius_solve(op, 9)
        b2 = frobenius_solve(op, 9)
        assert b1.omegas == b2.omegas

    @pytest.mark.parametrize("n, h", [(5, 48), (20, 83), (24, 83)])
    @pytest.mark.parametrize("op", [
        lambda: shipped_family("quintic").pf,
        lambda: shipped_family("sextic").pf,
        *(functools.partial(random_mum_operator, seed) for seed in range(10))],
        ids=["quintic", "sextic", *(f"random-{seed}" for seed in range(10))])
    def test_prefix_stable(self, op, n, h):
        """A solve at H cut to N is the solve at N: the pipeline solves
        once at the Hodge order and truncates for the exact stages."""
        op = op()
        got, want = frobenius_solve(op, h).truncate(n), frobenius_solve(op, n)
        assert got.order == want.order == n
        assert got.frobenius == want.frobenius
        assert got.omegas == want.omegas
        assert all(type(c) is F for w in got.omegas
                   for row in w.rows() for c in row)

    @pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
    def test_matches_fraction_reference(self, name):
        op = REFERENCE_OPERATORS[name]()
        for order in (1, 2, 5, 24, 83):
            got, want = frobenius_solve(op, order), frobenius_reference(op, order)
            assert got.order == want.order == order
            assert got.frobenius == want.frobenius
            assert all(type(c) is F for f in got.frobenius
                       for row in f.rows() for c in row)

    def test_unnormalized_operators_differ(self):
        """Dividing by a_4(0) != 1 gives operators, and denominators, the
        random family alone does not reach."""
        for seed in range(20):
            op = unnormalized_operator(seed)
            assert op.coefficients[4][0] == 1
            assert op.coefficients != random_mum_operator(seed).coefficients

    @pytest.mark.parametrize("name", ["quintic", "degree-two", "random-3",
                                      "unnormalized-3"])
    def test_recurrence_runs_on_ints(self, name, monkeypatch):
        """Every jet product of the recurrence multiplies int lists; a
        Fraction enters only when the rows are built."""
        operands = []

        def spy(a, b, n):
            operands.extend(a + b)
            return _mul_trunc(a, b, n)

        monkeypatch.setattr(picard_fuchs, "_mul_trunc", spy)
        frobenius_solve(REFERENCE_OPERATORS[name](), 30)
        assert operands and all(type(c) is int for c in operands)

    def test_not_mum_rejected(self):
        op = PFOperator(coefficients=((), (), (F(1),), (F(-2),), (F(1),)),
                        singular_radius=F(1))
        with pytest.raises(NotMUM):
            frobenius_solve(op, 6)


class TestOperatorBasics:
    def test_normalization(self):
        # a_4(0) = 2 is rescaled to 1
        op = PFOperator(coefficients=((), (), (), (), (F(2), F(-4))),
                        singular_radius=F(1, 2))
        assert op.coefficients[4] == (F(1), F(-2))

    def test_singular_at_origin_rejected(self):
        with pytest.raises(NotMUM):
            PFOperator(coefficients=((), (), (), (), (F(0), F(1))),
                       singular_radius=F(1))

    def test_json_round_trip(self):
        op = shipped_family("quintic").pf
        assert PFOperator.from_json(op.to_json()) == op
