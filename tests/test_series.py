"""Exact series arithmetic: examples, edge cases, and ring properties."""

import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from cyworkbench.errors import (DomainError, LogDegreeOverflow, NotAUnit,
                                OutsideDisk)
from cyworkbench.series import LogSeries, format_rational, parse_rational


def geom_quintic(n):
    """sum_{d<n} (5d)!/(d!)^5 z^d, the fundamental-period oracle."""
    terms = {(F(d), 0): F(math.factorial(5 * d), math.factorial(d) ** 5)
             for d in range(n)}
    return LogSeries(terms, order=n)


def compose_reference(outer, inner):
    """Dict-keyed power-by-power substitution, the pre-Horner algorithm."""
    order = outer.order if inner.order is None else (
        inner.order if outer.order is None else min(outer.order, inner.order))
    top = max((e for (e, _), _ in outer.items()), default=F(0))
    if order is None:
        order = top + 1
    inner = LogSeries(dict(inner.items()), order=order)
    result = LogSeries.zero(order=order)
    power = LogSeries.constant(1, order=order)
    for e in range(min(int(top) + 1, math.ceil(order))):
        if e > 0:
            power = power * inner
        result = result + outer.coefficient(e) * power
    return result


def revert_reference(f):
    """One composition per coefficient: b_m from [z^m] f(b_<m) = 0."""
    c1 = f.coefficient(1)
    top = max((e for (e, _), _ in f.items()), default=F(0))
    order = f.order if f.order is not None else top + 1
    n = math.ceil(order)
    b = [F(0)] * n
    b[1] = 1 / c1
    for m in range(2, n):
        partial = LogSeries.from_coefficients(b[: m + 1], order=m + 1)
        b[m] = -compose_reference(f, partial).coefficient(m) / c1
    return LogSeries.from_coefficients(b, order=order)


def random_reversible(rng, order):
    """c1*z + sparse higher terms with a non-monic c1."""
    n = 7 if order is None else math.ceil(order)
    coeffs = [F(0), F(rng.choice([-3, -2, 1, 2, 5]), rng.randrange(1, 4))]
    coeffs += [F(rng.randrange(-4, 5), rng.randrange(1, 6))
               if rng.random() < 0.5 else F(0) for _ in range(n - 2)]
    return LogSeries.from_coefficients(coeffs, order=order)


def random_series(rng, order=6, with_logs=False, ram=1):
    terms = {}
    for _ in range(rng.randrange(1, 8)):
        e = F(rng.randrange(0, order * ram), ram)
        k = rng.randrange(0, 2) if with_logs else 0
        terms[(e, k)] = F(rng.randrange(-9, 10), rng.randrange(1, 7))
    return LogSeries(terms, order=order, ramification=ram)


class TestRationalStrings:
    def test_round_trip(self):
        for s in ("5", "-3/7", "123456789012345678901234567891/7"):
            assert format_rational(parse_rational(s)) == s

    def test_lowest_terms(self):
        assert parse_rational("4/6") == F(2, 3)


class TestAdd:
    def test_identity(self):
        one_plus_z = LogSeries.from_coefficients([1, 1], order=5)
        assert one_plus_z + LogSeries.zero(order=5) == one_plus_z

    def test_additive_inverse(self):
        a = LogSeries.from_coefficients([1, 1], order=5)
        assert (a + (-a)).is_zero

    def test_ramification_join(self):
        half = LogSeries.monomial(1, F(1, 2), order=3)
        whole = LogSeries.monomial(1, 1, order=3)
        total = half + whole
        assert total.ramification == 2
        assert total.coefficient(F(1, 2)) == 1
        assert total.coefficient(1) == 1

    def test_order_propagates_min(self):
        a = LogSeries.from_coefficients([1, 2, 3], order=3)
        b = LogSeries.from_coefficients([1], order=7)
        assert (a + b).order == F(3)


class TestMul:
    def test_difference_of_squares(self):
        a = LogSeries.from_coefficients([1, 1], order=4)
        b = LogSeries.from_coefficients([1, -1], order=4)
        assert a * b == LogSeries.from_coefficients([1, 0, -1], order=4)

    def test_log_squares(self):
        lz = LogSeries.log_z(order=3)
        sq = lz * lz
        assert sq.coefficient(0, 2) == 1
        assert sq.log_degree == 2

    def test_fundamental_period_square(self):
        sq = geom_quintic(3) * geom_quintic(3)
        assert [sq[d] for d in range(3)] == [1, 240, 241200]

    def test_log_degree_overflow(self):
        sq = LogSeries.log_z(order=3) * LogSeries.log_z(order=3)
        with pytest.raises(LogDegreeOverflow):
            sq * sq

    def test_scalar(self):
        a = LogSeries.from_coefficients([1, 2], order=4)
        assert (3 * a)[1] == 6


class TestInvert:
    def test_geometric(self):
        inv = LogSeries.from_coefficients([1, -1], order=5).invert()
        assert inv == LogSeries.from_coefficients([1, 1, 1, 1, 1], order=5)

    def test_constant(self):
        assert LogSeries.constant(2, order=3).invert()[0] == F(1, 2)

    def test_fundamental_period(self):
        w0 = geom_quintic(8)
        inv = w0.invert()
        assert [inv[d] for d in range(3)] == [1, -120, -99000]
        assert w0 * inv == LogSeries.constant(1, order=8)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            LogSeries.variable(order=4).invert()
        with pytest.raises(NotAUnit):
            (LogSeries.constant(1, order=4) + LogSeries.log_z(order=4)).invert()


class TestTheta:
    def test_monomial(self):
        assert LogSeries.monomial(1, 3, order=5).theta() == \
            LogSeries.monomial(3, 3, order=5)

    def test_log(self):
        assert LogSeries.log_z(order=4).theta() == \
            LogSeries.constant(1, order=4)

    def test_product_rule_shape(self):
        s = LogSeries({(F(1), 2): F(1)}, order=4)  # z log^2 z
        t = s.theta()
        assert t.coefficient(1, 2) == 1
        assert t.coefficient(1, 1) == 2


class TestExpLog:
    def test_exp_zero(self):
        assert LogSeries.zero(order=4).exp() == LogSeries.constant(1, order=4)

    def test_log_exp_round_trip(self):
        z = LogSeries.variable(order=7)
        assert z.exp().log() == z

    def test_exp_expansion(self):
        e = LogSeries.from_coefficients([0, 1, 1], order=4).exp()
        assert [e[d] for d in range(4)] == [1, 1, F(3, 2), F(7, 6)]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            LogSeries.constant(1, order=4).exp()
        with pytest.raises(DomainError):
            LogSeries.from_coefficients([2, 1], order=4).log()
        with pytest.raises(DomainError):
            LogSeries.log_z(order=4).exp()

    def test_ramified_exp(self):
        half = LogSeries.monomial(1, F(1, 2), order=2)
        e = half.exp()
        assert e.coefficient(F(1, 2)) == 1
        assert e.coefficient(1) == F(1, 2)
        assert e.coefficient(F(3, 2)) == F(1, 6)


class TestRevert:
    def test_identity(self):
        z = LogSeries.variable(order=6)
        assert z.revert() == z

    def test_catalan_signs(self):
        a = LogSeries.from_coefficients([0, 1, 1], order=6)
        b = a.revert()
        assert [b[d] for d in range(6)] == [0, 1, -1, 2, -5, 14]
        assert a.compose(b) == LogSeries.variable(order=6)
        assert b.compose(a) == LogSeries.variable(order=6)

    def test_scaling(self):
        assert LogSeries.from_coefficients([0, 2], order=4).revert()[1] == F(1, 2)

    def test_exact_and_fractional_orders(self):
        exact = LogSeries.from_coefficients([0, 1, 1]).revert()
        assert exact == LogSeries.from_coefficients([0, 1, -1], order=3)
        frac = LogSeries.from_coefficients([0, 1, 1], order=F(7, 2)).revert()
        assert frac == LogSeries.from_coefficients([0, 1, -1, 2],
                                                   order=F(7, 2))

    def test_quintic_mirror_map(self, quintic_mirror):
        assert quintic_mirror.z_of_q == revert_reference(
            quintic_mirror.q_of_z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            LogSeries.from_coefficients([1, 1], order=4).revert()
        with pytest.raises(DomainError):
            LogSeries.from_coefficients([0, 0, 1], order=4).revert()


class TestEval:
    def test_constant_at_zero(self):
        res = LogSeries.from_coefficients([1, 1], order=4).eval(0, radius=1)
        assert res.value == 1

    def test_linear(self):
        res = LogSeries.variable(order=4).eval(0.5, radius=1)
        assert abs(res.value - 0.5) < 1e-60

    def test_fundamental_period_partial_sums(self):
        w0 = geom_quintic(6)
        with mp.workprec(150):
            z0 = mp.mpf("1e-6")
            res = w0.eval(z0, radius=F(1, 3125), prec_bits=128)
            oracle = sum(
                (mp.mpf(math.factorial(5 * d)) / math.factorial(d) ** 5)
                * z0 ** d for d in range(6))
            assert abs(res.value - oracle) < mp.mpf("1e-30")
            assert abs(res.value - mp.mpf("1.0001201135684742")) < 1e-12

    def test_outside_disk(self):
        with pytest.raises(OutsideDisk):
            LogSeries.variable(order=4).eval(0.5, radius=F(1, 4))

    def test_branch_shift(self):
        lz = LogSeries.log_z(order=2)
        base = lz.eval(0.25, radius=1).value
        shifted = lz.eval(0.25, radius=1, branch=1).value
        assert abs(shifted - base - 2j * mp.pi) < 1e-60

    def test_tail_bound_reported(self):
        res = geom_quintic(6).eval(1e-4, radius=F(1, 3125), prec_bits=128)
        assert res.tail_bound > 0
        assert res.prec_bits == 128


class TestProperties:
    """Randomized ring laws, exact to truncation order."""

    def test_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_series(rng, with_logs=True)
            b = random_series(rng, with_logs=True)
            c = random_series(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * c == c * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_invert_is_inverse(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_series(rng) + LogSeries.constant(
                F(rng.randrange(1, 5)), order=6)
            if a.constant_term == 0:
                continue
            assert a * a.invert() == LogSeries.constant(1, order=a.order)

    def test_leibniz(self):
        rng = random.Random(13)
        for _ in range(25):
            a = random_series(rng, with_logs=True)
            b = random_series(rng)
            assert (a * b).theta() == a.theta() * b + a * b.theta()

    def test_revert_two_sided(self):
        rng = random.Random(17)
        for _ in range(15):
            coeffs = [F(0), F(rng.randrange(1, 5))] + [
                F(rng.randrange(-4, 5)) for _ in range(4)]
            a = LogSeries.from_coefficients(coeffs, order=6)
            b = a.revert()
            ident = LogSeries.variable(order=6)
            assert a.compose(b) == ident
            assert b.compose(a) == ident
        for order in [None, 2, 3, 6, 9, F(7, 2), F(17, 3)] * 4:
            a = random_reversible(rng, order)
            b = a.revert()
            assert b == revert_reference(a)
            ident = LogSeries.variable(order=b.order)
            assert a.compose(b) == ident
            assert b.compose(a) == ident

    def test_compose_matches_reference(self):
        rng = random.Random(29)
        for _ in range(40):
            outer = random_series(rng, order=rng.choice([3, 6, 9]))
            if rng.random() < 0.3:
                outer = LogSeries(dict(outer.items()))
            inner = random_reversible(
                rng, rng.choice([None, 2, 4, 8, F(11, 2)]))
            if rng.random() < 0.3:
                inner = inner - LogSeries.monomial(inner.coefficient(1), 1)
            assert outer.compose(inner) == compose_reference(outer, inner)

    def test_log_exp_identity(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_series(rng)
            a = a - LogSeries.constant(a.constant_term, order=a.order)
            assert a.exp().log() == a

    def test_eval_compatible_with_ring_ops(self):
        rng = random.Random(23)
        z0 = mp.mpf("0.001")
        for _ in range(10):
            a = random_series(rng)
            b = random_series(rng)
            ra = a.eval(z0, radius=1)
            rb = b.eval(z0, radius=1)
            vab = (a * b).eval(z0, radius=1)
            # cross terms dropped by truncation are covered by the tails
            budget = mp.mpf("1e-40") + 3 * (
                vab.tail_bound
                + ra.tail_bound * (abs(rb.value) + 1)
                + rb.tail_bound * (abs(ra.value) + 1))
            assert abs(vab.value - ra.value * rb.value) <= budget

    def test_truncation_monotone(self):
        rng = random.Random(29)
        for _ in range(15):
            a = random_series(rng, order=8)
            b = random_series(rng, order=8)
            assert (a * b).truncate(5) == a.truncate(5) * b.truncate(5)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_series(rng, with_logs=True, ram=2)
            assert LogSeries.from_json(a.to_json()) == a

    def test_schema(self):
        doc = LogSeries({(F(1, 2), 1): F(-3, 7)}, order=F(5, 2),
                        ramification=2).to_json()
        assert doc["ramification"] == 2
        assert doc["order"] == "5/2"
        assert doc["terms"] == [
            {"exp": "1/2", "log": 1, "num": "-3", "den": "7"}]
