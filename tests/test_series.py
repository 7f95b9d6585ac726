"""Exact series arithmetic: examples, edge cases, and ring properties."""

import math
import random
from fractions import Fraction as F
from operator import mul

import pytest

from cyworkbench.errors import DomainError, LogDegreeOverflow, NotAUnit
from cyworkbench.series import (LogSeries, _mul_trunc, format_rational,
                                parse_rational)


def geom_quintic(n):
    """sum_{d<n} (5d)!/(d!)^5 z^d, the fundamental-period oracle."""
    terms = {(F(d), 0): F(math.factorial(5 * d), math.factorial(d) ** 5)
             for d in range(n)}
    return LogSeries(terms, order=n)


def compose_reference(outer, inner):
    """Dict-keyed power-by-power substitution, the pre-Horner algorithm."""
    order = min(outer.order, inner.order)
    top = max((e for (e, _), _ in outer.items()), default=F(0))
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
    n = math.ceil(f.order)
    b = [F(0)] * n
    b[1] = 1 / c1
    for m in range(2, n):
        partial = LogSeries.from_coefficients(b[: m + 1], order=m + 1)
        b[m] = -compose_reference(f, partial).coefficient(m) / c1
    return LogSeries.from_coefficients(b, order=f.order)


def random_reversible(rng, order):
    """c1*z + sparse higher terms with a non-monic c1."""
    n = math.ceil(order)
    coeffs = [F(0), F(rng.choice([-3, -2, 1, 2, 5]), rng.randrange(1, 4))]
    coeffs += [F(rng.randrange(-4, 5), rng.randrange(1, 6))
               if rng.random() < 0.5 else F(0) for _ in range(n - 2)]
    return LogSeries.from_coefficients(coeffs, order=order)


def _joined(a, b):
    return math.lcm(a.ramification, b.ramification), min(a.order, b.order)


def add_reference(a, b):
    """Dict-keyed sum over (exponent, log degree), the pre-row algorithm."""
    r, order = _joined(a, b)
    terms = dict(a.items())
    for key, c in b.items():
        terms[key] = terms.get(key, F(0)) + c
    return LogSeries(terms, order=order, ramification=r)


def mul_reference(a, b):
    """Dict-keyed product; any surviving term past log^3 overflows."""
    r, order = _joined(a, b)
    terms = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            e = e1 + e2
            if e >= order:
                continue
            if k1 + k2 > 3:
                raise LogDegreeOverflow(f"log(z)^{k1 + k2}")
            terms[(e, k1 + k2)] = terms.get((e, k1 + k2), F(0)) + c1 * c2
    return LogSeries(terms, order=order, ramification=r)


def theta_reference(a):
    """Dict-keyed z d/dz."""
    terms = {}
    for (e, k), c in a.items():
        if e != 0:
            terms[(e, k)] = terms.get((e, k), F(0)) + e * c
        if k > 0:
            terms[(e, k - 1)] = terms.get((e, k - 1), F(0)) + k * c
    return LogSeries(terms, order=a.order, ramification=a.ramification)


def neg_reference(a):
    """Dict-keyed negation."""
    return LogSeries({key: -c for key, c in a.items()}, order=a.order,
                     ramification=a.ramification)


def to_json_terms_reference(a):
    """The term list of to_json, built by the items() loop it replaced."""
    return [{"exp": format_rational(e), "log": k, "num": str(c.numerator),
             "den": str(c.denominator)} for (e, k), c in a.items()]


def lattice_series(rng):
    """Sparse series on the 1/r lattice, r in 1..3, log degree up to 3,
    truncated at an integer or fractional order."""
    r = rng.choice([1, 2, 3])
    order = rng.choice([1, 2, 4, F(1, 2), F(7, 2), F(17, 3)])
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        key = (F(rng.randrange(0, 5 * r), r), rng.choice([0, 0, 1, 2, 3]))
        terms[key] = F(rng.randrange(-9, 10), rng.randrange(1, 7))
    return LogSeries(terms, order=order, ramification=r)


def outcome(fn, *args):
    """The result of fn(*args), or LogDegreeOverflow if it raised that."""
    try:
        return fn(*args)
    except LogDegreeOverflow:
        return LogDegreeOverflow


def assert_same(got, ref):
    """Equal as series and on the same lattice and window."""
    if ref is LogDegreeOverflow:
        assert got is LogDegreeOverflow
        return
    assert got == ref
    assert (got.ramification, got.order) == (ref.ramification, ref.order)
    assert list(got.items()) == list(ref.items())
    assert got.rows() == ref.rows()


def _log_free_result(a, coeffs):
    return LogSeries.from_rows([coeffs], a.order, a.ramification)


def invert_reference(a):
    """The scalar recurrence that Newton iteration replaced."""
    c = a.rows()[0]
    b = [1 / c[0]]
    for m in range(1, len(c)):
        b.append(-sum(c[k] * b[m - k] for k in range(1, m + 1)) / c[0])
    return _log_free_result(a, b)


def log_reference(a):
    """The scalar recurrence b_m = a_m - (1/m) sum_{k<m} k b_k a_(m-k)."""
    c = a.rows()[0]
    b = [F(0)]
    for m in range(1, len(c)):
        b.append(c[m] - sum((k * b[k] * c[m - k] for k in range(1, m)),
                            F(0)) / m)
    return _log_free_result(a, b)


def exp_reference(a):
    """The scalar recurrence that Newton iteration replaced: from
    exp(f)' = f' exp(f), b_m = (1/m) sum_{k<=m} k a_k b_(m-k)."""
    c = a.rows()[0]
    b = [F(1)]
    for m in range(1, len(c)):
        b.append(sum((k * c[k] * b[m - k] for k in range(1, m + 1)),
                     F(0)) / m)
    return _log_free_result(a, b)


def unit_series(rng, constant):
    """Log-free series on the 1/r lattice, r in 1..3, with the given
    constant term; one entry long, or truncated further out."""
    r = rng.choice([1, 2, 3])
    order = rng.choice([F(1, r), 1, 3, F(7, 2), 6])
    terms = {(F(0), 0): constant}
    for _ in range(rng.randrange(0, 8)):
        key = (F(rng.randrange(1, 6 * r), r), 0)
        terms[key] = F(rng.randrange(-9, 10), rng.randrange(1, 7))
    return LogSeries(terms, order=order, ramification=r)


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
        half = LogSeries({(F(1, 2), 0): 1}, order=3, ramification=2)
        whole = LogSeries({(1, 0): 1}, order=3)
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
        lz = LogSeries({(0, 1): 1}, 3)
        sq = lz * lz
        assert sq.coefficient(0, 2) == 1
        assert sq.log_degree == 2

    def test_fundamental_period_square(self):
        sq = geom_quintic(3) * geom_quintic(3)
        assert [sq[d] for d in range(3)] == [1, 240, 241200]

    def test_log_degree_overflow(self):
        sq = LogSeries({(0, 1): 1}, 3) * LogSeries({(0, 1): 1}, 3)
        with pytest.raises(LogDegreeOverflow):
            sq * sq

    def test_scalar(self):
        a = LogSeries.from_coefficients([1, 2], order=4)
        assert (3 * a)[1] == 6

    def test_pow_is_repeated_product(self):
        rng = random.Random(61)
        for _ in range(300):
            s = lattice_series(rng)
            ref = LogSeries.constant(1, order=s.order)
            for k in range(5):
                assert_same(outcome(s.__pow__, k), ref)
                if ref is LogDegreeOverflow:
                    break
                assert ref.order == s.order
                assert k == 0 or ref.ramification == s.ramification
                ref = outcome(ref.__mul__, s)

    @pytest.mark.parametrize("k", [-1, 1.5])
    def test_pow_domain(self, k):
        with pytest.raises(DomainError):
            LogSeries({(1, 0): 1}, order=4) ** k


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
            LogSeries({(1, 0): 1}, order=4).invert()
        with pytest.raises(NotAUnit):
            (LogSeries.constant(1, order=4)
             + LogSeries({(0, 1): 1}, 4)).invert()


class TestTheta:
    def test_monomial(self):
        assert LogSeries({(3, 0): 1}, order=5).theta() == \
            LogSeries({(3, 0): 3}, order=5)

    def test_log(self):
        assert LogSeries({(0, 1): 1}, 4).theta() == \
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
        z = LogSeries({(1, 0): 1}, order=7)
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
            LogSeries({(0, 1): 1}, 4).exp()

    def test_ramified_exp(self):
        half = LogSeries({(F(1, 2), 0): 1}, order=2, ramification=2)
        e = half.exp()
        assert e.coefficient(F(1, 2)) == 1
        assert e.coefficient(1) == F(1, 2)
        assert e.coefficient(F(3, 2)) == F(1, 6)


class TestRevert:
    def test_identity(self):
        z = LogSeries({(1, 0): 1}, order=6)
        assert z.revert() == z

    def test_catalan_signs(self):
        a = LogSeries.from_coefficients([0, 1, 1], order=6)
        b = a.revert()
        assert [b[d] for d in range(6)] == [0, 1, -1, 2, -5, 14]
        assert a.compose(b) == LogSeries({(1, 0): 1}, order=6)
        assert b.compose(a) == LogSeries({(1, 0): 1}, order=6)

    def test_scaling(self):
        assert LogSeries.from_coefficients([0, 2], order=4).revert()[1] == F(1, 2)

    def test_fractional_order(self):
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
            ident = LogSeries({(1, 0): 1}, order=6)
            assert a.compose(b) == ident
            assert b.compose(a) == ident
        for order in [2, 3, 6, 9, F(7, 2), F(17, 3)] * 4:
            a = random_reversible(rng, order)
            b = a.revert()
            assert b == revert_reference(a)
            ident = LogSeries({(1, 0): 1}, order=b.order)
            assert a.compose(b) == ident
            assert b.compose(a) == ident

    def test_compose_matches_reference(self):
        rng = random.Random(29)
        for _ in range(40):
            outer = random_series(rng, order=rng.choice([3, 6, 9]))
            if rng.random() < 0.3:
                # known past every inner order
                outer = LogSeries(dict(outer.items()), order=12)
            inner = random_reversible(rng, rng.choice([2, 4, 8, F(11, 2)]))
            if rng.random() < 0.3:
                inner = inner - LogSeries({(1, 0): inner.coefficient(1)},
                                           order=inner.order)
            assert outer.compose(inner) == compose_reference(outer, inner)

    def test_log_exp_identity(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_series(rng)
            a = a - LogSeries.constant(a.constant_term, order=a.order)
            assert a.exp().log() == a

    def test_truncation_monotone(self):
        rng = random.Random(29)
        for _ in range(15):
            a = random_series(rng, order=8)
            b = random_series(rng, order=8)
            assert (a * b).truncate(5) == a.truncate(5) * b.truncate(5)


class TestRowsMatchDictReference:
    """The row arithmetic against the dict-keyed algorithms it replaced."""

    def test_add(self):
        rng = random.Random(37)
        for _ in range(300):
            a, b = lattice_series(rng), lattice_series(rng)
            assert_same(a + b, add_reference(a, b))
            assert_same(a - b, add_reference(a, -1 * b))
            # a scalar joins at the series' own order and lattice
            for got, s, c in ((a + 1, a, 1), (a - F(2, 3), a, F(-2, 3)),
                              (1 - a, -1 * a, 1)):
                assert (got.order, got.ramification) == (a.order,
                                                         a.ramification)
                assert_same(got, add_reference(
                    s, LogSeries.constant(c, a.order)))

    def test_mul(self):
        rng = random.Random(41)
        overflows = 0
        for _ in range(300):
            a, b = lattice_series(rng), lattice_series(rng)
            ref = outcome(mul_reference, a, b)
            overflows += ref is LogDegreeOverflow
            assert_same(outcome(a.__mul__, b), ref)
        assert 20 < overflows < 280

    def test_theta(self):
        rng = random.Random(43)
        for _ in range(300):
            a = lattice_series(rng)
            assert_same(a.theta(), theta_reference(a))

    def test_cancelling_top_rows(self):
        """Results whose top log rows cancel: x y - y x, and (x + y) - y
        with y carrying log^3 z, on ramification 1-3.  Each equals the dict
        reference, holds no zero row above its log degree, and still shows
        four window-length rows."""
        rng = random.Random(53)
        dropped = [0, 0]  # the top log degrees each kind of result lost
        for _ in range(200):
            x, y = lattice_series(rng), lattice_series(rng)
            y = y + LogSeries({(F(rng.randrange(0, 2)), 3): F(
                rng.choice([-2, 1, 3]))}, y.order, y.ramification)
            ref = outcome(mul_reference, x, y)
            got = [outcome(lambda: x * y - y * x)]
            if ref is not LogDegreeOverflow:
                dropped[0] += ref.log_degree
                ref = add_reference(ref, neg_reference(mul_reference(y, x)))
            got.append((x + y) - y)
            dropped[1] += (x + y).log_degree - got[1].log_degree
            for result, want in zip(got, (ref, add_reference(
                    add_reference(x, y), neg_reference(y)))):
                assert_same(result, want)
                if result is LogDegreeOverflow:
                    continue
                assert result.log_degree == max(
                    (k for (_, k), _ in result.items()), default=0)
                assert len(result.rows()) == 4
                window = math.ceil(result.order * result.ramification)
                assert all(len(row) == window for row in result.rows())
                assert result.to_json()["terms"] == to_json_terms_reference(
                    result)
            assert (x * 0).is_zero and len((x * 0).rows()) == 4
        assert min(dropped) > 30

    def test_trailing_zero_rows(self):
        """Explicit trailing zero rows, or rows nonzero only past the
        window, make the same series as leaving them out."""
        rng = random.Random(59)
        for _ in range(100):
            a = lattice_series(rng)
            order, r = a.order, a.ramification
            held = [row for row in a.rows()]
            while len(held) > 1 and not any(held[-1]):
                held.pop()
            window = math.ceil(order * r)
            for extra in ([], [[0] * window], [[0] * window] * 3,
                          [[0] * window + [F(1, 3)]]):
                padded = LogSeries.from_rows(held + extra, order, r)
                assert padded == LogSeries.from_rows(held, order, r) == a
                assert padded.rows() == a.rows()
                assert padded.log_degree == a.log_degree
                assert padded.to_json() == a.to_json()

    def test_to_json_terms(self):
        rng = random.Random(61)
        for _ in range(300):
            a = lattice_series(rng)
            assert a.to_json()["terms"] == to_json_terms_reference(a)

    def test_log_degree_overflow_cases(self):
        lz2 = LogSeries({(F(1), 2): F(1)}, order=3)
        # the only log^4 term sits at z^2, inside the window
        assert_same(outcome(lz2.__mul__, lz2),
                    outcome(mul_reference, lz2, lz2))
        # ... and at z^4, beyond it: nothing overflows
        far = LogSeries({(F(2), 2): F(1)}, order=3)
        assert_same(far * far, mul_reference(far, far))
        # log^4 terms that cancel still overflow, term by term
        a = LogSeries({(F(1), 2): F(1), (F(2), 3): F(1)}, order=3)
        b = LogSeries({(F(1), 2): F(1), (F(0), 1): F(-1)}, order=3)
        assert_same(outcome(a.__mul__, b), outcome(mul_reference, a, b))
        assert outcome(a.__mul__, b) is LogDegreeOverflow
        with pytest.raises(LogDegreeOverflow):
            LogSeries({(F(0), 4): F(1)}, order=1)
        with pytest.raises(LogDegreeOverflow):
            LogSeries.from_rows([[], [], [], [], [0, 1]], order=3)
        assert LogSeries.from_rows([[], [], [], [], [0, 0, 0, 1]],
                                   order=3).is_zero

    def test_equality_across_lattices(self):
        whole = LogSeries({(F(1), 0): F(2)}, order=3)
        assert whole == LogSeries({(F(1), 0): F(2)}, order=3, ramification=2)
        assert whole == LogSeries({(F(1), 0): F(2)}, order=3, ramification=3)
        assert whole != LogSeries({(F(1), 0): F(2), (F(1, 2), 0): F(1)},
                                  order=3, ramification=2)
        assert whole != LogSeries({(F(1), 0): F(2)}, order=4, ramification=2)
        assert whole + LogSeries.zero(order=3, ramification=2) == whole

    def test_rows_round_trip(self):
        rng = random.Random(47)
        for _ in range(100):
            a = lattice_series(rng)
            assert len(a.rows()) == 4
            assert len(a.rows()[0]) == math.ceil(a.order * a.ramification)
            assert_same(LogSeries.from_rows(a.rows(), a.order,
                                            a.ramification), a)


def mul_trunc_reference(a, b, n):
    """The product kernel that padded both operands to n terms."""
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    a = [c.numerator * (da // c.denominator) for c in a[:n]] + [0] * (n - len(a))
    rb = [0] * (n - len(b)) + [c.numerator * (db // c.denominator)
                               for c in reversed(b[:n])]
    out = [sum(map(mul, a[:k + 1], rb[n - 1 - k:])) for k in range(n)]
    return out if da * db == 1 else [F(v, da * db) for v in out]


class TestMulTruncMatchesPadded:
    """_mul_trunc reads each operand up to its support; the values and
    the int/Fraction types match the padded kernel."""

    @staticmethod
    def operand(rng, kind, zeros):
        """Seeded ints or Fractions (some with denominator 1), maybe all
        zero, with the given number of trailing zeros."""
        body = [rng.randrange(-60, 61) for _ in range(rng.randrange(0, 9))]
        if rng.random() < 0.15:
            body = [0] * len(body)
        if kind is F:
            body = [F(c, rng.choice([1, 1, 2, 3, 7])) for c in body]
        return body + [kind(0)] * zeros

    @staticmethod
    def check(a, b, n):
        for x, y in ((a, b), (b, a)):
            got, ref = _mul_trunc(x, y, n), mul_trunc_reference(x, y, n)
            assert got == ref
            assert list(map(type, got)) == list(map(type, ref))

    def test_against_padded(self):
        rng = random.Random(73)
        cases = set()
        for _ in range(300):
            za, zb = rng.choice([(0, 0), (2, 0), (0, 3), (1, 2)])
            a = self.operand(rng, rng.choice([int, F]), za)
            b = self.operand(rng, rng.choice([int, F]), zb)
            for n in range(max(len(a), len(b)) + 3):
                self.check(a, b, n)
                cases.add((bool(za), bool(zb), n < len(a), n < len(b)))
        # trailing zeros on neither, either or both sides, and n below and
        # above each operand's length
        assert len(cases) == 16

    def test_empty_and_zero_operands(self):
        for a in ([], [0], [F(0)] * 4, [F(1, 3), 0, 0]):
            for b in ([], [F(0)], [2, 5, 0], [F(1, 2)] * 3):
                for n in range(6):
                    self.check(a, b, n)


class TestKernelsMatchRecurrences:
    """invert, exp and log on _mul_trunc against the recurrences they
    replaced."""

    def test_invert(self):
        rng = random.Random(53)
        for _ in range(120):
            a = unit_series(rng, F(rng.choice([-3, -1, 1, 2, 5]),
                                   rng.randrange(1, 4)))
            assert_same(a.invert(), invert_reference(a))
        assert_same(LogSeries.constant(F(-2, 3), order=1).invert(),
                    LogSeries.constant(F(-3, 2), order=1))

    def test_log(self):
        rng = random.Random(59)
        for _ in range(120):
            a = unit_series(rng, F(1))
            assert_same(a.log(), log_reference(a))
        assert_same(LogSeries.constant(1, order=1).log(),
                    LogSeries.zero(order=1))

    def test_exp(self):
        rng = random.Random(67)
        for _ in range(120):
            a = unit_series(rng, F(0))
            assert_same(a.exp(), exp_reference(a))
        assert_same(LogSeries.zero(order=1).exp(),
                    LogSeries.constant(1, order=1))


class TestJson:
    def test_schema(self):
        doc = LogSeries({(F(1, 2), 1): F(-3, 7)}, order=F(5, 2),
                        ramification=2).to_json()
        assert doc["ramification"] == 2
        assert doc["order"] == "5/2"
        assert doc["terms"] == [
            {"exp": "1/2", "log": 1, "num": "-3", "den": "7"}]
