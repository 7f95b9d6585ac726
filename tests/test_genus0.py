"""Mirror map, triple coupling, instanton extraction, frame pairing."""

import dataclasses
import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy

import cyworkbench as cw
from cyworkbench import frames, genus0
from cyworkbench.errors import (DomainError, IntegralityViolation,
                                LogDegreeOverflow, NonMeromorphic,
                                NormalizationMissing, WorkbenchError)
from cyworkbench.frames import SymplecticFrame
from cyworkbench.picard_fuchs import PFOperator, PeriodBasis
from cyworkbench.pipeline import WorkbenchConfig, run_pipeline
from cyworkbench.series import LogSeries

from conftest import (CONFIGS, constant_coupling_family, degree_two_operator,
                      random_mum_operator, shipped_family)


Z = sympy.Symbol("z")


def sympy_coeffs(expr):
    poly = sympy.Poly(sympy.expand(expr), Z)
    return tuple(F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def coupling_family(a3, a4, kappa=5):
    op = PFOperator(coefficients=((), (), (), a3, a4),
                    singular_radius=F(1, 100))
    return cw.CYFamilyConfig(name="test", pf=op, triple_intersection=kappa,
                             c2_H=0, euler=0)


def factored_family(factors, kappa=5):
    """a_4 = prod f and a_3 = -2 a_4 theta log prod f^m, so Y ~ prod f^m."""
    a4 = sympy.Mul(*(f for f, _ in factors))
    a3 = sympy.cancel(-2 * Z * a4 * sum(m * sympy.diff(f, Z) / f
                                        for f, m in factors))
    return coupling_family(sympy_coeffs(a3), sympy_coeffs(a4), kappa)


def trivial_basis(order=8, kappa=1):
    fam = constant_coupling_family(kappa)
    return fam, cw.frobenius_solve(fam.pf, order)


def random_hypergeometric_family(seed):
    """theta^4 - mu z (theta + a)(theta + 1 - a)(theta + b)(theta + 1 - b)
    with seeded a, b, mu: MUM, symplectic, and Y = kappa / (1 - mu z)."""
    rng = random.Random(seed)
    a, b = (F(rng.randrange(1, 6), rng.randrange(6, 13)) for _ in range(2))
    mu = F(rng.randrange(2, 900), rng.randrange(1, 5))
    p, q = a * (1 - a), b * (1 - b)
    coeffs = ((0, -mu * p * q), (0, -mu * (p + q)), (0, -mu * (1 + p + q)),
              (0, -2 * mu), (1, -mu))
    return cw.CYFamilyConfig(name="hypergeometric",
                             pf=PFOperator(coeffs, 1 / mu),
                             triple_intersection=rng.randrange(1, 20),
                             c2_H=0, euler=0)


def scaled_quintic_family(c):
    """The quintic operator with z replaced by c z."""
    op = PFOperator(
        coefficients=((F(0), -120 * c), (F(0), -1250 * c),
                      (F(0), -4375 * c), (F(0), -6250 * c),
                      (F(1), -3125 * c)),
        singular_radius=F(1, 3125 * c))
    return cw.CYFamilyConfig(name="scaled", pf=op, triple_intersection=5,
                             c2_H=50, euler=-200)


def operator_family(op, kappa=1):
    return cw.CYFamilyConfig(name="operator", pf=op, triple_intersection=kappa,
                             c2_H=0, euler=0)


def with_a1_added(fam, term):
    """The family with the polynomial ``term`` added to a_1."""
    a = [list(p) for p in fam.pf.coefficients]
    a[1] = [x + y for x, y in itertools.zip_longest(a[1], term, fillvalue=0)]
    op = PFOperator(tuple(map(tuple, a)), fam.pf.singular_radius)
    return dataclasses.replace(fam, pf=op)


def with_coupling_of(fam, other):
    """fam with the a_3, a_4 of ``other``: fam's periods, other's Y."""
    coeffs = fam.pf.coefficients[:3] + other.pf.coefficients[3:]
    return dataclasses.replace(fam, pf=PFOperator(coeffs, F(1, 100)))


# factors f^m of Y for factored_family, by name
FACTOR_SETS = {
    "distinct-exponents": [(1 - 2 * Z, -1), (1 + 3 * Z, 2)],
    "shared-exponent": [(1 - Z, -1), (1 + 2 * Z, -1)],
    "irreducible-quadratic": [(1 + Z + Z ** 2, -1)],
    "exponents-2-and-minus-3": [(1 - Z, 2), (1 + Z, -3)],
    "exponents-minus-2-and-3": [(1 - 3 * Z, -2),
                                (1 + sympy.Rational(5, 2) * Z, 3)],
    "three-factors": [(1 - Z, 1), (1 + Z ** 2, -1), (1 + 7 * Z, -2)],
}


# every MUM family the suite builds, and a_1-perturbed hypergeometric ones
SUITE_FAMILIES = {
    "quintic": lambda: shipped_family("quintic"),
    "sextic": lambda: shipped_family("sextic"),
    "theta4": lambda: constant_coupling_family(3),
    **{f"hypergeometric-{s}": lambda s=s: random_hypergeometric_family(s)
       for s in range(20)},
    **{f"hypergeometric-{s}-a1":
       lambda s=s: with_a1_added(random_hypergeometric_family(s), (0, 1))
       for s in range(20)},
    **{f"random-{s}": lambda s=s: operator_family(random_mum_operator(s))
       for s in range(40)},
    "random-31-degree-3":
        lambda: operator_family(random_mum_operator(31, degree=3)),
    "degree-two": lambda: operator_family(degree_two_operator()),
    "scaled-quintic": lambda: scaled_quintic_family(2),
    "halfpow": lambda: coupling_family((F(0), F(-1)), (F(1), F(-1))),
    "double-root": lambda: coupling_family((F(0), F(1)), (F(1), F(-2), F(1))),
    "polynomial-part": lambda: coupling_family((F(0), F(0), F(1)),
                                               (F(1), F(-1))),
    "complex-residues": lambda: coupling_family((F(0), F(4)),
                                                (F(1), F(0), F(1))),
    **{f"factored-{name}": lambda f=f: factored_family(f)
       for name, f in FACTOR_SETS.items()},
    "factored-half-integer-exponent": lambda: factored_family(
        [(1 - Z, sympy.Rational(1, 2)), (1 + 2 * Z, -1)]),
}


def _nullspace(rows, ncols):
    """Exact nullspace basis by Gauss-Jordan elimination over Q."""
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[free] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


def pair_frame(i, j):
    """A frame whose Gram matrix holds only S_ij = 1 = -S_ji, so its
    pairing series is the single Wronskian W_ij."""
    gram = [[F(0)] * 4 for _ in range(4)]
    gram[i][j], gram[j][i] = F(1), F(-1)
    return SymplecticFrame(gram_frobenius=tuple(map(tuple, gram)))


def reference_gram(basis, kappa):
    """The general solve the closed form replaced: nullspace of
    Q(Omega, theta Omega) = 0 over all six pairs, scaled on theta^3."""
    w1, w3 = reference_wronskians(basis, 1), reference_wronskians(basis, 3)
    keys = sorted(set().union(*(set(d) for d in w1.values())))
    rows = [[w1[p].get(key, F(0)) for p in frames._PAIRS] for key in keys]
    for vec in _nullspace(rows, len(frames._PAIRS)):
        lead = sum(c * w3[p].get((F(0), 0), F(0))
                   for c, p in zip(vec, frames._PAIRS))
        if lead != 0:
            gram = [[F(0)] * 4 for _ in range(4)]
            for (i, j), c in zip(frames._PAIRS, vec):
                gram[i][j], gram[j][i] = c * -kappa / lead, c * kappa / lead
            return tuple(map(tuple, gram))
    raise NormalizationMissing("no pairing")


def theta3_wronskian(basis):
    """W^3_03 - W^3_12, the series the full-order solve reads s from."""
    return (pair_frame(0, 3).pairing_series(basis, 3)
            - pair_frame(1, 2).pairing_series(basis, 3))


def reference_solve(basis, yukawa_series, kappa, w3=None):
    """The full-order solve that the operator identity replaced: s from
    [z^0] of the theta^3 Wronskians w3, then Q(Omega, theta Omega) and
    Q(Omega, theta^3 Omega) + Y checked as series to the basis order."""
    w3 = theta3_wronskian(basis) if w3 is None else w3
    if w3.constant_term == 0:
        raise NormalizationMissing("pairing is degenerate against theta^3")
    s, zero = -F(kappa) / w3.constant_term, F(0)
    frame = SymplecticFrame(gram_frobenius=(
        (zero, zero, zero, s), (zero, zero, -s, zero),
        (zero, s, zero, zero), (-s, zero, zero, zero)))
    if not frame.pairing_series(basis, 1).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta Omega) residual is nonzero; "
            "the operator does not carry a symplectic structure")
    if not (w3 * s + yukawa_series.truncate(basis.order)).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta^3 Omega) does not reproduce the triple coupling")
    return frame


def solve_outcome(solve, basis, yukawa_series, kappa):
    """The Gram matrix a solve returns, or the type and text it raises."""
    try:
        return solve(basis, yukawa_series, kappa).gram_frobenius
    except WorkbenchError as exc:
        return type(exc), str(exc)


def coupling_or_constant(fam, order):
    """Y of the family, or the constant kappa where Y is not rational."""
    try:
        return cw.yukawa_theta(fam).series(order)
    except NonMeromorphic:
        return LogSeries.constant(fam.triple_intersection, order)


def gap_family():
    """The quintic with z^25 added to a_1: its Calabi-Yau identity fails
    first at z^25, past the full-order checks at N = 20."""
    return with_a1_added(shipped_family("quintic"), (0,) * 25 + (1,))


def count_pairings(monkeypatch):
    """The orders of the bases SymplecticFrame.pairing_series is called on
    from here on, in the list returned."""
    orders, pairing = [], SymplecticFrame.pairing_series

    def counted(frame, basis, derivative):
        orders.append(basis.order)
        return pairing(frame, basis, derivative)

    monkeypatch.setattr(SymplecticFrame, "pairing_series", counted)
    return orders


def reference_wronskians(basis, derivative):
    """w_i theta^der w_j - w_j theta^der w_i on (exponent, log) -> Fraction maps."""

    def theta(d):
        out = {}
        for (e, k), c in d.items():
            if e != 0:
                out[(e, k)] = out.get((e, k), F(0)) + e * c
            if k > 0:
                out[(e, k - 1)] = out.get((e, k - 1), F(0)) + k * c
        return out

    def mul(a, b):
        out = {}
        for (e1, k1), c1 in a.items():
            for (e2, k2), c2 in b.items():
                if e1 + e2 < basis.order:
                    key = (e1 + e2, k1 + k2)
                    out[key] = out.get(key, F(0)) + c1 * c2
        return out

    raw = [dict(w.items()) for w in basis.omegas]
    der = raw
    for _ in range(derivative):
        der = [theta(d) for d in der]
    out = {}
    for i, j in frames._PAIRS:
        d = mul(raw[i], der[j])
        for key, v in mul(raw[j], der[i]).items():
            d[key] = d.get(key, F(0)) - v
        out[(i, j)] = {key: v for key, v in d.items() if v != 0}
    return out


class TestMirrorMap:
    def test_trivial_family(self):
        _, basis = trivial_basis()
        mm = cw.build_mirror_map(basis)
        assert mm.u == LogSeries.zero(order=basis.order)
        assert mm.q_of_z == LogSeries({(1, 0): 1}, order=basis.order + 1)
        assert mm.z_of_q == LogSeries({(1, 0): 1}, order=basis.order + 1)

    def test_quintic_q_of_z(self, quintic_mirror):
        q = quintic_mirror.q_of_z
        assert [q[d] for d in range(4)] == [0, 1, 770, 1014275]

    def test_quintic_z_of_q(self, quintic_mirror):
        z = quintic_mirror.z_of_q
        assert [z[d] for d in range(5)] == [0, 1, -770, 171525, -81623000]

    def test_round_trip(self, quintic_mirror):
        mm = quintic_mirror
        ident = LogSeries({(1, 0): 1}, order=mm.q_of_z.order)
        assert mm.z_of_q.compose(mm.q_of_z) == ident
        assert mm.q_of_z.compose(mm.z_of_q) == ident

    def test_reversion_stability(self, quintic_family):
        """Lagrange reversion at higher truncation refines, never changes."""
        low = cw.build_mirror_map(cw.frobenius_solve(quintic_family.pf, 8))
        high = cw.build_mirror_map(cw.frobenius_solve(quintic_family.pf, 14))
        assert high.z_of_q.truncate(low.z_of_q.order) == low.z_of_q


class TestYukawaTheta:
    def test_quintic_closed_form(self, quintic_yukawa):
        y = quintic_yukawa
        assert y.scale == 5
        assert y.factors == (((F(1), F(-3125)), -1),)
        assert str(y) == "(5)/(1 - 3125*z)"

    def test_quintic_series(self, quintic_yukawa):
        s = quintic_yukawa.series(4)
        assert [s[d] for d in range(4)] == [5, 5 * 3125, 5 * 3125 ** 2,
                                            5 * 3125 ** 3]

    def test_value_at_origin_is_triple_intersection(self, quintic_yukawa):
        assert quintic_yukawa.series(2).constant_term == 5

    def test_scaled_operator_covariance(self):
        y = cw.yukawa_theta(scaled_quintic_family(2))
        assert y.factors == (((F(1), F(-6250)), -1),)

    def test_constant_coupling(self):
        fam = constant_coupling_family(7)
        y = cw.yukawa_theta(fam)
        assert y.scale == 7 and y.factors == ()

    def test_multi_factor_rational_form(self):
        y = cw.YukawaCoupling(
            scale=F(7, 2),
            factors=(((F(1), F(2)), 1), ((F(1), F(-1)), -2)))
        num, den = y.numerator_denominator()
        assert num == (F(7, 2), F(7))       # (7/2)(1 + 2z)
        assert den == (F(1), F(-2), F(1))   # (1 - z)^2
        s = y.series(5)
        direct = (F(7, 2) * cw.LogSeries.from_coefficients([1, 2], order=5)
                  * cw.LogSeries.from_coefficients([1, -1], order=5)
                  .invert() ** 2)
        assert s == direct
        assert str(y) == "(7/2 + 7*z)/(1 - 2*z + z^2)"

    @pytest.mark.parametrize("power", [-7, -4, -1, 1, 2, 3, 5, 8])
    def test_powers_match_repeated_product(self, power):
        """Repeated squaring gives the P/Q of the repeated-product loop."""
        y = cw.YukawaCoupling(scale=F(3, 2), factors=(
            ((F(1), F(-2), F(1, 3)), power), ((F(1), F(5)), -1)))
        num, den = [y.scale], [F(1)]
        for coeffs, m in y.factors:
            target = num if m > 0 else den
            for _ in range(abs(m)):
                target[:] = genus0._poly_mul(target, list(coeffs))
        got = y.numerator_denominator()
        assert got == (tuple(num), tuple(den))
        assert all(type(c) is F for p in got for c in p)

    def test_high_power_bounded(self, monkeypatch):
        """Y = 5 (1 - z)^1000 takes at most 2 bit_length(1000) products."""
        y = cw.yukawa_theta(coupling_family((F(0), F(2000)), (F(1), F(-1))))
        assert y.factors == (((F(1), F(-1)), 1000),)
        calls, poly_mul = [], genus0._poly_mul

        def counted(a, b):
            calls.append(1)
            return poly_mul(a, b)

        monkeypatch.setattr(genus0, "_poly_mul", counted)
        num, den = y.numerator_denominator()
        assert len(calls) <= 2 * (1000).bit_length()
        assert den == (1,)
        assert num == tuple(5 * (-1) ** k * math.comb(1000, k)
                            for k in range(1001))

    def test_non_meromorphic_rejected(self):
        # a_3 = z a_4' gives Y ~ (1 - z)^(-1/2): not a rational function
        op = PFOperator(
            coefficients=((), (), (), (F(0), F(-1)), (F(1), F(-1))),
            singular_radius=F(1))
        fam = cw.CYFamilyConfig(name="halfpow", pf=op, triple_intersection=1,
                                c2_H=0, euler=0)
        with pytest.raises(NonMeromorphic):
            cw.yukawa_theta(fam)

    @pytest.mark.parametrize("factors", FACTOR_SETS.values(),
                             ids=FACTOR_SETS.keys())
    def test_factored_operator_matches_sympy(self, factors):
        num, den = sympy.fraction(sympy.cancel(
            5 * sympy.Mul(*(f ** m for f, m in factors))))
        lead = sympy_coeffs(den)[0]
        expected = (tuple(c / lead for c in sympy_coeffs(num)),
                    tuple(c / lead for c in sympy_coeffs(den)))
        y = cw.yukawa_theta(factored_family(factors))
        assert y.numerator_denominator() == expected
        assert [m for _, m in y.factors] == sorted({m for _, m in factors})

    def test_shared_exponent_grouped(self):
        y = cw.yukawa_theta(factored_family([(1 - Z, -1), (1 + 2 * Z, -1)]))
        assert y.factors == (((F(1), F(1), F(-2)), -1),)

    @pytest.mark.parametrize("fam, reason", [
        (factored_family([(1 - Z, sympy.Rational(1, 2)), (1 + 2 * Z, -1)]),
         "non-integer power"),
        (coupling_family((F(0), F(1)), (F(1), F(-2), F(1))),
         "higher-order pole"),
        (coupling_family((F(0), F(0), F(1)), (F(1), F(-1))),
         "polynomial part"),
        (coupling_family((F(1),), (F(1), F(-1))), "at the origin"),
        (coupling_family((F(0), F(4)), (F(1), F(0), F(1))),
         "non-integer power"),
    ], ids=["half-integer-exponent", "double-root", "polynomial-part",
            "pole-at-origin", "complex-residues"])
    def test_non_rational_rejected(self, fam, reason):
        with pytest.raises(NonMeromorphic, match=reason):
            cw.yukawa_theta(fam)


def eigenvalues_reference(h, d):
    """Distinct integer eigenvalues of multiplication by h on Q[z]/(d).

    The traces p_k = tr(h^k) give the characteristic polynomial
    x^n + c_1 x^(n-1) + ... + c_n through Newton's identities.  When all
    eigenvalues r_i are integers so is every c_k, each r_i divides c_n,
    and r_i^2 <= sum r^2 = c_1^2 - 2 c_2, which bounds the search.
    """
    n = len(d) - 1
    power, traces = [F(1)], []
    for _ in range(n):
        power = genus0._poly_divmod(genus0._poly_mul(power, h), d)[1]
        traces.append(sum((genus0._poly_divmod([0] * j + power, d)[1]
                           + [0] * n)[j] for j in range(n)))
    c = [F(1)]
    for k in range(1, n + 1):
        c.append(-sum(c[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    if any(x.denominator != 1 for x in c):
        return []
    bound = math.isqrt(max(int(c[1] ** 2 - 2 * (c[2] if n > 1 else 0)), 0))
    return [m for m in range(-bound, bound + 1) if m and c[n] % m == 0
            and sum(x * m ** (n - k) for k, x in enumerate(c)) == 0]


def reference_factors(fam):
    """The factors of Y, with the residues from the characteristic
    polynomial; raises NonMeromorphic like yukawa_theta.  Every case it
    is run on has a_3(0) = 0 and a squarefree D of higher degree."""
    g = genus0
    a3, a4 = fam.pf.coefficients[3], fam.pf.coefficients[4]
    common = g._poly_gcd(a3[1:], a4)
    numer, denom = (g._poly_divmod(p, common)[0] for p in (a3[1:], a4))
    numer = [-c / (2 * denom[-1]) for c in numer]
    denom = [c / denom[-1] for c in denom]
    h = g._poly_divmod(g._poly_mul(
        numer, g._poly_inv_mod(g._poly_deriv(denom), denom)), denom)[1]
    factors = []
    for m in eigenvalues_reference(h, denom):
        f = g._poly_gcd(denom, g._poly_sub(h, [m]))
        factors.append((tuple(c / f[0] for c in f), m))
    if sum(len(f) - 1 for f, _ in factors) != len(denom) - 1:
        raise NonMeromorphic(
            "coupling requires a non-integer power; not meromorphic")
    return tuple(factors)


def scan_case(seed):
    """1-4 coprime squarefree linear or quadratic factors with shared
    exponents in -6..6; every third case has a half-integer exponent,
    and every third a term s/f that shifts the residues at the roots of
    a quadratic f (or of a_4) by s/f', mostly off the integers."""
    rng = random.Random(seed)
    while True:
        factors = [1 + F(rng.randrange(-9, 10), rng.randrange(1, 4)) * Z
                   + rng.choice([0, rng.randrange(-5, 6)]) * Z ** 2
                   for _ in range(rng.randint(1, 4))]
        a4 = sympy.Mul(*factors)
        if all(sympy.degree(f, Z) >= 1 for f in factors) and \
                sympy.degree(sympy.gcd(a4, sympy.diff(a4, Z)), Z) == 0:
            break
    pool = rng.sample(range(-6, 7), 2)
    exps = [rng.choice(pool) for _ in factors]
    log_dy = sum(m * sympy.diff(f, Z) / f for f, m in zip(factors, exps))
    if seed % 3 == 1:
        log_dy += sympy.Rational(1, 2) * sympy.diff(factors[0], Z) / factors[0]
    if seed % 3 == 2:
        quad = [f for f in factors if sympy.degree(f, Z) == 2] or [a4]
        log_dy += sympy.Rational(rng.randrange(1, 7), rng.randrange(1, 4)) \
            / quad[0]
    a3 = sympy.cancel(-2 * Z * a4 * log_dy)
    return coupling_family(sympy_coeffs(a3), sympy_coeffs(a4))


def outcome(fn, *args):
    """fn(*args), or the text of the NonMeromorphic it raises."""
    try:
        return fn(*args)
    except NonMeromorphic as exc:
        return str(exc)


class TestResidueScan:
    """The bounded gcd scan against the characteristic-polynomial search
    it replaced: same factors in the same order, or the same error."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_cases_match_reference(self, seed):
        fam = scan_case(seed)
        got = outcome(lambda: cw.yukawa_theta(fam).factors)
        assert got == outcome(reference_factors, fam)

    @pytest.mark.parametrize("family", ["halfpow", "complex-residues",
                                        "factored-half-integer-exponent",
                                        *(f"factored-{name}"
                                          for name in FACTOR_SETS)])
    def test_suite_cases_match_reference(self, family):
        fam = SUITE_FAMILIES[family]()
        got = outcome(lambda: cw.yukawa_theta(fam).factors)
        assert got == outcome(reference_factors, fam)

    def test_seeded_cases_cover_both_outcomes(self):
        outcomes = [outcome(reference_factors, scan_case(s))
                    for s in range(40)]
        assert sum(isinstance(o, str) for o in outcomes) >= 10
        assert sum(isinstance(o, tuple) and len(o) >= 2
                   for o in outcomes) >= 5
        assert max(abs(m) for o in outcomes if isinstance(o, tuple)
                   for _, m in o) >= 5

    def test_non_integer_trace_refused_without_scan(self, monkeypatch):
        """Y ~ (1 - z)^(1000 + 1/2): tr h^2 = 1000.5^2 is not an integer,
        so the refusal takes no gcd past the two before the scan."""
        calls, poly_gcd = [], genus0._poly_gcd

        def counted(a, b):
            calls.append(1)
            return poly_gcd(a, b)

        monkeypatch.setattr(genus0, "_poly_gcd", counted)
        with pytest.raises(NonMeromorphic, match="non-integer power"):
            cw.yukawa_theta(coupling_family((F(0), F(2001)), (F(1), F(-1))))
        assert len(calls) == 2

    def test_large_residues_refused_without_scan(self, monkeypatch):
        """Residues 10^5 -+ 1/sqrt(2) (D = 1 - 2 z^2) have the integer
        tr h^2 = 2 10^10 + 1: refused by the bound, not after 4 10^5 gcds."""
        calls, poly_gcd = [], genus0._poly_gcd

        def counted(a, b):
            calls.append(1)
            return poly_gcd(a, b)

        monkeypatch.setattr(genus0, "_poly_gcd", counted)
        fam = coupling_family((F(0), F(-4), F(8 * 10 ** 5)),
                              (F(1), F(0), F(-2)))
        start = time.perf_counter()
        with pytest.raises(NonMeromorphic, match=r"tr h\^2 = 20000000001, "
                           "above the scan bound MAX_RESIDUE_SQUARES"):
            cw.yukawa_theta(fam)
        assert time.perf_counter() - start < 0.05
        assert len(calls) == 2

    @pytest.mark.parametrize("family", [
        lambda: shipped_family("quintic"), lambda: shipped_family("sextic"),
        lambda: with_coupling_of(shipped_family("quintic"), factored_family(
            FACTOR_SETS["three-factors"]))],
        ids=["quintic", "sextic", "quintic-periods-three-factor-coupling"])
    def test_flat_coupling_matches_two_inversions(self, family):
        """One inversion of Q omega_0^2 (theta t)^3 gives the C(z) of
        Y (omega_0^2 (theta t)^3)^-1 with Y = P Q^-1, composed with z(q)."""
        fam = family()
        y = cw.yukawa_theta(fam)
        basis = cw.frobenius_solve(fam.pf, 24)
        mm = cw.build_mirror_map(basis)
        denom = basis.omega0 ** 2 * (mm.u.theta() + 1) ** 3
        two = (y.series(24) * denom.invert()).compose(mm.z_of_q)
        assert cw.flat_yukawa(y, basis, mm) == two


class TestFlatYukawa:
    def test_trivial_family_constant(self):
        fam, basis = trivial_basis(kappa=3)
        mm = cw.build_mirror_map(basis)
        c = cw.flat_yukawa(cw.yukawa_theta(fam), basis, mm)
        assert c == LogSeries.constant(3, order=basis.order)

    def test_quintic_expansion(self, quintic_cttt):
        assert [quintic_cttt[d] for d in range(4)] == \
            [5, 2875, 4876875, 8564575000]

    def test_constant_term_always_triple_intersection(
            self, quintic_cttt, quintic_family):
        assert quintic_cttt.constant_term == \
            quintic_family.triple_intersection

    def test_bundled_coupling_data(self, quintic_family, quintic_basis,
                                   quintic_mirror):
        y = cw.yukawa_theta(quintic_family)
        c_ttt = cw.flat_yukawa(y, quintic_basis, quintic_mirror)
        assert y.scale == c_ttt.constant_term == 5
        assert c_ttt[1] == 2875


class TestInstantons:
    def test_quintic_low_degrees(self, quintic_cttt, quintic_family):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        assert res.n[1] == 2875
        assert res.n[2] == 609250
        assert res.n[3] == 317206375
        assert all(v.denominator == 1 for v in res.n.values())

    def test_gw_divisor_sums(self, quintic_cttt, quintic_family):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        assert res.gw[2] == F(2875, 8) + 609250
        assert res.gw[3] == F(2875, 27) + 317206375

    def test_all_integral_through_degree_10(self, quintic_cttt,
                                            quintic_family):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        for d in range(1, 11):
            assert res.n[d].denominator == 1

    def test_zero_quantum_part(self):
        fam = constant_coupling_family(5)
        c = LogSeries.constant(5, order=9)
        res = cw.extract_instantons(c, fam)
        assert all(v == 0 for v in res.n.values())

    def test_constant_term_mismatch(self, quintic_family):
        with pytest.raises(DomainError):
            cw.extract_instantons(LogSeries.constant(7, order=5),
                                  quintic_family)

    def test_integrality_violation(self, quintic_cttt, quintic_family):
        bad = quintic_cttt + LogSeries({(1, 0): F(1, 2)},
                                       order=quintic_cttt.order)
        # n_1 = 2875 + 1/2
        with pytest.raises(IntegralityViolation, match="n_1 = 5751/2"):
            cw.extract_instantons(bad, quintic_family)

    def test_truncation_monotonicity(self, quintic_family):
        """Computing at N then truncating equals computing at N' < N."""
        def run(order):
            basis = cw.frobenius_solve(quintic_family.pf, order)
            mm = cw.build_mirror_map(basis)
            c = cw.flat_yukawa(cw.yukawa_theta(quintic_family), basis, mm)
            return c, cw.extract_instantons(c, quintic_family)

        (c_low, low), (c_high, high) = run(8), run(12)
        assert c_high.truncate(c_low.order) == c_low
        for d in low.n:
            assert low.n[d] == high.n[d]


class TestGenus0Potential:
    def test_classical_coefficient(self, quintic_family, quintic_cttt):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        pot = cw.assemble_genus0(quintic_family, res.gw, quintic_cttt.order)
        assert pot.coefficient(0, 3) == F(5, 6)
        assert pot.constant_term == 0
        assert pot[1] == 2875

    def test_two_coupling_routes_agree(self, quintic_family, quintic_cttt):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        pot = cw.assemble_genus0(quintic_family, res.gw, quintic_cttt.order)
        assert cw.coupling_from_potential(pot) == quintic_cttt

    def test_export_schema(self, quintic_family, quintic_cttt,
                           quintic_mirror):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        doc = cw.genus0_export(quintic_family, res, quintic_mirror,
                               quintic_cttt)
        assert doc["family"] == "quintic"
        assert doc["n"]["1"] == "2875"
        assert doc["N0"]["2"] == "4876875/8"
        assert doc["mirror_map"]["terms"][0]["exp"] == "1"


class TestSymplecticFrame:
    def test_quintic_gram(self, quintic_frame):
        s = quintic_frame.gram_frobenius
        assert s[0][3] == -5 and s[1][2] == 5
        assert s[0][1] == s[0][2] == s[1][3] == s[2][3] == 0
        assert all(s[i][j] == -s[j][i] for i in range(4) for j in range(4))
        # det S = Pf(S)^2, so a nonzero Pfaffian makes S nondegenerate
        assert s[0][1] * s[2][3] - s[0][2] * s[1][3] + s[0][3] * s[1][2] == -25

    def test_pairing_series_theta3_is_minus_yukawa(
            self, quintic_basis, quintic_frame, quintic_yukawa):
        w3 = quintic_frame.pairing_series(quintic_basis, 3)
        assert w3 == -1 * quintic_yukawa.series(quintic_basis.order)

    def test_theta4_frame(self):
        fam, basis = trivial_basis(kappa=2)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 2)
        assert frame.pairing_series(basis, 1).is_zero
        assert frame.pairing_series(basis, 2).is_zero


    @pytest.mark.parametrize("derivative", [1, 2, 3])
    @pytest.mark.parametrize("family", ["quintic", "sextic", "theta4",
                                        "random"])
    def test_wronskians_match_reference(self, family, derivative):
        op = {"quintic": lambda: shipped_family("quintic").pf,
              "sextic": lambda: shipped_family("sextic").pf,
              "theta4": lambda: constant_coupling_family(1).pf,
              "random": lambda: random_mum_operator(23)}[family]()
        basis = cw.frobenius_solve(op, 12)
        ref = reference_wronskians(basis, derivative)
        # the pairs whose products stay within log degree 3
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2)]:
            got = pair_frame(i, j).pairing_series(basis, derivative)
            assert got.order == basis.order
            assert dict(got.items()) == ref[(i, j)]

    @pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
    def test_gram_past_log_degree_three_overflows(self, quintic_basis, pair):
        """w_1 theta w_3 and w_2 theta w_3 carry log^4 z and log^5 z: a Gram
        matrix with S_13 or S_23 != 0 is refused."""
        with pytest.raises(LogDegreeOverflow):
            pair_frame(*pair).pairing_series(quintic_basis, 1)

    @pytest.mark.parametrize("family", [
        lambda: shipped_family("quintic"), lambda: shipped_family("sextic"),
        lambda: constant_coupling_family(3),
        lambda: random_hypergeometric_family(5),
        lambda: random_hypergeometric_family(6)],
        ids=["quintic", "sextic", "theta4", "hypergeometric-5",
             "hypergeometric-6"])
    def test_closed_form_gram_matches_nullspace(self, family):
        fam = family()
        basis = cw.frobenius_solve(fam.pf, 12)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order),
            fam.triple_intersection)
        assert frame.gram_frobenius == reference_gram(
            basis, fam.triple_intersection)

    def test_random_operator_rejected_like_nullspace(self):
        basis = cw.frobenius_solve(random_mum_operator(23), 12)
        with pytest.raises(NormalizationMissing):
            reference_gram(basis, 1)
        with pytest.raises(NormalizationMissing, match="theta Omega"):
            cw.solve_symplectic_frame(
                basis, LogSeries.constant(-1, basis.order), 1)

    def test_wrong_coupling_rejected(self, quintic_basis, quintic_yukawa):
        y = quintic_yukawa.series(quintic_basis.order)
        with pytest.raises(NormalizationMissing, match="triple coupling"):
            cw.solve_symplectic_frame(
                quintic_basis,
                y + LogSeries({(3, 0): 1}, order=quintic_basis.order), 5)

    @pytest.mark.parametrize("family", SUITE_FAMILIES.values(),
                             ids=SUITE_FAMILIES.keys())
    def test_operator_identity_matches_full_order_solve(self, family):
        """Same Gram matrix, or same error type and text, as the full-order
        solve, for the family's coupling and for a wrong one."""
        fam = family()
        basis = cw.frobenius_solve(fam.pf, 20)
        w3 = theta3_wronskian(basis)
        assert w3.constant_term == 1
        reference = functools.partial(reference_solve, w3=w3)
        y = coupling_or_constant(fam, basis.order)
        for series in (y, y + LogSeries({(2, 0): 1}, order=basis.order)):
            args = (basis, series, fam.triple_intersection)
            assert solve_outcome(cw.solve_symplectic_frame, *args) == \
                solve_outcome(reference, *args)

    def test_gap_operator_rejected(self):
        """The full-order checks pass at N = 20; the identity does not."""
        fam = gap_family()
        basis = cw.frobenius_solve(fam.pf, 20)
        y = cw.yukawa_theta(fam).series(basis.order)
        reference_solve(basis, y, fam.triple_intersection)
        with pytest.raises(NormalizationMissing, match="theta Omega"):
            cw.solve_symplectic_frame(basis, y, fam.triple_intersection)

    def test_bounded_work(self, quintic_family, monkeypatch):
        """The frame at N = 240 takes well under a second and builds no
        Wronskian."""
        basis = cw.frobenius_solve(quintic_family.pf, 240)
        y = cw.yukawa_theta(quintic_family).series(basis.order)
        orders = count_pairings(monkeypatch)
        start = time.perf_counter()
        cw.solve_symplectic_frame(basis, y, 5)
        assert time.perf_counter() - start < 0.25
        assert orders == []

    def test_pipeline_builds_no_wronskian(self, tmp_path, monkeypatch):
        doc = json.loads((CONFIGS / "quintic.json").read_text())
        orders = count_pairings(monkeypatch)
        run_pipeline(WorkbenchConfig.from_json(doc), tmp_path)
        assert orders == []

    def test_rescaled_basis_rejected(self, quintic_basis, quintic_yukawa):
        """2 f_i solves the operator but is not its normalized basis, for
        which S_03 = -S_12 = -kappa; Q(Omega, theta^3 Omega) would read
        -4 Y."""
        basis = PeriodBasis(tuple(2 * f for f in quintic_basis.frobenius),
                            quintic_basis.operator, quintic_basis.order)
        with pytest.raises(NormalizationMissing, match="theta Omega"):
            cw.solve_symplectic_frame(
                basis, quintic_yukawa.series(basis.order), 5)

    def test_ramified_basis_rejected(self, quintic_basis):
        """A ramified or log-carrying Frobenius series fails when the
        basis is built, before any frame or Hodge stage reads it."""
        f, order = quintic_basis.frobenius, quintic_basis.order
        half = LogSeries({(F(1, 2), 0): 1}, order=order, ramification=2)
        for bad in ((f[0] + half,) + f[1:],
                    f[:1] + (f[1] + LogSeries({(0, 1): 1}, order),) + f[2:]):
            with pytest.raises(DomainError, match="unramified"):
                PeriodBasis(bad, quintic_basis.operator, order)


class TestGriffithsIdentity:
    def test_quintic_residual_vanishes(self, quintic_basis, quintic_frame):
        assert quintic_frame.pairing_series(quintic_basis, 1).is_zero

    def test_trivial_family(self):
        fam, basis = trivial_basis()
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 1)
        assert frame.pairing_series(basis, 1).is_zero

    def test_misnormalized_frame_detected(self, quintic_basis, quintic_frame):
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[0][1] += 1
        gram[1][0] -= 1
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram))
        assert not bad.pairing_series(quintic_basis, 1).is_zero
