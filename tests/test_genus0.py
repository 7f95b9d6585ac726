"""Mirror map, triple coupling, instanton extraction, frame pairing."""

import random
from fractions import Fraction as F

import pytest
import sympy

import cyworkbench as cw
from cyworkbench import frames
from cyworkbench.errors import (DomainError, IntegralityViolation,
                                NonMeromorphic, NormalizationMissing)
from cyworkbench.frames import STANDARD_J, SymplecticFrame
from cyworkbench.picard_fuchs import PFOperator, PeriodBasis
from cyworkbench.series import LogSeries


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
    fam = cw.constant_coupling_family(kappa)
    return fam, cw.frobenius_solve(fam.pf, order)


def random_mum_operator(seed):
    """a_0..a_3 vanish at z = 0 and a_4(0) = 1, so theta^4 is the indicial part."""
    rng = random.Random(seed)
    coeffs = [(0,) + tuple(F(rng.randrange(-9, 10), rng.randrange(1, 4))
                           for _ in range(2)) for _ in range(4)]
    coeffs.append((1, F(rng.randrange(-9, 10), rng.randrange(1, 4))))
    return PFOperator(tuple(coeffs), F(1, 100))


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
        assert mm.t_of_z == LogSeries.log_z(order=basis.order)
        assert mm.q_of_z == LogSeries.variable(order=basis.order + 1)
        assert mm.z_of_q == LogSeries.variable(order=basis.order + 1)

    def test_quintic_q_of_z(self, quintic_mirror):
        q = quintic_mirror.q_of_z
        assert [q[d] for d in range(4)] == [0, 1, 770, 1014275]

    def test_quintic_z_of_q(self, quintic_mirror):
        z = quintic_mirror.z_of_q
        assert [z[d] for d in range(5)] == [0, 1, -770, 171525, -81623000]

    def test_round_trip(self, quintic_mirror):
        mm = quintic_mirror
        ident = LogSeries.variable(order=mm.q_of_z.order)
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
        c = 2
        op = PFOperator(
            coefficients=((F(0), -120 * c), (F(0), -1250 * c),
                          (F(0), -4375 * c), (F(0), -6250 * c),
                          (F(1), -3125 * c)),
            singular_radius=F(1, 3125 * c))
        fam = cw.CYFamilyConfig(name="scaled", pf=op, triple_intersection=5,
                                c2_H=50, euler=-200)
        y = cw.yukawa_theta(fam)
        assert y.factors == (((F(1), F(-6250)), -1),)

    def test_constant_coupling(self):
        fam = cw.constant_coupling_family(7)
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

    def test_non_meromorphic_rejected(self):
        # a_3 = z a_4' gives Y ~ (1 - z)^(-1/2): not a rational function
        op = PFOperator(
            coefficients=((), (), (), (F(0), F(-1)), (F(1), F(-1))),
            singular_radius=F(1))
        fam = cw.CYFamilyConfig(name="halfpow", pf=op, triple_intersection=1,
                                c2_H=0, euler=0)
        with pytest.raises(NonMeromorphic):
            cw.yukawa_theta(fam)

    @pytest.mark.parametrize("factors", [
        [(1 - 2 * Z, -1), (1 + 3 * Z, 2)],
        [(1 - Z, -1), (1 + 2 * Z, -1)],
        [(1 + Z + Z ** 2, -1)],
        [(1 - Z, 2), (1 + Z, -3)],
        [(1 - 3 * Z, -2), (1 + sympy.Rational(5, 2) * Z, 3)],
        [(1 - Z, 1), (1 + Z ** 2, -1), (1 + 7 * Z, -2)],
    ], ids=["distinct-exponents", "shared-exponent", "irreducible-quadratic",
            "exponents-2-and-minus-3", "exponents-minus-2-and-3",
            "three-factors"])
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
        data = cw.compute_yukawa(quintic_family, quintic_basis,
                                 quintic_mirror)
        assert data.y_theta.scale == 5
        assert data.c_ttt[1] == 2875


class TestInstantons:
    def test_quintic_low_degrees(self, quintic_cttt, quintic_family):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        assert res.integers[1] == 2875
        assert res.integers[2] == 609250
        assert res.integers[3] == 317206375
        assert not res.flagged

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
        fam = cw.constant_coupling_family(5)
        c = LogSeries.constant(5, order=9)
        res = cw.extract_instantons(c, fam)
        assert all(v == 0 for v in res.n.values())

    def test_constant_term_mismatch(self, quintic_family):
        with pytest.raises(DomainError):
            cw.extract_instantons(LogSeries.constant(7, order=5),
                                  quintic_family)

    def test_integrality_violation(self, quintic_cttt, quintic_family):
        bad = quintic_cttt + LogSeries.monomial(F(1, 2), 1,
                                                order=quintic_cttt.order)
        with pytest.raises(IntegralityViolation):
            cw.extract_instantons(bad, quintic_family)
        res = cw.extract_instantons(bad, quintic_family, strict=False)
        assert 1 in res.flagged

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
        pot = cw.assemble_genus0(quintic_family, res.gw, quintic_cttt.order,
                                 instantons=res.integers)
        assert pot.classical_cubic == F(5, 6)
        assert pot.quantum.constant_term == 0
        assert pot.quantum[1] == 2875

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

    def test_pairing_duality(self, quintic_frame):
        # alpha_i paired with beta^j gives the Kronecker delta
        alpha = [(1, 0, 0, 0), (0, 1, 0, 0)]
        beta = [(0, 0, 1, 0), (0, 0, 0, 1)]
        for i in range(2):
            for j in range(2):
                assert quintic_frame.pairing(alpha[i], beta[j]) == \
                    (1 if i == j else 0)
                assert quintic_frame.pairing(alpha[i], alpha[j]) == 0
                assert quintic_frame.pairing(beta[i], beta[j]) == 0

    def test_pairing_antisymmetry(self, quintic_frame):
        v = (3, -2, 5, 7)
        assert quintic_frame.pairing(v, v) == 0

    def test_transition_consistency(self, quintic_frame):
        """T^T J T reproduces the Frobenius Gram matrix."""
        t = quintic_frame.transition
        j = STANDARD_J
        for a in range(4):
            for b in range(4):
                acc = sum(t[i][a] * j[i][k] * t[k][b]
                          for i in range(4) for k in range(4))
                assert acc == quintic_frame.gram_frobenius[a][b]

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
        op = {"quintic": lambda: cw.quintic().pf,
              "sextic": lambda: cw.sextic().pf,
              "theta4": lambda: cw.constant_coupling_family(1).pf,
              "random": lambda: random_mum_operator(23)}[family]()
        basis = cw.frobenius_solve(op, 12)
        assert frames._wronskians(basis, derivative) == \
            reference_wronskians(basis, derivative)

    def test_ramified_basis_rejected(self, quintic_basis):
        half = LogSeries.monomial(1, F(1, 2), order=quintic_basis.order)
        omegas = (quintic_basis.omega0 + half,) + quintic_basis.omegas[1:]
        basis = PeriodBasis(omegas, quintic_basis.operator,
                            quintic_basis.order)
        with pytest.raises(DomainError, match="unramified"):
            frames._wronskians(basis, 1)


class TestGriffithsIdentity:
    def test_quintic_residual_vanishes(self, quintic_basis, quintic_frame):
        res = cw.check_special_geometry_identity(quintic_basis, quintic_frame)
        assert res.is_zero

    def test_trivial_family(self):
        fam, basis = trivial_basis()
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 1)
        assert cw.check_special_geometry_identity(basis, frame).is_zero

    def test_misnormalized_frame_detected(self, quintic_basis, quintic_frame):
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[0][1] += 1
        gram[1][0] -= 1
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram),
                              transition=quintic_frame.transition)
        res = cw.check_special_geometry_identity(quintic_basis, bad)
        assert not res.is_zero

    def test_frame_required(self, quintic_basis):
        with pytest.raises(NormalizationMissing):
            cw.check_special_geometry_identity(quintic_basis, None)
