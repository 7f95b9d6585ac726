"""The shipped families: the pipeline is not quintic-specific.

The sextic is loaded from the shipped ``configs/sextic.json``; the
catalogue test covers every hypergeometric family under ``configs/``,
and four Hadamard-product operators with two conifold points, guessed
from their fundamental periods, run the exact path as test families.
"""

import functools
import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy
from mpmath import mp

import cyworkbench as cw
from cyworkbench.cli import main
from cyworkbench.errors import DomainError
from cyworkbench.pipeline import default_hodge_order

from conftest import CONFIGS, shipped_family


class TestSextic:
    def test_fundamental_period_oracle(self):
        basis = cw.frobenius_solve(shipped_family("sextic").pf, 10)
        for d in range(10):
            assert basis.omega0[d] == F(
                math.factorial(6 * d),
                math.factorial(d) ** 4 * math.factorial(2 * d))

    def test_coupling_closed_form(self):
        y = cw.yukawa_theta(shipped_family("sextic"))
        assert y.scale == 3
        assert y.factors == (((F(1), F(-11664)), -1),)

    def test_instanton_numbers(self):
        fam = shipped_family("sextic")
        basis = cw.frobenius_solve(fam.pf, 12)
        mm = cw.build_mirror_map(basis)
        c = cw.flat_yukawa(cw.yukawa_theta(fam), basis, mm)
        res = cw.extract_instantons(c, fam)
        assert res.n[1] == 7884
        assert res.n[2] == 6028452
        assert res.n[3] == 11900417220
        assert all(v.denominator == 1 for v in res.n.values())

    def test_griffiths_residuals(self):
        fam = shipped_family("sextic")
        basis = cw.frobenius_solve(fam.pf, 10)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 3)
        r1, r2 = (frame.pairing_series(basis, k) for k in (1, 2))
        assert r1.is_zero and r2.is_zero

    def test_hodge_signs_on_disk(self):
        fam = shipped_family("sextic")
        basis = cw.frobenius_solve(fam.pf, 60)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 3)
        ev = cw.HodgeEvaluator(basis, frame, prec_bits=192)
        for z0 in cw.sample_points(fam.pf.singular_radius, 0.4, 6):
            rep = ev.point(z0)
            assert rep.pairing_value > 0
            assert rep.weil_petersson > 0
            assert rep.dd_pairing < 0
        radius = fam.pf.singular_radius
        z0 = mp.mpf(radius.numerator) / radius.denominator * mp.mpf("0.2")
        chk = cw.fd_curvature_check(ev, z0, mp.mpf("1e-10"))
        assert chk.rel_error < 1e-6

    def test_constant_maps_use_family_euler(self):
        euler = shipped_family("sextic").euler
        assert cw.constant_map_contribution(2, euler) == F(-204, 5760)

    def test_config_round_trip(self):
        fam = shipped_family("sextic")
        assert cw.CYFamilyConfig.from_json(fam.to_json()) == fam


SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_family_json_round_trip(name):
    fam = shipped_family(name)
    assert cw.CYFamilyConfig.from_json(fam.to_json()) == fam


# (d; w) of each shipped config: a complete intersection of degrees d in
# the weighted projective space P(w), and its n_1..n_3 from the program
CATALOGUE = {
    "quintic": ((5,), (1,) * 5, (2875, 609250, 317206375)),
    "sextic": ((6,), (1,) * 4 + (2,), (7884, 6028452, 11900417220)),
    "x8": ((8,), (1,) * 4 + (4,), (29504, 128834912, 1423720546880)),
    "x10": ((10,), (1, 1, 1, 2, 5),
            (231200, 12215785600, 1700894366474400)),
    "x3_3": ((3, 3), (1,) * 6, (1053, 52812, 6424326)),
    "x4_2": ((4, 2), (1,) * 6, (1280, 92288, 15655168)),
    "x3_2_2": ((3, 2, 2), (1,) * 7, (720, 22428, 1611504)),
    "x2_2_2_2": ((2,) * 4, (1,) * 8, (512, 9728, 416256)),
    "x4_3": ((4, 3), (1,) * 5 + (2,), (1944, 223560, 64754568)),
    "x6_2": ((6, 2), (1,) * 5 + (3,), (4992, 2388768, 2732060032)),
    "x4_4": ((4, 4), (1,) * 4 + (2, 2), (3712, 982464, 683478144)),
    "x6_4": ((6, 4), (1, 1, 1, 2, 2, 3), (15552, 27904176, 133884554688)),
    "x6_6": ((6, 6), (1, 1, 2, 2, 3, 3),
             (67104, 847288224, 28583248229280)),
    "x2_12": ((2, 12), (1,) * 4 + (4, 6),
              (678816, 137685060720, 69080128815414048)),
}


def hypergeometric_data(name):
    """a_1..a_4 and mu of theta^4 - mu z prod(theta + a_i), recomputed
    from the (d; w) of the family in CATALOGUE."""
    d, w, _ = CATALOGUE[name]
    residues = Counter(F(k, dj) for dj in d for k in range(1, dj + 1))
    residues.subtract(F(k, wi) for wi in w for k in range(1, wi + 1))
    assert residues.pop(1) == -4           # the theta^4 of the operator
    mu = F(math.prod(x ** x for x in d), math.prod(x ** x for x in w))
    return list(residues.elements()), mu


def test_catalogue_lists_every_config():
    assert SHIPPED == sorted(CATALOGUE)


@pytest.mark.parametrize("name", SHIPPED)
def test_catalogue(name):
    """The config states L = theta^4 - mu z prod(theta + a_i) and the
    invariants of (d; w), and its exact path gives integral periods and
    mirror map, Y = kappa/(1 - mu z) and the pinned n_1..n_3."""
    d, w, n_low = CATALOGUE[name]
    assert sum(d) == sum(w)
    a, mu = hypergeometric_data(name)
    kappa = F(math.prod(d), math.prod(w))
    prod_theta = [F(1)]                    # prod(theta + a_i), ascending
    for ai in a:
        prod_theta = [ai * x + y for x, y in
                      zip(prod_theta + [0], [0] + prod_theta)]
    fam = shipped_family(name)
    assert len(a) == 4
    assert fam.pf.coefficients == tuple(
        (0, -mu * c) for c in prod_theta[:4]) + ((1, -mu),)
    assert fam.pf.singular_radius == 1 / mu
    assert fam.triple_intersection == kappa
    assert fam.c2_H == kappa * (sum(x * x for x in d)
                                - sum(x * x for x in w)) / 2
    assert fam.euler == kappa * (sum(x ** 3 for x in w)
                                 - sum(x ** 3 for x in d)) / 3

    y = cw.yukawa_theta(fam)
    assert (y.scale, y.factors) == (kappa, (((1, -mu), -1),))
    basis = cw.frobenius_solve(fam.pf, 12)
    mm = cw.build_mirror_map(basis)
    res = cw.extract_instantons(cw.flat_yukawa(y, basis, mm), fam)
    assert (res.n[1], res.n[2], res.n[3]) == n_low
    for s in (basis.omega0, mm.q_of_z, mm.z_of_q):
        assert all(c.denominator == 1 for _, c in s.items())


def hypergeometric_periods(a, mu, z0):
    """omega_0..omega_3 at z0, with omega_k = (1/k!) d^k/dlam^k of
    z^lam 5F4(a + lam, 1; (1 + lam)^4; mu z) at lam = 0: mpmath's hyper
    under its numerical diffs, sharing no code with the workbench."""
    def omega(lam):
        # the shifted parameters are built at the precision diffs runs at;
        # built outside it they would carry the caller's rounding error
        params = [mp.mpf(x.numerator) / x.denominator + lam for x in a]
        return z0 ** lam * mp.hyper(params + [1], [1 + lam] * 4,
                                    mp.mpf(mu.numerator) / mu.denominator * z0)
    return [dk / math.factorial(k)
            for k, dk in enumerate(mp.diffs(omega, 0, 3))]


@pytest.mark.parametrize("name", ["quintic", "sextic", "x10"])
def test_hodge_periods_within_tail_bound_of_oracle(name):
    """The shipped Hodge periods (order 83, 256 bits) lie within their own
    tail_bound_rel of the closed form, at the outermost shipped sample
    and at one on the innermost circle."""
    fam = shipped_family(name)
    basis = cw.frobenius_solve(fam.pf, default_hodge_order(0.5))
    frame = cw.solve_symplectic_frame(
        basis, cw.yukawa_theta(fam).series(basis.order),
        fam.triple_intersection)
    ev = cw.HodgeEvaluator(basis, frame, prec_bits=256)
    a, mu = hypergeometric_data(name)
    points = cw.sample_points(fam.pf.singular_radius, 0.5, 24)
    for z0 in (points[1], points[-1]):
        rep = ev.point(z0)
        with mp.workprec(400):
            oracle = hypergeometric_periods(a, mu, mp.mpc(z0))
            for printed, exact in zip(rep.period_vector, oracle):
                assert abs(printed - exact) <= \
                    rep.tail_bound_rel * abs(exact) + mp.ldexp(1, -256)


def guess_operator(terms, max_shift=2):
    """L = sum_j z^j Q_j(theta) from the terms c_n of its holomorphic
    solution: the smallest recurrence sum_{j<=J} Q_j(n-j) c_{n-j} = 0
    (c_n = 0 for n < 0), deg Q_j <= 4 and J <= max_shift, whose exact
    sympy nullspace is one-dimensional; Q_0 is normalized to theta^4,
    and a_k = sum_j z^j [theta^k] Q_j."""
    for shift in range(1, max_shift + 1):
        rows = [[(n - j) ** k * terms[n - j] if n >= j else 0
                 for j in range(shift + 1) for k in range(5)]
                for n in range(len(terms))]
        null = sympy.Matrix(rows).nullspace()
        if len(null) == 1:
            q = [F(int(x.p), int(x.q)) for x in null[0]]
            assert q[:4] == [0] * 4              # Q_0 = q_4 theta^4: MUM
            return tuple(tuple(q[5 * j + k] / q[4] for j in range(shift + 1))
                         for k in range(5))
    raise AssertionError("no recurrence within the search bounds")


def central(n):
    return math.comb(2 * n, n)


# the factor sequences of the Hadamard products (Almkvist-Zudilin; AESZ):
# A_n = C(2n,n)^2 and B_n = C(2n,n) C(3n,n) against the Apery-like a_n,
# the Franel b_n and c_n = sum C(n,k)^2 C(2k,k)
HADAMARD_FACTORS = {
    "A": lambda n: central(n) ** 2,
    "B": lambda n: central(n) * math.comb(3 * n, n),
    "a": lambda n: sum(math.comb(n, k) ** 2 * math.comb(n + k, k)
                       for k in range(n + 1)),
    "b": lambda n: sum(math.comb(n, k) ** 3 for k in range(n + 1)),
    "c": lambda n: sum(math.comb(n, k) ** 2 * central(k)
                       for k in range(n + 1)),
}

# a_4, the smallest kappa with integral n_d, a radius at or below the
# nearest zero of a_4, and n_1..n_3.  c2.H and chi of these operators
# are not known here, so the families carry c2_H = euler = 0 and stay
# out of configs/; no genus-one, constant-map or Hodge value is pinned
# on them, since a real structure with the Gamma-class term needs chi.
HADAMARD = {
    "A*a": ((1, -176, -256), 1, F(1, 178), (20, 277, 8220)),
    "A*b": ((1, -112, -2048), 1, F(1, 128), (12, 163, 3204)),
    "B*a": ((1, -297, -729), 1, F(1, 300), (36, 837, 41421)),
    "A*c": ((1, -160, 2304), 3, F(1, 144), (48, 426, 11056)),
}


def hadamard_terms(name, count):
    left, right = (HADAMARD_FACTORS[s] for s in name.split("*"))
    return [left(n) * right(n) for n in range(count)]


@functools.cache
def hadamard_operator(name, radius=None):
    coeffs = guess_operator(hadamard_terms(name, 60))
    return cw.PFOperator(coeffs, radius or HADAMARD[name][2])


def hadamard_family(name, kappa=None, radius=None):
    return cw.CYFamilyConfig(
        name=name, pf=hadamard_operator(name, radius),
        triple_intersection=kappa or HADAMARD[name][1], c2_H=0, euler=0)


def test_guess_reproduces_shipped_operator():
    guessed = guess_operator([central(n) ** 4 for n in range(60)])
    assert guessed == shipped_family("x2_2_2_2").pf.coefficients


class TestHadamardProducts:
    """Operators with two conifold points (a_4 of degree 2), guessed from
    the closed form of omega_0.  Their couplings kappa/a_4 are the first
    from geometric operators with a degree-2 denominator; no shipped
    family takes yukawa_theta through the Euclid loop of _poly_inv_mod."""

    @pytest.mark.parametrize("name", sorted(HADAMARD))
    def test_exact_path(self, name):
        a4, kappa, _, n_low = HADAMARD[name]
        fam = hadamard_family(name)
        assert fam.pf.coefficients[4] == a4
        basis = cw.frobenius_solve(fam.pf, 20)
        y = cw.yukawa_theta(fam)
        assert y.numerator_denominator() == ((kappa,), a4)
        cw.solve_symplectic_frame(basis, y.series(basis.order), kappa)
        res = cw.extract_instantons(
            cw.flat_yukawa(y, basis, cw.build_mirror_map(basis)), fam)
        assert (res.n[1], res.n[2], res.n[3]) == n_low
        assert all(v.denominator == 1 for v in res.n.values())

    @pytest.mark.parametrize("name", sorted(HADAMARD))
    def test_integral_periods_and_mirror_map(self, name):
        basis = cw.frobenius_solve(hadamard_operator(name), 30)
        assert [basis.omega0[n] for n in range(30)] == \
            hadamard_terms(name, 30)
        mm = cw.build_mirror_map(basis)
        for s in (mm.q_of_z, mm.z_of_q):
            assert s.order >= 30
            assert all(c.denominator == 1 for _, c in s.items())

    def test_kappa_one_is_not_integral_for_a_star_c(self, tmp_path, capsys):
        """Integrality fixes A*c's kappa: at kappa = 1, n_3, n_9, n_12
        and n_15 have denominator 3, and the run exits 2."""
        doc = {"family": hadamard_family("A*c", kappa=1).to_json(),
               "truncation_order": 20, "precision_bits": 128,
               "samples": {"count": 4, "radius_fraction": 0.4},
               "hodge_order": 40}
        cfg = tmp_path / "a_star_c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "error (IntegralityViolation): non-integer instanton numbers: "
            "n_3 = 11056/3, n_9 = ")

    @pytest.mark.parametrize("name, radius, ok", [
        ("A*b", F(1, 128), True), ("A*b", F(1, 127), False),
        ("A*b", F(1, 20), False),
        # A*a's nearest zero (-176 + sqrt(32000))/512 ~ 0.0056356
        ("A*a", F(1, 178), True), ("A*a", F(1, 177), False)])
    def test_radius_against_both_zeros(self, name, radius, ok):
        fam = hadamard_family(name, radius=radius)
        basis = cw.frobenius_solve(fam.pf, 12)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order),
            fam.triple_intersection)
        if ok:
            cw.HodgeEvaluator(basis, frame, prec_bits=128)
        else:
            with pytest.raises(DomainError, match="lies beyond the zero"):
                cw.HodgeEvaluator(basis, frame, prec_bits=128)
