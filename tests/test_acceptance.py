"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here, not configurable.
"""

import contextlib
import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import sympy
from mpmath import mp

import cyworkbench as cw
from cyworkbench.anomaly import AnomalyGrid, GridField, PropagatorSpec
from cyworkbench.cli import main
from cyworkbench.series import LogSeries

from conftest import series_value


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL - {desc}")
        raise
    print(f"criterion {num:2d} PASS - {desc}")


def test_criterion_01_fundamental_period(quintic_family):
    with criterion(1, "omega_0 coefficients equal (5d)!/(d!)^5 for d <= 20"):
        start = time.perf_counter()
        basis = cw.frobenius_solve(quintic_family.pf, 21)
        for d in range(21):
            assert basis.omega0[d] == F(math.factorial(5 * d),
                                        math.factorial(d) ** 5)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_instanton_numbers(quintic_family):
    with criterion(2, "n_1, n_2, n_3 with integrality and truncation "
                      "stability"):
        start = time.perf_counter()

        def run(order):
            basis = cw.frobenius_solve(quintic_family.pf, order)
            mm = cw.build_mirror_map(basis)
            c = cw.flat_yukawa(cw.yukawa_theta(quintic_family), basis, mm)
            return cw.extract_instantons(c, quintic_family)

        low, high = run(15), run(20)
        assert high.n[1] == 2875
        assert high.n[2] == 609250
        assert high.n[3] == 317206375
        for d in range(1, 11):
            assert low.n[d].denominator == 1
            assert high.n[d].denominator == 1
            assert low.n[d] == high.n[d]
        assert time.perf_counter() - start < 10.0


def test_criterion_03_constant_maps():
    with criterion(3, "constant-map contributions match the Bernoulli "
                      "oracle for g = 2..8"):
        value = cw.constant_map_contribution(2, -200)
        assert value == F(-5, 144)
        assert value == F(-200) * F(1, 5760)
        for g in range(2, 9):
            b2g = sympy.bernoulli(2 * g)
            b2g2 = sympy.bernoulli(2 * g - 2)
            oracle = (F((-1) ** g)
                      * abs(F(int(b2g.p), int(b2g.q)))
                      * abs(F(int(b2g2.p), int(b2g2.q)))
                      / (4 * g * (2 * g - 2) * math.factorial(2 * g - 2))
                      * -200)
            assert cw.constant_map_contribution(g, -200) == oracle


def _sign_suite_points(quintic_family):
    radius = quintic_family.pf.singular_radius
    return cw.sample_points(radius, 0.499, 20)


def test_criterion_04_hodge_riemann_signs(quintic_hodge, quintic_family):
    with criterion(4, "sign laws at 20 points with |z| < 5^-5 / 2 at "
                      "256 bits"):
        pts = _sign_suite_points(quintic_family)
        assert len(pts) >= 20
        bound = mp.mpf(1) / 3125 / 2
        for z0 in pts:
            assert abs(z0) < bound
            rep = quintic_hodge.point(z0)
            assert rep.prec_bits == 256
            assert rep.pairing_value > 0
            assert rep.dd_pairing < 0
            assert rep.self_pairing_abs < \
                mp.mpf("1e-20") * rep.pairing_value


def test_criterion_05_curvature_consistency(quintic_hodge, quintic_family):
    with criterion(5, "finite-difference curvature within 1e-6 at step "
                      "1e-10, Chern form positive"):
        for z0 in _sign_suite_points(quintic_family):
            chk = cw.fd_curvature_check(quintic_hodge, z0, mp.mpf("1e-10"),
                                        tolerance=1e-6)
            assert chk.rel_error < 1e-6
            assert quintic_hodge.point(z0).chern_form_positive


def test_criterion_06_genus0_consistency(quintic_family, quintic_cttt):
    with criterion(6, "(q d/dq)^3 of the assembled potential reproduces "
                      "the coupling exactly"):
        res = cw.extract_instantons(quintic_cttt, quintic_family)
        pot = cw.assemble_genus0(quintic_family, res.gw, quintic_cttt.order)
        assert cw.coupling_from_potential(pot) == quintic_cttt


def test_criterion_07_griffiths_residuals(quintic_basis, quintic_frame):
    with criterion(7, "Q(Omega, theta Omega) and Q(Omega, theta^2 Omega) "
                      "vanish identically"):
        r1, r2 = (quintic_frame.pairing_series(quintic_basis, k)
                  for k in (1, 2))
        assert r1.is_zero
        assert r2.is_zero


def _anomaly_grid_and_propagator():
    z, w = sympy.symbols("z w")
    alpha = sympy.Rational(1, 3)
    f1 = 1 + z + z ** 2 / 2
    c = sympy.Rational(2, 5) + z / 4
    s = w * c + z ** 2 / 9
    exprs = {"G": sympy.exp(alpha * z), "K": z / 7 + w / 11,
             "F1": f1, "C": c}
    with mp.workprec(280):
        z_nodes = [mp.mpf("0.3") + k * mp.mpf("0.001") for k in range(9)]
        w_nodes = [mp.mpf("0.2") + k * mp.mpf("0.001") for k in range(9)]
        fields = {}
        for name, expr in exprs.items():
            fn = sympy.lambdify((z, w), expr, modules="mpmath")
            fields[name] = [[mp.mpc(fn(zv, wv)) for wv in w_nodes]
                            for zv in z_nodes]
        grid = AnomalyGrid(z_nodes, w_nodes, fields, prec_bits=256)
        s_fn = sympy.lambdify((z, w), s, modules="mpmath")
        prop = PropagatorSpec(tuple(
            tuple(mp.mpc(s_fn(zv, wv)) for wv in w_nodes)
            for zv in z_nodes))
    return grid, prop


def test_criterion_08_hae_residual_suite():
    with criterion(8, "integrated genus-2 residual < 1e-8 with ambiguity "
                      "invariance and linear response"):
        grid, prop = _anomaly_grid_and_propagator()
        f2, report = cw.genus2_integrate(grid, prop, tolerance=1e-8)
        assert report.max_abs < mp.mpf("1e-8")

        # adding a holomorphic function changes the residual by < 1e-12
        _, shifted = cw.genus2_integrate(grid, prop,
                                         ambiguity=lambda zz: 3 + zz ** 2,
                                         tolerance=1e-8)
        assert abs(shifted.max_abs - report.max_abs) < mp.mpf("1e-12")

        # perturbing by eps * zbar shifts the residual by eps within 1%
        eps = mp.mpf("1e-3")
        with mp.workprec(280):
            bumped = GridField(tuple(
                tuple(None if v is None else v + eps * wv
                      for v, wv in zip(row, grid.zbar_nodes))
                for row in f2.values))
        rep = cw.hae_residual(grid.with_field("F2", bumped), 2)
        assert abs(rep.max_abs - eps) < eps / 100


def test_criterion_09_extended_residual_suite():
    with criterion(9, "open-string residual: closed reduction bit-for-bit, "
                      "unstable exclusions, ramified data"):
        grid, prop = _anomaly_grid_and_propagator()
        f2, _ = cw.genus2_integrate(grid, prop, tolerance=1e-8)
        grid = grid.with_field("F2", f2)

        # all open fields zero: identical to the closed residual
        closed = cw.hae_residual(grid, 2).residual
        reduced = cw.ehae_residual(grid, 2, 0).residual
        for ra, rb in zip(closed.values, reduced.values):
            for x, y in zip(ra, rb):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x == y

        # exclusion of (0,0) and (0,1): the (0,3) residual neither needs
        # nor reacts to disk data except through the Delta-term
        z, w = sympy.symbols("z w")
        delta = sympy.Rational(1, 4) + z / 6
        f02 = z + z ** 2 / 3 + w * z / 2
        f03 = -sympy.integrate(delta * sympy.diff(f02, z), w)
        with mp.workprec(280):
            z_nodes = [mp.mpf("0.3") + k * mp.mpf("0.001") for k in range(7)]
            w_nodes = [mp.mpf("0.2") + k * mp.mpf("0.001") for k in range(7)]
            fields = {}
            for name, expr in (("C", 1 + 0 * z), ("K", 0 * z),
                               ("G", 1 + 0 * z), ("Delta", delta),
                               ("F0_2", f02), ("F0_3", f03)):
                fn = sympy.lambdify((z, w), expr, modules="mpmath")
                fields[name] = [[mp.mpc(fn(zv, wv)) for wv in w_nodes]
                                for zv in z_nodes]
            open_grid = AnomalyGrid(z_nodes, w_nodes, fields, prec_bits=256)
        rep = cw.ehae_residual(open_grid, 0, 3)
        assert rep.max_abs < mp.mpf("1e-8")

        # half-integer-power data differentiates with no ramification error
        series = LogSeries({(F(1, 2), 0): F(1), (F(3, 2), 0): F(2)},
                           order=3, ramification=2)
        with mp.workprec(280):
            vals = [[series_value(series, zv) for _ in w_nodes]
                    for zv in z_nodes]
            half_grid = AnomalyGrid(z_nodes, w_nodes, {"f": vals},
                                    prec_bits=256)
            from cyworkbench.anomaly import _central
            fd = _central(half_grid, half_grid.field("f"), "z")
            theta_series = series.theta()
            for i, zv in enumerate(z_nodes):
                if fd.values[i][0] is None:
                    continue
                expected = series_value(theta_series, zv) / zv
                assert abs(fd.values[i][0] - expected) < mp.mpf("1e-4")


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two pipeline runs produce byte-identical exact "
                       "artifacts"):
        repo_cfg = Path(__file__).resolve().parent.parent / \
            "configs/quintic.json"
        doc = json.loads(repo_cfg.read_text())
        doc["truncation_order"] = 10
        doc["precision_bits"] = 128
        doc["samples"] = {"count": 6, "radius_fraction": 0.4}
        doc["hodge_order"] = 40
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        for name in ("periods.json", "instantons.json", "hodge.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
