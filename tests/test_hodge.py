"""Point reports, sign laws, and finite-difference curvature."""

import pytest
from mpmath import mp

import cyworkbench as cw
from cyworkbench.errors import OutsideDisk, PrecisionLoss, SignViolation
from cyworkbench.frames import SymplecticFrame


class TestPointReports:
    def test_small_real_point(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("1e-7"))
        assert rep.pairing_value > 0
        assert rep.weil_petersson > 0
        assert rep.dd_pairing < 0
        assert rep.chern_form_positive

    def test_self_pairing_vanishes(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("1e-5", "2e-5"))
        assert rep.self_pairing_abs < mp.mpf("1e-20") * rep.pairing_value

    def test_kahler_potential_matches_pairing(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("3e-5"))
        with mp.workprec(300):
            assert abs(mp.exp(-rep.kahler_potential) - rep.pairing_value) < \
                mp.mpf("1e-60") * rep.pairing_value

    @pytest.mark.parametrize("prec_bits", [128, 256])
    def test_kahler_equals_point_potential(self, quintic_basis,
                                           quintic_frame, quintic_family,
                                           prec_bits):
        ev = cw.HodgeEvaluator(quintic_basis, quintic_frame, prec_bits)
        for z0 in cw.sample_points(quintic_family.pf.singular_radius, 0.4, 3):
            assert ev.kahler(z0) == ev.point(z0).kahler_potential

    def test_metric_routes_agree(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("2e-5", "-1e-5"))
        rel = abs(rep.weil_petersson - rep.weil_petersson_ratio) / \
            rep.weil_petersson
        assert rel < mp.mpf("1e-40")

    def test_tail_bound_recorded(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("1e-4"))
        assert rep.tail_bound_rel < mp.mpf("1e-20")
        assert rep.prec_bits == 256

    def test_outside_disk(self, quintic_hodge):
        with pytest.raises(OutsideDisk):
            quintic_hodge.point(mp.mpc("0.001"))

    def test_wrong_polarization_flagged(self, quintic_basis, quintic_frame):
        # flipping the relative sign of the antidiagonal blocks breaks
        # the negativity law for the (2,1) component
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[1][2] = -gram[1][2]
        gram[2][1] = -gram[2][1]
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram),
                              transition=quintic_frame.transition)
        ev = cw.HodgeEvaluator(quintic_basis, bad, prec_bits=128)
        with pytest.raises(SignViolation):
            ev.point(mp.mpc("1e-5", "1e-5"))


class TestSignSuite:
    def test_disk_samples(self, quintic_hodge, quintic_family):
        pts = cw.sample_points(quintic_family.pf.singular_radius, 0.5, 20)
        for z0 in pts:
            rep = quintic_hodge.point(z0)
            assert rep.pairing_value > 0
            assert rep.dd_pairing < 0
            assert rep.self_pairing_abs < \
                mp.mpf("1e-20") * rep.pairing_value
            assert rep.weil_petersson > 0

    def test_positivity_on_real_axis_toward_singular_point(
            self, quintic_family, quintic_frame):
        basis = cw.frobenius_solve(quintic_family.pf, 120)
        ev = cw.HodgeEvaluator(basis, quintic_frame, prec_bits=256)
        radius = mp.mpf(1) / 3125
        for frac in ("0.6", "0.75", "0.9"):
            rep = ev.point(radius * mp.mpf(frac))
            assert rep.pairing_value > 0
            assert rep.weil_petersson > 0
            assert rep.dd_pairing < 0

    def test_sample_points_layout(self, quintic_family):
        radius = quintic_family.pf.singular_radius
        pts = cw.sample_points(radius, 0.5, 24)
        assert len(pts) == 24
        bound = mp.mpf(radius.numerator) / radius.denominator / 2
        for z in pts:
            assert abs(z) <= bound * (1 + mp.mpf("1e-30"))
            assert abs(mp.arg(z)) < mp.pi - mp.mpf("0.3")


class TestCurvature:
    def test_fd_matches_algebraic_small_point(self, quintic_hodge):
        chk = cw.fd_curvature_check(quintic_hodge, mp.mpc("1e-7"),
                                    mp.mpf("1e-12"))
        assert chk.rel_error < 1e-6

    def test_fd_matches_at_disk_scale(self, quintic_hodge):
        chk = cw.fd_curvature_check(quintic_hodge, mp.mpc("1e-4", "5e-5"),
                                    mp.mpf("1e-10"))
        assert chk.rel_error < 1e-6

    def test_step_halving_quadratic(self, quintic_hodge):
        z0 = mp.mpc("1e-7")
        e1 = cw.fd_curvature_check(quintic_hodge, z0, mp.mpf("2e-11"),
                                   tolerance=None).rel_error
        e2 = cw.fd_curvature_check(quintic_hodge, z0, mp.mpf("1e-11"),
                                   tolerance=None).rel_error
        ratio = e1 / e2
        assert 2.5 < ratio < 6.5

    def test_precision_loss_suggests_smaller_step(self, quintic_hodge):
        with pytest.raises(PrecisionLoss) as info:
            cw.fd_curvature_check(quintic_hodge, mp.mpc("1e-7"),
                                  mp.mpf("1e-10"), tolerance=1e-8)
        assert info.value.suggested_h is not None

    def test_theta4_family_consistency(self):
        fam = cw.constant_coupling_family(1)
        basis = cw.frobenius_solve(fam.pf, 8)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order), 1)
        ev = cw.HodgeEvaluator(basis, frame, prec_bits=256)
        rep = ev.point(mp.mpc("0.01"))
        assert rep.weil_petersson > 0
        chk = cw.fd_curvature_check(ev, mp.mpc("0.01"), mp.mpf("1e-9"))
        assert chk.rel_error < 1e-6


class TestGriffithsResiduals:
    def test_quintic(self, quintic_basis, quintic_frame):
        r1, r2 = cw.griffiths_residuals(quintic_basis, quintic_frame)
        assert r1.is_zero and r2.is_zero

    def test_non_symplectic_transition(self, quintic_basis, quintic_frame):
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[0][2] += 1
        gram[2][0] -= 1
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram),
                              transition=quintic_frame.transition)
        r1, r2 = cw.griffiths_residuals(quintic_basis, bad)
        assert not (r1.is_zero and r2.is_zero)


class TestReportSerialization:
    def test_json_keys(self, quintic_hodge):
        reports = [quintic_hodge.point(mp.mpc("1e-5"))]
        doc = cw.hodge_report_json(reports, config_hash="abc123")
        assert doc["config_hash"] == "abc123"
        point = doc["points"][0]
        for key in ("z0", "periods", "theta1", "theta2", "theta3",
                    "pairing", "K", "G_wp", "curvature",
                    "chern_form_positive", "tail_bound_rel"):
            assert key in point
        assert point["chern_form_positive"] is True
