"""Second reference family: the pipeline is not quintic-specific.

The sextic is loaded from the shipped ``configs/sextic.json``.
"""

import math
from fractions import Fraction as F

import pytest
from mpmath import mp

import cyworkbench as cw

from conftest import shipped_family


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
        assert res.integers[1] == 7884
        assert res.integers[2] == 6028452
        assert res.integers[3] == 11900417220
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


@pytest.mark.parametrize("name", ["quintic", "sextic"])
def test_family_json_round_trip(name):
    fam = shipped_family(name)
    assert cw.CYFamilyConfig.from_json(fam.to_json()) == fam
