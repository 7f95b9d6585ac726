"""Shared fixtures: quintic pipeline objects reused across the suite."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp

import cyworkbench as cw

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_family(name):
    """The family of the shipped config ``configs/<name>.json``."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    return cw.CYFamilyConfig.from_json(doc["family"])


def constant_coupling_family(triple_intersection=1, name="theta4"):
    """Degenerate family with operator theta^4 (no quantum part)."""
    op = cw.PFOperator(((), (), (), (), (F(1),)), F(1))
    return cw.CYFamilyConfig(name=name, pf=op,
                             triple_intersection=triple_intersection,
                             c2_H=0, euler=0)


def random_mum_operator(seed, degree=2):
    """a_0..a_3 vanish at z = 0 and a_4(0) = 1, so theta^4 is the indicial
    part; a_0..a_3 have z-degree ``degree``, a_4 one less."""
    rng = random.Random(seed)
    coeffs = [(0,) + tuple(F(rng.randrange(-9, 10), rng.randrange(1, 4))
                           for _ in range(degree)) for _ in range(4)]
    coeffs.append((1,) + tuple(F(rng.randrange(-9, 10), rng.randrange(1, 4))
                               for _ in range(degree - 1)))
    return cw.PFOperator(tuple(coeffs), F(1, 100))


def degree_two_operator():
    """theta^4 - z (theta+1)^4 - z^2 (2 theta+3)^4, MUM by construction."""
    minus_t4 = [F(-1), F(-4), F(-6), F(-4), F(-1)]
    two_t3 = [F(-81), F(-216), F(-216), F(-96), F(-16)]
    return cw.PFOperator(
        coefficients=tuple(((F(1),) if k == 4 else (F(0),))
                           + (minus_t4[k], two_t3[k]) for k in range(5)),
        singular_radius=F(1, 5))


def series_value(series, z0):
    """Sum of c z0^(i/r) log^k z0 over ``series.rows()``, at the ambient
    precision and on the principal branch."""
    r, log_z = series.ramification, mp.log(z0)
    return mp.fsum(mp.mpf(c.numerator) / c.denominator
                   * mp.exp(log_z * i / r) * log_z ** k
                   for k, row in enumerate(series.rows())
                   for i, c in enumerate(row) if c)


@pytest.fixture(scope="session")
def quintic_family():
    return shipped_family("quintic")


@pytest.fixture(scope="session")
def quintic_basis(quintic_family):
    return cw.frobenius_solve(quintic_family.pf, 20)


@pytest.fixture(scope="session")
def quintic_mirror(quintic_basis):
    return cw.build_mirror_map(quintic_basis)


@pytest.fixture(scope="session")
def quintic_yukawa(quintic_family):
    return cw.yukawa_theta(quintic_family)


@pytest.fixture(scope="session")
def quintic_cttt(quintic_yukawa, quintic_basis, quintic_mirror):
    return cw.flat_yukawa(quintic_yukawa, quintic_basis, quintic_mirror)


@pytest.fixture(scope="session")
def quintic_frame(quintic_basis, quintic_yukawa, quintic_family):
    return cw.solve_symplectic_frame(
        quintic_basis, quintic_yukawa.series(quintic_basis.order),
        quintic_family.triple_intersection)


@pytest.fixture(scope="session")
def quintic_hodge(quintic_family, quintic_frame):
    """High-order evaluator for disk numerics (tail below 1e-20 at r/2)."""
    basis = cw.frobenius_solve(quintic_family.pf, 84)
    return cw.HodgeEvaluator(basis, quintic_frame, prec_bits=256)
