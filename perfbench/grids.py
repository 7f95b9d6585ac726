"""Seeded synthetic anomaly grids that solve the recursions exactly.

The construction follows the synthetic solutions in
``tests/test_anomaly.py``, with seeded rational coefficients and complex
nodes.  Every field is a polynomial of degree at most two along each
axis it is differentiated on, and log G is linear in z, so the central
differences the verifier takes are exact and every residual is zero up
to the 40-digit rounding of the serialized values:

* closed genus 2: dbar F2 = C/2 (D D F1 + (D F1)^2), with S the
  propagator (dbar S = C) and F2 = S/2 (D D F1 + (D F1)^2) + h(z);
* open (1, 1): dbar F1_1 = C/2 D D F0_1 - Delta D F1, where F0_1 has
  weight 1, so the Kahler potential K enters through dK.

The grid and the propagator are written as JSON text in the format
``AnomalyGrid.to_json`` and ``PropagatorSpec.to_json`` produce, so the
program only ever sees generated input files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from mpmath import mp

PREC_BITS = 256
DIGITS = 40


def _coeffs(rng: random.Random, count: int, lo: int = -8, hi: int = 8,
            den: int = 16) -> list[Fraction]:
    return [Fraction(rng.randint(lo * den, hi * den), den) or Fraction(1, den)
            for _ in range(count)]


def _mpq(f: Fraction):
    """A rational as an mpf at the working precision."""
    return mp.mpf(f.numerator) / f.denominator


def _fmt(x) -> list[str]:
    return [mp.nstr(x.real, DIGITS), mp.nstr(x.imag, DIGITS)]


def make_grid_texts(seed: int, nz: int, nw: int) -> tuple[str, str]:
    """JSON texts of the grid document and of the propagator document."""
    rng = random.Random(seed)
    alpha, kappa1, kw = (c / 8 for c in _coeffs(rng, 3))
    coeffs = [alpha, kappa1, kw] + _coeffs(rng, 17)
    # complex nodes: base point in a small box, step 1e-3 in a seeded direction
    zr, zi, wr, wi, phz, phw = (Fraction(rng.randint(1, 40), 100)
                                for _ in range(6))

    with mp.workprec(PREC_BITS + 24):
        (al, k1, kw, f0, f1, f2, c0, c1, c2, s2, h0, h3, a0, a1, a2,
         d0, d1, d2, e0, e3) = map(_mpq, coeffs)
        step_z = mp.mpf("1e-3") * mp.expjpi(_mpq(phz))
        step_w = mp.mpf("1e-3") * mp.expjpi(_mpq(phw))
        z_nodes = [mp.mpc(_mpq(zr), _mpq(zi)) + k * step_z for k in range(nz)]
        w_nodes = [mp.mpc(_mpq(wr), _mpq(wi)) + k * step_w for k in range(nw)]
        F = {n: [] for n in ("G", "K", "C", "Delta", "F1", "F2", "F0_1",
                             "F1_1")}
        S = []
        for z in z_nodes:
            df1 = f1 + 2 * f2 * z
            ddf1 = 2 * f2 - al * df1
            bracket = ddf1 + df1 ** 2
            f01 = a0 + a1 * z + a2 * z ** 2
            df01 = a1 + 2 * a2 * z + k1 * f01
            ddf01 = (2 * a2 + k1 * (a1 + 2 * a2 * z)) + (k1 - al) * df01
            cz = c0 + c1 * z
            dz = d0 + d1 * z
            rows = {n: [] for n in F}
            srow = []
            for w in w_nodes:
                s = w * cz + c2 * w ** 2 / 2 + s2 * z ** 2
                srow.append(_fmt(s))
                rows["G"].append(_fmt(mp.exp(al * z)))
                rows["K"].append(_fmt(k1 * z + kw * w))
                rows["C"].append(_fmt(cz + c2 * w))
                rows["Delta"].append(_fmt(dz + d2 * w))
                rows["F1"].append(_fmt(f0 + f1 * z + f2 * z ** 2))
                rows["F2"].append(_fmt(s * bracket / 2 + h0 + h3 * z ** 3))
                rows["F0_1"].append(_fmt(f01))
                rows["F1_1"].append(_fmt(
                    (cz * w / 2 + c2 * w ** 2 / 4) * ddf01
                    - (dz * w + d2 * w ** 2 / 2) * df1
                    + e0 + e3 * z ** 3))
            for n in F:
                F[n].append(rows[n])
            S.append(srow)
        grid_doc = {
            "grid": {"z": [_fmt(z) for z in z_nodes],
                     "zbar": [_fmt(w) for w in w_nodes]},
            "fields": F,
            "prec_bits": PREC_BITS,
        }
    return json.dumps(grid_doc), json.dumps({"S": S})
