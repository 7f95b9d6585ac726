"""Point reports, sign laws, and finite-difference curvature."""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction
from operator import add, lshift, mul

import pytest
from mpmath import mp
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_mul, mpc_one,
                          mpf_div, mpf_neg, round_nearest)

import cyworkbench as cw
from cyworkbench import hodge
from cyworkbench.errors import (DomainError, NormalizationMissing,
                               OutsideDisk, PrecisionLoss, SignViolation)
from cyworkbench.frames import SymplecticFrame
from cyworkbench.kernel import _format_complex
from cyworkbench.pipeline import coupling_and_frame, hodge_stage, solve_periods

from conftest import CONFIGS, constant_coupling_family, shipped_family


def _compile(series):
    """Rows transposed: table[n][k] is the z^n log^k z coefficient."""
    zero = mp.mpf(0)
    return [[mp.mpf(c.numerator) / c.denominator if c else zero
             for c in column] for column in zip(*series.rows())]


def reference_towers(basis, z0, rows=4):
    """theta^der w_i at z0 by Horner in log z over the exact theta-series
    of every w_i, the evaluator's former route."""
    tables, series_row = [], list(basis.omegas)
    for _ in range(rows):
        tables.append([_compile(s) for s in series_row])
        series_row = [s.theta() for s in series_row]
    log_z = mp.log(z0)
    powers = [mp.mpc(1)]
    for _ in range(1, math.ceil(basis.order)):
        powers.append(powers[-1] * z0)
    out = []
    for row in tables:
        values = []
        for table in row:
            total = mp.mpc(0)
            for power, (c0, c1, c2, c3) in zip(powers, table):
                total += power * (c0 + log_z * (c1 + log_z * (c2 + log_z * c3)))
            values.append(total)
        out.append(values)
    return out


def fdot_vectors(basis):
    """vecs[e][i][n] = n^e f_i[n] as mpf at the working precision."""
    jets = [w.rows()[0] for w in basis.omegas]
    return [[[mp.mpf(n ** e * c.numerator) / c.denominator
              for n, c in enumerate(f)] for f in jets] for e in range(4)]


def fdot_towers(vecs, z0, log_z, rows=4):
    """theta^der w_i at z0 from 16 mp.fdot calls on fdot_vectors, the
    evaluator's former dot-product kernel."""
    powers = [mp.mpc(1)]
    for _ in range(1, len(vecs[0][0])):
        powers.append(powers[-1] * z0)
    jet = [[mp.fdot(vec, powers) for vec in vecs[e]] for e in range(rows)]
    log_pow = [mp.mpf(1), log_z, log_z ** 2 / 2, log_z ** 3 / 6]
    return [[mp.fsum(math.comb(d, m) * jet[d - m][k - m - p] * log_pow[p]
                     for m in range(min(d, k) + 1)
                     for p in range(k - m + 1))
             for k in range(4)] for d in range(rows)]


def _split(raw):
    """Signed mantissas and binary exponents of raw mpf tuples."""
    return [-m if s else m for s, m, _, _ in raw], [e for _, _, e, _ in raw]


def _dot(mans, exps, pmans, pexps, prec):
    """sum_n mans[n] pmans[n] 2^(exps[n] + pexps[n]) as one exact integer
    sum, rounded once to nearest."""
    shifts = list(map(add, exps, pexps))
    low = min(shifts)
    total = sum(map(lshift, map(mul, mans, pmans),
                    [e - low for e in shifts]))
    return from_man_exp(total, low, prec, round_nearest)


def dot_vectors(basis):
    """vecs[e][i] = (mantissas, exponents) of n^e f_i[n] at the working
    precision."""
    return [[_split([x._mpf_ for x in vec]) for vec in row]
            for row in fdot_vectors(basis)]


def dot_towers(vecs, z0, log_z, rows=4):
    """theta^der w_i at z0 from 32 exact integer dot products on
    dot_vectors, each rounded once: the evaluator's former kernel, an
    exact-sum reference at any exponent spread."""
    prec = mp.prec
    powers = [mpc_one]
    for _ in range(1, len(vecs[0][0][0])):
        powers.append(mpc_mul(powers[-1], z0._mpc_, prec, round_nearest))
    re, im = (_split([p[k] for p in powers]) for k in (0, 1))
    jet = [[mp.make_mpc((_dot(*vec, *re, prec), _dot(*vec, *im, prec)))
            for vec in vecs[e]] for e in range(rows)]
    log_pow = [mp.mpf(1), log_z, log_z ** 2 / 2, log_z ** 3 / 6]
    return [[mp.fsum(math.comb(d, m) * jet[d - m][k - m - p] * log_pow[p]
                     for m in range(min(d, k) + 1)
                     for p in range(k - m + 1))
             for k in range(4)] for d in range(rows)]


def reference_series_grid(f, prec):
    """(exponents, rows, bit lengths, column tops) of the rows n^e f[n],
    each entry rounded by libmp's from_int and mpf_div: the evaluator's
    former grid."""
    exps, rows = [], [[], [], [], []]
    for n, c in enumerate(f):
        col = [mpf_div(from_int(n ** e * c.numerator, prec, round_nearest),
                       from_int(c.denominator), prec, round_nearest)
               for e in range(4)]
        low = [x[2] for x in col if x[1]]
        exps.append(min(low) if low else exps[-1] if exps else 0)
        for row, (s, m, e, _) in zip(rows, col):
            m = m << e - exps[-1] if m else 0
            row.append(-m if s else m)
    bits = [[m.bit_length() if m else -math.inf for m in row]
            for row in rows]
    tops = [x + max(map(int.bit_length, col))
            for x, col in zip(exps, zip(*rows))]
    return exps, rows, bits, tops


def raw(towers):
    return [[x._mpc_ for x in row] for row in towers]


@pytest.fixture(scope="module", params=["quintic", "sextic"])
def family_frame(request):
    """A shipped family and its symplectic frame at order 48."""
    fam = shipped_family(request.param)
    basis = cw.frobenius_solve(fam.pf, 48)
    frame = cw.solve_symplectic_frame(
        basis, cw.yukawa_theta(fam).series(basis.order),
        fam.triple_intersection)
    return fam, frame


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

    @pytest.mark.parametrize("prec_bits", [128, 256, 2048])
    def test_kahler_equals_point_potential(self, quintic_frame, prec_bits):
        """Bit for bit on the shipped quintic run's Hodge samples, so
        fd_curvature_check may read K at z0 off its point() report."""
        cfg = cw.WorkbenchConfig.from_json(
            json.loads((CONFIGS / "quintic.json").read_text()))
        ev = cw.HodgeEvaluator(solve_periods(cfg)[1], quintic_frame,
                               prec_bits)
        points = cw.sample_points(cfg.family.pf.singular_radius,
                                  cfg.radius_fraction, cfg.sample_count)
        assert len(points) == 24
        for z0 in points:
            assert ev.kahler(z0)._mpf_ == ev.point(z0).kahler_potential._mpf_

    def test_metric_routes_agree(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("2e-5", "-1e-5"))
        rel = abs(rep.weil_petersson - rep.weil_petersson_ratio) / \
            rep.weil_petersson
        assert rel < mp.mpf("1e-40")

    def test_tail_bound_recorded(self, quintic_hodge):
        rep = quintic_hodge.point(mp.mpc("1e-4"))
        assert rep.tail_bound_rel < mp.mpf("1e-20")
        assert rep.prec_bits == 256

    def test_fundamental_period_partial_sums(self, quintic_family,
                                             quintic_frame):
        basis = cw.frobenius_solve(quintic_family.pf, 6)
        ev = cw.HodgeEvaluator(basis, quintic_frame, prec_bits=128)
        with mp.workprec(150):
            z0 = mp.mpf("1e-6")
            value = ev.point(z0).period_vector[0]
            oracle = sum(
                (mp.mpf(math.factorial(5 * d)) / math.factorial(d) ** 5)
                * z0 ** d for d in range(6))
            assert abs(value - oracle) < mp.mpf("1e-30")
            assert abs(value - mp.mpf("1.0001201135684742")) < 1e-12

    def test_tail_bound_follows_branch(self, quintic_hodge,
                                       quintic_family):
        # the bound grows with |L|^3, L = log z0 + 2 pi i branch
        z0 = cw.sample_points(quintic_family.pf.singular_radius, 0.5, 24)[-1]
        base = quintic_hodge.point(z0).tail_bound_rel
        far = quintic_hodge.point(z0, branch=3).tail_bound_rel
        assert far > base
        with mp.workprec(280):
            log_z = mp.log(mp.mpc(z0))
            ratio = abs(log_z + 6 * mp.pi * mp.mpc(0, 1)) / abs(log_z)
            assert abs(far / base - ratio ** 3) < mp.mpf("1e-30")

    def test_branch_shift(self, quintic_hodge):
        # log z -> log z + 2 pi i takes w_1 to w_1 + 2 pi i w_0, and the
        # same for every theta-derivative
        z0 = mp.mpc("1e-5", "2e-5")
        base = quintic_hodge.point(z0)
        shifted = quintic_hodge.point(z0, branch=1)
        with mp.workprec(280):
            two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
            for row in ("period_vector", "theta1", "theta2", "theta3"):
                w, v = getattr(base, row), getattr(shifted, row)
                assert v[0] == w[0]
                assert abs(v[1] - w[1] - two_pi_i * w[0]) < \
                    mp.mpf("1e-60") * abs(w[1])

    def test_outside_disk(self, quintic_hodge):
        with pytest.raises(OutsideDisk):
            quintic_hodge.point(mp.mpc("0.001"))

    @pytest.mark.parametrize("a4, radius, message", [
        (("1", "-3125"), "1/1500", "singular_radius 1/1500 lies beyond the "
         "zero of a_4 at |z| = 0.00032"),
        (("1", "-3", "3", "-1"), "1/2", "the zeros of a_4 could not be "
         "placed (polyroots did not converge), so singular_radius cannot "
         "be checked"),
        (("1", "-3125"), "1/3125", None),
        (("1", "-2", "1"), "1", None),
    ], ids=["beyond-zero", "triple-zero", "on-zero", "on-double-zero"])
    def test_radius_checked_against_a4(self, quintic_basis, quintic_frame,
                                       a4, radius, message):
        """The stated radius may reach the nearest zero of a_4, not pass it;
        a_4 whose zeros polyroots cannot place is refused the same way."""
        op = cw.PFOperator(quintic_basis.operator.coefficients[:4] + (a4,),
                           radius)
        basis = cw.PeriodBasis(quintic_basis.frobenius, op, quintic_basis.order)
        if message is None:
            cw.HodgeEvaluator(basis, quintic_frame, prec_bits=128)
            return
        with pytest.raises(DomainError) as info:
            cw.HodgeEvaluator(basis, quintic_frame, prec_bits=128)
        assert str(info.value) == message

    @pytest.mark.parametrize("method", ["point", "kahler"])
    def test_mum_point_rejected(self, quintic_hodge, method):
        # log z0 diverges at z0 = 0: formerly a ZeroDivisionError from
        # point() and a NaN potential from kahler()
        with pytest.raises(DomainError) as info:
            getattr(quintic_hodge, method)(0)
        assert info.value.exit_code == 2
        with pytest.raises(OutsideDisk):
            getattr(quintic_hodge, method)(mp.mpc(mp.nan))

    @pytest.mark.parametrize("method", ["point", "kahler"])
    def test_nan_fails_sign_laws(self, quintic_hodge, monkeypatch, method):
        nan_towers = [[mp.mpc(mp.nan, mp.nan)] * 4] * 4
        monkeypatch.setattr(quintic_hodge, "_towers",
                            lambda z0, log_z, rows=4: nan_towers[:rows])
        with pytest.raises(SignViolation):
            getattr(quintic_hodge, method)(mp.mpc("1e-5", "1e-5"))

    def test_wrong_polarization_flagged(self, quintic_basis, quintic_frame):
        # flipping the relative sign of the antidiagonal blocks breaks
        # the negativity law for the (2,1) component
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[1][2] = -gram[1][2]
        gram[2][1] = -gram[2][1]
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram))
        ev = cw.HodgeEvaluator(quintic_basis, bad, prec_bits=128)
        with pytest.raises(SignViolation):
            ev.point(mp.mpc("1e-5", "1e-5"))


class TestReferenceRoute:
    """The jet kernel against the former per-series Horner route."""

    @pytest.fixture(scope="class", params=["quintic", "sextic"])
    def family_data(self, request):
        fam = shipped_family(request.param)
        basis = cw.frobenius_solve(fam.pf, 48)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order),
            fam.triple_intersection)
        return fam, basis, frame

    @pytest.mark.parametrize("prec_bits", [128, 256, 2048])
    def test_towers_and_kahler(self, family_data, prec_bits):
        fam, basis, frame = family_data
        ev = cw.HodgeEvaluator(basis, frame, prec_bits)
        rng = random.Random(prec_bits)
        radius = fam.pf.singular_radius
        with mp.workprec(prec_bits + 24):
            bound = mp.mpf(2) ** -prec_bits
            rad = mp.mpf(radius.numerator) / radius.denominator
            for _ in range(4):
                z0 = mp.mpc(rad * mp.mpf(rng.uniform(0.01, 0.5))
                            * mp.expjpi(mp.mpf(rng.uniform(-0.8, 0.8))))
                ref = reference_towers(basis, z0)
                got = ev._towers(z0, ev._log(z0, 0))
                for ref_row, got_row in zip(ref, got):
                    for a, b in zip(ref_row, got_row):
                        assert abs(a - b) <= bound * abs(a)
                u0 = ev._twisted(ref[0])
                k_ref = -mp.log((ev.sign_adjust * ev._pair_conj(u0, u0)).real)
                assert abs(ev.kahler(z0) - k_ref) <= bound * abs(k_ref)

    def test_orientation_matches_sampled_rule(self, family_data):
        # the former rule: the sign of (Omega, bar Omega) at 0.001 radius
        fam, basis, frame = family_data
        ev = cw.HodgeEvaluator(basis, frame, 128)
        radius = fam.pf.singular_radius
        with mp.workprec(152):
            zref = mp.mpf(radius.numerator) / radius.denominator / 1000
            u0 = ev._twisted(reference_towers(basis, zref, rows=1)[0])
            sampled = 1 if ev._pair_conj(u0, u0).real > 0 else -1
        assert ev.sign_adjust == sampled == 1


    def test_orientation_needs_s03(self, quintic_basis, quintic_frame):
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[0][3] = gram[3][0] = 0
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram))
        with pytest.raises(NormalizationMissing):
            cw.HodgeEvaluator(quintic_basis, bad, prec_bits=128)


class TestFdotRoute:
    """The integer dot kernel against mp.fdot, bit for bit."""

    @pytest.mark.parametrize("order", [48, 83, 300])
    def test_towers_bitwise(self, family_frame, order):
        fam, frame = family_frame
        basis = cw.frobenius_solve(fam.pf, order)
        radius = fam.pf.singular_radius
        for prec_bits in (128, 256, 2048):
            ev = cw.HodgeEvaluator(basis, frame, prec_bits)
            with mp.workprec(prec_bits + 24):
                vecs = fdot_vectors(basis)
                rad = mp.mpf(radius.numerator) / radius.denominator
                points = (
                    mp.mpc(rad / 3),                       # real axis
                    mp.mpc("1e-300"),
                    mp.mpc("1e-300", "-2e-300"),
                    mp.mpc("1e-3000"),
                    mp.mpc("1e-3000", "-2e-3000"),
                    rad * mp.mpf("0.999") * mp.expj(mp.mpf("0.3")),
                    rad / 2 * mp.expj(mp.pi - mp.mpf("1e-9")),  # by the cut
                )
                for z0 in points:
                    log_z = ev._log(z0, 0)
                    ref = fdot_towers(vecs, z0, log_z)
                    got = ev._towers(z0, log_z)
                    assert [[x._mpc_ for x in row] for row in got] == \
                        [[x._mpc_ for x in row] for row in ref]


class TestExactRoute:
    """The tower kernel against the exact-sum route dot_towers, bit for
    bit, at any exponent spread of the terms."""

    @pytest.mark.parametrize("prec_bits", [128, 256, 2048])
    @pytest.mark.parametrize("order, seeded", [(48, 6), (300, 1)])
    def test_towers_bitwise(self, family_frame, order, seeded, prec_bits):
        fam, frame = family_frame
        basis = cw.frobenius_solve(fam.pf, order)
        ev = cw.HodgeEvaluator(basis, frame, prec_bits)
        radius = fam.pf.singular_radius
        rng = random.Random(order * 10000 + prec_bits)
        with mp.workprec(64):
            # a sample-grid point: short mantissas on the powers
            short = mp.mpf(radius.numerator) / radius.denominator / 3 \
                * mp.expj(mp.mpf("1.8"))
        with mp.workprec(prec_bits + 24):
            vecs = dot_vectors(basis)
            rad = mp.mpf(radius.numerator) / radius.denominator
            points = [
                mp.mpc(rad / 3),                                # real axis
                mp.mpc(0, rad / 5),                         # imaginary axis
                mp.mpc(0, "-1e-40"),
                rad / 2 * mp.expj(mp.pi - mp.mpf("1e-9")),      # by the cut
                rad / 7 * mp.expj(-mp.pi + mp.mpf("1e-30")),
                mp.mpc(rad / 4, mp.ldexp(rad / 4, -5000)),
                mp.mpc(short),
            ]
            top = math.log10(rad / 2)
            for _ in range(seeded):
                points.append(mp.mpf(10) ** rng.uniform(-3000, top)
                              * mp.expj(rng.uniform(-math.pi, math.pi)))
            for z0 in points:
                log_z = ev._log(z0, 0)
                got = ev._towers(z0, log_z)
                assert raw(got) == raw(dot_towers(vecs, z0, log_z))
                # kahler() reads the first row alone
                assert raw(ev._towers(z0, log_z, 1)) == raw(got[:1])

    @pytest.mark.parametrize("seed", range(4))
    def test_window_matches_exact_sum(self, seed, monkeypatch):
        """Rows spread over thousands of bits, the top terms made to cancel
        in part, so that Ziv's test both passes and fails."""
        sums = []
        exact = hodge._exact
        monkeypatch.setattr(hodge, "_exact",
                            lambda row, *rest: sums.append(len(row))
                            or exact(row, *rest))
        rng = random.Random(seed)
        prec = 120
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 12)
            row = [rng.choice([0, 1, -1]) * rng.getrandbits(140)
                   >> rng.randint(0, 139) for _ in range(n)]
            pmans = [rng.choice([1, -1]) * rng.getrandbits(140)
                     >> rng.randint(0, 139) for _ in range(n)]
            shifts = [rng.randint(-4000, 4000) for _ in range(n)]
            if rng.random() < 0.5:
                # the second term nearly cancels the first
                row[1], pmans[1], shifts[1] = -row[0], pmans[0], shifts[0]
                pmans[1] += rng.randint(-3, 3)
            sums.clear()
            got, = hodge._dots((shifts, [row]),
                               (pmans, [0] * n), 1, prec)
            assert got == _dot(row, shifts, pmans, [0] * n, prec)
            # one sum over a window, or a window and then the whole row
            outcomes.add("whole" if sums == [n] else
                         "window" if len(sums) == 1 else "fallback")
        assert {"window", "fallback"} <= outcomes

    @pytest.mark.parametrize("prec", [88, 280, 2072])
    def test_grid_matches_mpf_div(self, prec):
        """The kernel-rounded grid against the libmp route it replaced, on
        zeros, negatives, power-of-two denominators and entries whose
        rounding carries to 2^prec."""
        rng = random.Random(prec)
        for _ in range(20):
            f = []
            for n in range(rng.randint(1, 24)):
                num = rng.choice([0, 1, -1]) * rng.getrandbits(
                    rng.randint(1, 3 * prec))
                den = rng.choice([1 << rng.randint(0, 200),
                                  rng.getrandbits(rng.randint(1, 2 * prec))
                                  | 1])
                if rng.random() < 0.2:
                    # just below a power of two past prec bits: the
                    # numerator's rounding carries to 2^prec
                    den = rng.choice([1, 3])
                    num = rng.choice([1, -1]) * (
                        den << rng.randint(prec, 2 * prec)) - 1
                f.append(Fraction(num, den))
            assert hodge._series_grid(f, prec) \
                == reference_series_grid(f, prec)[:2]

    @pytest.mark.parametrize("prec", [8, 12, 53, 280])
    def test_power_ladder_is_mpc_mul(self, prec):
        """The fused ladder against repeated mpc_mul, on short mantissas
        whose products often end in a rounding tie, and on zero parts."""
        rng = random.Random(prec)
        for _ in range(60):
            z = tuple(from_man_exp(rng.choice([0, 1, -1])
                                   * rng.getrandbits(rng.randint(1, prec)),
                                   rng.randint(-40, 40)) for _ in "ri")
            if z == (from_man_exp(0, 0),) * 2:
                continue
            powers = [mpc_one]
            for _ in range(39):
                powers.append(mpc_mul(powers[-1], z, prec, round_nearest))
            with mp.workprec(prec):
                ladder = hodge._powers(mp.make_mpc(z), 40)
            for k, (mans, exps) in enumerate(ladder):
                assert [from_man_exp(m, e) for m, e in zip(mans, exps)] \
                    == [p[k] for p in powers]

    def test_tiny_point_cost(self, family_frame):
        """The exact sum at z0 = 1e-3000 spans millions of bits; the
        windowed rows keep point() to milliseconds."""
        fam, frame = family_frame
        ev = cw.HodgeEvaluator(cw.frobenius_solve(fam.pf, 300), frame, 256)
        start = time.perf_counter()
        ev.point(mp.mpc("1e-3000"))
        assert time.perf_counter() - start < 0.5


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

    def test_tolerance_scales_with_precision(self, quintic_basis,
                                             quintic_frame):
        tol = {p: cw.HodgeEvaluator(quintic_basis, quintic_frame, p)._sign_tol
               for p in (64, 128, 2048)}
        assert tol[64] == mp.mpf(1e-18)        # the cap
        assert tol[128] == mp.ldexp(1, -64)
        assert tol[2048] == mp.ldexp(1, -1024)

    def test_residue_flagged_at_high_precision(self, quintic_basis,
                                               quintic_frame, monkeypatch):
        # a relative 1e-30 imaginary residue on (Omega, bar Omega) is far
        # above the rounding of 2048-bit arithmetic
        ev = cw.HodgeEvaluator(quintic_basis, quintic_frame, 2048)
        z0 = mp.mpc("1e-5", "1e-5")
        assert ev.point(z0).pairing_value > 0
        pair_conj = ev._pair_conj

        def residue(u, v):
            g = pair_conj(u, v)
            return g + mp.mpc(0, mp.mpf("1e-30")) * abs(g)
        monkeypatch.setattr(ev, "_pair_conj", residue)
        with pytest.raises(SignViolation):
            ev.point(z0)

    def test_sample_points_layout(self, quintic_family):
        radius = quintic_family.pf.singular_radius
        pts = cw.sample_points(radius, 0.5, 24)
        assert len(pts) == 24
        bound = mp.mpf(radius.numerator) / radius.denominator / 2
        for z in pts:
            assert abs(z) <= bound * (1 + mp.mpf("1e-30"))
            assert abs(mp.arg(z)) < mp.pi - mp.mpf("0.3")

    @pytest.mark.parametrize("count", [0, -5])
    def test_sample_count_below_one_refused(self, quintic_family, count):
        with pytest.raises(ValueError, match="sample count"):
            cw.sample_points(quintic_family.pf.singular_radius, 0.5, count)


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

    def test_coarse_step_raises_precision_loss(self, quintic_hodge):
        with pytest.raises(PrecisionLoss):
            cw.fd_curvature_check(quintic_hodge, mp.mpc("1e-7"),
                                  mp.mpf("1e-10"), tolerance=1e-8)

    def test_center_potential_read_from_point(self, quintic_hodge,
                                              monkeypatch):
        z0, h = mp.mpc("1e-4", "5e-5"), mp.mpf("1e-10")
        kahler, calls = quintic_hodge.kahler, []
        monkeypatch.setattr(quintic_hodge, "kahler",
                            lambda z: calls.append(z) or kahler(z))
        chk = cw.fd_curvature_check(quintic_hodge, z0, h)
        assert len(calls) == 4  # the stencil only
        with mp.workprec(quintic_hodge.prec_bits + 24):
            total = mp.mpf(0)
            for dz in (h, -h, mp.mpc(0, 1) * h, -mp.mpc(0, 1) * h):
                total += kahler(z0 + dz)
            fd = (total - 4 * kahler(z0)) / (4 * h * h)
        assert chk.finite_difference._mpf_ == fd._mpf_

    def test_theta4_family_consistency(self):
        fam = constant_coupling_family(1)
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
        r1, r2 = (quintic_frame.pairing_series(quintic_basis, k)
                  for k in (1, 2))
        assert r1.is_zero and r2.is_zero

    def test_non_symplectic_transition(self, quintic_basis, quintic_frame):
        gram = [list(row) for row in quintic_frame.gram_frobenius]
        gram[0][2] += 1
        gram[2][0] -= 1
        bad = SymplecticFrame(gram_frobenius=tuple(tuple(r) for r in gram))
        r1, r2 = (bad.pairing_series(quintic_basis, k) for k in (1, 2))
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


def raw_bits(x):
    """The raw mpmath tuples of a report field, nested as the field is."""
    if isinstance(x, tuple):
        return tuple(map(raw_bits, x))
    return getattr(x, "_mpc_", getattr(x, "_mpf_", x))


def report_bits(rep):
    return {f.name: raw_bits(getattr(rep, f.name))
            for f in dataclasses.fields(rep)}


def exact_conj(z):
    return mp.make_mpc((z._mpc_[0], mpf_neg(z._mpc_[1])))


def shipped_config(family, **samples):
    doc = json.loads((CONFIGS / f"{family}.json").read_text())
    doc.setdefault("samples", {}).update(samples)
    return cw.WorkbenchConfig.from_json(doc)


class TestConjugateReports:
    """point(conj z0, -b) is point(z0, b).conjugate() bit for bit."""

    @pytest.mark.parametrize("family", ["quintic", "sextic", "x10"])
    def test_reflection_is_bitwise(self, family):
        cfg = shipped_config(family)
        basis, hodge_basis = solve_periods(cfg)
        _, frame = coupling_and_frame(cfg, basis)
        radius = cfg.family.pf.singular_radius
        shipped = [z for z in cw.sample_points(radius, 0.5, 24) if z.imag]
        assert len(shipped) == 20
        rng = random.Random(f"reflection-{family}")
        with mp.workprec(64):
            rad = mp.mpf(radius.numerator) / radius.denominator
            # the window path, arguments near the cut, two generic points
            seeded = [mp.mpc(rad * mp.mpf(ratio) * mp.expj(mp.mpf(arg)))
                      for ratio, arg in [
                          (1e-30 * rng.uniform(0.5, 2), rng.uniform(-3, 3)),
                          (rng.uniform(0.05, 0.5), rng.uniform(3.1, 3.14)),
                          (rng.uniform(0.05, 0.5), -rng.uniform(3.1, 3.14)),
                          (rng.uniform(0.01, 0.6), rng.uniform(-3, 3))]]
        branches = (-1, 0, 2)
        for bits in (64, 256, 2048):
            ev = cw.HodgeEvaluator(hodge_basis, frame, bits)
            # every branch at 64 and 256 bits; one per point, in turn, at
            # 2048, which keeps the test near 5 s
            for n, z0 in enumerate(shipped + seeded):
                for b in branches if bits < 2048 else branches[n % 3:][:1]:
                    rep = ev.point(z0, b)
                    mirror = rep.conjugate()
                    assert mirror.branch == -b
                    assert report_bits(mirror) == \
                        report_bits(ev.point(exact_conj(z0), -b))
                    assert report_bits(mirror.conjugate()) == \
                        report_bits(rep)

    @pytest.mark.parametrize("samples, calls", [
        ({}, 16), ({"radius_fraction": 0.8}, 16), ({"count": 4}, 3)],
        ids=["shipped", "radius-0.8", "count-4"])
    def test_stage_mirrors_conjugate_samples(self, monkeypatch, samples,
                                             calls):
        cfg = shipped_config("quintic", **samples)
        basis, hodge_basis = solve_periods(cfg)
        _, frame = coupling_and_frame(cfg, basis)
        seen = []
        point = cw.HodgeEvaluator.point

        def counting_point(self, z0, branch=0):
            seen.append(z0)
            return point(self, z0, branch)
        monkeypatch.setattr(cw.HodgeEvaluator, "point", counting_point)
        doc = hodge_stage(cfg, hodge_basis, frame, "abc")
        assert len(seen) == calls
        points = cw.sample_points(cfg.family.pf.singular_radius,
                                  cfg.radius_fraction, cfg.sample_count)
        assert [p["z0"] for p in doc["points"]] == \
            [_format_complex(z) for z in points]
        # the direct calls are the samples no earlier one conjugates
        earlier = [{w._mpc_ for w in points[:n]} for n in range(len(points))]
        assert [z._mpc_ for z in seen] == [
            z._mpc_ for z, before in zip(points, earlier)
            if exact_conj(z)._mpc_ not in before]


class TestWindowSelection:
    """_dots opens Ziv's window only past max(3 prec, _ZIV_SPREAD) bits."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """One entry per _windowed call."""
        calls, windowed = [], hodge._windowed
        monkeypatch.setattr(hodge, "_windowed",
                            lambda *args: calls.append(1) or windowed(*args))
        return calls

    def test_shipped_rows_are_summed_whole(self, calls):
        """The shipped quintic's rows spread over at most 813 bits."""
        cfg = shipped_config("quintic")
        basis, hodge_basis = solve_periods(cfg)
        _, frame = coupling_and_frame(cfg, basis)
        hodge_stage(cfg, hodge_basis, frame, "abc")
        assert calls == []

    @pytest.mark.parametrize("prec", [64, 256, 2048])
    @pytest.mark.parametrize("past", [0, 1])
    def test_window_opens_past_the_spread(self, calls, prec, past):
        """A row spread over exactly the threshold is summed whole; one
        bit more and it is windowed, with the exact sum's rounding."""
        spread = max(3 * prec, hodge._ZIV_SPREAD) + past
        rng = random.Random(prec)
        row = [rng.getrandbits(prec) | 1 for _ in range(3)]
        pmans = [rng.getrandbits(prec) | 1 for _ in range(3)]
        shifts = [-7, spread // 2 - 7, spread - 7]
        got, = hodge._dots((shifts, [row]), (pmans, [0] * 3), 1, prec)
        assert got == _dot(row, shifts, pmans, [0] * 3, prec)
        assert len(calls) == past

    @pytest.mark.parametrize("prec", [64, 256, 2048])
    def test_zero_half_skips_the_window(self, calls, prec):
        """An all-zero half (the imaginary one at a real z0) spread past
        the threshold gives the zero rows, with no window opened."""
        spread = max(3 * prec, hodge._ZIV_SPREAD) + 1
        rng = random.Random(prec)
        rows = [[rng.getrandbits(prec) | 1 for _ in range(3)]
                for _ in range(4)]
        shifts = [-7, spread // 2 - 7, spread - 7]
        got = hodge._dots((shifts, rows), ([0] * 3, [0] * 3), 4, prec)
        assert got == [_dot(row, shifts, [0] * 3, [0] * 3, prec)
                       for row in rows] == [fzero] * 4
        assert calls == []
