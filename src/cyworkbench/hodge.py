"""Numeric Hodge theory at sample points of the moduli disk.

Periods and their theta-derivatives are evaluated at high binary
precision, paired through the constant symplectic form, and assembled
into the Hermitian data: squared norm of the holomorphic volume form,
Kahler potential K, Weil-Petersson metric, and the curvature of the
canonical line.  For a point z0 on the slit disk the pairing of a
section with a conjugate uses componentwise conjugation in the
log-twisted coordinate frame w_k / (2 pi i)^k; the twist makes the
large-radius coordinate t/(2 pi i) the one with growing imaginary part,
which is the regime where the sign laws hold.  The residual overall
sign is fixed empirically at one real reference point and then held
fixed, as the orientation is conventional.

Point evaluations are independent and all inputs immutable, so sample
grids parallelize across processes (mpmath precision contexts are
process-global, so prefer processes over threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import DomainError, OutsideDisk, PrecisionLoss, SignViolation
from .frames import SymplecticFrame
from .picard_fuchs import PeriodBasis
from .series import LogSeries

_GUARD_BITS = 24


@dataclass(frozen=True)
class HodgePointReport:
    """Hermitian data at one moduli point; all pairings sign-adjusted."""

    z0: object
    prec_bits: int
    branch: int
    period_vector: tuple          # (w_0..w_3)(z0)
    theta1: tuple
    theta2: tuple
    theta3: tuple
    pairing_value: object         # (Omega, bar Omega), real positive
    self_pairing_abs: object      # |(Omega, Omega)|, zero up to rounding
    kahler_potential: object      # K = -log (Omega, bar Omega)
    dd_pairing: object            # (D Omega, bar D Omega), real negative
    weil_petersson: object        # G_{z zbar} > 0
    weil_petersson_ratio: object  # same metric via g_{z zbar} / g_{0 0bar}
    curvature: object             # F_{z zbar} of the canonical line
    chern_form_positive: bool
    tail_bound_rel: object
    sign_adjust: int


@dataclass(frozen=True)
class CurvatureCheck:
    """Algebraic versus finite-difference curvature at one point."""

    algebraic: object
    finite_difference: object
    rel_error: object
    step: object


class HodgeEvaluator:
    """Caches numeric period data for repeated point evaluation."""

    def __init__(self, basis: PeriodBasis, frame: SymplecticFrame,
                 prec_bits: int = 256):
        self.basis = basis
        self.frame = frame
        self.prec_bits = prec_bits
        self.radius = basis.operator.singular_radius
        self._n_terms = math.ceil(basis.order)
        with mp.workprec(prec_bits + _GUARD_BITS):
            self._tables = []
            series_row = list(basis.omegas)
            for _ in range(4):
                self._tables.append([self._compile(s) for s in series_row])
                series_row = [s.theta() for s in series_row]
            self._S = [[mp.mpf(x.numerator) / x.denominator
                        for x in row] for row in
                       (tuple(Fraction(v) for v in r)
                        for r in frame.gram_frobenius)]
            self._radius_f = mp.mpf(self.radius.numerator) / self.radius.denominator
            # empirical orientation at a small real reference point
            zref = self._radius_f * mp.mpf("0.001")
            u0 = self._twisted(self._towers(zref, 0, 1)[0])
            raw = self._pair_conj(u0, u0)
            self.sign_adjust = 1 if raw.real > 0 else -1

    def _compile(self, series: LogSeries):
        table = [[mp.mpf(0)] * 4 for _ in range(self._n_terms)]
        for (e, k), c in series.items():
            if e.denominator != 1:
                raise DomainError("period series must be unramified")
            table[int(e)][k] = mp.mpf(c.numerator) / c.denominator
        return table

    def _towers(self, z0, branch: int, rows: int = 4):
        """Values of theta^der w_i for der < rows and i in 0..3 at z0."""
        log_z = mp.log(z0) + 2 * mp.pi * mp.mpc(0, 1) * branch
        powers = [mp.mpc(1)]
        for _ in range(1, self._n_terms):
            powers.append(powers[-1] * z0)
        out = []
        for der in range(rows):
            row = []
            for i in range(4):
                table = self._tables[der][i]
                total = mp.mpc(0)
                for n in range(self._n_terms):
                    c0, c1, c2, c3 = table[n]
                    horner = c0 + log_z * (c1 + log_z * (c2 + log_z * c3))
                    if horner != 0:
                        total += powers[n] * horner
                row.append(total)
            out.append(row)
        return out

    def _twisted(self, vec):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        out = []
        w = mp.mpc(1)
        for x in vec:
            out.append(x / w)
            w *= two_pi_i
        return out

    def _pair(self, u, v):
        total = mp.mpc(0)
        for i in range(4):
            for j in range(4):
                s = self._S[i][j]
                if s != 0:
                    total += s * u[i] * v[j]
        return total

    def _pair_conj(self, u, v):
        """(u, bar v) = i Q(u, conj v), before sign adjustment."""
        return mp.mpc(0, 1) * self._pair(u, [x.conjugate() for x in v])

    def _tail_rel(self, z0, log_z):
        ratio = abs(z0) / self._radius_f
        if ratio >= 1:
            return mp.inf
        top = max(abs(c) for c in self._tables[0][3][self._n_terms - 1]) or mp.mpf(1)
        lead = top * abs(z0) ** (self._n_terms - 1)
        logfac = max(mp.mpf(1), abs(log_z)) ** 3
        return lead * logfac * ratio / (1 - ratio)

    def _check_inside(self, z0):
        if abs(z0) >= self._radius_f:
            raise OutsideDisk(
                f"|z0| = {mp.nstr(abs(z0), 8)} outside radius "
                f"{mp.nstr(self._radius_f, 8)}")

    def kahler(self, z0, branch: int = 0):
        """K = -log (Omega, bar Omega) at z0."""
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            z0 = mp.mpc(z0)
            self._check_inside(z0)
            u0 = self._twisted(self._towers(z0, branch, 1)[0])
            g00 = self.sign_adjust * self._pair_conj(u0, u0)
            if g00.real <= 0:
                raise SignViolation(
                    f"(Omega, bar Omega) = {mp.nstr(g00, 8)} not positive at "
                    f"{mp.nstr(z0, 8)}")
            return -mp.log(g00.real)

    def point(self, z0, branch: int = 0,
              sign_tol: float = 1e-18) -> HodgePointReport:
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            z0 = mp.mpc(z0)
            self._check_inside(z0)
            towers = self._towers(z0, branch)
            u0 = self._twisted(towers[0])
            u1 = self._twisted(towers[1])
            adj = self.sign_adjust
            g00 = adj * self._pair_conj(u0, u0)
            self_abs = abs(mp.mpc(0, 1) * self._pair(u0, u0))
            if g00.real <= 0 or abs(g00.imag) > sign_tol * abs(g00.real):
                raise SignViolation(
                    f"(Omega, bar Omega) = {mp.nstr(g00, 8)} fails the "
                    f"positivity law at {mp.nstr(z0, 8)}")
            if self_abs > 1e-18 * g00.real:
                raise SignViolation("(Omega, Omega) is not numerically zero")
            lam = adj * self._pair_conj(u1, u0) / g00
            d_theta = [a - lam * b for a, b in zip(u1, u0)]
            d_z = [x / z0 for x in d_theta]
            dd = adj * self._pair_conj(d_z, d_z)
            if dd.real >= 0 or abs(dd.imag) > sign_tol * abs(dd.real):
                raise SignViolation(
                    f"(D Omega, bar D Omega) = {mp.nstr(dd, 8)} fails the "
                    f"negativity law at {mp.nstr(z0, 8)}")
            g_metric = -dd.real
            g_wp = g_metric / g00.real
            # second route: expand D Omega = nabla Omega - lam Omega
            h11 = adj * self._pair_conj(u1, u1)
            g_ratio = ((-h11.real + (abs(lam) ** 2) * g00.real)
                       / (abs(z0) ** 2)) / g00.real
            log_z = mp.log(z0)
            report = HodgePointReport(
                z0=z0,
                prec_bits=self.prec_bits,
                branch=branch,
                period_vector=tuple(towers[0]),
                theta1=tuple(towers[1]),
                theta2=tuple(towers[2]),
                theta3=tuple(towers[3]),
                pairing_value=g00.real,
                self_pairing_abs=self_abs,
                kahler_potential=-mp.log(g00.real),
                dd_pairing=dd.real,
                weil_petersson=g_wp,
                weil_petersson_ratio=g_ratio,
                curvature=g_wp,
                chern_form_positive=bool(g_wp > 0),
                tail_bound_rel=self._tail_rel(z0, log_z),
                sign_adjust=adj,
            )
        return report


def fd_curvature_check(evaluator, z0, h, tolerance: float | None = 1e-6,
                       frame: SymplecticFrame | None = None,
                       prec_bits: int = 256) -> CurvatureCheck:
    """Compare algebraic curvature with a central difference of K.

    F_{z zbar} = d^2 K / dz dzbar is approximated by the five-point
    Laplacian stencil (quadratic order in the step h); the stencil
    points z0 +- h and z0 +- ih must stay inside the disk.  Accepts a
    prepared HodgeEvaluator, or a PeriodBasis plus ``frame``.
    """
    if isinstance(evaluator, PeriodBasis):
        evaluator = HodgeEvaluator(evaluator, frame, prec_bits)
    with mp.workprec(evaluator.prec_bits + _GUARD_BITS):
        z0 = mp.mpc(z0)
        h = mp.mpf(h)
        center = evaluator.kahler(z0)
        total = mp.mpf(0)
        for dz in (h, -h, mp.mpc(0, 1) * h, -mp.mpc(0, 1) * h):
            total += evaluator.kahler(z0 + dz)
        fd = (total - 4 * center) / (4 * h * h)
        algebraic = evaluator.point(z0).weil_petersson
        rel = abs(fd - algebraic) / abs(algebraic)
    if tolerance is not None and rel > tolerance:
        raise PrecisionLoss(
            f"finite-difference curvature off by {mp.nstr(rel, 6)} "
            f"(tolerance {tolerance}) at {mp.nstr(z0, 8)}",
            suggested_h=h / 10)
    return CurvatureCheck(algebraic=algebraic, finite_difference=fd,
                          rel_error=rel, step=h)


def griffiths_residuals(basis: PeriodBasis,
                        frame: SymplecticFrame) -> tuple[LogSeries, LogSeries]:
    """Exact series Q(Omega, theta Omega) and Q(Omega, theta^2 Omega).

    Both vanish identically for a correctly normalized frame.
    """
    return (frame.pairing_series(basis, 1), frame.pairing_series(basis, 2))


def sample_points(radius, fraction: float, count: int, prec_bits: int = 64):
    """Deterministic sample grid on the slit disk, |z| <= fraction*radius.

    Points sit on concentric circles at arguments bounded away from the
    branch cut along the negative real axis.
    """
    if not 0 < fraction < 1:
        raise ValueError("radius fraction must lie in (0, 1)")
    angles = ("0", "0.9", "-0.9", "1.8", "-1.8", "2.6")
    with mp.workprec(prec_bits):
        if isinstance(radius, Fraction):
            rad = mp.mpf(radius.numerator) / radius.denominator
        else:
            rad = mp.mpf(radius)
        levels = max(1, math.ceil(count / len(angles)))
        pts = []
        for level in range(levels):
            scale = rad * mp.mpf(fraction) * mp.mpf(level + 1) / levels
            for ang in angles:
                pts.append(scale * mp.exp(mp.mpc(0, 1) * mp.mpf(ang)))
                if len(pts) == count:
                    return pts
    return pts


def hodge_report_json(reports, config_hash: str | None = None) -> dict:
    """Serialize point reports with floats as decimal strings."""

    def c(x):
        # nstr formats without re-rounding to the ambient precision
        return [mp.nstr(getattr(x, "real", x), 40),
                mp.nstr(getattr(x, "imag", 0), 40)]

    def f(x):
        return mp.nstr(x, 40)

    points = []
    for r in reports:
        points.append({
            "z0": c(r.z0),
            "prec_bits": r.prec_bits,
            "branch": r.branch,
            "periods": [c(x) for x in r.period_vector],
            "theta1": [c(x) for x in r.theta1],
            "theta2": [c(x) for x in r.theta2],
            "theta3": [c(x) for x in r.theta3],
            "pairing": f(r.pairing_value),
            "self_pairing_abs": f(r.self_pairing_abs),
            "K": f(r.kahler_potential),
            "dd_pairing": f(r.dd_pairing),
            "G_wp": f(r.weil_petersson),
            "G_wp_ratio": f(r.weil_petersson_ratio),
            "curvature": f(r.curvature),
            "chern_form_positive": r.chern_form_positive,
            "tail_bound_rel": f(r.tail_bound_rel),
            "sign_adjust": r.sign_adjust,
        })
    doc = {"points": points}
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return doc
