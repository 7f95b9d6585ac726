"""Numeric Hodge theory at sample points of the moduli disk.

Periods and their theta-derivatives are evaluated at high binary
precision, paired through the constant symplectic form, and assembled
into the Hermitian data: squared norm of the holomorphic volume form,
Kahler potential K, Weil-Petersson metric, and the curvature of the
canonical line.  For a point z0 on the slit disk the pairing of a
section with a conjugate uses componentwise conjugation in the
log-twisted coordinate frame w_k / (2 pi i)^k; the twist makes the
large-radius coordinate t/(2 pi i) the one with growing imaginary part,
which is the regime where the sign laws hold.  The overall sign is
exact: for a Gram matrix with S_12 = -S_03 the leading term of
i Q(Omega, bar Omega) near z = 0 is -(4/3) S_03 (|log z| / 2 pi)^3, so
the orientation is -sign(S_03), which is +1 for every validated frame
(S_03 = -kappa).

The period towers are exact integer dot products against z0^n, each
rounded once.  A row spread over more than max(3 prec, _ZIV_SPREAD) bits
keeps its top terms and checks the rounding against a bound on the rest
(Ziv's test, ACM TOMS 17(3), 1991), so tiny z0 cost no more than others;
narrower rows measured faster summed whole.  The coefficient grid, the
powers z0^n and Ziv's test round on ``kernel``'s ``_round``, ``_div``, ``_Z``.

Rational coefficients give omega(conj z) = conj omega(z) (Schwarz
reflection), and ``point`` keeps it bit for bit: each step (an exact
integer sum, a rounding to nearest-even of a sign-magnitude number,
mpmath's sign-symmetric log/atan2, a product with the real antidiagonal
Gram matrix or the twists (2 pi i)^k) commutes with conjugation, so the
report at conj z0 on branch -b is the conjugate() of the one at z0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from operator import add, lshift, mul

from mpmath import mp
from mpmath.libmp import (from_man_exp, fzero, mpc_mul, mpc_mul_int,
                          mpf_sum, round_nearest)

from .errors import (DomainError, NormalizationMissing, OutsideDisk,
                     PrecisionLoss, SignViolation)
from .frames import SymplecticFrame
from .kernel import (_DIGITS, _GUARD_BITS, _Z, _conj, _div, _format_complex,
                     _kernel, _round)
from .picard_fuchs import PeriodBasis

# binary precision of the sample grid
_SAMPLE_PREC = 64
# cap on the relative bound in point() on the imaginary parts of the
# sign-law pairings and on |(Omega, Omega)|, 2^-(prec_bits/2) below it
_SIGN_TOL = 1e-18
# relative bound on the finite-difference curvature check
FD_TOLERANCE = 1e-6
# a zero of a_4 found within this relative margin below singular_radius
# counts as on its circle: polyroots at _SAMPLE_PREC bits places a simple
# zero to about 2^-60 and a double one to about 2^-30
_RADIUS_MARGIN = 2 ** -20
# spread (bits) past which _dots windows a row; timed per quintic row at 256
# bits, the whole sum was 15% faster at 1560 bits and the window 12-22% at
# 2174-2475, 3 times at 8311, and 140 times at z0 = 1e-3000
_ZIV_SPREAD = 2048


def _powers(z, count):
    """Real and imaginary (mantissas, exponents) of z^0..z^(count-1) for an
    mpc z, each the _Z product (mpc_mul at the working precision) of the
    one before by z, on plain tuples; an exact zero part keeps an exponent
    near the other part's (_kernel, _round), so rows do not stretch."""
    z = tuple(_kernel(z, math.inf))
    a, ea, b, eb = zip(*accumulate(repeat(z, count - 1), _Z.__mul__,
                                   initial=(1, 0, 0, 0)))
    return (a, ea), (b, eb)


def _series_grid(f, prec):
    """(exponents, rows) of the rows n^e f[n], e < 4: each entry is
    n**e * num rounded to nearest at prec, divided by den and rounded
    again (mp.mpf(n**e * num) / den), on the integer kernel; a column is
    held as integers on its smallest exponent (an all-zero one takes its
    left neighbour's, or 0).  A rounding that is exact (a numerator of at
    most prec bits) and a division by den = 1 are skipped."""
    exps, rows = [], [[], [], [], []]
    for n, c in enumerate(f):
        col = []
        for e in range(4):
            m, x = n ** e * c.numerator, 0
            if m.bit_length() > prec:
                m, x = _round(m, 0, 0, 0, prec)
            if c.denominator != 1:
                m, x = _div(m, x, c.denominator, 0, prec)
            z = (m & -m).bit_length() - 1  # odd mantissa, as mpf holds it
            col.append((m >> z, x + z) if m else (0, 0))
        low = [x for m, x in col if m]
        exps.append(min(low) if low else exps[-1] if exps else 0)
        for row, (m, x) in zip(rows, col):
            row.append(m << x - exps[-1] if m else 0)
    return exps, rows


def _exact(row, pmans, offsets):
    """sum_n row[n] pmans[n] 2^offsets[n] as one integer."""
    return sum(map(lshift, map(mul, row, pmans), offsets))


def _windowed(row, pmans, shifts, prec):
    """The rounding to nearest at prec of sum_n row[n] pmans[n]
    2^shifts[n] from the terms within 2 prec + 16 bits of the largest one,
    when some lie further down: the kept sum is rounded on the kernel with
    the dropped terms' bound added and subtracted, and if the two agree,
    that is the exact sum's rounding (Ziv's test).  None if the whole row
    is needed (no term dropped, or the test fails)."""
    tops = [s + m.bit_length() + p.bit_length() if m and p else -math.inf
            for m, p, s in zip(row, pmans, shifts)]
    cut = max(tops) - 2 * prec - 16
    keep = [n for n, t in enumerate(tops) if t > cut]
    dropped = keep and len(tops) - 1 - keep[-1] + keep[0]
    if not dropped:
        return None
    a, b = keep[0], keep[-1] + 1
    low = min(shifts[a:b])
    kept = _exact(row[a:b], pmans[a:b], [s - low for s in shifts[a:b]])
    # each dropped term is below 2^cut in absolute value
    tail = cut + dropped.bit_length()
    hi, lo = (from_man_exp(*_round(kept, low, t, tail, prec)) for t in (1, -1))
    return hi if hi == lo else None


def _dots(grid, half, rows, prec):
    """theta^e f(z0) for e < rows from one real half (mantissas,
    exponents) of the powers.  Each row is one exact integer sum,
    _exact(row, pmans, offsets) on the lowest exponent, rounded once to
    nearest.  Where the exponents spread over more than max(3 prec,
    _ZIV_SPREAD) bits, where the window pays, a row is first windowed
    (_windowed) and summed whole if it drops nothing or Ziv's test fails.
    An all-zero half (the imaginary one at a real z0) gives zero rows."""
    exps, srows = grid
    pmans = half[0]
    if not any(pmans):
        return [fzero] * rows
    shifts = list(map(add, exps, half[1]))
    low = min(shifts)
    offsets = [s - low for s in shifts]
    wide = max(offsets) > max(3 * prec, _ZIV_SPREAD)
    return [wide and _windowed(row, pmans, shifts, prec)
            or from_man_exp(_exact(row, pmans, offsets), low, prec,
                            round_nearest)
            for row in srows[:rows]]


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
    weil_petersson: object        # G_{z zbar} > 0, the curvature F_{z zbar}
    weil_petersson_ratio: object  # same metric via g_{z zbar} / g_{0 0bar}
    chern_form_positive: bool
    tail_bound_rel: object
    sign_adjust: int

    def conjugate(self) -> "HodgePointReport":
        """The report at conj z0 on branch -branch, bit for bit (module
        docstring): imaginary signs flipped unrounded, real fields kept."""
        rows = ("period_vector", "theta1", "theta2", "theta3")
        return replace(self, z0=_conj(self.z0), branch=-self.branch,
                       **{k: tuple(map(_conj, getattr(self, k)))
                          for k in rows})


@dataclass(frozen=True)
class CurvatureCheck:
    """Finite-difference curvature and its error against the algebraic one."""

    finite_difference: object
    rel_error: object


def _nearest_zero(poly):
    """The least modulus of a zero of a polynomial with ascending Fraction
    coefficients, at _SAMPLE_PREC bits; inf for a constant."""
    with mp.workprec(_SAMPLE_PREC):
        try:
            zeros = mp.polyroots([mp.mpf(c.numerator) / c.denominator
                                  for c in reversed(poly)])
        except mp.NoConvergence:
            raise DomainError("the zeros of a_4 could not be placed "
                              "(polyroots did not converge), so "
                              "singular_radius cannot be checked") from None
        return min(map(abs, zeros), default=mp.inf)


class HodgeEvaluator:
    """Caches numeric period data for repeated point evaluation.

    Every tower entry is read off the four log-free Frobenius series
    f_0..f_3 of the basis (omega_k = sum_j f_{k-j} log^j z / j!):
    with L the branch-shifted log z,

        theta^d omega_k = sum_{j<=k} sum_{m<=min(d,j)}
                          C(d,m) (theta^(d-m) f_(k-j)) L^(j-m) / (j-m)!,

    and theta^e f_i(z0) = sum_n n^e f_i[n] z0^n is one dot product.
    The build keeps, per series, the four rows n^e f_i[n] as integers on
    one binary exponent per n.  A point forms the powers z0^n by a fused
    integer complex product (the rounded mpc_mul values) and sums each
    row against each real half as one exact integer sum rounded once
    (see _dots); the log recombination runs on raw mpc tuples.  The
    sample disk and the tail bound rest on singular_radius, so the build
    refuses one beyond the nearest zero of a_4 with DomainError.
    """

    def __init__(self, basis: PeriodBasis, frame: SymplecticFrame,
                 prec_bits: int = 256):
        self.prec_bits = prec_bits
        jets = [f.rows()[0] for f in basis.frobenius]
        self._n_terms = len(jets[0])
        radius = basis.operator.singular_radius
        s03 = frame.gram_frobenius[0][3]
        if s03 == 0:
            raise NormalizationMissing("pairing has S_03 = 0")
        # orientation from the leading log term (module docstring)
        self.sign_adjust = 1 if s03 < 0 else -1
        self._sign_tol = min(mp.mpf(_SIGN_TOL), mp.ldexp(1, -prec_bits // 2))
        with mp.workprec(prec_bits + _GUARD_BITS):
            self._radius_f = mp.mpf(radius.numerator) / radius.denominator
            near = _nearest_zero(basis.operator.coefficients[4])
            if near < self._radius_f * (1 - _RADIUS_MARGIN):
                raise DomainError(
                    f"singular_radius {radius} lies beyond the zero of a_4 "
                    f"at |z| = {mp.nstr(near, 8)}")
            self._grids = [_series_grid(f, mp.prec) for f in jets]
            self._S = [(i, j, mp.mpf(x.numerator) / x.denominator)
                       for i, row in enumerate(frame.gram_frobenius)
                       for j, x in enumerate(row) if x]
            self._twist = list(accumulate(
                repeat(2 * mp.pi * mp.mpc(0, 1), 3), mul, initial=mp.mpc(1)))
            # top retained coefficient of omega_3 over its log powers
            top = (jets[3 - j][-1] / math.factorial(j) for j in range(4))
            self._top = max(abs(mp.mpf(c.numerator) / c.denominator)
                            for c in top) or mp.mpf(1)

    @staticmethod
    def _log(z0, branch: int):
        """L = log z0 + 2 pi i branch, the log the towers are built on."""
        return mp.log(z0) + 2 * mp.pi * mp.mpc(0, 1) * branch

    def _towers(self, z0, log_z, rows: int = 4):
        """theta^der w_i for der < rows and i in 0..3 at z0; log_z is L."""
        prec, rnd = mp.prec, round_nearest
        halves = _powers(z0, self._n_terms)
        dots = [[_dots(g, half, rows, prec) for half in halves]
                for g in self._grids]
        jet = [[(re[e], im[e]) for re, im in dots] for e in range(rows)]
        log_pow = [None] + [x._mpc_ for x in
                            (log_z, log_z ** 2 / 2, log_z ** 3 / 6)]

        def term(d, m, k, p):
            # C(d,m) = 1 and L^0 = 1 are exact: those products are skipped
            c, t = math.comb(d, m), jet[d - m][k - m - p]
            t = t if c == 1 else mpc_mul_int(t, c, prec, rnd)
            return mpc_mul(t, log_pow[p], prec, rnd) if p else t
        return [[mp.make_mpc(tuple(
            mpf_sum(part, prec, rnd) for part in zip(*[
                term(d, m, k, p) for m in range(min(d, k) + 1)
                for p in range(k - m + 1)])))
            for k in range(4)] for d in range(rows)]

    def _twisted(self, vec):
        return [x / w for x, w in zip(vec, self._twist)]

    def _pair(self, u, v):
        return sum((s * u[i] * v[j] for i, j, s in self._S), mp.mpc(0))

    def _pair_conj(self, u, v):
        """(u, bar v) = i Q(u, conj v), before sign adjustment."""
        return mp.mpc(0, 1) * self._pair(u, [x.conjugate() for x in v])

    def _tail_rel(self, abs_z, log_z):
        ratio = abs_z / self._radius_f
        if ratio >= 1:
            return mp.inf
        lead = self._top * abs_z ** (self._n_terms - 1)
        logfac = max(mp.mpf(1), abs(log_z)) ** 3
        return lead * logfac * ratio / (1 - ratio)

    def _check_inside(self, z0):
        """|z0|, once z0 is known to lie on the punctured disk."""
        abs_z = abs(z0)
        if not abs_z < self._radius_f:
            raise OutsideDisk(
                f"|z0| = {mp.nstr(abs_z, 8)} outside radius "
                f"{mp.nstr(self._radius_f, 8)}")
        if abs_z == 0:
            raise DomainError("z0 = 0 is the MUM point, where log z0 diverges")
        return abs_z

    def _omega(self, z0, branch: int, rows: int):
        """z0, |z0|, L, the towers and u_0 = Omega twisted, with
        g00 = (Omega, bar Omega) checked positive; at working precision."""
        z0 = mp.mpc(z0)
        abs_z = self._check_inside(z0)
        log_z = self._log(z0, branch)
        towers = self._towers(z0, log_z, rows)
        u0 = self._twisted(towers[0])
        g00 = self.sign_adjust * self._pair_conj(u0, u0)
        if not g00.real > 0:
            raise SignViolation(
                f"(Omega, bar Omega) = {mp.nstr(g00, 8)} not positive at "
                f"{mp.nstr(z0, 8)}")
        return z0, abs_z, log_z, towers, u0, g00

    def kahler(self, z0, branch: int = 0):
        """K = -log (Omega, bar Omega) at z0."""
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            g00 = self._omega(z0, branch, 1)[-1]
            return -mp.log(g00.real)

    def point(self, z0, branch: int = 0) -> HodgePointReport:
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            z0, abs_z, log_z, towers, u0, g00 = self._omega(z0, branch, 4)
            u1 = self._twisted(towers[1])
            adj = self.sign_adjust
            self_abs = abs(mp.mpc(0, 1) * self._pair(u0, u0))
            if not abs(g00.imag) <= self._sign_tol * g00.real:
                raise SignViolation(
                    f"(Omega, bar Omega) = {mp.nstr(g00, 8)} fails the "
                    f"positivity law at {mp.nstr(z0, 8)}")
            if not self_abs <= self._sign_tol * g00.real:
                raise SignViolation("(Omega, Omega) is not numerically zero")
            lam = adj * self._pair_conj(u1, u0) / g00
            d_theta = [a - lam * b for a, b in zip(u1, u0)]
            d_z = [x / z0 for x in d_theta]
            dd = adj * self._pair_conj(d_z, d_z)
            if not (dd.real < 0
                    and abs(dd.imag) <= -self._sign_tol * dd.real):
                raise SignViolation(
                    f"(D Omega, bar D Omega) = {mp.nstr(dd, 8)} fails the "
                    f"negativity law at {mp.nstr(z0, 8)}")
            g_metric = -dd.real
            g_wp = g_metric / g00.real
            # second route: expand D Omega = nabla Omega - lam Omega
            h11 = adj * self._pair_conj(u1, u1)
            g_ratio = ((-h11.real + (abs(lam) ** 2) * g00.real)
                       / (abs_z ** 2)) / g00.real
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
                chern_form_positive=bool(g_wp > 0),
                tail_bound_rel=self._tail_rel(abs_z, log_z),
                sign_adjust=adj,
            )
        return report


def fd_curvature_check(evaluator: HodgeEvaluator, z0, h,
                       tolerance: float | None = FD_TOLERANCE
                       ) -> CurvatureCheck:
    """Compare algebraic curvature with a central difference of K.

    F_{z zbar} = d^2 K / dz dzbar is approximated by the five-point
    Laplacian stencil (quadratic order in the step h); the stencil
    points z0 +- h and z0 +- ih must stay inside the disk.
    """
    with mp.workprec(evaluator.prec_bits + _GUARD_BITS):
        z0 = mp.mpc(z0)
        h = mp.mpf(h)
        report = evaluator.point(z0)
        total = mp.mpf(0)
        for dz in (h, -h, mp.mpc(0, 1) * h, -mp.mpc(0, 1) * h):
            total += evaluator.kahler(z0 + dz)
        fd = (total - 4 * report.kahler_potential) / (4 * h * h)
        algebraic = report.weil_petersson
        rel = abs(fd - algebraic) / abs(algebraic)
    if tolerance is not None and rel > tolerance:
        raise PrecisionLoss(
            f"finite-difference curvature off by {mp.nstr(rel, 6)} "
            f"(tolerance {tolerance}) at {mp.nstr(z0, 8)}")
    return CurvatureCheck(finite_difference=fd, rel_error=rel)


def sample_points(radius, fraction: float, count: int):
    """Deterministic sample grid on the slit disk, |z| <= fraction*radius,
    for the exact rational radius of the operator.

    Points sit on concentric circles at arguments bounded away from the
    branch cut along the negative real axis; those at -0.9 and -1.8 are
    the exact conjugates of those at 0.9 and 1.8.
    """
    if not 0 < fraction < 1:
        raise ValueError("radius fraction must lie in (0, 1)")
    if count < 1:
        raise ValueError("sample count must be positive")
    angles = ("0", "0.9", "-0.9", "1.8", "-1.8", "2.6")
    with mp.workprec(_SAMPLE_PREC):
        rad = mp.mpf(radius.numerator) / radius.denominator
        levels = math.ceil(count / len(angles))
        return [rad * mp.mpf(fraction) * mp.mpf(level + 1) / levels
                * mp.exp(mp.mpc(0, 1) * mp.mpf(ang))
                for level in range(levels) for ang in angles][:count]


def hodge_report_json(reports, config_hash: str) -> dict:
    """Serialize point reports with floats as decimal strings."""
    c = _format_complex

    def f(x):
        return mp.nstr(x, _DIGITS)

    points = [{
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
        "curvature": f(r.weil_petersson),
        "chern_form_positive": r.chern_form_positive,
        "tail_bound_rel": f(r.tail_bound_rel),
        "sign_adjust": r.sign_adjust,
    } for r in reports]
    return {"points": points, "config_hash": config_hash}
