"""Flat coordinates, triple coupling, and genus-zero invariants.

Pipeline, all in exact rational arithmetic:

    period basis -> mirror map t = omega_1/omega_0, q = exp(t)
                 -> theta-coordinate coupling Y(z) from the operator
                 -> flat coupling C_ttt(q) = Y / (omega_0^2 (theta t)^3)
                 -> degree-d invariants N_{0,d} and integer n_d.

The coupling Y solves the first-order equation
theta log Y = -a_3 / (2 a_4) implied by the order-4 operator together
with flatness of the intersection form; with polynomial a_k the
solution is sought as a product of integer powers of factors of the
leading coefficient, one factor per exponent (the roots of a_4 grouped
by residue), found by exact polynomial arithmetic over Q.

The overall scale of the fundamental period against the canonical
section is conventional; every quantity computed here is invariant
under that rescaling, so no choice is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DomainError, IntegralityViolation, NonMeromorphic,
                     NormalizationMissing)
from .frames import SymplecticFrame
from .picard_fuchs import PeriodBasis, PFOperator, Poly
from .series import LogSeries, _mul_trunc, format_rational


@dataclass(frozen=True)
class CYFamilyConfig:
    """One-parameter family data: operator plus classical invariants."""

    name: str
    pf: PFOperator
    triple_intersection: int  # integral of H^3
    c2_H: int                 # integral of c_2 . H
    euler: int                # chi = integral of c_3
    kappa: int = 1

    def __post_init__(self):
        if self.kappa != 1:
            raise DomainError("only one-parameter families are supported")
        if self.triple_intersection <= 0:
            raise DomainError("triple intersection number must be positive")


@dataclass(frozen=True)
class MirrorMap:
    """t(z), q(z) = exp t, and the reversion z(q), all exact."""

    t_of_z: LogSeries
    q_of_z: LogSeries
    z_of_q: LogSeries


@dataclass(frozen=True)
class YukawaCoupling:
    """Rational function scale * prod f_i(z)^{m_i} with f_i(0) = 1."""

    scale: Fraction
    factors: tuple[tuple[Poly, int], ...] = ()

    def series(self, order) -> LogSeries:
        out = LogSeries.constant(self.scale, order=order)
        for coeffs, power in self.factors:
            f = LogSeries.from_coefficients(coeffs, order=order)
            if power >= 0:
                out = out * f ** power
            else:
                out = out * f.invert() ** (-power)
        return out

    def numerator_denominator(self) -> tuple[Poly, Poly]:
        """Polynomial pair, normalized so the denominator starts at 1."""
        num = [Fraction(self.scale)]
        den = [Fraction(1)]
        for coeffs, power in self.factors:
            target, reps = (num, power) if power > 0 else (den, -power)
            for _ in range(reps):
                target[:] = _poly_mul(target, list(coeffs))
        return tuple(num), tuple(den)

    def __str__(self) -> str:
        num, den = self.numerator_denominator()
        top, bot = _poly_str(num), _poly_str(den)
        return top if bot == "1" else f"({top})/({bot})"

    def to_json(self) -> dict:
        return {
            "scale": format_rational(self.scale),
            "factors": [{"coefficients": [format_rational(c) for c in coeffs],
                         "power": power}
                        for coeffs, power in self.factors],
        }


@dataclass(frozen=True)
class YukawaData:
    """Theta-coordinate coupling and its flat-coordinate q-expansion."""

    y_theta: YukawaCoupling
    c_ttt: LogSeries


@dataclass(frozen=True)
class InstantonResult:
    """Degree-d invariants with the multiple-cover inversion applied."""

    gw: dict[int, Fraction]            # N_{0,d}
    n: dict[int, Fraction]             # n_d before integrality coercion
    flagged: tuple[int, ...] = ()      # degrees with non-integer n_d

    @property
    def integers(self) -> dict[int, int]:
        return {d: int(v) for d, v in self.n.items() if v.denominator == 1}


@dataclass(frozen=True)
class GWPotential:
    """Genus-g potential: classical polynomial part plus q-expansion."""

    genus: int
    classical_cubic: Fraction
    quantum: LogSeries
    gw: dict[int, Fraction] = field(default_factory=dict)
    instantons: dict[int, int] | None = None


def _poly_mul(a, b):
    return [Fraction(c) for c in _mul_trunc(a, b, len(a) + len(b) - 1)]


def _poly_sub(a, b):
    out = [Fraction(x) for x in a] + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def _poly_divmod(a, b):
    """Quotient and remainder of a by a nonzero b (both trimmed)."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k, c = len(rem) - len(b), rem[-1] / b[-1]
        quot[k] = c
        rem = _poly_sub(rem, [Fraction(0)] * k + [c * y for y in b])
    return quot, rem


def _poly_gcd(a, b):
    """Monic greatest common divisor of trimmed a and b, not both zero."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _poly_inv_mod(a, m):
    """b with a b = 1 mod m, for a coprime to m (extended Euclid)."""
    r0, r1 = m, _poly_divmod(a, m)[1]
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _poly_sub(s0, _poly_mul(q, s1))
    return [c / r1[0] for c in _poly_divmod(s1, m)[1]]


def _integer_eigenvalues(h, d):
    """Distinct integer eigenvalues of multiplication by h on Q[z]/(d).

    The traces p_k = tr(h^k) give the characteristic polynomial
    x^n + c_1 x^(n-1) + ... + c_n through Newton's identities.  When all
    eigenvalues r_i are integers so is every c_k, each r_i divides c_n,
    and r_i^2 <= sum r^2 = c_1^2 - 2 c_2, which bounds the search.
    """
    n = len(d) - 1
    power, traces = [Fraction(1)], []
    for _ in range(n):
        power = _poly_divmod(_poly_mul(power, h), d)[1]
        traces.append(sum((_poly_divmod([0] * j + power, d)[1] + [0] * n)[j]
                          for j in range(n)))
    c = [Fraction(1)]
    for k in range(1, n + 1):
        c.append(-sum(c[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    if any(x.denominator != 1 for x in c):
        return []
    bound = math.isqrt(max(int(c[1] ** 2 - 2 * (c[2] if n > 1 else 0)), 0))
    return [m for m in range(-bound, bound + 1) if m and c[n] % m == 0
            and sum(x * m ** (n - k) for k, x in enumerate(c)) == 0]


def _poly_str(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        cs = format_rational(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append(f"{cs}*z" if cs != "1" else "z")
        else:
            parts.append(f"{cs}*z^{i}" if cs != "1" else f"z^{i}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def build_mirror_map(basis: PeriodBasis) -> MirrorMap:
    """Exact mirror map from the normalized period basis.

    t = omega_1/omega_0 = log z + u with u = sigma_1/omega_0, and
    q = exp(t) = z exp(u), which stays in the rational-coefficient ring.
    """
    u = basis.sigma1 * basis.omega0.invert()
    t = LogSeries.log_z(order=basis.order) + u
    q = u.exp().shift(1)
    return MirrorMap(t_of_z=t, q_of_z=q, z_of_q=q.revert())


def yukawa_theta(config: CYFamilyConfig) -> YukawaCoupling:
    """Closed-form rational triple coupling in the theta coordinate.

    Integrates d/dz log Y = -a_3/(2 z a_4) = N/D with Y(0) equal to the
    triple intersection number.  With D squarefree and deg N < deg D,
    the residue at a root r of D is h(r), h = N/D' mod D; the residues
    are the roots of the characteristic polynomial of multiplication by
    h on Q[z]/(D) (Rothstein-Trager), and each integer residue m gives
    the factor gcd(D, h - m) to the power m.  Raises NonMeromorphic when
    the solution is not a rational function (non-integer exponents,
    irregular poles, a polynomial part, or a pole at the origin).
    """
    op = config.pf
    kappa = Fraction(config.triple_intersection)
    a3, a4 = op.coefficients[3], op.coefficients[4]
    if not a3:
        return YukawaCoupling(scale=kappa)
    if a3[0] != 0:
        raise NonMeromorphic("coupling has a zero or pole at the origin")
    common = _poly_gcd(a3[1:], a4)
    numer, denom = (_poly_divmod(p, common)[0] for p in (a3[1:], a4))
    numer = [-c / (2 * denom[-1]) for c in numer]
    denom = [c / denom[-1] for c in denom]
    if len(numer) >= len(denom):
        raise NonMeromorphic("log-derivative has a polynomial part")
    d_denom = _poly_deriv(denom)
    if len(_poly_gcd(denom, d_denom)) > 1:
        raise NonMeromorphic("log-derivative has a higher-order pole")
    h = _poly_divmod(_poly_mul(numer, _poly_inv_mod(d_denom, denom)),
                     denom)[1]
    factors = []
    for m in _integer_eigenvalues(h, denom):
        f = _poly_gcd(denom, _poly_sub(h, [m]))
        factors.append((tuple(c / f[0] for c in f), m))
    if sum(len(f) - 1 for f, _ in factors) != len(denom) - 1:
        raise NonMeromorphic(
            "coupling requires a non-integer power; not meromorphic")
    y = YukawaCoupling(scale=kappa, factors=tuple(factors))

    # exact check of 2 a_4 theta Y + a_3 Y = 0 for Y = P/Q
    p, q = y.numerator_denominator()
    wronskian = _poly_sub(_poly_mul(_poly_deriv(p), q),
                          _poly_mul(p, _poly_deriv(q)))
    if _poly_sub(_poly_mul(_poly_mul((0, 2), a4), wronskian),
                 _poly_mul(_poly_mul([-c for c in a3], p), q)):
        raise NonMeromorphic("reconstructed coupling fails its defining ODE")
    return y


def flat_yukawa(y: YukawaCoupling, basis: PeriodBasis,
                mm: MirrorMap) -> LogSeries:
    """C_ttt(q) = Y(z) / (omega_0^2 (theta t)^3) re-expanded in q."""
    order = basis.order
    numer = y.series(order)
    theta_t = mm.t_of_z.theta()
    denom = basis.omega0 ** 2 * theta_t ** 3
    c_z = numer * denom.invert()
    return c_z.compose(mm.z_of_q)


def compute_yukawa(config: CYFamilyConfig, basis: PeriodBasis,
                   mm: MirrorMap) -> YukawaData:
    """Both coupling presentations, checked against the classical value."""
    y = yukawa_theta(config)
    c_ttt = flat_yukawa(y, basis, mm)
    kappa = Fraction(config.triple_intersection)
    if y.scale != kappa or c_ttt.constant_term != kappa:
        raise DomainError("coupling does not restrict to the classical "
                          "triple intersection at the large-radius point")
    return YukawaData(y_theta=y, c_ttt=c_ttt)


def extract_instantons(c_ttt: LogSeries, config: CYFamilyConfig,
                       strict: bool = True) -> InstantonResult:
    """Invert the multiple-cover sum C_ttt = kappa + sum n_d d^3 q^d/(1-q^d).

    Equivalently N_{0,d} = [q^d] C_ttt / d^3 and
    N_{0,d} = sum_{k | d} n_{d/k} k^{-3}.  Non-integer n_d are flagged;
    with ``strict`` they raise IntegralityViolation.
    """
    kappa = Fraction(config.triple_intersection)
    if c_ttt.constant_term != kappa:
        raise DomainError(
            f"coupling constant term {c_ttt.constant_term} != {kappa}")
    if not c_ttt.is_log_free or c_ttt.ramification != 1:
        raise DomainError("coupling must be an unramified log-free q-series")
    d_max = math.ceil(c_ttt.order) - 1 if c_ttt.order is not None else 0
    n: dict[int, Fraction] = {}
    gw: dict[int, Fraction] = {}
    for d in range(1, d_max + 1):
        acc = c_ttt.coefficient(d)
        for k in range(1, d):
            if d % k == 0:
                acc -= n[k] * k ** 3
        n[d] = acc / d ** 3
        gw[d] = sum((n[d // k] / k ** 3 for k in range(1, d + 1) if d % k == 0),
                    Fraction(0))
    flagged = tuple(d for d, v in n.items() if v.denominator != 1)
    if strict and flagged:
        detail = ", ".join(f"n_{d} = {format_rational(n[d])}" for d in flagged)
        raise IntegralityViolation(f"non-integer instanton numbers: {detail}")
    return InstantonResult(gw=gw, n=n, flagged=flagged)


def assemble_genus0(config: CYFamilyConfig, gw: dict[int, Fraction],
                    order, instantons: dict[int, int] | None = None) -> GWPotential:
    """Genus-zero potential: (kappa/6) t^3 plus sum N_{0,d} q^d."""
    quantum = LogSeries({(Fraction(d), 0): v for d, v in gw.items()},
                        order=order)
    return GWPotential(
        genus=0,
        classical_cubic=Fraction(config.triple_intersection, 6),
        quantum=quantum,
        gw=dict(gw),
        instantons=instantons,
    )


def coupling_from_potential(potential: GWPotential) -> LogSeries:
    """Recover C_ttt by applying (q d/dq)^3 and adding the cubic term.

    Independent route to the coupling; must agree exactly with the
    flat-coordinate expansion.
    """
    third = potential.quantum.theta().theta().theta()
    return third + LogSeries.constant(6 * potential.classical_cubic,
                                      order=third.order)


def check_special_geometry_identity(basis: PeriodBasis,
                                    frame: SymplecticFrame | None) -> LogSeries:
    """The series Q(Omega, theta Omega); vanishes for a normalized frame."""
    if frame is None:
        raise NormalizationMissing("no symplectic frame supplied")
    return frame.pairing_series(basis, 1)


def genus0_export(config: CYFamilyConfig, result: InstantonResult,
                  mm: MirrorMap, c_ttt: LogSeries) -> dict:
    """JSON document with the genus-zero artifacts."""
    return {
        "family": config.name,
        "n": {str(d): format_rational(v) for d, v in sorted(result.n.items())},
        "N0": {str(d): format_rational(v) for d, v in sorted(result.gw.items())},
        "mirror_map": mm.q_of_z.to_json(),
        "z_of_q": mm.z_of_q.to_json(),
        "yukawa_flat": c_ttt.to_json(),
    }
