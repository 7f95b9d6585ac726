"""Family data, mirror map, triple coupling, genus-0 and constant-map terms.

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
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DomainError, IntegralityViolation, NonMeromorphic,
                     config_int, malformed_input)
from .picard_fuchs import PeriodBasis, PFOperator, Poly
from .series import LogSeries, _mul_trunc, format_rational

# The largest tr h^2 (the sum of the squared residues of d log Y) that
# yukawa_theta scans up to, one polynomial gcd per candidate exponent;
# Y ~ (1 - z)^1000 has 10^6.
MAX_RESIDUE_SQUARES = 10 ** 7


@dataclass(frozen=True)
class CYFamilyConfig:
    """One-parameter family data: operator plus classical invariants."""

    name: str
    pf: PFOperator
    triple_intersection: int  # integral of H^3
    c2_H: int                 # integral of c_2 . H
    euler: int                # chi = integral of c_3

    def __post_init__(self):
        if self.triple_intersection <= 0:
            raise DomainError("triple intersection number must be positive")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kappa": 1,  # moduli count; from_json refuses any other
            "triple_intersection": self.triple_intersection,
            "c2_H": self.c2_H,
            "euler": self.euler,
            "operator": self.pf.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "CYFamilyConfig":
        with malformed_input("family config"):
            op = PFOperator.from_json(obj["operator"])
            if config_int(obj, "kappa", 1) != 1:
                raise DomainError("only one-parameter families are supported")
            return cls(
                name=str(obj["name"]),
                pf=op,
                triple_intersection=config_int(obj, "triple_intersection"),
                c2_H=config_int(obj, "c2_H"),
                euler=config_int(obj, "euler"),
            )


_BERNOULLI = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    From sum_{k=0}^{n} binom(n+1, k) B_k = 0 for n >= 1 with B_0 = 1;
    computed values are kept in a module-level list.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    for m in range(len(_BERNOULLI), n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def constant_map_contribution(g: int, euler) -> Fraction:
    """Degree-zero genus-g invariant for a threefold with chi = euler.

    (-1)^g |B_{2g}| |B_{2g-2}| / (4 g (2g-2) (2g-2)!) * chi, for g >= 2.
    """
    if g < 2:
        raise DomainError("constant-map contribution needs genus >= 2")
    chi = Fraction(euler)
    num = abs(bernoulli(2 * g)) * abs(bernoulli(2 * g - 2))
    den = 4 * g * (2 * g - 2) * math.factorial(2 * g - 2)
    return (-1) ** g * num / den * chi


@dataclass(frozen=True)
class MirrorMap:
    """u(z) with t = log z + u, q(z) = exp t, and the reversion z(q)."""

    u: LogSeries
    q_of_z: LogSeries
    z_of_q: LogSeries


@dataclass(frozen=True)
class YukawaCoupling:
    """Rational function scale * prod f_i(z)^{m_i} with f_i(0) = 1."""

    scale: Fraction
    factors: tuple[tuple[Poly, int], ...] = ()

    def series(self, order) -> LogSeries:
        num, den = (LogSeries.from_coefficients(p, order=order)
                    for p in self.numerator_denominator())
        return num * den.invert()

    def numerator_denominator(self) -> tuple[Poly, Poly]:
        """Polynomial pair, normalized so the denominator starts at 1."""
        num, den = [Fraction(self.scale)], [Fraction(1)]
        for coeffs, power in self.factors:  # f^|m| by repeated squaring
            target, f, m = num if power > 0 else den, list(coeffs), abs(power)
            while m:
                if m & 1:
                    target[:] = _poly_mul(target, f)
                m >>= 1
                f = _poly_mul(f, f) if m else f
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
class InstantonResult:
    """Degree-d invariants with the multiple-cover inversion applied."""

    gw: dict[int, Fraction]            # N_{0,d}
    n: dict[int, Fraction]             # n_d, all integers once extracted


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


def _poly_str(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            cs, z = format_rational(c), "z" if i == 1 else f"z^{i}"
            parts.append(cs if i == 0 else z if cs == "1" else f"{cs}*{z}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def build_mirror_map(basis: PeriodBasis) -> MirrorMap:
    """Exact mirror map from the normalized period basis.

    t = omega_1/omega_0 = log z + u with u = sigma_1/omega_0, and
    q = exp(t) = z exp(u), which stays in the rational-coefficient ring.
    """
    u = basis.sigma1 * basis.omega0.invert()
    q = u.exp().shift(1)
    return MirrorMap(u=u, q_of_z=q, z_of_q=q.revert())


def yukawa_theta(config: CYFamilyConfig) -> YukawaCoupling:
    """Closed-form rational triple coupling in the theta coordinate.

    Integrates d/dz log Y = -a_3/(2 z a_4) = N/D with Y(0) equal to the
    triple intersection number.  With D squarefree and deg N < deg D,
    the residue at a root r of D is h(r), h = N/D' mod D (Rothstein-
    Trager).  If all residues are integers, each m has m^2 <= tr(h^2) on
    Q[z]/(D), their sum of squares; the scan over 0 < |m| <= that bound
    keeps gcd(D, h - m) to the power m wherever it is nontrivial, and
    factors short of deg D mean a non-integer residue.  A tr(h^2) above
    MAX_RESIDUE_SQUARES is refused before the scan.  Raises
    NonMeromorphic when the solution is not a rational function
    (non-integer exponents, irregular poles, a polynomial part, or a
    pole at the origin).
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
    n = len(denom) - 1
    h2 = _poly_divmod(_poly_mul(h, h), denom)[1]
    p2 = sum((_poly_divmod([0] * j + h2, denom)[1] + [0] * n)[j]
             for j in range(n))
    if p2 > MAX_RESIDUE_SQUARES:
        raise NonMeromorphic(
            f"coupling residues have tr h^2 = {p2}, above the scan bound "
            f"MAX_RESIDUE_SQUARES = {MAX_RESIDUE_SQUARES}")
    # an integer residue set has an integer tr h^2; otherwise skip the scan
    bound = math.isqrt(max(p2.numerator, 0)) if p2.denominator == 1 else 0
    factors = []
    for m in range(-bound, bound + 1):
        if m and len(f := _poly_gcd(denom, _poly_sub(h, [m]))) > 1:
            factors.append((tuple(c / f[0] for c in f), m))
    if sum(len(f) - 1 for f, _ in factors) != n:
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
    """C_ttt(q) = Y(z) / (omega_0^2 (theta t)^3) re-expanded in q.

    With Y = P/Q, C(z) = P (Q omega_0^2 (theta t)^3)^-1: one inversion;
    theta t = 1 + theta u.
    """
    num, den = (LogSeries.from_coefficients(p, order=basis.order)
                for p in y.numerator_denominator())
    c_z = num * (den * basis.omega0 ** 2 * (mm.u.theta() + 1) ** 3).invert()
    return c_z.compose(mm.z_of_q)


def extract_instantons(c_ttt: LogSeries,
                       config: CYFamilyConfig) -> InstantonResult:
    """Invert the multiple-cover sum C_ttt = kappa + sum n_d d^3 q^d/(1-q^d).

    Equivalently N_{0,d} = [q^d] C_ttt / d^3 and
    N_{0,d} = sum_{k | d} n_{d/k} k^{-3}.  Non-integer n_d raise
    IntegralityViolation, which lists each of them.
    """
    kappa = Fraction(config.triple_intersection)
    if c_ttt.constant_term != kappa:
        raise DomainError(
            f"coupling constant term {c_ttt.constant_term} != {kappa}")
    if not c_ttt.is_log_free or c_ttt.ramification != 1:
        raise DomainError("coupling must be an unramified log-free q-series")
    d_max = math.ceil(c_ttt.order) - 1
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
    detail = ", ".join(f"n_{d} = {format_rational(v)}"
                       for d, v in n.items() if v.denominator != 1)
    if detail:
        raise IntegralityViolation(f"non-integer instanton numbers: {detail}")
    return InstantonResult(gw=gw, n=n)


def assemble_genus0(config: CYFamilyConfig, gw: dict[int, Fraction],
                    order) -> LogSeries:
    """F_0 = (kappa/6) t^3 + sum N_{0,d} q^d as one series in q, t = log q."""
    return LogSeries({(d, 0): v for d, v in gw.items()}
                     | {(0, 3): Fraction(config.triple_intersection, 6)},
                     order=order)


def coupling_from_potential(potential: LogSeries) -> LogSeries:
    """Recover C_ttt as (q d/dq)^3 F_0; the cubic term gives kappa.

    Independent route to the coupling; must agree exactly with the
    flat-coordinate expansion.
    """
    return potential.theta().theta().theta()


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
