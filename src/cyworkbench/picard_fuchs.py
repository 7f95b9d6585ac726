"""Order-4 ODEs in theta = z d/dz and their Frobenius period basis.

An operator L = sum_k a_k(z) theta^k with polynomial coefficients and a
quadruple indicial root at z = 0 (maximal unipotent monodromy) has a
four-dimensional solution space with log degrees 0..3.  The basis is
normalized so that

    omega_0 = 1 + O(z)            (holomorphic, no logs)
    omega_k = omega_0 log^k z / k! + lower log-degree corrections,

where every correction series vanishes at z = 0.  This normalization is
unique and is solved term by term over exact rationals.

The recurrence works in the jet ring Q[lam]/(lam^4): the coefficient
functions c_n(lam) of the deformed solution z^lam * sum c_n(lam) z^n are
carried to third order in lam as integer 4-lists over one reduced
denominator per n, multiplied by ``series._mul_trunc``.  The basis holds
the log-free series f_i = sum_n [lam^i] c_n(lam) z^n; omega_k =
sum_{j<=k} f_{k-j} log^j z / j! is derived where the log rows are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError, NotMUM
from .series import LogSeries, _mul_trunc, format_rational, parse_rational

Poly = tuple[Fraction, ...]  # ascending z-coefficients

_JET_LEN = 4  # work modulo lam^4
# cap on the z-degree of the a_k: placing the zeros of a_4 for the radius
# check took 0.9 s at degree 40 and 34.5 s at degree 200 (2 vCPUs)
MAX_OPERATOR_DEGREE = 40


def _poly(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_at_zero(p: Poly) -> Fraction:
    return p[0] if p else Fraction(0)


@dataclass(frozen=True)
class PFOperator:
    """L = sum_{k=0}^{4} a_k(z) theta^k, normalized to a_4(0) = 1."""

    coefficients: tuple[Poly, Poly, Poly, Poly, Poly]
    singular_radius: Fraction

    def __post_init__(self):
        if len(self.coefficients) != 5:
            raise DomainError("operator must have theta-degree exactly 4")
        coeffs = tuple(_poly(c) for c in self.coefficients)
        degree = max(map(len, coeffs)) - 1
        if degree > MAX_OPERATOR_DEGREE:
            raise ConfigError(f"operator z-degree {degree} exceeds the cap "
                              f"MAX_OPERATOR_DEGREE = {MAX_OPERATOR_DEGREE}")
        lead = _poly_at_zero(coeffs[4])
        if lead == 0:
            raise NotMUM("a_4(0) = 0; operator is singular at z = 0")
        coeffs = tuple(tuple(c / lead for c in p) for p in coeffs)
        object.__setattr__(self, "coefficients", coeffs)
        radius = Fraction(self.singular_radius)
        if radius <= 0:
            raise DomainError("singular_radius must be positive")
        object.__setattr__(self, "singular_radius", radius)

    @property
    def z_degree(self) -> int:
        return max((len(p) - 1 for p in self.coefficients if p), default=0)

    def indicial_polynomial(self) -> Poly:
        """Coefficients of the indicial polynomial at z = 0."""
        return _poly(_poly_at_zero(p) for p in self.coefficients)

    def is_mum(self) -> bool:
        return self.indicial_polynomial() == (Fraction(0),) * 4 + (Fraction(1),)

    def apply(self, s: LogSeries) -> LogSeries:
        """Apply the operator to a series, truncation preserved."""
        result, power = LogSeries.zero(order=s.order), s
        for k, a_k in enumerate(self.coefficients):
            if k > 0:
                power = power.theta()
            if a_k:
                result = result + LogSeries.from_coefficients(
                    a_k, s.order) * power
        return result

    def to_json(self) -> dict:
        return {
            "coefficients": [[format_rational(c) for c in p]
                             for p in self.coefficients],
            "singular_radius": format_rational(self.singular_radius),
        }

    @classmethod
    def from_json(cls, obj) -> "PFOperator":
        coeffs = tuple(_poly(parse_rational(c) for c in p)
                       for p in obj["coefficients"])
        return cls(coeffs, parse_rational(obj["singular_radius"]))


@dataclass(frozen=True)
class PeriodBasis:
    """Normalized Frobenius basis at the MUM point, as f_0..f_3."""

    frobenius: tuple[LogSeries, LogSeries, LogSeries, LogSeries]
    operator: PFOperator
    order: Fraction

    def __post_init__(self):
        if any(f.ramification != 1 or not f.is_log_free
               for f in self.frobenius):
            raise DomainError("period series must be unramified and log-free")

    @property
    def omegas(self) -> tuple[LogSeries, LogSeries, LogSeries, LogSeries]:
        """omega_0..omega_3 with their log rows."""
        rows = [f.rows()[0] for f in self.frobenius]
        return tuple(LogSeries.from_rows(
            [[c / math.factorial(j) for c in rows[k - j]]
             for j in range(k + 1)], self.order) for k in range(4))

    @property
    def omega0(self) -> LogSeries:
        return self.frobenius[0]

    @property
    def sigma1(self) -> LogSeries:
        """f_1 in omega_1 = omega_0 log z + f_1, which enters the mirror
        map z exp(sigma1/omega0); it has no constant term."""
        return self.frobenius[1]

    def truncate(self, order) -> "PeriodBasis":
        """The same basis known modulo z^order (the solve is prefix-stable)."""
        return PeriodBasis(tuple(f.truncate(order) for f in self.frobenius),
                           self.operator, Fraction(order))


def frobenius_solve(op: PFOperator, order: int) -> PeriodBasis:
    """Solve for the unique normalized period basis modulo z^order."""
    if not op.is_mum():
        ind = op.indicial_polynomial()
        pretty = " + ".join(f"{format_rational(c)}*lam^{k}"
                            for k, c in enumerate(ind) if c != 0) or "0"
        raise NotMUM(f"indicial polynomial is {pretty}, not lam^4")
    n_terms = math.ceil(Fraction(order))
    if n_terms < 1:
        raise DomainError("order must be at least 1")
    maxj = op.z_degree
    # c_n n^7 L = sum_j q_j c_{n-j}, L the lcm of the coefficient denominators
    # and q_j = -n^7 (lam+n)^-4 L P_j(lam+n-j) with -n^7 (lam+n)^-4 = sum_a
    # w_a n^(3-a) lam^a: [lam^i] q_j sums c n^f (n-j)^e over the int triples
    # (f, e, c) = (3 - a, k - i + a, w_a L a_k[j] C(k, i - a))
    scale = math.lcm(*(c.denominator for p in op.coefficients for c in p))
    q_terms = [[[(3 - a, k - i + a,
                  w * int(scale * p[j]) * math.comb(k, i - a))
                 for a, w in enumerate((-1, 4, -10, 20)[:i + 1])
                 for k, p in enumerate(op.coefficients)
                 if k >= i - a and j < len(p) and p[j]]
                for i in range(_JET_LEN)] for j in range(maxj + 1)]
    jets = [([1, 0, 0, 0], 1)]  # c_n(lam) as (int jet U_n, denominator D_n)
    for n in range(1, n_terms):
        prev = [(j, *jets[n - j]) for j in range(1, min(n, maxj) + 1)]
        den = math.lcm(*(dj for _, _, dj in prev))
        acc = [0] * _JET_LEN
        for j, u, dj in prev:  # c_{n-j} brought to the denominator den
            qj = [den // dj * sum(c * n ** f * (n - j) ** e for f, e, c in col)
                  for col in q_terms[j]]
            acc = [x + y for x, y in zip(acc, _mul_trunc(qj, u, _JET_LEN))]
        d = den * scale * n ** 7
        g = math.gcd(d, *acc)
        jets.append(([c // g for c in acc], d // g))
    order = Fraction(order)  # f_i(z) = sum_n U_n[i] / D_n z^n, reduced once
    return PeriodBasis(tuple(
        LogSeries.from_rows([[Fraction(u[i], d) for u, d in jets]], order)
        for i in range(_JET_LEN)), op, order)
