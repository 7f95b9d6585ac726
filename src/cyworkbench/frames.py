"""Constant symplectic pairing on the Frobenius solution space.

The flat intersection form is represented by a constant antisymmetric
Gram matrix S in the period basis: for solutions written as coordinate
vectors u, v, the pairing is u^T S v, and the pairing of the section
with its theta-derivatives is the series

    Q(Omega, theta^k Omega)(z) = sum_{i<j} S_ij W^k_ij,
    W^k_ij = w_i theta^k w_j - w_j theta^k w_i.

Flatness and the leading log structure of a normalized basis force

    S_01 = S_02 = S_13 = S_23 = 0,    S_03 = -S_12 = s,

so only W_03 and W_12 are ever built, Q(Omega, theta Omega) = 0 holds
for every s, and Q(Omega, theta^3 Omega) = -Y, with Y the
theta-coordinate triple coupling, fixes s = -kappa / [z^0](W^3_03 -
W^3_12).  The residual freedom (which symplectic basis realizes S) does
not affect any exported quantity.

Wronskians run on integers: the rows (``LogSeries.rows``) of w_i and of
theta^k w_i times the lcm D_i of the denominators of w_i are integral,
their products fill seven rows of log degree 0..6 (w_3 * theta w_3
exceeds 3), and each coefficient is divided by D_i D_j once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LogDegreeOverflow, NormalizationMissing
from .picard_fuchs import PeriodBasis
from .series import LogSeries, _mul_trunc

_PAIRS = tuple(itertools.combinations(range(4), 2))
_FRAME_PAIRS = ((0, 3), (1, 2))


def _integer_rows(series: LogSeries, denom: int, n: int) -> list[list[int]]:
    """``denom`` times the rows of ``series``, as n-long int lists."""
    if series.ramification != 1:
        raise DomainError("period series must be unramified")
    return [[c.numerator * (denom // c.denominator) for c in row[:n]]
            + [0] * (n - len(row)) for row in series.rows()]


def _wronskians(basis: PeriodBasis, derivative: int,
                pairs) -> dict[tuple[int, int], list[list[Fraction]]]:
    """W_ij = w_i theta^der w_j - w_j theta^der w_i for (i, j) in pairs,
    as seven rows (log degree 0..6) of ceil(order) coefficients."""
    n = math.ceil(basis.order)
    denoms, plain, ders = [], [], []
    for w in basis.omegas:
        denom = math.lcm(*(c.denominator for row in w.rows() for c in row))
        der = w
        for _ in range(derivative):
            der = der.theta()
        denoms.append(denom)
        plain.append(_integer_rows(w, denom, n))
        ders.append(_integer_rows(der, denom, n))
    out = {}
    for i, j in pairs:
        acc = [[0] * n for _ in range(7)]
        for a, b, sign in ((plain[i], ders[j], 1), (plain[j], ders[i], -1)):
            for (k1, r1), (k2, r2) in itertools.product(enumerate(a),
                                                        enumerate(b)):
                if any(r1) and any(r2):
                    acc[k1 + k2] = [x + sign * y for x, y in
                                    zip(acc[k1 + k2], _mul_trunc(r1, r2, n))]
        d = denoms[i] * denoms[j]
        out[(i, j)] = [[Fraction(v, d) for v in row] for row in acc]
    return out


def _pairing(wr, gram, order) -> LogSeries:
    """sum of S_ij W_ij over the pairs of ``wr``, as a series."""
    coeffs = [Fraction(gram[i][j]) for i, j in wr]
    rows = [[sum(s * c for s, c in zip(coeffs, column))
             for column in zip(*by_pair)] for by_pair in zip(*wr.values())]
    if any(map(any, rows[4:])):
        raise LogDegreeOverflow(
            "pairing residual has log degree above 3; "
            "the supplied pairing matrix is not symplectic for this basis")
    return LogSeries.from_rows(rows, order)


@dataclass(frozen=True)
class SymplecticFrame:
    """Constant pairing on the rank-4 local system (kappa = 1), given by
    its antisymmetric Gram matrix S in the Frobenius basis."""

    gram_frobenius: tuple

    def pairing_series(self, basis: PeriodBasis, derivative: int) -> LogSeries:
        """The exact series Q(Omega, theta^derivative Omega)."""
        g = self.gram_frobenius
        pairs = [(i, j) for i, j in _PAIRS if g[i][j] != 0]
        return _pairing(_wronskians(basis, derivative, pairs), g, basis.order)


def solve_symplectic_frame(basis: PeriodBasis, yukawa_series: LogSeries,
                           triple_intersection) -> SymplecticFrame:
    """Fix the constant pairing from the Frobenius basis.

    Sets S_03 = -S_12 = s with s = -kappa / [z^0](W^3_03 - W^3_12), then
    verifies Q(Omega, theta Omega) = 0 and Q(Omega, theta^3 Omega) =
    -yukawa_series exactly to the full truncation order of the basis.
    """
    kappa = Fraction(triple_intersection)
    w3 = _wronskians(basis, 3, _FRAME_PAIRS)
    lead = w3[(0, 3)][0][0] - w3[(1, 2)][0][0]
    if lead == 0:
        raise NormalizationMissing("pairing is degenerate against theta^3")
    s, zero = -kappa / lead, Fraction(0)
    gram = ((zero, zero, zero, s), (zero, zero, -s, zero),
            (zero, s, zero, zero), (-s, zero, zero, zero))
    if not _pairing(_wronskians(basis, 1, _FRAME_PAIRS), gram,
                    basis.order).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta Omega) residual is nonzero; "
            "the operator does not carry a symplectic structure")
    res3 = _pairing(w3, gram, basis.order) + yukawa_series.truncate(basis.order)
    if not res3.is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta^3 Omega) does not reproduce the triple coupling")
    return SymplecticFrame(gram_frobenius=gram)
