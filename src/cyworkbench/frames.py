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

Wronskians are ``LogSeries`` products, with theta^k of each omega taken
once per call.  A product stays within the log degree cap 3 for the
pairs (0, 1), (0, 2), (0, 3) and (1, 2); w_1 theta^k w_3 and
w_2 theta^k w_3 reach log degree 4 and 5, so a Gram matrix with
S_13 or S_23 != 0 raises ``LogDegreeOverflow``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NormalizationMissing
from .picard_fuchs import PeriodBasis
from .series import LogSeries

_PAIRS = tuple(itertools.combinations(range(4), 2))


def _thetas(basis: PeriodBasis, derivative: int) -> list[LogSeries]:
    """theta^derivative of each omega of an unramified basis."""
    out = []
    for w in basis.omegas:
        if w.ramification != 1:
            raise DomainError("period series must be unramified")
        for _ in range(derivative):
            w = w.theta()
        out.append(w)
    return out


def _wronskian(basis: PeriodBasis, ders, i: int, j: int) -> LogSeries:
    """W_ij = w_i theta^k w_j - w_j theta^k w_i, ders[i] = theta^k w_i."""
    w = basis.omegas
    return w[i] * ders[j] - w[j] * ders[i]


@dataclass(frozen=True)
class SymplecticFrame:
    """Constant pairing on the rank-4 local system (kappa = 1), given by
    its antisymmetric Gram matrix S in the Frobenius basis."""

    gram_frobenius: tuple

    def pairing_series(self, basis: PeriodBasis, derivative: int) -> LogSeries:
        """The exact series Q(Omega, theta^derivative Omega)."""
        g = self.gram_frobenius
        ders = _thetas(basis, derivative)
        total = LogSeries.zero(order=basis.order)
        for i, j in _PAIRS:
            if g[i][j] != 0:
                total = total + _wronskian(basis, ders, i, j) * g[i][j]
        return total


def solve_symplectic_frame(basis: PeriodBasis, yukawa_series: LogSeries,
                           triple_intersection) -> SymplecticFrame:
    """Fix the constant pairing from the Frobenius basis.

    Sets S_03 = -S_12 = s with s = -kappa / [z^0](W^3_03 - W^3_12), then
    verifies Q(Omega, theta Omega) = 0 and Q(Omega, theta^3 Omega) =
    -yukawa_series exactly to the full truncation order of the basis.
    """
    kappa = Fraction(triple_intersection)
    ders = _thetas(basis, 3)
    w3 = _wronskian(basis, ders, 0, 3) - _wronskian(basis, ders, 1, 2)
    if w3.constant_term == 0:
        raise NormalizationMissing("pairing is degenerate against theta^3")
    s, zero = -kappa / w3.constant_term, Fraction(0)
    frame = SymplecticFrame(gram_frobenius=(
        (zero, zero, zero, s), (zero, zero, -s, zero),
        (zero, s, zero, zero), (-s, zero, zero, zero)))
    if not frame.pairing_series(basis, 1).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta Omega) residual is nonzero; "
            "the operator does not carry a symplectic structure")
    if not (w3 * s + yukawa_series.truncate(basis.order)).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta^3 Omega) does not reproduce the triple coupling")
    return frame
