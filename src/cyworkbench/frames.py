"""Constant symplectic pairing on the Frobenius solution space.

The flat intersection form is represented by a constant antisymmetric
Gram matrix S in the period basis: for solutions written as coordinate
vectors u, v, the pairing is u^T S v, and the pairing of the section
with its theta-derivatives is the series

    Q(Omega, theta^k Omega)(z) = sum_{i<j} S_ij W^k_ij,
    W^k_ij = w_i theta^k w_j - w_j theta^k w_i.

Flatness and the leading log structure of a normalized basis force

    S_01 = S_02 = S_13 = S_23 = 0,    S_03 = -S_12 = s,

and [z^0](W^3_03 - W^3_12) = 1, so Q(Omega, theta^3 Omega) = -Y with
Y(0) = kappa fixes s = -kappa.  For L = sum_k a_k theta^k and
b_k = a_k / a_4, Q(Omega, theta Omega) vanishes at every order exactly
when L satisfies the Calabi-Yau identity (Almkvist-Zudilin)

    b_1 = b_2 b_3 / 2 - b_3^3 / 8 + theta b_2 - 3/4 b_3 theta b_3
          - theta^2 b_3 / 2,

which times 8 a_4^3 is a polynomial of degree <= 3 deg L, exact on
3 deg L + 1 terms.  Given it, Q(Omega, theta^3 Omega) solves the
coupling's equation (2 a_4 theta + a_3) W = 0 with W(0) = -kappa, so it
equals -Y mod z^N exactly when Y(0) = kappa and Y solves that equation
mod z^N.  Which symplectic basis realizes S affects no exported value.

A Wronskian stays within the log degree cap 3 for the pairs (0, 1),
(0, 2), (0, 3) and (1, 2); w_1 theta^k w_3 and w_2 theta^k w_3 reach
log degree 4 and 5, so S_13 or S_23 != 0 raises ``LogDegreeOverflow``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NormalizationMissing
from .picard_fuchs import PeriodBasis
from .series import LogSeries

_PAIRS = tuple(itertools.combinations(range(4), 2))


@dataclass(frozen=True)
class SymplecticFrame:
    """Constant pairing on the rank-4 local system (kappa = 1), given by
    its antisymmetric Gram matrix S in the Frobenius basis."""

    gram_frobenius: tuple

    def pairing_series(self, basis: PeriodBasis, derivative: int) -> LogSeries:
        """The exact series Q(Omega, theta^derivative Omega)."""
        g, w = self.gram_frobenius, basis.omegas
        ders = list(w)
        for _ in range(derivative):
            ders = [d.theta() for d in ders]
        total = LogSeries.zero(order=basis.order)
        for i, j in _PAIRS:
            if g[i][j] != 0:
                total = total + (w[i] * ders[j] - w[j] * ders[i]) * g[i][j]
        return total


def solve_symplectic_frame(basis: PeriodBasis, yukawa_series: LogSeries,
                           triple_intersection) -> SymplecticFrame:
    """Fix the constant pairing from the operator of the basis.

    Sets S_03 = -S_12 = s = -kappa, then checks exactly the Calabi-Yau
    identity, Q(Omega, theta Omega) = 0 on the first eight terms of the
    basis, and that yukawa_series starts at kappa and solves
    (2 a_4 theta + a_3) Y = 0 to the truncation order of the basis.
    """
    s, zero, op = -Fraction(triple_intersection), Fraction(0), basis.operator
    frame = SymplecticFrame(gram_frobenius=(
        (zero, zero, zero, s), (zero, zero, -s, zero),
        (zero, s, zero, zero), (-s, zero, zero, zero)))
    head = basis.truncate(min(basis.order, 8))
    a = [LogSeries.from_coefficients(p, order=3 * op.z_degree + 1)
         for p in op.coefficients]
    inv = a[4].invert()
    b1, b2, b3 = (a_k * inv for a_k in a[1:4])
    t3 = b3.theta()
    identity = a[4] ** 3 * (8 * b1 - 4 * b2 * b3 + b3 ** 3 - 8 * b2.theta()
                            + 6 * b3 * t3 + 4 * t3.theta())
    if not (frame.pairing_series(head, 1).is_zero and identity.is_zero):
        raise NormalizationMissing(
            "Q(Omega, theta Omega) residual is nonzero; "
            "the operator does not carry a symplectic structure")
    y = yukawa_series.truncate(basis.order)
    a3, a4 = (LogSeries.from_coefficients(p, order=basis.order)
              for p in op.coefficients[3:])
    if y.constant_term != -s or not (2 * a4 * y.theta() + a3 * y).is_zero:
        raise NormalizationMissing(
            "Q(Omega, theta^3 Omega) does not reproduce the triple coupling")
    return frame
