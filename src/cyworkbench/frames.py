"""Constant symplectic pairing on the Frobenius solution space.

The flat intersection form is represented by a constant antisymmetric
Gram matrix S in the period basis: for solutions written as coordinate
vectors u, v, the pairing is u^T S v, and the pairing of the section
with its theta-derivatives is the series

    Q(Omega, theta^k Omega)(z) = sum_{i<j} S_ij (w_i theta^k w_j - w_j theta^k w_i).

Flatness and the leading log structure of a normalized basis force

    S_01 = S_02 = S_13 = S_23 = 0,    S_12 = -S_03,

so the solution space of Q(Omega, theta Omega) = 0 is at most one
dimensional; the scale is fixed by Q(Omega, theta^3 Omega) = -Y where Y
is the theta-coordinate triple coupling.  The residual freedom (which
symplectic basis realizes S) does not affect any exported quantity.

Wronskians run on integers: w_i times the lcm D_i of its denominators
gives dense int rows per log degree (theta keeps them integral), the
products fill seven rows of log degree 0..6 (w_3 * theta w_3 exceeds
3), and each coefficient is divided by D_i D_j once.  Results stay raw
(exponent, log-degree) -> coefficient maps until they must fit a
LogSeries again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LogDegreeOverflow, NormalizationMissing
from .picard_fuchs import PeriodBasis
from .series import LogSeries, _mul_trunc

RawTerms = dict[tuple[Fraction, int], Fraction]

_PAIRS = tuple(itertools.combinations(range(4), 2))


def _raw_axpy(total: RawTerms, coeff: Fraction, d: RawTerms) -> None:
    for key, v in d.items():
        total[key] = total.get(key, Fraction(0)) + coeff * v


def _raw_to_series(d: RawTerms, order: Fraction) -> LogSeries:
    if any(k > 3 for (_, k) in d):
        raise LogDegreeOverflow(
            "pairing residual has log degree above 3; "
            "the supplied pairing matrix is not symplectic for this basis")
    return LogSeries(d, order=order)


def _integer_rows(series: LogSeries, n: int) -> tuple[int, list[list[int]]]:
    """D = lcm of the denominators of ``series`` and its dense int rows,
    rows[k][e] = D * (coefficient of z^e log^k z)."""
    denom = math.lcm(*(c.denominator for _, c in series.items()))
    rows = [[0] * n for _ in range(4)]
    for (e, k), c in series.items():
        if e.denominator != 1:
            raise DomainError("period series must be unramified")
        rows[k][int(e)] = c.numerator * (denom // c.denominator)
    return denom, rows


def _wronskians(basis: PeriodBasis, derivative: int) -> dict[tuple[int, int], RawTerms]:
    """w_i theta^der w_j - w_j theta^der w_i for all i < j, as raw maps."""
    n = math.ceil(basis.order)
    scaled = [_integer_rows(w, n) for w in basis.omegas]
    ders = []
    for _, rows in scaled:
        for _ in range(derivative):
            # theta(z^e log^k z) = e z^e log^k z + k z^e log^(k-1) z
            rows = [[e * c + (k + 1) * u
                     for e, (c, u) in enumerate(zip(rows[k], up))]
                    for k, up in enumerate(rows[1:] + [[0] * n])]
        ders.append(rows)
    out = {}
    for i, j in _PAIRS:
        acc = [[0] * n for _ in range(7)]
        for a, b, sign in ((scaled[i][1], ders[j], 1),
                           (scaled[j][1], ders[i], -1)):
            for (k1, r1), (k2, r2) in itertools.product(enumerate(a),
                                                        enumerate(b)):
                if any(r1) and any(r2):
                    acc[k1 + k2] = [x + sign * y for x, y in
                                    zip(acc[k1 + k2], _mul_trunc(r1, r2, n))]
        d = scaled[i][0] * scaled[j][0]
        out[(i, j)] = {(Fraction(e), k): Fraction(v, d)
                       for k, row in enumerate(acc)
                       for e, v in enumerate(row) if v}
    return out


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact nullspace basis by Gauss-Jordan elimination over Q."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


# standard Gram matrix in the basis (alpha_0, alpha_1, beta^0, beta^1)
STANDARD_J = (
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
)


@dataclass(frozen=True)
class SymplecticFrame:
    """Darboux frame data for the rank-4 local system (kappa = 1).

    ``pairing_matrix`` is the integer Gram matrix in the (alpha, beta)
    basis; ``transition`` maps Frobenius coordinates to (alpha, beta)
    coordinates; ``gram_frobenius`` is the induced Gram matrix
    S = T^T J T in the Frobenius basis.
    """

    pairing_matrix: tuple = STANDARD_J
    transition: tuple = ()
    gram_frobenius: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.pairing_matrix)

    def pairing(self, u, v):
        """Q(u, v) for vectors in the (alpha, beta) basis."""
        total = 0
        for i, row in enumerate(self.pairing_matrix):
            for j, q in enumerate(row):
                if q:
                    total = total + q * u[i] * v[j]
        return total

    def pairing_series(self, basis: PeriodBasis, derivative: int) -> LogSeries:
        """The exact series Q(Omega, theta^derivative Omega)."""
        wr = _wronskians(basis, derivative)
        total: RawTerms = {}
        for (i, j), d in wr.items():
            s = Fraction(self.gram_frobenius[i][j])
            if s != 0:
                _raw_axpy(total, s, d)
        total = {k: v for k, v in total.items() if v != 0}
        return _raw_to_series(total, basis.order)


def solve_symplectic_frame(basis: PeriodBasis, yukawa_series: LogSeries,
                           triple_intersection) -> SymplecticFrame:
    """Fix the constant pairing from the Frobenius basis.

    Solves Q(Omega, theta Omega) = 0 exactly (order by order) for the
    antisymmetric Gram matrix, then scales it so that
    Q(Omega, theta^3 Omega) = -yukawa_series.  Both constraints are
    verified to the full truncation order of the basis.
    """
    kappa = Fraction(triple_intersection)
    w1 = _wronskians(basis, 1)
    keys = sorted(set().union(*(set(d) for d in w1.values())))
    rows = [[w1[p].get(key, Fraction(0)) for p in _PAIRS] for key in keys]
    null = _nullspace(rows, len(_PAIRS))
    if not null:
        raise NormalizationMissing(
            "no constant antisymmetric pairing annihilates Q(Omega, theta Omega); "
            "the operator does not carry a symplectic structure")

    w3 = _wronskians(basis, 3)

    def combine(wr, vec) -> RawTerms:
        total: RawTerms = {}
        for coeff, p in zip(vec, _PAIRS):
            if coeff != 0:
                _raw_axpy(total, coeff, wr[p])
        return {k: v for k, v in total.items() if v != 0}

    chosen = None
    for vec in null:
        w0 = combine(w3, vec).get((Fraction(0), 0), Fraction(0))
        if w0 != 0:
            chosen = [x * (-kappa / w0) for x in vec]
            break
    if chosen is None:
        raise NormalizationMissing(
            "pairing nullspace is degenerate against theta^3")

    s = {p: c for p, c in zip(_PAIRS, chosen)}
    gram = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), c in s.items():
        gram[i][j] = c
        gram[j][i] = -c
    gram_t = tuple(tuple(row) for row in gram)

    # the z^0 log structure forces the antidiagonal support pattern
    expected_zero = [(0, 1), (0, 2), (1, 3), (2, 3)]
    if any(s[p] != 0 for p in expected_zero) or s[(1, 2)] != -s[(0, 3)]:
        raise NormalizationMissing(
            "pairing solution violates the weight-graded support pattern")

    # exact verification against the normalization constraints
    if combine(w1, chosen):
        raise NormalizationMissing("Q(Omega, theta Omega) residual is nonzero")
    res3 = combine(w3, chosen)
    _raw_axpy(res3, Fraction(1),
              dict(yukawa_series.truncate(basis.order).items()))
    if any(res3.values()):
        raise NormalizationMissing(
            "Q(Omega, theta^3 Omega) does not reproduce the triple coupling")
    return SymplecticFrame(gram_frobenius=gram_t,
                           transition=_transition_from_gram(s[(0, 3)]))


def _transition_from_gram(s03: Fraction) -> tuple:
    """T with T^T J T = S for S supported on (0,3) and (1,2).

    Columns are the (alpha, beta) coordinates of the Frobenius basis
    vectors: e0 -> alpha_0, e1 -> alpha_1, e2 -> -s beta^1, e3 -> s beta^0,
    which realizes Q(e0, e3) = s and Q(e1, e2) = -s.
    """
    s = Fraction(s03)
    return (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), s),
        (Fraction(0), Fraction(0), -s, Fraction(0)),
    )
