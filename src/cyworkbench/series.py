"""Exact truncated series in z^(1/r) with polynomial-in-log(z) coefficients.

A :class:`LogSeries` represents

    sum over (i, k) of  c_{i,k} * z^(i/r) * log(z)^k,

with exact rational coefficients ``c_{i,k}``, a ramification index
``r``, and log degree ``k`` at most 3 (period solutions of a threefold
at a maximally unipotent point have log degree <= 3, so the cap is
structural, not a tuning knob).  The coefficients live in dense rows
up to the top log degree with a nonzero entry (row 0 always), the only
coefficient format: every operation works on the rows a series holds.
Other modules read series through ``rows()``, padded to four rows,
``rows()[k][i] = c_{i,k}``, and build them with ``from_rows`` or the
named constructors (``zero``, ``constant``, ``from_coefficients``, a
term map).

Series are truncated: a series with ``order = N`` is known modulo z^N,
and its rows are ceil(N r) long.  Every operation propagates the
weakest truncation order of its operands, so precision loss is always
explicit in the result.

Coefficients stay in ``fractions.Fraction`` end to end.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, LogDegreeOverflow, NotAUnit

MAX_LOG_DEGREE = 3
_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with arbitrary-size decimal integers."""
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; ``q == 1`` prints as ``"p"``."""
    return str(Fraction(value))


def _scaled_support(x: list, n: int) -> tuple[int, list]:
    """The lcm d of the denominators of x, and d x as ints up to its last
    nonzero entry below n."""
    d = math.lcm(*(c.denominator for c in x))
    m = min(n, len(x))
    while m and not x[m - 1]:
        m -= 1
    return d, [c.numerator * (d // c.denominator) for c in x[:m]]


def _mul_trunc(a: list, b: list, n: int) -> list:
    """First n coefficients of the product of dense Fraction/int lists.

    The products run on the ints of _scaled_support, and the result is
    ints when both lcms are 1.  The operand with the shorter support
    drives the inner sum, so a polynomial of degree d times a series
    costs O(n d) products, not O(n^2).
    """
    (da, a), (db, b) = _scaled_support(a, n), _scaled_support(b, n)
    if len(a) > len(b):
        a, b = b, a
    la, m = len(a), min(n, len(a) + len(b) - 1)
    ra = a[::-1]
    out = [sum(map(mul, ra[la - 1 - k:], b)) for k in range(min(la, m))]
    out += [sum(map(mul, ra, b[k - la + 1:k + 1])) for k in range(la, m)]
    out += [0] * (n - len(out))
    return out if da * db == 1 else [Fraction(v, da * db) for v in out]


class LogSeries:
    """Truncated ramified series with log coefficients over Q."""

    __slots__ = ("_rows", "order", "ramification")

    def __init__(
        self,
        terms: Mapping[tuple[Fraction | int, int], Fraction | int],
        order: Fraction | int,
        ramification: int = 1,
    ):
        cells: dict[tuple[int, int], Fraction] = {}
        for (e, k), c in terms.items():
            e, c = Fraction(e), Fraction(c)
            if c == 0:
                continue
            if e < 0:
                raise DomainError(f"negative exponent {e}")
            if (e * ramification).denominator != 1:
                raise DomainError(
                    f"exponent {e} not in the 1/{ramification} lattice")
            if not 0 <= k <= MAX_LOG_DEGREE:
                raise LogDegreeOverflow(
                    f"log degree {k} exceeds cap {MAX_LOG_DEGREE}")
            if e >= order:
                continue  # beyond the known window
            cells[(int(e * ramification), k)] = c
        n = max((i + 1 for i, _ in cells), default=0)
        self._store([[cells.get((i, k), 0) for i in range(n)] for k in
                     range(MAX_LOG_DEGREE + 1)], order, ramification)

    def _store(self, rows, order, ramification: int) -> None:
        if ramification < 1:
            raise DomainError("ramification must be a positive integer")
        order = Fraction(order)
        if order <= 0:
            raise DomainError("truncation order must be positive")
        n = math.ceil(order * ramification)
        rows = [row[:n] for row in rows] or [()]
        if any(map(any, rows[MAX_LOG_DEGREE + 1:])):
            raise LogDegreeOverflow(f"log degree exceeds cap {MAX_LOG_DEGREE}")
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()  # held rows end at the top nonzero log degree
        object.__setattr__(self, "_rows", tuple(
            tuple([c if type(c) is Fraction else Fraction(c) for c in row])
            + (_ZERO,) * (n - len(row)) for row in rows))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ramification", ramification)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LogSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rows(cls, rows, order, ramification: int = 1) -> "LogSeries":
        """Series with coefficient ``rows[k][i]`` at z^(i/r) log^k z.

        The rows are cut or zero-padded to the window ceil(order * r).
        Rows past log degree 3 may be given but must vanish there.
        """
        self = object.__new__(cls)
        self._store(rows, order, ramification)
        return self

    @classmethod
    def zero(cls, order, ramification: int = 1) -> "LogSeries":
        return cls.from_rows((), order, ramification)

    @classmethod
    def constant(cls, c, order) -> "LogSeries":
        return cls.from_rows([[c]], order)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable, order) -> "LogSeries":
        """Plain power series from ascending z-coefficients."""
        return cls.from_rows([list(coeffs)], order)

    # ------------------------------------------------------------------
    # inspection

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The four coefficient rows, rows[k][i] at z^(i/r) log^k z."""
        held = self._rows  # padded with one shared zero row
        return held + ((_ZERO,) * len(held[0]),) * (4 - len(held))

    def items(self) -> Iterator[tuple[tuple[Fraction, int], Fraction]]:
        """Nonzero terms ((exponent, log degree), coefficient), ascending."""
        r = self.ramification
        for i, column in enumerate(zip(*self._rows)):
            for k, c in enumerate(column):
                if c:
                    yield (Fraction(i, r), k), c

    def coefficient(self, exponent, log_degree: int = 0) -> Fraction:
        i = Fraction(exponent) * self.ramification
        if i.denominator != 1 or not 0 <= log_degree < len(self._rows):
            return _ZERO
        row = self._rows[log_degree]
        return row[int(i)] if 0 <= i < len(row) else _ZERO

    def __getitem__(self, exponent) -> Fraction:
        return self.coefficient(exponent, 0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0, 0)

    @property
    def is_zero(self) -> bool:
        return self.is_log_free and not any(self._rows[0])

    @property
    def is_log_free(self) -> bool:
        return len(self._rows) == 1

    @property
    def log_degree(self) -> int:
        """Largest log degree actually present."""
        return len(self._rows) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        if self.ramification == other.ramification:
            return self._rows == other._rows
        return list(self.items()) == list(other.items())

    __hash__ = None

    def __repr__(self) -> str:
        terms = list(self.items())
        if not terms:
            body = "0"
        else:
            parts = []
            for (e, k), c in terms[:8]:
                t = format_rational(c)
                if e != 0:
                    t += f"*z^{format_rational(e)}" if e != 1 else "*z"
                if k:
                    t += f"*log(z)^{k}" if k > 1 else "*log(z)"
                parts.append(t)
            if len(terms) > 8:
                parts.append("...")
            body = " + ".join(parts)
        return f"LogSeries({body} + O(z^{format_rational(self.order)}))"

    # ------------------------------------------------------------------
    # ring structure, on rows over a common 1/r lattice

    def _rows_on(self, r: int, n: int) -> tuple | list:
        """The held rows spread onto the 1/r lattice, cut or padded to n."""
        step = r // self.ramification
        if step == 1 and n == len(self._rows[0]):
            return self._rows
        out = []
        for row in self._rows:
            wide = [_ZERO] * n
            part = row[:(n + step - 1) // step]
            wide[:len(part) * step:step] = part
            out.append(wide)
        return out

    def _join(self, other: "LogSeries") -> tuple[int, Fraction, int]:
        """Common lattice 1/r, weakest order, and window length on it."""
        r = math.lcm(self.ramification, other.ramification)
        order = min(self.order, other.order)
        return r, order, math.ceil(order * r)

    def __add__(self, other) -> "LogSeries":
        if not isinstance(other, LogSeries):
            other = LogSeries.constant(other, self.order)
        r, order, n = self._join(other)
        a, b = sorted((self._rows_on(r, n), other._rows_on(r, n)), key=len)
        rows = [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]
        return LogSeries.from_rows(rows + list(b[len(a):]), order, r)

    def __radd__(self, other) -> "LogSeries":
        return self + other

    def __neg__(self) -> "LogSeries":
        return self * -1

    def __sub__(self, other) -> "LogSeries":
        return self + (-other)

    def __rsub__(self, other) -> "LogSeries":
        return (-self) + other

    def __mul__(self, other) -> "LogSeries":
        if not isinstance(other, LogSeries):
            c = Fraction(other)
            return LogSeries.from_rows([[c * x for x in row] for row in self._rows],
                                       self.order, self.ramification)
        r, order, n = self._join(other)
        rows = [()] * (MAX_LOG_DEGREE + 1)
        right = other._rows_on(r, n)
        for k1, a in enumerate(self._rows_on(r, n)):
            for k2, b in enumerate(right):
                if not (any(a) and any(b)):
                    continue
                prod, k = _mul_trunc(a, b, n), k1 + k2
                if k > MAX_LOG_DEGREE:
                    if any(prod):
                        raise LogDegreeOverflow(
                            f"product term log(z)^{k} exceeds cap "
                            f"{MAX_LOG_DEGREE}")
                    continue
                rows[k] = prod if not rows[k] else [
                    x + y for x, y in zip(rows[k], prod)]
        return LogSeries.from_rows(rows, order, r)

    def __rmul__(self, other) -> "LogSeries":
        return self * other

    def __pow__(self, n: int) -> "LogSeries":
        if not isinstance(n, int) or n < 0:
            raise DomainError("only nonnegative integer powers")
        result = self if n else LogSeries.constant(1, order=self.order)
        for _ in range(n - 1):
            result = result * self
        return result

    def truncate(self, order) -> "LogSeries":
        """Forget terms at or above ``order`` (must weaken, not sharpen)."""
        order = Fraction(order)
        if order > self.order:
            raise DomainError("cannot truncate to a higher order than known")
        return LogSeries.from_rows(self._rows, order, self.ramification)

    def shift(self, delta) -> "LogSeries":
        """Multiply by the exact monomial z^delta (delta >= 0)."""
        delta = Fraction(delta)
        if delta < 0:
            raise DomainError("shift exponent must be nonnegative")
        r = math.lcm(self.ramification, delta.denominator)
        pad = [_ZERO] * int(delta * r)
        rows = self._rows_on(r, math.ceil(self.order * r))
        return LogSeries.from_rows([pad + list(row) for row in rows],
                                   self.order + delta, r)

    # ------------------------------------------------------------------
    # calculus

    def theta(self) -> "LogSeries":
        """Apply the logarithmic derivative z d/dz.

        theta(z^e log^k z) = e z^e log^k z + k z^e log^(k-1) z, so the
        truncation order is preserved exactly.
        """
        r, rows = self.ramification, self._rows
        n = len(rows[0])
        weights = range(n) if r == 1 else [Fraction(i, r) for i in range(n)]
        out = [[w * c for w, c in zip(weights, row)] for row in rows]
        for k, up in enumerate(rows[1:], 1):
            out[k - 1] = [x + k * u for x, u in zip(out[k - 1], up)]
        return LogSeries.from_rows(out, self.order, r)

    def invert(self) -> "LogSeries":
        """Multiplicative inverse; needs a unit constant term, no logs.

        Newton iteration b <- b (2 - a b) doubles the known length of b
        per step.
        """
        if not self.is_log_free:
            raise NotAUnit("cannot invert a series with log terms")
        a = self._rows[0]
        n = len(a)
        if a[0] == 0:
            raise NotAUnit("cannot invert a series with zero constant term")
        b, m = [1 / a[0]], 1
        while m < n:
            m = min(2 * m, n)
            e = [-c for c in _mul_trunc(a, b, m)]
            e[0] += 2
            b = _mul_trunc(b, e, m)
        return LogSeries.from_rows([b], self.order, self.ramification)

    def exp(self) -> "LogSeries":
        """Formal exponential; needs zero constant term and no logs.

        Newton iteration b <- b (1 + a - log b) doubles the known length
        of b per step (Brent-Kung).
        """
        if not self.is_log_free:
            raise DomainError("exp requires a log-free argument")
        if self.constant_term != 0:
            raise DomainError("exp requires zero constant term")
        a, r = self._rows[0], self.ramification
        n = len(a)
        b, m = [1], 1
        while m < n:
            m = min(2 * m, n)
            log_b = LogSeries.from_rows([b], Fraction(m, r), r).log()._rows[0]
            e = [x - y for x, y in zip(a, log_b)]
            e[0] += 1
            b = _mul_trunc(b, e, m)
        return LogSeries.from_rows([b], self.order, r)

    def log(self) -> "LogSeries":
        """Formal logarithm; needs constant term 1 and no logs.

        log f is the integral of (theta f) / f; with integer lattice
        indices i in place of the weights i/r the two factors of r cancel.
        """
        if not self.is_log_free:
            raise DomainError("log requires a log-free argument")
        if self.constant_term != 1:
            raise DomainError("log requires constant term 1")
        a = self._rows[0]
        n = len(a)
        d = _mul_trunc([i * c for i, c in enumerate(a)],
                       self.invert()._rows[0], n)
        b = [_ZERO] + [Fraction(c, i) for i, c in enumerate(d) if i]
        return LogSeries.from_rows([b], self.order, self.ramification)

    def compose(self, inner: "LogSeries") -> "LogSeries":
        """Substitute ``inner`` (zero constant term) for the variable.

        Both series must be unramified and log-free; the result is
        correct modulo z^min(orders) because the inner series starts at
        z^1.  Horner's rule on dense lists: R_e = a_e + inner * R_(e+1) is
        needed only modulo z^(N-e), as inner^e starts at z^e.
        """
        if self.ramification != 1 or inner.ramification != 1:
            raise DomainError("composition requires unramified series")
        if not (self.is_log_free and inner.is_log_free):
            raise DomainError("composition requires log-free series")
        if inner.constant_term != 0:
            raise DomainError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        a = self._rows[0]
        n = len(a)
        nn = math.ceil(order)
        b = inner.truncate(order)._rows[0]
        acc = []
        for e in reversed(range(min(n, nn))):
            acc = _mul_trunc(b, acc, nn - e)
            acc[0] += a[e]
        return LogSeries.from_coefficients(acc, order=order)

    def revert(self) -> "LogSeries":
        """Compositional inverse by Lagrange reversion.

        Requires an unramified, log-free series f = c1*z + O(z^2) with
        c1 != 0; returns b with f(b(w)) = w + O(w^N).  With f = z*g(z)
        and h = 1/g, b_n = (1/n) [z^(n-1)] h^n, building h^n incrementally.
        """
        if self.ramification != 1 or not self.is_log_free:
            raise DomainError("reversion requires an unramified log-free series")
        if self.constant_term != 0:
            raise DomainError("reversion requires zero constant term")
        c1 = self.coefficient(1)
        if c1 == 0:
            raise DomainError("reversion requires a nonzero linear coefficient")
        a = self._rows[0]
        nn = math.ceil(self.order)
        g = LogSeries.from_coefficients(a[1:nn], order=nn - 1)
        h = g.invert()._rows[0]
        b, power = [0], [1]
        for m in range(1, nn):
            power = _mul_trunc(power, h, nn - 1)
            b.append(Fraction(power[m - 1], m))
        return LogSeries.from_coefficients(b, order=self.order)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        """JSON object with all integers as decimal strings."""
        r = self.ramification  # the held rows column by column, as items()
        terms = [{"exp": str(i) if r == 1 else format_rational(Fraction(i, r)),
                  "log": k, "num": str(c.numerator), "den": str(c.denominator)}
                 for i, column in enumerate(zip(*self._rows))
                 for k, c in enumerate(column) if c]
        return {"ramification": r, "order": format_rational(self.order),
                "terms": terms}
