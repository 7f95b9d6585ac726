"""Exact truncated series in z^(1/r) with polynomial-in-log(z) coefficients.

A :class:`LogSeries` represents

    sum over (e, k) of  c_{e,k} * z^e * log(z)^k,

with exact rational coefficients ``c_{e,k}``, exponents ``e`` in the
lattice (1/r) * Z_{>=0} for a ramification index ``r``, and log degree
``k`` at most 3 (period solutions of a threefold at a maximally
unipotent point have log degree <= 3, so the cap is structural, not a
tuning knob).

Series are truncated: a series with ``order = N`` is known modulo z^N.
Every operation propagates the weakest truncation order of its
operands, so precision loss is always explicit in the result.  An
``order`` of ``None`` marks an exact finite expression (a polynomial in
z^(1/r) and log z).

Coefficients stay in ``fractions.Fraction`` end to end; floating point
enters only through :meth:`LogSeries.eval`, which returns an
mpmath-backed value at a caller-chosen binary precision together with a
crude geometric tail bound.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping

from mpmath import mp, mpf

from .errors import DomainError, LogDegreeOverflow, NotAUnit, OutsideDisk

Rational = Fraction

MAX_LOG_DEGREE = 3


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with arbitrary-size decimal integers."""
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; ``q == 1`` prints as ``"p"``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _mul_trunc(a: list, b: list, n: int) -> list:
    """First n coefficients of the product of dense Fraction/int lists."""
    # products run on ints: each list is scaled by the lcm of its denominators
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    a = [c.numerator * (da // c.denominator) for c in a[:n]] + [0] * (n - len(a))
    rb = [0] * (n - len(b)) + [c.numerator * (db // c.denominator)
                               for c in reversed(b[:n])]
    out = [sum(map(mul, a[:k + 1], rb[n - 1 - k:])) for k in range(n)]
    return out if da * db == 1 else [Fraction(v, da * db) for v in out]


def _min_order(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class EvalResult:
    """Numeric value of a truncated series plus a crude tail bound."""

    value: object  # mpmath mpc
    tail_bound: object  # mpmath mpf
    prec_bits: int


class LogSeries:
    """Truncated ramified series with log coefficients over Q."""

    __slots__ = ("_terms", "order", "ramification", "max_log_degree")

    def __init__(
        self,
        terms: Mapping[tuple[Fraction | int, int], Fraction | int] | None = None,
        order: Fraction | int | None = None,
        ramification: int = 1,
        max_log_degree: int = MAX_LOG_DEGREE,
    ):
        if ramification < 1:
            raise DomainError("ramification must be a positive integer")
        if not 0 <= max_log_degree <= MAX_LOG_DEGREE:
            raise DomainError("max_log_degree must lie in 0..3")
        if order is not None:
            order = Fraction(order)
            if order <= 0:
                raise DomainError("truncation order must be positive")
        clean: dict[tuple[Fraction, int], Fraction] = {}
        for (e, k), c in (terms or {}).items():
            e = Fraction(e)
            c = Fraction(c)
            if c == 0:
                continue
            if e < 0:
                raise DomainError(f"negative exponent {e}")
            if (e * ramification).denominator != 1:
                raise DomainError(
                    f"exponent {e} not in the 1/{ramification} lattice"
                )
            if not 0 <= k <= max_log_degree:
                raise LogDegreeOverflow(
                    f"log degree {k} exceeds cap {max_log_degree}"
                )
            if order is not None and e >= order:
                continue  # beyond the known window
            clean[(e, k)] = c
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ramification", ramification)
        object.__setattr__(self, "max_log_degree", max_log_degree)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LogSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order=None, ramification: int = 1) -> "LogSeries":
        return cls({}, order=order, ramification=ramification)

    @classmethod
    def constant(cls, c, order=None) -> "LogSeries":
        return cls({(Fraction(0), 0): Fraction(c)}, order=order)

    @classmethod
    def monomial(cls, coeff, exponent, log_degree: int = 0,
                 order=None, ramification: int | None = None) -> "LogSeries":
        e = Fraction(exponent)
        r = ramification if ramification is not None else e.denominator
        return cls({(e, log_degree): Fraction(coeff)}, order=order,
                   ramification=r)

    @classmethod
    def variable(cls, order=None) -> "LogSeries":
        """The series ``z``."""
        return cls.monomial(1, 1, order=order)

    @classmethod
    def log_z(cls, order=None) -> "LogSeries":
        """The series ``log z``."""
        return cls({(Fraction(0), 1): Fraction(1)}, order=order)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable, order=None) -> "LogSeries":
        """Plain power series from ascending z-coefficients."""
        terms = {(Fraction(n), 0): Fraction(c) for n, c in enumerate(coeffs)}
        return cls(terms, order=order)

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator[tuple[tuple[Fraction, int], Fraction]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, exponent, log_degree: int = 0) -> Fraction:
        return self._terms.get((Fraction(exponent), log_degree), Fraction(0))

    def __getitem__(self, exponent) -> Fraction:
        return self.coefficient(exponent, 0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_log_free(self) -> bool:
        return all(k == 0 for (_, k) in self._terms)

    @property
    def log_degree(self) -> int:
        """Largest log degree actually present."""
        return max((k for (_, k) in self._terms), default=0)

    def valuation(self) -> Fraction | None:
        """Smallest exponent present, or None for the zero series."""
        if not self._terms:
            return None
        return min(e for (e, _) in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self._terms == other._terms and self.order == other.order

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            body = "0"
        else:
            parts = []
            for (e, k), c in list(self.items())[:8]:
                t = format_rational(c)
                if e != 0:
                    t += f"*z^{format_rational(e)}" if e != 1 else "*z"
                if k:
                    t += f"*log(z)^{k}" if k > 1 else "*log(z)"
                parts.append(t)
            if len(self._terms) > 8:
                parts.append("...")
            body = " + ".join(parts)
        tail = f" + O(z^{format_rational(self.order)})" if self.order is not None else ""
        return f"LogSeries({body}{tail})"

    # ------------------------------------------------------------------
    # ring structure

    def _join(self, other: "LogSeries") -> tuple[int, Fraction | None, int]:
        r = math.lcm(self.ramification, other.ramification)
        order = _min_order(self.order, other.order)
        cap = max(self.max_log_degree, other.max_log_degree)
        return r, order, cap

    def __add__(self, other) -> "LogSeries":
        if not isinstance(other, LogSeries):
            other = LogSeries.constant(other)
        r, order, cap = self._join(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return LogSeries(terms, order=order, ramification=r, max_log_degree=cap)

    def __radd__(self, other) -> "LogSeries":
        return self + other

    def __neg__(self) -> "LogSeries":
        return LogSeries({k: -c for k, c in self._terms.items()},
                         order=self.order, ramification=self.ramification,
                         max_log_degree=self.max_log_degree)

    def __sub__(self, other) -> "LogSeries":
        if not isinstance(other, LogSeries):
            other = LogSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "LogSeries":
        return (-self) + other

    def __mul__(self, other) -> "LogSeries":
        if not isinstance(other, LogSeries):
            c = Fraction(other)
            return LogSeries({k: c * v for k, v in self._terms.items()},
                             order=self.order, ramification=self.ramification,
                             max_log_degree=self.max_log_degree)
        r, order, cap = self._join(other)
        terms: dict[tuple[Fraction, int], Fraction] = {}
        for (e1, k1), c1 in self._terms.items():
            for (e2, k2), c2 in other._terms.items():
                e = e1 + e2
                if order is not None and e >= order:
                    continue
                k = k1 + k2
                if k > cap:
                    raise LogDegreeOverflow(
                        f"product term log(z)^{k} exceeds cap {cap}"
                    )
                key = (e, k)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return LogSeries(terms, order=order, ramification=r, max_log_degree=cap)

    def __rmul__(self, other) -> "LogSeries":
        return self * other

    def __pow__(self, n: int) -> "LogSeries":
        if not isinstance(n, int) or n < 0:
            raise DomainError("only nonnegative integer powers")
        result = LogSeries.constant(1, order=self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order) -> "LogSeries":
        """Forget terms at or above ``order`` (must weaken, not sharpen)."""
        order = Fraction(order)
        if self.order is not None and order > self.order:
            raise DomainError("cannot truncate to a higher order than known")
        return LogSeries(self._terms, order=order,
                         ramification=self.ramification,
                         max_log_degree=self.max_log_degree)

    def shift(self, delta) -> "LogSeries":
        """Multiply by the exact monomial z^delta (delta >= 0)."""
        delta = Fraction(delta)
        if delta < 0:
            raise DomainError("shift exponent must be nonnegative")
        order = None if self.order is None else self.order + delta
        r = math.lcm(self.ramification, delta.denominator)
        return LogSeries({(e + delta, k): c for (e, k), c in self._terms.items()},
                         order=order, ramification=r,
                         max_log_degree=self.max_log_degree)

    # ------------------------------------------------------------------
    # dense views (for convolution-style algorithms)

    def _dense(self) -> tuple[list[Fraction], int]:
        """Log-free coefficients on the 1/r lattice, with window length."""
        if not self.is_log_free:
            raise DomainError("operation requires a log-free series")
        r = self.ramification
        if self.order is None:
            top = max((e for (e, _) in self._terms), default=Fraction(0))
            n = int(top * r) + 1
        else:
            n = math.ceil(self.order * r)
        out = [Fraction(0)] * n
        for (e, _), c in self._terms.items():
            idx = int(e * r)
            if idx < n:
                out[idx] = c
        return out, n

    def _replace_dense(self, coeffs: list[Fraction],
                       order=None) -> "LogSeries":
        r = self.ramification
        terms = {(Fraction(i, r), 0): c for i, c in enumerate(coeffs) if c != 0}
        return LogSeries(terms, order=self.order if order is None else order,
                         ramification=r, max_log_degree=self.max_log_degree)

    # ------------------------------------------------------------------
    # calculus

    def theta(self) -> "LogSeries":
        """Apply the logarithmic derivative z d/dz.

        theta(z^e log^k z) = e z^e log^k z + k z^e log^(k-1) z, so the
        truncation order is preserved exactly.
        """
        terms: dict[tuple[Fraction, int], Fraction] = {}
        for (e, k), c in self._terms.items():
            if e != 0:
                key = (e, k)
                terms[key] = terms.get(key, Fraction(0)) + e * c
            if k > 0:
                key = (e, k - 1)
                terms[key] = terms.get(key, Fraction(0)) + k * c
        return LogSeries(terms, order=self.order,
                         ramification=self.ramification,
                         max_log_degree=self.max_log_degree)

    def invert(self) -> "LogSeries":
        """Multiplicative inverse; needs a unit constant term, no logs."""
        if not self.is_log_free:
            raise NotAUnit("cannot invert a series with log terms")
        a, n = self._dense()
        if n == 0 or a[0] == 0:
            raise NotAUnit("cannot invert a series with zero constant term")
        b = [Fraction(0)] * n
        b[0] = 1 / a[0]
        for m in range(1, n):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if a[k] != 0:
                    acc += a[k] * b[m - k]
            b[m] = -acc / a[0]
        order = self.order if self.order is not None else Fraction(n, self.ramification)
        return self._replace_dense(b, order=order)

    def exp(self) -> "LogSeries":
        """Formal exponential; needs zero constant term and no logs."""
        if not self.is_log_free:
            raise DomainError("exp requires a log-free argument")
        if self.constant_term != 0:
            raise DomainError("exp requires zero constant term")
        a, n = self._dense()
        if n == 0:
            return LogSeries.constant(1, order=self.order)
        # exp(f)' = f' exp(f) gives the standard coefficient recurrence;
        # on the 1/r lattice the derivative weights are m/r.
        b = [Fraction(0)] * n
        b[0] = Fraction(1)
        for m in range(1, n):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if a[k] != 0:
                    acc += Fraction(k) * a[k] * b[m - k]
            b[m] = acc / m
        order = self.order if self.order is not None else Fraction(n, self.ramification)
        return self._replace_dense(b, order=order)

    def log(self) -> "LogSeries":
        """Formal logarithm; needs constant term 1 and no logs."""
        if not self.is_log_free:
            raise DomainError("log requires a log-free argument")
        if self.constant_term != 1:
            raise DomainError("log requires constant term 1")
        a, n = self._dense()
        # log(f)' = f'/f: b_m = a_m - (1/m) sum_{k<m} k b_k a_{m-k}
        b = [Fraction(0)] * n
        for m in range(1, n):
            acc = Fraction(m) * a[m]
            for k in range(1, m):
                if a[m - k] != 0 and b[k] != 0:
                    acc -= Fraction(k) * b[k] * a[m - k]
            b[m] = acc / m
        order = self.order if self.order is not None else Fraction(n, self.ramification)
        return self._replace_dense(b, order=order)

    def compose(self, inner: "LogSeries") -> "LogSeries":
        """Substitute ``inner`` (zero constant term) for the variable.

        Both series must be unramified and log-free; the result is
        correct modulo z^min(orders) because the inner series has
        valuation >= 1.  Horner's rule on dense lists: R_e = a_e + inner *
        R_(e+1) is needed only modulo z^(N-e), as inner^e has valuation >= e.
        """
        if self.ramification != 1 or inner.ramification != 1:
            raise DomainError("composition requires unramified series")
        if not (self.is_log_free and inner.is_log_free):
            raise DomainError("composition requires log-free series")
        if inner.constant_term != 0:
            raise DomainError("inner series must have zero constant term")
        order = _min_order(self.order, inner.order)
        a, n = self._dense()
        if order is None:
            order = Fraction(n)
        nn = math.ceil(order)
        b, _ = LogSeries(inner._terms, order=order)._dense()
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
        a, n = self._dense()
        order = self.order if self.order is not None else Fraction(n)
        nn = math.ceil(order)
        g = LogSeries.from_coefficients(a[1:nn], order=nn - 1)
        h, _ = g.invert()._dense()
        b, power = [0], [1]
        for m in range(1, nn):
            power = _mul_trunc(power, h, nn - 1)
            b.append(Fraction(power[m - 1], m))
        return LogSeries.from_coefficients(b, order=order)

    # ------------------------------------------------------------------
    # numeric boundary

    def eval(self, z0, radius, branch: int = 0, prec_bits: int = 256) -> EvalResult:
        """Evaluate at ``z0`` with ``|z0|`` inside the convergence disk.

        ``branch`` shifts log z by 2*pi*i*branch off the principal
        branch.  The tail bound extrapolates the last retained
        coefficient geometrically with ratio |z0|/radius.
        """
        with mp.workprec(prec_bits + 20):
            z0 = mp.mpc(z0)
            if isinstance(radius, Fraction):
                rad = mpf(radius.numerator) / radius.denominator
            else:
                rad = mpf(radius)
            if abs(z0) >= rad:
                raise OutsideDisk(f"|z0| = {abs(z0)} >= radius {rad}")
            if z0 == 0:
                value = mp.mpc(self.constant_term.numerator) / self.constant_term.denominator \
                    if (Fraction(0), 0) in self._terms else mp.mpc(0)
                has_log_at_zero = any(e == 0 and k > 0 and c != 0
                                      for (e, k), c in self._terms.items())
                if has_log_at_zero:
                    raise DomainError("series has log terms; cannot evaluate at 0")
                return EvalResult(value, mpf(0), prec_bits)
            lz = mp.log(z0) + 2 * mp.pi * mp.mpc(0, 1) * branch
            total = mp.mpc(0)
            for (e, k), c in self._terms.items():
                term = mp.mpf(c.numerator) / c.denominator
                term = term * mp.exp(lz * mp.mpf(e.numerator) / e.denominator) \
                    if e != 0 else term
                if k:
                    term = term * lz ** k
                total += term
            ratio = abs(z0) / rad
            tail = mpf(0)
            if self._terms and self.order is not None and ratio < 1:
                e_top = max(e for (e, _) in self._terms)
                c_top = max(abs(mp.mpf(c.numerator) / c.denominator)
                            for (e, k), c in self._terms.items() if e == e_top)
                lead = c_top * abs(z0) ** mp.mpf(float(e_top))
                logfac = max(mpf(1), abs(lz)) ** self.log_degree
                tail = lead * logfac * ratio / (1 - ratio)
            value = +total
        return EvalResult(value, tail, prec_bits)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        """JSON object with all integers as decimal strings."""
        terms = []
        for (e, k), c in self.items():
            terms.append({
                "exp": format_rational(e),
                "log": k,
                "num": str(c.numerator),
                "den": str(c.denominator),
            })
        return {
            "ramification": self.ramification,
            "order": None if self.order is None else format_rational(self.order),
            "terms": terms,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "LogSeries":
        terms = {}
        for t in obj.get("terms", []):
            e = parse_rational(t["exp"])
            k = int(t["log"])
            c = Fraction(int(t["num"]), int(t["den"]))
            terms[(e, k)] = terms.get((e, k), Fraction(0)) + c
        order = obj.get("order")
        return cls(terms,
                   order=None if order is None else parse_rational(order),
                   ramification=int(obj.get("ramification", 1)))
