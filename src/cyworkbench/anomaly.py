"""Constant-map contributions and anomaly-equation residuals on grids.

The genus-g constant-map term is exact rational arithmetic built on a
Bernoulli table.  Everything else operates on sampled non-holomorphic
data: fields F_g(z, zbar) tabulated on a rectangular grid whose two
axes are independent holomorphic and antiholomorphic samples.  The
verifier differentiates by central finite differences, assembles the
recursion residual

    dbar F_g - (1/2) C (D D F_{g-1} + sum_{g1+g2=g} D F_{g1} D F_{g2}),

and reports max and mean norms over the stencil-valid interior.  The
open-string variant adds the disk-potential term and enforces the
exclusion of the unstable (0,0) and (0,1) factors from the pair sum.

Covariant derivatives act on components in a fixed frame: a section of
the k-th power of the canonical line picks up + k (dK) and an m-fold
cotangent tensor picks up - m Gamma with Gamma = d log G from the
Weil-Petersson metric.  The sign of the line term is pinned by the
k = -1 case, where D reproduces the projection formula for the
holomorphic volume form.

Grids are immutable after construction; residual evaluation touches
points independently, so large grids parallelize across processes
(mpmath precision contexts are process-global).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from mpmath import mp

from .errors import (BoundaryPoint, DomainError, MissingField, NoConvergence,
                     NonUniformGrid, PropagatorMismatch,
                     ResidualToleranceError, UnstableRange, malformed_input)

_GUARD_BITS = 24


# ----------------------------------------------------------------------
# Bernoulli numbers and constant maps

class BernoulliTable:
    """B_0..B_bound via the defining recurrence, exact over Q.

    sum_{k=0}^{n} binom(n+1, k) B_k = 0 for n >= 1, with B_0 = 1.
    """

    def __init__(self, bound: int = 2):
        self.values: dict[int, Fraction] = {0: Fraction(1)}
        self.extend(bound)

    def extend(self, bound: int) -> None:
        for n in range(max(self.values) + 1, bound + 1):
            acc = Fraction(0)
            for k in range(n):
                acc += math.comb(n + 1, k) * self.values[k]
            self.values[n] = -acc / (n + 1)

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            raise DomainError("Bernoulli index must be nonnegative")
        if n not in self.values:
            self.extend(n)
        return self.values[n]


_BERNOULLI = BernoulliTable(16)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
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


# ----------------------------------------------------------------------
# grids and fields

def _parse_complex(pair):
    if pair is None:
        return None
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def _format_complex(x):
    if x is None:
        return None
    # nstr formats without re-rounding, so high-precision values survive
    re = getattr(x, "real", x)
    im = getattr(x, "imag", 0)
    return [mp.nstr(re, 40), mp.nstr(im, 40)]


def _uniform_step(nodes, axis: str):
    if len(nodes) < 2:
        raise NonUniformGrid(f"{axis} axis needs at least 2 nodes")
    step = nodes[1] - nodes[0]
    if step == 0:
        raise NonUniformGrid(f"{axis} axis has coincident nodes")
    for a, b in zip(nodes, nodes[1:]):
        if abs((b - a) - step) > abs(step) * mp.mpf("1e-30"):
            raise NonUniformGrid(f"{axis} axis spacing is not uniform")
    return step


@dataclass(frozen=True)
class GridField:
    """Sampled field with None marking stencil-invalidated entries."""

    values: tuple

    def max_abs(self):
        out = mp.mpf(0)
        for row in self.values:
            for v in row:
                if v is not None:
                    out = max(out, abs(v))
        return out

    def mean_abs(self):
        total, count = mp.mpf(0), 0
        for row in self.values:
            for v in row:
                if v is not None:
                    total += abs(v)
                    count += 1
        return total / count if count else mp.mpf(0)

    def valid_count(self) -> int:
        return sum(1 for row in self.values for v in row if v is not None)


def _map2(f, a, b):
    return GridField(tuple(
        tuple(None if (x is None or y is None) else f(x, y)
              for x, y in zip(ra, rb))
        for ra, rb in zip(a.values, b.values)))


def _map1(f, a):
    return GridField(tuple(
        tuple(None if x is None else f(x) for x in row)
        for row in a.values))


def _fadd(a, b):
    return _map2(lambda x, y: x + y, a, b)


def _fsub(a, b):
    return _map2(lambda x, y: x - y, a, b)


def _fmul(a, b):
    return _map2(lambda x, y: x * y, a, b)


def _fscale(c, a):
    return _map1(lambda x: c * x, a)


@dataclass(frozen=True)
class AnomalyGrid:
    """Rectangular sample grid with named fields, shape [i_z][j_zbar].

    The zbar axis is oriented so that increasing index approaches the
    holomorphic-limit regime; the convention string records this.
    """

    z_nodes: tuple
    zbar_nodes: tuple
    fields: dict = field(default_factory=dict)
    prec_bits: int = 256
    frame_weight: str = "power of the canonical line = 2 - 2g - h"
    limit_convention: str = "zbar index increases toward the large-radius regime"

    def __post_init__(self):
        object.__setattr__(self, "z_nodes", tuple(self.z_nodes))
        object.__setattr__(self, "zbar_nodes", tuple(self.zbar_nodes))
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            step_z = _uniform_step(self.z_nodes, "z")
            step_zbar = _uniform_step(self.zbar_nodes, "zbar")
        object.__setattr__(self, "_step_z", step_z)
        object.__setattr__(self, "_step_zbar", step_zbar)
        shaped = {}
        for name, values in self.fields.items():
            rows = tuple(tuple(row) for row in values)
            if len(rows) != len(self.z_nodes) or any(
                    len(r) != len(self.zbar_nodes) for r in rows):
                raise NonUniformGrid(
                    f"field {name!r} does not match the grid shape")
            shaped[name] = rows
        object.__setattr__(self, "fields", shaped)

    @property
    def step_z(self):
        return self._step_z

    @property
    def step_zbar(self):
        return self._step_zbar

    def field(self, name: str) -> GridField:
        if name not in self.fields:
            raise MissingField(f"grid is missing field {name!r}")
        return GridField(self.fields[name])

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def with_field(self, name: str, values) -> "AnomalyGrid":
        if isinstance(values, GridField):
            values = values.values
        new_fields = dict(self.fields)
        new_fields[name] = tuple(tuple(row) for row in values)
        return replace(self, fields=new_fields)

    def tabulate(self, fn) -> GridField:
        """Sample a callable fn(z, zbar) over the grid."""
        return GridField(tuple(
            tuple(fn(z, w) for w in self.zbar_nodes)
            for z in self.z_nodes))

    def to_json(self) -> dict:
        return {
            "grid": {
                "z": [_format_complex(z) for z in self.z_nodes],
                "zbar": [_format_complex(w) for w in self.zbar_nodes],
            },
            "fields": {
                name: [[_format_complex(v) for v in row] for row in rows]
                for name, rows in sorted(self.fields.items())
            },
            "prec_bits": self.prec_bits,
            "frame_weight": self.frame_weight,
            "limit_convention": self.limit_convention,
        }

    @classmethod
    def from_json(cls, obj) -> "AnomalyGrid":
        with malformed_input("grid JSON"):
            prec = int(obj.get("prec_bits", 256))
            with mp.workprec(prec + _GUARD_BITS):
                grid = obj["grid"]
                z_nodes = tuple(_parse_complex(p) for p in grid["z"])
                zbar_nodes = tuple(_parse_complex(p) for p in grid["zbar"])
                fields = {
                    name: tuple(tuple(_parse_complex(v) for v in row)
                                for row in rows)
                    for name, rows in obj.get("fields", {}).items()
                }
            kwargs = {}
            if "frame_weight" in obj:
                kwargs["frame_weight"] = obj["frame_weight"]
            if "limit_convention" in obj:
                kwargs["limit_convention"] = obj["limit_convention"]
            return cls(z_nodes, zbar_nodes, fields, prec_bits=prec, **kwargs)


# ----------------------------------------------------------------------
# finite differences and covariant derivatives

def _ddz(grid: AnomalyGrid, f: GridField) -> GridField:
    nz = len(grid.z_nodes)
    if nz < 3:
        raise BoundaryPoint("z axis too short for a central stencil")
    step = grid.step_z
    rows = []
    for i in range(nz):
        if i == 0 or i == nz - 1:
            rows.append(tuple(None for _ in f.values[i]))
            continue
        row = []
        for j in range(len(grid.zbar_nodes)):
            up, down = f.values[i + 1][j], f.values[i - 1][j]
            row.append(None if (up is None or down is None)
                       else (up - down) / (2 * step))
        rows.append(tuple(row))
    return GridField(tuple(rows))


def _ddzbar(grid: AnomalyGrid, f: GridField) -> GridField:
    nw = len(grid.zbar_nodes)
    if nw < 3:
        raise BoundaryPoint("zbar axis too short for a central stencil")
    step = grid.step_zbar
    rows = []
    for i in range(len(grid.z_nodes)):
        row = []
        for j in range(nw):
            if j == 0 or j == nw - 1:
                row.append(None)
                continue
            up, down = f.values[i][j + 1], f.values[i][j - 1]
            row.append(None if (up is None or down is None)
                       else (up - down) / (2 * step))
        rows.append(tuple(row))
    return GridField(tuple(rows))


def covariant_derivative(grid: AnomalyGrid, f: GridField, weight: int,
                         tensor_degree: int = 0) -> GridField:
    """Holomorphic covariant derivative of a tensor-valued section.

    D f = d f - tensor_degree * Gamma f + weight * (dK) f, with
    Gamma = d log G from the grid metric and K the Kahler potential.
    """
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        out = _ddz(grid, f)
        if tensor_degree:
            gamma = _ddz(grid, _map1(mp.log, grid.field("G")))
            out = _fsub(out, _fscale(tensor_degree, _fmul(gamma, f)))
        if weight:
            dk = _ddz(grid, grid.field("K"))
            out = _fadd(out, _fscale(weight, _fmul(dk, f)))
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual with max and mean absolute norms."""

    residual: GridField
    max_abs: object
    mean_abs: object

    @classmethod
    def of(cls, f: GridField) -> "ResidualReport":
        return cls(residual=f, max_abs=f.max_abs(), mean_abs=f.mean_abs())


def _closed_weight(g: int) -> int:
    return 2 - 2 * g


def _open_weight(g: int, h: int) -> int:
    return 2 - 2 * g - h


def _open_name(g: int, h: int) -> str:
    return f"F{g}" if h == 0 else f"F{g}_{h}"


def hae_residual(grid: AnomalyGrid, g: int) -> ResidualReport:
    """Residual of the closed-string anomaly recursion at genus g >= 2.

    dbar F_g - (1/2) C (D D F_{g-1} + sum_{g1+g2=g, g1,g2>0} D F_{g1} D F_{g2}).
    """
    if g < 2:
        raise DomainError("closed-string recursion starts at genus 2")
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        c_tensor = grid.field("C")
        lhs = _ddzbar(grid, grid.field(f"F{g}"))
        prev = grid.field(f"F{g - 1}")
        k_prev = _closed_weight(g - 1)
        bracket = covariant_derivative(
            grid, covariant_derivative(grid, prev, k_prev, 0), k_prev, 1)
        d_cache = {}
        for g1 in range(1, g):
            for gg in {g1, g - g1}:
                if gg not in d_cache:
                    d_cache[gg] = covariant_derivative(
                        grid, grid.field(f"F{gg}"), _closed_weight(gg), 0)
            bracket = _fadd(bracket, _fmul(d_cache[g1], d_cache[g - g1]))
        rhs = _fscale(mp.mpf(1) / 2, _fmul(c_tensor, bracket))
        residual = _fsub(lhs, rhs)
    return ResidualReport.of(residual)


_UNSTABLE = ((0, 0), (0, 1))


def ehae_residual(grid: AnomalyGrid, g: int, h: int) -> ResidualReport:
    """Residual of the open-string extended recursion at (g, h).

    dbar F_{(g,h)} - (1/2) C (D D F_{(g-1,h)} + sum' D F_{(g1,h1)} D F_{(g2,h2)})
    + Delta D F_{(g,h-1)}, where the primed sum omits any factor equal
    to (0,0) or (0,1); the disk contributes only through Delta.
    With h = 0 this reduces term by term to the closed recursion.
    """
    if h < 0 or 2 * g - 2 + h <= 0:
        raise UnstableRange(f"(g, h) = ({g}, {h}) is unstable")
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        c_tensor = grid.field("C")
        lhs = _ddzbar(grid, grid.field(_open_name(g, h)))
        bracket = None
        if g >= 1:
            prev = grid.field(_open_name(g - 1, h))
            k_prev = _open_weight(g - 1, h)
            bracket = covariant_derivative(
                grid, covariant_derivative(grid, prev, k_prev, 0), k_prev, 1)
        d_cache = {}

        def dfield(gg, hh):
            if (gg, hh) not in d_cache:
                d_cache[(gg, hh)] = covariant_derivative(
                    grid, grid.field(_open_name(gg, hh)),
                    _open_weight(gg, hh), 0)
            return d_cache[(gg, hh)]

        for g1 in range(0, g + 1):
            for h1 in range(0, h + 1):
                pair1, pair2 = (g1, h1), (g - g1, h - h1)
                if pair1 in _UNSTABLE or pair2 in _UNSTABLE:
                    continue
                term = _fmul(dfield(*pair1), dfield(*pair2))
                bracket = term if bracket is None else _fadd(bracket, term)
        if bracket is None:
            residual = lhs
        else:
            residual = _fsub(lhs, _fscale(mp.mpf(1) / 2,
                                          _fmul(c_tensor, bracket)))
        if h >= 1:
            delta = grid.field("Delta")
            disk_term = _fmul(delta, dfield(g, h - 1))
            residual = _fadd(residual, disk_term)
    return ResidualReport.of(residual)


# ----------------------------------------------------------------------
# propagator and genus-2 integration

@dataclass(frozen=True)
class PropagatorSpec:
    """Auxiliary field S with dbar S = C on the grid (checked, not assumed)."""

    values: tuple

    def as_field(self) -> GridField:
        return GridField(tuple(tuple(row) for row in self.values))

    def verify(self, grid: AnomalyGrid, tolerance: float = 1e-8):
        """Max deviation of dbar S from the grid C-tensor."""
        target = grid.field("C")
        diff = _fsub(_ddzbar(grid, self.as_field()), target)
        mismatch = diff.max_abs()
        scale = max(mp.mpf(1), target.max_abs())
        if mismatch > tolerance * scale:
            raise PropagatorMismatch(
                f"dbar S deviates from C by {mp.nstr(mismatch, 6)}")
        return mismatch

    def to_json(self) -> dict:
        return {"S": [[_format_complex(v) for v in row]
                      for row in self.values]}

    @classmethod
    def from_json(cls, obj) -> "PropagatorSpec":
        with malformed_input("propagator JSON"), \
                mp.workprec(int(obj.get("prec_bits", 256)) + _GUARD_BITS):
            return cls(tuple(tuple(_parse_complex(v) for v in row)
                             for row in obj["S"]))


def genus2_integrate(grid: AnomalyGrid, propagator: PropagatorSpec,
                     ambiguity=None, tolerance: float = 1e-8):
    """Integrate the genus-2 recursion with a declared propagator.

    F_2 = (1/2) S (D D F_1 + (D F_1)^2) + ambiguity(z), with ambiguity a
    holomorphic function of z (callable, constant, or None).  The
    output is accepted only if its own recursion residual stays below
    the tolerance; there is no silent failure mode.
    """
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        propagator.verify(grid, tolerance)
        f1 = grid.field("F1")
        df1 = covariant_derivative(grid, f1, 0, 0)
        ddf1 = covariant_derivative(grid, df1, 0, 1)
        bracket = _fadd(ddf1, _fmul(df1, df1))
        f2 = _fscale(mp.mpf(1) / 2, _fmul(propagator.as_field(), bracket))
        if ambiguity is not None:
            if callable(ambiguity):
                amb = grid.tabulate(lambda z, w: mp.mpc(ambiguity(z)))
            else:
                amb = grid.tabulate(lambda z, w: mp.mpc(ambiguity))
            f2 = _fadd(f2, amb)
        check_grid = grid.with_field("F2", f2)
        report = hae_residual(check_grid, 2)
        if report.max_abs > tolerance:
            raise ResidualToleranceError(
                f"integrated F_2 has residual {mp.nstr(report.max_abs, 6)} "
                f"above tolerance {tolerance}")
    return f2, report


# ----------------------------------------------------------------------
# holomorphic limit

@dataclass(frozen=True)
class LimitResult:
    """Extrapolated zbar-independent profile and its quality measure."""

    profile: tuple
    residual: object
    convention: str


def holomorphic_limit(grid: AnomalyGrid, name_or_field, weight: int = 0,
                      x0_values=None) -> LimitResult:
    """Extrapolate a field to the zbar-limit edge of the grid.

    The last zbar slice is the limit estimate; the gap to the previous
    slice is the reported residual.  The zbar-dependence must decay
    toward the edge, otherwise NoConvergence.  For weight k != 0 the
    profile is multiplied by x0^(-k) per z-node (x0_values required).
    """
    f = grid.field(name_or_field) if isinstance(name_or_field, str) \
        else name_or_field
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        last = len(grid.zbar_nodes) - 1

        def step_gap(j):
            gap = mp.mpf(0)
            for i in range(len(grid.z_nodes)):
                a, b = f.values[i][j], f.values[i][j + 1]
                if a is None or b is None:
                    continue
                gap = max(gap, abs(a - b))
            return gap

        first_step, last_step = step_gap(0), step_gap(last - 1)
        if last_step > first_step and last_step > mp.mpf("1e-30"):
            raise NoConvergence(
                "field does not decay toward the limit regime "
                f"(edge step {mp.nstr(last_step, 6)} > interior step "
                f"{mp.nstr(first_step, 6)})")
        last_gap = last_step
        profile = []
        for i in range(len(grid.z_nodes)):
            v = f.values[i][last]
            if v is None:
                profile.append(None)
                continue
            if weight != 0:
                if x0_values is None:
                    raise DomainError(
                        "x0 values are required for a weighted limit")
                v = v * x0_values[i] ** (-weight)
            profile.append(v)
    return LimitResult(profile=tuple(profile), residual=last_gap,
                       convention=grid.limit_convention)
