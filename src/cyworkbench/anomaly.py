"""Anomaly-equation residuals on grids.

The checks operate on sampled non-holomorphic data: fields F_g(z, zbar)
tabulated on a rectangular grid whose two axes are independent
holomorphic and antiholomorphic samples.  The verifier differentiates
by central finite differences, assembles the recursion residual

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

Grids are immutable after construction, so each grid keeps a private
memo of the fields derived from it, built once at the grid's working
precision: the connection (Gamma and dK) and D F, D D F of each F_(g,h),
keyed by (name, order), as the weight 2 - 2g - h follows from the name.
``with_field`` keeps the entries that do not read the replaced field
and drops them all when it replaces G or K.  The public
``covariant_derivative`` of an arbitrary field is not memoised; it
reads the cached connection.

The residual path runs on the integer kernel (``kernel._Z``), rounding
bit for bit as mpmath does; entries with an inf, nan, real or far-out
part take libmp's route.  Grid decimals are read and written by
``kernel``'s reader and writer.  A residual or a dbar S - C with no valid
entry is refused, since a check that compares nothing shows nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from operator import add, mul, sub

from mpmath import mp

from .errors import (BoundaryPoint, ConfigError, DomainError, MissingField,
                     NonUniformGrid, PropagatorMismatch, UnstableRange,
                     ResidualToleranceError, config_int, malformed_input)
from .kernel import (MAX_PRECISION_BITS, RESIDUAL_TOLERANCE, _GUARD_BITS, _Z,
                     _div, _format_complex, _kernel, _mpmath, _parse_complex,
                     _round)

# the conventions every grid is computed in; a document may restate them
GRID_CONVENTIONS = {
    "frame_weight": "power of the canonical line = 2 - 2g - h",
    "limit_convention": "zbar index increases toward the large-radius regime",
}


# ----------------------------------------------------------------------
# grids and fields

def _uniform_step(nodes, axis: str):
    """The node spacing, uniform up to 1e-30 of it or, where larger, up
    to the rounding of the nodes: 8 eps of the largest |node|."""
    if len(nodes) < 2:
        raise NonUniformGrid(f"{axis} axis needs at least 2 nodes")
    if not all(mp.isfinite(x) for x in nodes):
        raise NonUniformGrid(f"{axis} axis has a non-finite node")
    step = nodes[1] - nodes[0]
    if step == 0:
        raise NonUniformGrid(f"{axis} axis has coincident nodes")
    tol = max(abs(step) * mp.mpf("1e-30"),
              8 * mp.eps * max(abs(x) for x in nodes))
    for a, b in zip(nodes, nodes[1:]):
        if abs((b - a) - step) > tol:
            raise NonUniformGrid(f"{axis} axis spacing is not uniform")
    return step


@dataclass(frozen=True)
class GridField:
    """Sampled field with None marking stencil-invalidated entries."""

    entries: tuple

    @functools.cached_property
    def values(self) -> tuple:
        return tuple(tuple(map(_mpmath, row)) for row in self.entries)

    def max_abs(self):
        """Largest |v| (NaN if any); abs is monotone in the exact a^2 + b^2
        of the _Z with two nonzero parts, so it takes only the largest."""
        norms, rest = [], [mp.mpf(0)]
        for v in map(_kernel, (v for row in self.entries for v in row)):
            (norms if type(v) is _Z and v[0] and v[2] else rest).append(v)
        if norms:
            low = min(min(v[1], v[3]) for v in norms)
            rest.append(max(norms, key=lambda v: (v[0] ** 2 << 2 * (
                v[1] - low)) + (v[2] ** 2 << 2 * (v[3] - low))))
        rest = [abs(_mpmath(v)) for v in rest if v is not None]
        return next((a for a in rest if a != a), max(rest))

    def valid_count(self) -> int:
        return sum(1 for row in self.entries for v in row if v is not None)


def _pointwise(fn, *fields):
    """fn entry by entry, on _Z if every operand is one, else on mpmath
    values (libmp's route); None wherever any operand is None."""
    def entry(*xs):
        if set(map(type, xs)) != {_Z}:
            xs = tuple(map(_kernel, xs))
            if set(map(type, xs)) != {_Z}:
                return None if None in xs else fn(*map(_mpmath, xs))
        return fn(*xs)
    return GridField(tuple(tuple(map(entry, *rows))
                           for rows in zip(*(f.entries for f in fields))))


def _check_shape(rows, z_nodes, zbar_nodes, what: str):
    if len(rows) != len(z_nodes) or any(
            len(r) != len(zbar_nodes) for r in rows):
        raise NonUniformGrid(f"{what} does not match the grid shape")


def _check_prec_bits(prec: int, what: str) -> int:
    """prec, refused unless 0 < prec <= MAX_PRECISION_BITS."""
    if prec <= 0:
        raise ConfigError(f"{what} prec_bits must be positive")
    if prec > MAX_PRECISION_BITS:
        raise ConfigError(f"{what} prec_bits {prec} exceeds the cap "
                          f"MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
    return prec


@dataclass(frozen=True)
class AnomalyGrid:
    """Rectangular sample grid with named fields, shape [i_z][j_zbar].

    The zbar axis is oriented so that increasing index approaches the
    holomorphic-limit regime; ``GRID_CONVENTIONS`` records this.
    """

    z_nodes: tuple
    zbar_nodes: tuple
    fields: dict = field(default_factory=dict)
    prec_bits: int = 256
    step_z: object = field(init=False, repr=False, compare=False)
    step_zbar: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_prec_bits(self.prec_bits, "grid")
        object.__setattr__(self, "z_nodes", tuple(self.z_nodes))
        object.__setattr__(self, "zbar_nodes", tuple(self.zbar_nodes))
        with mp.workprec(self.prec_bits + _GUARD_BITS):
            object.__setattr__(self, "step_z",
                               _uniform_step(self.z_nodes, "z"))
            object.__setattr__(self, "step_zbar",
                               _uniform_step(self.zbar_nodes, "zbar"))
        shaped = {}
        for name, values in self.fields.items():
            rows = tuple(tuple(row) for row in values)
            _check_shape(rows, self.z_nodes, self.zbar_nodes,
                         f"field {name!r}")
            shaped[name] = rows
        object.__setattr__(self, "fields", shaped)
        object.__setattr__(self, "_memo", {})

    def field(self, name: str) -> GridField:
        if name not in self.fields:
            raise MissingField(f"grid is missing field {name!r}")
        return GridField(self.fields[name])

    def with_field(self, name: str, values) -> "AnomalyGrid":
        if isinstance(values, GridField):
            values = values.values
        out = replace(self, fields={**self.fields, name: values})
        # memo keys lead with the field they read; G and K enter everything
        if name not in ("G", "K"):
            out._memo.update((key, value) for key, value in self._memo.items()
                             if key[0] != name)
        return out

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
            **GRID_CONVENTIONS,
        }

    @classmethod
    def from_json(cls, obj) -> "AnomalyGrid":
        with malformed_input("grid JSON"):
            for key, value in GRID_CONVENTIONS.items():
                if obj.get(key, value) != value:
                    raise ConfigError(f"grid {key} must be {value!r}")
            prec = _check_prec_bits(
                config_int(obj, "prec_bits", cls.prec_bits, "grid"), "grid")
            with mp.workprec(prec + _GUARD_BITS):
                grid = obj["grid"]
                z_nodes = tuple(_parse_complex(p) for p in grid["z"])
                zbar_nodes = tuple(_parse_complex(p) for p in grid["zbar"])
                fields = {
                    name: tuple(tuple(_parse_complex(v) for v in row)
                                for row in rows)
                    for name, rows in obj.get("fields", {}).items()
                }
            return cls(z_nodes, zbar_nodes, fields, prec_bits=prec)


# ----------------------------------------------------------------------
# finite differences and covariant derivatives

def _central(grid: AnomalyGrid, f: GridField, axis: str) -> GridField:
    """Central difference (up - down) / (2 step) along the z or zbar axis;
    on _Z, mpc_div's roundings with |2 step|^2 taken once per pass."""
    along_z = axis == "z"
    if len(grid.z_nodes if along_z else grid.zbar_nodes) < 3:
        raise BoundaryPoint(f"{axis} axis too short for a central stencil")
    span, p = 2 * (grid.step_z if along_z else grid.step_zbar), mp.prec
    kspan = _kernel(span)
    c, ec, d, ed = kspan if type(kspan) is _Z else (0, 0, 0, 0)
    m, me = _round(c * c, 2 * ec, d * d, 2 * ed, p + 10, True)  # 0: no _Z

    def quotient(u, v):
        if type(u) is type(v) is _Z and m:
            (a, ea), (b, eb) = (_round(u[0], u[1], -v[0], v[1], p),
                                _round(u[2], u[3], -v[2], v[3], p))
            return _Z(_div(*_round(a * c, ea + ec, b * d, eb + ed, p + 10,
                                   True), m, me, p)
                      + _div(*_round(b * c, eb + ec, -a * d, ea + ed, p + 10,
                                     True), m, me, p))
        return None if None in (u, v) else (_mpmath(u) - _mpmath(v)) / span

    lines = [tuple(map(_kernel, line))
             for line in (f.entries if along_z else zip(*f.entries))]
    edge = (None,) * len(lines[0])
    out = (edge, *(tuple(map(quotient, up, down))
                   for down, up in zip(lines, lines[2:])), edge)
    return GridField(out if along_z else tuple(zip(*out)))


def _memoised(grid: AnomalyGrid, key: tuple, build) -> GridField:
    """A derived field from the grid's memo, built on first use."""
    if key not in grid._memo:
        with mp.workprec(grid.prec_bits + _GUARD_BITS):
            grid._memo[key] = build()
    return grid._memo[key]


def _gamma(grid: AnomalyGrid) -> GridField:
    """Gamma = d log G."""
    return _memoised(grid, ("G", "Gamma"), lambda: _central(grid, GridField(
        tuple(tuple(None if v is None else mp.log(v) for v in row)
              for row in grid.field("G").values)), "z"))


def _dk(grid: AnomalyGrid) -> GridField:
    return _memoised(grid, ("K", "dK"),
                     lambda: _central(grid, grid.field("K"), "z"))


def covariant_derivative(grid: AnomalyGrid, f: GridField, weight: int,
                         tensor_degree: int = 0) -> GridField:
    """Holomorphic covariant derivative of a tensor-valued section.

    D f = d f - tensor_degree * Gamma f + weight * (dK) f, with
    Gamma = d log G from the grid metric and K the Kahler potential.
    """
    t, w = tensor_degree, weight
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        df = _central(grid, f, "z")
        if t:
            df = _pointwise(lambda d, x, gm: d - t * (gm * x),
                            df, f, _gamma(grid))
        if w:
            df = _pointwise(lambda d, x, k: d + w * (k * x), df, f, _dk(grid))
    return df


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual with max and mean absolute norms at the
    caller's working precision ``prec``; the mean is taken when read."""

    residual: GridField
    max_abs: object
    prec: int

    @functools.cached_property
    def mean_abs(self):
        with mp.workprec(self.prec):
            norms = [abs(v) for row in self.residual.values for v in row
                     if v is not None]
            return sum(norms, mp.mpf(0)) / max(len(norms), 1)

    @classmethod
    def of(cls, f: GridField) -> "ResidualReport":
        return cls(f, f.max_abs(), mp.prec)


def _open_name(g: int, h: int) -> str:
    return f"F{g}" if h == 0 else f"F{g}_{h}"


def hae_residual(grid: AnomalyGrid, g: int) -> ResidualReport:
    """Residual of the closed-string anomaly recursion at genus g >= 2.

    dbar F_g - (1/2) C (D D F_{g-1} + sum_{g1+g2=g, g1,g2>0} D F_{g1} D F_{g2}),
    which is the h = 0 case of the open-string recursion, term for term.
    """
    if g < 2:
        raise DomainError("closed-string recursion starts at genus 2")
    return ehae_residual(grid, g, 0)


def _dfield(grid: AnomalyGrid, g: int, h: int, order: int = 1) -> GridField:
    """D (order 1) or D D (order 2) of F_(g,h), of weight 2 - 2g - h."""
    name = _open_name(g, h)
    return _memoised(grid, (name, order), lambda: covariant_derivative(
        grid, grid.field(name) if order == 1 else _dfield(grid, g, h),
        2 - 2 * g - h, order - 1))


def _bracket(grid: AnomalyGrid, g: int, h: int):
    """D D F_{(g-1,h)} + sum' D F_{(g1,h1)} D F_{(g2,h2)}, the primed sum
    omitting any factor equal to (0,0) or (0,1); None if no term is left."""
    bracket = _dfield(grid, g - 1, h, 2) if g >= 1 else None
    for g1 in range(0, g + 1):
        for h1 in range(0, h + 1):
            if {(g1, h1), (g - g1, h - h1)}.isdisjoint({(0, 0), (0, 1)}):
                x, y = _dfield(grid, g1, h1), _dfield(grid, g - g1, h - h1)
                bracket = _pointwise(mul, x, y) if bracket is None else \
                    _pointwise(lambda b, x, y: b + x * y, bracket, x, y)
    return bracket


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
        residual = _central(grid, grid.field(_open_name(g, h)), "zbar")
        bracket = _bracket(grid, g, h)
        if bracket is not None:
            residual = _pointwise(lambda r, c, b: r - c * b / 2,
                                  residual, c_tensor, bracket)
        if h >= 1:
            residual = _pointwise(lambda r, a, d: r + a * d, residual,
                                  grid.field("Delta"), _dfield(grid, g, h - 1))
    if not residual.valid_count():
        raise BoundaryPoint(f"no valid residual entry at (g, h) = ({g}, {h})")
    return ResidualReport.of(residual)


# ----------------------------------------------------------------------
# propagator and genus-2 integration

@dataclass(frozen=True)
class PropagatorSpec:
    """Auxiliary field S with dbar S = C on the grid (checked, not assumed).

    ``prec_bits`` is the precision S was read at; it must be the grid's.
    """

    values: tuple
    prec_bits: int = AnomalyGrid.prec_bits

    def as_field(self) -> GridField:
        return GridField(tuple(tuple(row) for row in self.values))

    def verify(self, grid: AnomalyGrid,
               tolerance: float = RESIDUAL_TOLERANCE):
        """Max deviation of dbar S from the grid C-tensor."""
        if self.prec_bits != grid.prec_bits:
            raise ConfigError(
                f"propagator prec_bits {self.prec_bits} differs from grid "
                f"prec_bits {grid.prec_bits}")
        _check_shape(self.values, grid.z_nodes, grid.zbar_nodes,
                     "propagator S")
        target = grid.field("C")
        diff = _pointwise(sub, _central(grid, self.as_field(), "zbar"), target)
        if not diff.valid_count():
            raise PropagatorMismatch("dbar S - C has no valid entry")
        mismatch = diff.max_abs()
        scale = max(mp.mpf(1), target.max_abs())
        if not mismatch <= tolerance * scale:  # NaN fails
            raise PropagatorMismatch(
                f"dbar S deviates from C by {mp.nstr(mismatch, 6)}")
        return mismatch

    @classmethod
    def from_json(cls, obj) -> "PropagatorSpec":
        with malformed_input("propagator JSON"):
            prec = _check_prec_bits(config_int(
                obj, "prec_bits", AnomalyGrid.prec_bits, "propagator"),
                "propagator")
            with mp.workprec(prec + _GUARD_BITS):
                return cls(tuple(tuple(_parse_complex(v) for v in row)
                                 for row in obj["S"]), prec)


def genus2_integrate(grid: AnomalyGrid, propagator: PropagatorSpec,
                     ambiguity=None, tolerance: float = RESIDUAL_TOLERANCE):
    """Integrate the genus-2 recursion with a declared propagator.

    F_2 = (1/2) S (D D F_1 + (D F_1)^2) + ambiguity(z), with ambiguity a
    holomorphic function of z given as a callable, or None.  The output
    is accepted only if its own recursion residual stays below the
    tolerance; there is no silent failure mode.
    """
    with mp.workprec(grid.prec_bits + _GUARD_BITS):
        propagator.verify(grid, tolerance)
        f2 = _pointwise(lambda s, b: s * b / 2, propagator.as_field(),
                        _bracket(grid, 2, 0))
        if ambiguity is not None:
            f2 = _pointwise(add, f2,
                            grid.tabulate(lambda z, w: mp.mpc(ambiguity(z))))
        check_grid = grid.with_field("F2", f2)
        report = hae_residual(check_grid, 2)
        if not report.max_abs <= tolerance:  # NaN fails
            raise ResidualToleranceError(
                f"integrated F_2 has residual {mp.nstr(report.max_abs, 6)} "
                f"above tolerance {tolerance}")
    return f2, report
