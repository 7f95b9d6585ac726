"""Bernoulli/constant-map exact values and grid residual machinery."""

import collections
import math
import random
from fractions import Fraction as F
from operator import add, mul, sub

import pytest
import sympy
from mpmath import mp

import cyworkbench as cw
from cyworkbench import anomaly
from cyworkbench.anomaly import (_central, AnomalyGrid, GridField,
                                 PropagatorSpec)
from cyworkbench.errors import (BoundaryPoint, ConfigError, DomainError,
                                MissingField, NonUniformGrid,
                                PropagatorMismatch, UnstableRange)
from cyworkbench.kernel import (_KERNEL_EXPONENT, _Z, _format_complex,
                                _parse_complex)
from cyworkbench.series import LogSeries

from conftest import series_value


# ----------------------------------------------------------------------
# exact rational part

class TestBernoulli:
    def test_known_values(self):
        assert cw.bernoulli(2) == F(1, 6)
        assert cw.bernoulli(4) == F(-1, 30)
        assert cw.bernoulli(12) == F(-691, 2730)

    def test_against_sympy(self):
        # compare even indices only: sympy >= 1.12 uses the B_1 = +1/2
        # convention while the recurrence here gives B_1 = -1/2
        for n in range(0, 40, 2):
            ours = cw.bernoulli(n)
            theirs = sympy.bernoulli(n)
            assert ours == F(int(theirs.p), int(theirs.q))

    def test_table_invariants(self):
        assert cw.bernoulli(2) == F(1, 6)
        assert cw.bernoulli(4) == F(-1, 30)
        # defining recurrence holds exactly
        import math
        for n in range(1, 9):
            acc = sum(math.comb(n + 1, k) * cw.bernoulli(k)
                      for k in range(n + 1))
            assert acc == 0


class TestConstantMaps:
    def test_genus2_quintic(self):
        value = cw.constant_map_contribution(2, -200)
        assert value == F(-5, 144)
        assert value == F(-200, 5760)

    def test_zero_euler(self):
        assert cw.constant_map_contribution(2, 0) == 0

    def test_genus3_sign(self):
        # (-1)^3 |B_6||B_4| / (12 * 4 * 24) * chi, positive for chi < 0
        value = cw.constant_map_contribution(3, -200)
        assert value == F(-1) * F(1, 42) * F(1, 30) / 1152 * (-200)
        assert value == F(5, 36288)

    def test_independent_evaluation(self):
        for g in range(2, 9):
            expected = (F((-1) ** g)
                        * abs(F(int(sympy.bernoulli(2 * g).p),
                                int(sympy.bernoulli(2 * g).q)))
                        * abs(F(int(sympy.bernoulli(2 * g - 2).p),
                                int(sympy.bernoulli(2 * g - 2).q)))
                        / (4 * g * (2 * g - 2)
                           * sympy.factorial(2 * g - 2))) * -200
            assert cw.constant_map_contribution(g, -200) == expected

    def test_linearity_in_euler(self):
        for g in (2, 3, 5):
            v1 = cw.constant_map_contribution(g, 1)
            assert cw.constant_map_contribution(g, -33) == -33 * v1

    def test_genus_below_two_rejected(self):
        with pytest.raises(DomainError):
            cw.constant_map_contribution(1, -200)


# ----------------------------------------------------------------------
# grid helpers

def build_grid(fields_exprs, nz=9, nw=9, z0="0.3", w0="0.2", delta="0.001",
               prec=256):
    """Tabulate sympy expressions in (z, w) on a uniform real grid."""
    z, w = sympy.symbols("z w")
    with mp.workprec(prec + 24):
        z_nodes = [mp.mpf(z0) + k * mp.mpf(delta) for k in range(nz)]
        w_nodes = [mp.mpf(w0) + k * mp.mpf(delta) for k in range(nw)]
        fields = {}
        for name, expr in fields_exprs.items():
            fn = sympy.lambdify((z, w), expr, modules="mpmath")
            fields[name] = [[mp.mpc(fn(zv, wv)) for wv in w_nodes]
                            for zv in z_nodes]
    return AnomalyGrid(z_nodes, w_nodes, fields, prec_bits=prec)


def genus2_exprs():
    """Synthetic exact data: split metric, quadratic F1, linear-in-w S."""
    z, w = sympy.symbols("z w")
    alpha = sympy.Rational(1, 3)
    g_metric = sympy.exp(alpha * z)       # Gamma = alpha, exact under FD
    k_pot = sympy.Rational(1, 7) * z + sympy.Rational(1, 11) * w
    f1 = 1 + z + sympy.Rational(1, 2) * z ** 2
    c_tensor = sympy.Rational(2, 5) + sympy.Rational(1, 4) * z
    s_prop = w * c_tensor + sympy.Rational(1, 9) * z ** 2
    df1 = sympy.diff(f1, z)                       # weight 0
    ddf1 = sympy.diff(df1, z) - alpha * df1       # tensor degree 1
    bracket = ddf1 + df1 ** 2
    f2 = s_prop * bracket / 2
    return z, w, {"G": g_metric, "K": k_pot, "F1": f1, "C": c_tensor,
                  "F2": f2}, s_prop


def ddz_reference(grid, f):
    """Central difference along z, as written before the axis merge."""
    nz = len(grid.z_nodes)
    if nz < 3:
        raise BoundaryPoint("z axis too short for a central stencil")
    rows = []
    for i in range(nz):
        if i == 0 or i == nz - 1:
            rows.append(tuple(None for _ in f.values[i]))
            continue
        rows.append(tuple(
            None if (up is None or down is None)
            else (up - down) / (2 * grid.step_z)
            for up, down in zip(f.values[i + 1], f.values[i - 1])))
    return GridField(tuple(rows))


def ddzbar_reference(grid, f):
    """Central difference along zbar, as written before the axis merge."""
    nw = len(grid.zbar_nodes)
    if nw < 3:
        raise BoundaryPoint("zbar axis too short for a central stencil")
    rows = []
    for i in range(len(grid.z_nodes)):
        row = []
        for j in range(nw):
            if j == 0 or j == nw - 1:
                row.append(None)
                continue
            up, down = f.values[i][j + 1], f.values[i][j - 1]
            row.append(None if (up is None or down is None)
                       else (up - down) / (2 * grid.step_zbar))
        rows.append(tuple(row))
    return GridField(tuple(rows))


def pointwise(fn, *fields):
    """fn on the mpmath values entry by entry; None wherever any operand
    is None."""
    return GridField(tuple(
        tuple(None if any(x is None for x in xs) else fn(*xs)
              for xs in zip(*rows))
        for rows in zip(*(f.values for f in fields))))


def hae_reference(grid, g):
    """The closed recursion residual, as written before it delegated."""
    with mp.workprec(grid.prec_bits + 24):
        lhs = ddzbar_reference(grid, grid.field(f"F{g}"))
        prev = grid.field(f"F{g - 1}")
        k_prev = 2 - 2 * (g - 1)
        bracket = cw.covariant_derivative(
            grid, cw.covariant_derivative(grid, prev, k_prev, 0), k_prev, 1)
        d_cache = {}
        for g1 in range(1, g):
            for gg in {g1, g - g1}:
                if gg not in d_cache:
                    d_cache[gg] = cw.covariant_derivative(
                        grid, grid.field(f"F{gg}"), 2 - 2 * gg, 0)
            bracket = pointwise(add, bracket, pointwise(
                mul, d_cache[g1], d_cache[g - g1]))
        half = mp.mpf(1) / 2
        rhs = pointwise(lambda x: half * x,
                        pointwise(mul, grid.field("C"), bracket))
        return pointwise(sub, lhs, rhs)


def seeded_grid(seed, nz, nw, names, nodes="mpc", values="mpc", prec=256):
    """Seeded nodes and steps, complex (``"mpc"``) or real (``"mpf"``),
    and random field values, complex, real or a ``"mixed"`` draw of both,
    some entries None as after an earlier stencil, about 3% with a part
    that is exactly 0, +-inf, nan, 2^-65536 in size (past the kernel's
    exponent bound) or longer than the working precision, and about 22%
    of the complex ones with two long parts the second of which is so far
    below the first that mpf_add's shortcut for a far smaller term
    decides the rounding of products."""
    rng = random.Random(seed)
    with mp.workprec(prec + 24):
        def number(kind):
            if kind == "mixed":
                kind = rng.choice(["mpc", "mpf"])
            if kind == "mpf":
                return mp.mpf(rng.uniform(-1, 1))
            return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))

        def long():
            return mp.ldexp(rng.getrandbits(prec + 90) * rng.choice([-1, 1]),
                            -prec - 90)

        def value():
            x, r = number(values), rng.random()
            with mp.workprec(prec + 100):
                if r < 0.03:
                    part = rng.choice([
                        mp.zero, mp.inf, -mp.inf, mp.nan, long(),
                        mp.ldexp(rng.uniform(0.5, 1),
                                 -2 * _KERNEL_EXPONENT)])
                    if type(x) is mp.mpf:
                        return part
                    return (mp.mpc(part, x.imag) if rng.random() < 0.5
                            else mp.mpc(x.real, part))
                if r < 0.25 and type(x) is mp.mpc:
                    return mp.mpc(long(), mp.ldexp(
                        long(), -prec - 24 - rng.randint(5, 7)))
            return x
        z0, w0 = number(nodes), number(nodes)
        hz, hw = number(nodes) / 100, number(nodes) / 100
        fields = {name: [[None if rng.random() < 0.05 else value()
                          for _ in range(nw)] for _ in range(nz)]
                  for name in names}
        return AnomalyGrid([z0 + k * hz for k in range(nz)],
                           [w0 + k * hw for k in range(nw)], fields,
                           prec_bits=prec)


def fallback_kinds(monkeypatch):
    """Counts of the operands that anomaly._kernel leaves to libmp's route,
    by kind: real, with an inf or nan part, or with a part past the
    exponent bound; any other would count as "other"."""
    kinds = collections.Counter()
    kernel = anomaly._kernel

    def counting(x):
        z = kernel(x)
        if x is not None and type(z) is not _Z:
            parts = getattr(x, "_mpc_", None) or (x._mpf_,)
            kinds["real" if type(x) is mp.mpf else
                  "special" if any(bc < 0 for _, _, _, bc in parts) else
                  "wide" if any(abs(e) >= _KERNEL_EXPONENT
                                for _, _, e, _ in parts) else "other"] += 1
        return z
    monkeypatch.setattr(anomaly, "_kernel", counting)
    return kinds


def raw(v):
    """The type and exact binary parts of an mpmath value."""
    return type(v), getattr(v, "_mpc_", None) or getattr(v, "_mpf_", None)


def assert_identical(a, b):
    """Identical types and binary parts (so identical floats, and NaN where
    the other has NaN) and the same None pattern, not just close."""
    assert len(a.values) == len(b.values)
    for ra, rb in zip(a.values, b.values):
        assert [raw(x) for x in ra] == [raw(x) for x in rb]


class TestStencil:
    @pytest.mark.parametrize("prec", [64, 256, 2048])
    def test_matches_per_axis_reference(self, monkeypatch, prec):
        """Complex and real steps; complex, real and mixed field values;
        every kind of entry the kernel leaves to libmp takes that route."""
        kinds = [(nodes, values) for nodes in ("mpc", "mpf")
                 for values in ("mpc", "mpf", "mixed")]
        shapes = [(16, 16), (7, 5), (3, 9), (9, 3)]
        fallbacks = fallback_kinds(monkeypatch)
        for seed, ((nodes, values), (nz, nw)) in enumerate(
                (kind, shape) for kind in kinds for shape in shapes):
            grid = seeded_grid(seed, nz, nw, ["f"], nodes, values, prec)
            assert type(grid.step_z) is getattr(mp, nodes)
            f = grid.field("f")
            with mp.workprec(grid.prec_bits + 24):
                assert_identical(_central(grid, f, "z"),
                                 ddz_reference(grid, f))
                assert_identical(_central(grid, f, "zbar"),
                                 ddzbar_reference(grid, f))
        assert set(fallbacks) == {"real", "special", "wide"}

    @pytest.mark.parametrize("axis, shape", [("z", (2, 5)), ("zbar", (5, 2))])
    def test_short_axis(self, axis, shape):
        grid = seeded_grid(3, *shape, ["f"])
        with pytest.raises(BoundaryPoint,
                           match=f"^{axis} axis too short for a central"):
            _central(grid, grid.field("f"), axis)


def format_reference(x):
    """The grid value formatter as written before it read raw parts."""
    return [mp.nstr(getattr(x, "real", x), 40),
            mp.nstr(getattr(x, "imag", 0), 40)]


class TestGridText:
    """The raw-tuple reader and writer against mp.mpf and mp.nstr."""

    EDGE = [" 0.5 ", "1E3", "+2.5", ".5", "5.", "-0.0", "1_0.5", "1e-401",
            "1e401", "inf", "-inf", "nan", "1/3", 3, 0.1, "0.0", "-7",
            "007.50", "-0.000123", "1.0e+45", "12e-399", "1.5e-400",
            "1e-400", "1e400", "123456789012345678901234567890e370",
            # past |e| = 400 from_str rounds twice, and these values come
            # out unlike one rounding at 88, 280 or 2072 bits
            "1885154106645125422290038005344253424201e-409",
            "1544497831596315874328292103592181847905e-408",
            "4056667169390176559211061323554531325726e-403",
            "7514524422781390628918868661438697012591.0e401",
            "2462454927243231034172135275466120743671.00e401"]

    @staticmethod
    def decimals(rng):
        """nstr output of seeded values from 1e-300 to 1e300, at 40 digits
        and at the working precision's full digit count."""
        out = []
        for _ in range(200):
            v = mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.randint(-300,
                                                                      300)
            out += [mp.nstr(v, 40), mp.nstr(v, mp.dps)]
        return out

    @pytest.mark.parametrize("prec", [64 + 24, 256 + 24, 2048 + 24])
    def test_parse_matches_mpf(self, prec):
        rng = random.Random(prec)
        with mp.workprec(prec):
            texts = self.decimals(rng) + self.EDGE
            for a, b in zip(texts, texts[1:] + texts[:1]):
                got = _parse_complex([a, b])
                assert type(got) is mp.mpc
                assert got._mpc_ == (mp.mpf(a)._mpf_, mp.mpf(b)._mpf_), (a, b)
                assert got._mpc_ == mp.mpc(mp.mpf(a), mp.mpf(b))._mpc_

    @pytest.mark.parametrize("text", ["abc", "1e", "", "0x10", "1.2.3",
                                      "--1"])
    def test_parse_rejects_like_mpf(self, text):
        with pytest.raises(ValueError):
            mp.mpf(text)
        with pytest.raises(ValueError):
            _parse_complex([text, "0"])

    @pytest.mark.parametrize("value", ["12", ["0", "0", "9"], ["1"],
                                       ("1", "2"), {"re": "1", "im": "2"},
                                       0.5])
    def test_parse_takes_only_pairs(self, value):
        """A string is not split into characters, a third part is not
        dropped: anything but a two-element list or null is refused."""
        with pytest.raises(ValueError, match=r"is not a pair \[re, im\]$"):
            _parse_complex(value)
        assert _parse_complex(None) is None

    def test_propagator_reader_refuses_non_pairs(self):
        with pytest.raises(ConfigError, match=r"^malformed propagator JSON: "
                           r"\['0', '0', '9'\] is not a pair"):
            PropagatorSpec.from_json({"S": [[["0", "0", "9"]]]})

    def test_format_matches_nstr(self):
        rng = random.Random(5)
        values = [3, -7, 0, 0.1, -2.5e300, float("inf"), float("nan"),
                  mp.mpf(0), mp.mpc(0), mp.inf, -mp.inf, mp.nan,
                  mp.mpc(mp.inf, -mp.inf), mp.mpc(mp.nan, 1), mp.pi]
        for prec in (88, 280, 2072):
            with mp.workprec(prec):
                for _ in range(50):
                    e = rng.randint(-300, 300)
                    re, im = (mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** e
                              for _ in range(2))
                    values += [re, mp.mpc(re, im), mp.mpc(0, im)]
        for x in values:
            assert _format_complex(x) == format_reference(x), x


class TestGridBasics:
    def test_nonuniform_rejected(self):
        with mp.workprec(80):
            nodes = [mp.mpf(0), mp.mpf(1), mp.mpf("2.5")]
            with pytest.raises(NonUniformGrid):
                AnomalyGrid(nodes, [mp.mpf(0), mp.mpf(1)], {})

    @staticmethod
    def decimal_grid(z, prec):
        return AnomalyGrid.from_json({
            "grid": {"z": [[x, "0"] for x in z], "zbar": [["0", "0"],
                                                         ["1", "0"]]},
            "prec_bits": prec})

    @pytest.mark.parametrize("z, prec", [(["0.1", "0.2", "0.3"], 64),
                                         (["0.3", "0.301", "0.302"], 53)])
    def test_uniform_decimal_nodes_at_low_precision(self, z, prec):
        """The spacing bound is never tighter than the node rounding."""
        step = self.decimal_grid(z, prec).step_z
        assert mp.almosteq(step, mp.mpf(z[1]) - mp.mpf(z[0]), 1e-12)

    @pytest.mark.parametrize("prec", [64, 256])
    def test_node_off_by_one_percent_rejected(self, prec):
        with pytest.raises(NonUniformGrid):
            self.decimal_grid(["0.1", "0.2", "0.301"], prec)

    def test_missing_field(self):
        grid = build_grid({}, nz=3, nw=3)
        with pytest.raises(MissingField):
            grid.field("F2")

    def test_json_round_trip(self):
        z, w, exprs, _ = genus2_exprs()
        grid = build_grid(exprs, nz=4, nw=4)
        back = AnomalyGrid.from_json(grid.to_json())
        assert back.prec_bits == grid.prec_bits
        for name in exprs:
            a = grid.field(name).values
            b = back.field(name).values
            for ra, rb in zip(a, b):
                for x, y in zip(ra, rb):
                    assert abs(x - y) < mp.mpf("1e-35")

    def test_conventions_omitted_then_written(self):
        doc = build_grid({}, nz=3, nw=3).to_json()
        for key in anomaly.GRID_CONVENTIONS:
            del doc[key]
        back = AnomalyGrid.from_json(doc).to_json()
        assert {key: back[key] for key in anomaly.GRID_CONVENTIONS} \
            == anomaly.GRID_CONVENTIONS

    def test_max_abs_propagates_nan(self):
        """One NaN entry anywhere makes both norms NaN, not the finite max;
        otherwise the norm is max(abs(v)), bit for bit, on fields with a
        NaN first or last, an inf, no entry at all, ties between both
        kinds of abs, and kernel and seeded edge entries."""
        nan = mp.mpc("nan", 0)
        for values in ([[None, nan], [mp.mpc(3, 4), mp.mpc(1)]],
                       [[mp.mpc(3, 4), nan], [None, mp.mpc(1)]]):
            field = GridField(tuple(map(tuple, values)))
            assert mp.isnan(field.max_abs())
            assert mp.isnan(anomaly.ResidualReport.of(field).max_abs)
        finite = GridField(((None, mp.mpc(3, 4)), (mp.mpc(1), None)))
        assert finite.max_abs() == 5
        assert anomaly.ResidualReport.of(finite).max_abs == 5
        assert GridField(((None,),)).max_abs() == 0

        def reference(field):
            norms = [abs(v) for row in field.values for v in row
                     if v is not None]
            return next((a for a in norms if a != a),
                        max(norms, default=mp.mpf(0)))
        seeded = seeded_grid(5, 16, 16, ["f", "K"], values="mixed")
        rng = random.Random(9)
        with mp.workprec(2200):
            dense = GridField(tuple(
                tuple(mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(16)) for _ in range(16)))
            close = GridField((tuple(
                mp.mpc(3, 4) * (1 + mp.ldexp(1, -k)) for k in (60, 90, 2100))
                + (mp.mpc(5, mp.ldexp(1, -3000)), mp.mpc(-5)),))
        fields = [GridField(((mp.mpc(1, mp.nan), mp.mpc(3, 4)),)),
                  GridField(((mp.mpc(3, 4), None),
                             (None, mp.mpc(-mp.inf, 1)))),
                  GridField(((mp.mpc(-mp.inf, 1), mp.mpc(3, 4)),
                             (mp.mpc(0, mp.nan), None))),
                  GridField(((None, None), (None, None))),
                  GridField(((mp.mpc(0, -5), mp.mpc(3, -4), mp.mpc(4, 3)),)),
                  dense, close, seeded.field("f"),
                  cw.covariant_derivative(seeded, seeded.field("f"), 1)]
        for prec in (53, 88, 2072):
            with mp.workprec(prec):
                for field in fields:
                    assert raw(field.max_abs()) == raw(reference(field))
                    report = anomaly.ResidualReport.of(field)
                    assert raw(report.max_abs) == raw(reference(field))

    def test_shape_mismatch_rejected(self):
        grid = build_grid({}, nz=3, nw=3)
        with pytest.raises(NonUniformGrid):
            grid.with_field("bad", [[mp.mpc(0)] * 2] * 3).field("bad")


class TestCovariantDerivative:
    def test_constant_scalar_flat_metric(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"G": sympy.Integer(1) + 0 * z,
                           "K": 0 * z, "f": 3 + 0 * z}, nz=5, nw=5)
        out = cw.covariant_derivative(grid, grid.field("f"), 0, 0)
        assert out.max_abs() < mp.mpf("1e-60")

    def test_weightless_matches_plain_difference(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"f": z ** 2 * (1 + w)}, nz=7, nw=5)
        cov = cw.covariant_derivative(grid, grid.field("f"), 0, 0)
        with mp.workprec(grid.prec_bits + 24):
            plain = _central(grid, grid.field("f"), "z")
        for ra, rb in zip(cov.values, plain.values):
            for x, y in zip(ra, rb):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x == y

    def test_hyperbolic_toy_christoffel(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"G": 1 / (1 - z * w) ** 2, "f": 0 * z + 1},
                          nz=7, nw=7, z0="0.1", w0="0.15")
        # Gamma enters through D of a tensor with constant component 1
        cov = cw.covariant_derivative(grid, grid.field("f"), 0, 1)
        for i, zv in enumerate(grid.z_nodes):
            for j, wv in enumerate(grid.zbar_nodes):
                got = cov.values[i][j]
                if got is None:
                    continue
                gamma = 2 * wv / (1 - zv * wv)
                assert abs(-got - gamma) < mp.mpf("1e-6")


class TestClosedResidual:
    def test_synthetic_solution(self):
        _, _, exprs, _ = genus2_exprs()
        grid = build_grid(exprs)
        rep = cw.hae_residual(grid, 2)
        assert rep.max_abs < mp.mpf("1e-8")
        assert rep.residual.valid_count() > 0

    def test_zero_coupling_holomorphic_data(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"G": sympy.exp(z / 5), "K": z / 3,
                           "C": 0 * z, "F1": z ** 2, "F2": 1 + z},
                          nz=7, nw=5)
        rep = cw.hae_residual(grid, 2)
        assert rep.max_abs < mp.mpf("1e-60")

    def test_antiholomorphic_perturbation_shifts_by_epsilon(self):
        _, _, exprs, _ = genus2_exprs()
        eps = mp.mpf("1e-3")
        grid = build_grid(exprs)
        f2 = grid.field("F2")
        bumped = GridField(tuple(
            tuple(v + eps * wv for v, wv in zip(row, grid.zbar_nodes))
            for row in f2.values))
        rep = cw.hae_residual(grid.with_field("F2", bumped), 2)
        assert abs(rep.max_abs - eps) < eps / 100

    def test_holomorphic_shift_leaves_residual(self):
        _, _, exprs, _ = genus2_exprs()
        grid = build_grid(exprs)
        base = cw.hae_residual(grid, 2)
        f2 = grid.field("F2")
        shifted = GridField(tuple(
            tuple(v + (1 + zv ** 3) for v in row)
            for zv, row in zip(grid.z_nodes, f2.values)))
        rep = cw.hae_residual(grid.with_field("F2", shifted), 2)
        for ra, rb in zip(base.residual.values, rep.residual.values):
            for x, y in zip(ra, rb):
                if x is not None:
                    assert abs(x - y) < mp.mpf("1e-12")

    def test_linearity_in_top_field(self):
        _, _, exprs, _ = genus2_exprs()
        grid = build_grid(exprs)
        with mp.workprec(grid.prec_bits + 24):
            doubled = GridField(tuple(
                tuple(2 * v for v in row)
                for row in grid.field("F2").values))
        base = cw.hae_residual(grid, 2).residual
        two = cw.hae_residual(grid.with_field("F2", doubled), 2).residual
        # residual is affine in F_g: R(2 F2) - R(F2) = dbar F2
        with mp.workprec(grid.prec_bits + 24):
            dbar_f2 = _central(grid, grid.field("F2"), "zbar")
            for i in range(len(grid.z_nodes)):
                for j in range(len(grid.zbar_nodes)):
                    x, y, d = (two.values[i][j], base.values[i][j],
                               dbar_f2.values[i][j])
                    if x is not None and y is not None and d is not None:
                        assert abs((x - y) - d) < mp.mpf("1e-40")

    def test_genus3_synthetic_solution(self):
        """Genus 3 hits the mixed pair sum and the weight -2 derivative."""
        z, w = sympy.symbols("z w")
        alpha = sympy.Rational(1, 5)
        kappa1 = sympy.Rational(1, 7)
        f1 = z + z ** 2 / 2
        f2 = 1 + z / 3 + z ** 2 / 4          # weight 2 - 2*2 = -2
        c = sympy.Rational(1, 2) + z / 4 + w / 6

        def d_op(expr, weight, degree):
            return (sympy.diff(expr, z) - degree * alpha * expr
                    + weight * kappa1 * expr)

        df1 = d_op(f1, 0, 0)
        df2 = d_op(f2, -2, 0)
        ddf2 = d_op(df2, -2, 1)
        rhs = c / 2 * (ddf2 + 2 * df1 * df2)
        f3 = sympy.integrate(rhs, w)
        grid = build_grid({"G": sympy.exp(alpha * z),
                           "K": kappa1 * z + sympy.Rational(1, 11) * w,
                           "C": c, "F1": f1, "F2": f2, "F3": f3})
        rep = cw.hae_residual(grid, 3)
        assert rep.max_abs < mp.mpf("1e-8")

    @pytest.mark.parametrize("prec", [64, 256, 2048])
    @pytest.mark.parametrize("g", [2, 3])
    def test_matches_reference_recursion(self, monkeypatch, g, prec):
        names = ["C", "G", "K"] + [f"F{k}" for k in range(1, g + 1)]
        grid = seeded_grid(10 + g, 16, 16, names, prec=prec)
        fallbacks = fallback_kinds(monkeypatch)
        assert_identical(cw.hae_residual(grid, g).residual,
                         hae_reference(grid, g))
        assert set(fallbacks) == {"special", "wide"}

    def test_genus_below_two_rejected(self):
        grid = build_grid({}, nz=3, nw=3)
        with pytest.raises(DomainError):
            cw.hae_residual(grid, 1)

    def test_missing_field(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"C": 0 * z, "F2": z * w}, nz=5, nw=5)
        with pytest.raises(MissingField):
            cw.hae_residual(grid, 2)


class TestOpenResidual:
    def test_closed_reduction_bit_for_bit(self):
        _, _, exprs, _ = genus2_exprs()
        grid = build_grid(exprs)
        closed = cw.hae_residual(grid, 2).residual
        open_style = cw.ehae_residual(grid, 2, 0).residual
        for ra, rb in zip(closed.values, open_style.values):
            for x, y in zip(ra, rb):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x == y  # identical floats, not just close

    def test_unstable_targets_rejected(self):
        grid = build_grid({}, nz=3, nw=3)
        for g, h in ((0, 0), (0, 1), (0, 2), (1, 0)):
            with pytest.raises(UnstableRange):
                cw.ehae_residual(grid, g, h)

    def test_excluded_factors_never_looked_up(self):
        """(0,0) and (0,1) factors are skipped, so their fields are not
        required: residual for (0,3) needs only F0_3, F0_2, Delta, C."""
        z, w = sympy.symbols("z w")
        delta = sympy.Rational(1, 4) + z / 6
        f02 = z + z ** 2 / 3 + w * z / 2
        df02 = sympy.diff(f02, z)  # weight 2-0-2 = 0, scalar
        f03 = -sympy.integrate(delta * df02, w)
        grid = build_grid({"C": 1 + 0 * z, "K": 0 * z, "G": 1 + 0 * z,
                           "Delta": delta, "F0_2": f02, "F0_3": f03},
                          nz=7, nw=7)
        rep = cw.ehae_residual(grid, 0, 3)
        assert rep.max_abs < mp.mpf("1e-8")

    def test_genus_zero_pair_sum(self):
        """(0,4): with no genus g - 1 term the pair sum starts from its
        one stable pair, D F0_2 D F0_2; D = d/dz when C = G = 1, K = 0."""
        z, w = sympy.symbols("z w")
        delta = sympy.Rational(1, 4) + z / 6
        f02 = z + z ** 2 / 3
        f03 = z ** 2 * w / 2 + z / 5
        f04 = sympy.integrate(sympy.diff(f02, z) ** 2 / 2
                              - delta * sympy.diff(f03, z), w)
        grid = build_grid({"C": 1 + 0 * z, "K": 0 * z, "G": 1 + 0 * z,
                           "Delta": delta, "F0_2": f02, "F0_3": f03,
                           "F0_4": f04}, nz=7, nw=7)
        rep = cw.ehae_residual(grid, 0, 4)
        assert rep.max_abs < mp.mpf("1e-8")

    def test_disk_factor_probes_through_delta_only(self):
        """Changing F0_1 must not affect the (0,3) residual."""
        z, w = sympy.symbols("z w")
        base_exprs = {"C": 1 + 0 * z, "K": 0 * z, "G": 1 + 0 * z,
                      "Delta": 0 * z + 1, "F0_2": z * w, "F0_3": w ** 2,
                      "F0_1": z + w}
        grid1 = build_grid(base_exprs, nz=6, nw=6)
        base_exprs["F0_1"] = 5 * z - 3 * w + 1
        grid2 = build_grid(base_exprs, nz=6, nw=6)
        r1 = cw.ehae_residual(grid1, 0, 3).residual
        r2 = cw.ehae_residual(grid2, 0, 3).residual
        for ra, rb in zip(r1.values, r2.values):
            for x, y in zip(ra, rb):
                if x is not None:
                    assert x == y

    def test_annulus_factor_allowed(self):
        """(0,2) is not excluded: the (1,2) residual depends on F0_2."""
        z, w = sympy.symbols("z w")
        exprs = {"C": 1 + 0 * z, "K": 0 * z, "G": 1 + 0 * z,
                 "Delta": 0 * z + 1, "F1": z ** 2, "F1_1": z * w,
                 "F1_2": w + z, "F0_2": z ** 2 + w}
        grid1 = build_grid(exprs, nz=6, nw=6)
        exprs["F0_2"] = 2 * z ** 2 + w * z
        grid2 = build_grid(exprs, nz=6, nw=6)
        r1 = cw.ehae_residual(grid1, 1, 2).residual
        r2 = cw.ehae_residual(grid2, 1, 2).residual
        differs = any(
            x is not None and y is not None and x != y
            for ra, rb in zip(r1.values, r2.values)
            for x, y in zip(ra, rb))
        assert differs

    def test_synthetic_open_solution(self):
        """(1,1): dbar F11 = C/2 DD F01 - Delta D F1, pair sum empty."""
        z, w = sympy.symbols("z w")
        alpha = sympy.Rational(1, 5)
        kappa1 = sympy.Rational(1, 7)
        g_metric = sympy.exp(alpha * z)
        k_pot = kappa1 * z + sympy.Rational(1, 13) * w
        f01 = 1 + z + sympy.Rational(1, 3) * z ** 2   # weight 1
        f1 = z + sympy.Rational(1, 2) * z ** 2        # weight 0
        c_tensor = sympy.Rational(1, 2) + z / 4 + w / 6
        delta = sympy.Rational(2, 3) - w / 5 + z / 8

        def d_op(expr, weight, degree):
            return (sympy.diff(expr, z) - degree * alpha * expr
                    + weight * kappa1 * expr)

        rhs = (c_tensor / 2 * d_op(d_op(f01, 1, 0), 1, 1)
               - delta * d_op(f1, 0, 0))
        f11 = sympy.integrate(rhs, w)
        grid = build_grid({"G": g_metric, "K": k_pot, "C": c_tensor,
                           "Delta": delta, "F0_1": f01, "F1": f1,
                           "F1_1": f11}, nz=9, nw=9)
        rep = cw.ehae_residual(grid, 1, 1)
        assert rep.max_abs < mp.mpf("1e-8")

    def test_zero_disk_term_is_linear_gap(self):
        """Residual(Delta) - Residual(0) = Delta * D F_{(g,h-1)}."""
        z, w = sympy.symbols("z w")
        exprs = {"C": 1 + 0 * z, "K": 0 * z, "G": 1 + 0 * z,
                 "Delta": sympy.Rational(3, 7) + 0 * z,
                 "F1": z ** 2, "F0_1": z, "F1_1": z * w}
        grid = build_grid(exprs, nz=6, nw=6)
        exprs["Delta"] = 0 * z
        grid0 = build_grid(exprs, nz=6, nw=6)
        r1 = cw.ehae_residual(grid, 1, 1).residual
        r0 = cw.ehae_residual(grid0, 1, 1).residual
        df1 = cw.covariant_derivative(grid, grid.field("F1"), 0, 0)
        with mp.workprec(grid.prec_bits + 24):
            for i in range(6):
                for j in range(6):
                    x, y, d = (r1.values[i][j], r0.values[i][j],
                               df1.values[i][j])
                    if x is None or y is None or d is None:
                        continue
                    assert abs((x - y) - mp.mpf(3) / 7 * d) < mp.mpf("1e-40")

    def test_half_integer_open_data_differentiates(self):
        """Fractional-power series values feed grids without trouble."""
        s = LogSeries({(F(1, 2), 0): F(1), (F(3, 2), 0): F(1)},
                      order=3, ramification=2)
        ds = s.theta()  # z d/dz
        with mp.workprec(280):
            nodes = [mp.mpf("0.2") + k * mp.mpf("0.001") for k in range(7)]
            w_nodes = [mp.mpf("0.1"), mp.mpf("0.101"), mp.mpf("0.102")]
            vals = [[series_value(s, zv) for _ in w_nodes]
                    for zv in nodes]
            grid = AnomalyGrid(nodes, w_nodes, {"f": vals}, prec_bits=256)
            fd = _central(grid, grid.field("f"), "z")
            for i, zv in enumerate(nodes):
                row = fd.values[i]
                if row[0] is None:
                    continue
                expected = series_value(ds, zv) / zv
                assert abs(row[0] - expected) < mp.mpf("1e-4")


class TestGenus2Integration:
    def test_zero_propagator_returns_ambiguity(self):
        z, w = sympy.symbols("z w")
        grid = build_grid({"G": sympy.exp(z / 4), "K": 0 * z,
                           "C": 0 * z, "F1": z + z ** 2}, nz=7, nw=5)
        prop = PropagatorSpec(tuple(
            tuple(mp.mpc(0) for _ in grid.zbar_nodes)
            for _ in grid.z_nodes))
        amb = lambda zz: 2 + zz ** 2
        f2, rep = cw.genus2_integrate(grid, prop, ambiguity=amb)
        assert rep.max_abs < mp.mpf("1e-8")
        with mp.workprec(grid.prec_bits + 24):
            for i, zv in enumerate(grid.z_nodes):
                for v in f2.values[i]:
                    if v is not None:
                        assert abs(v - (2 + zv ** 2)) < mp.mpf("1e-60")

    def test_synthetic_propagator(self):
        z, w, exprs, s_expr = genus2_exprs()
        del exprs["F2"]
        grid = build_grid(exprs)
        fn = sympy.lambdify((z, w), s_expr, modules="mpmath")
        with mp.workprec(280):
            prop = PropagatorSpec(tuple(
                tuple(mp.mpc(fn(zv, wv)) for wv in grid.zbar_nodes)
                for zv in grid.z_nodes))
        f2, rep = cw.genus2_integrate(grid, prop)
        assert rep.max_abs < mp.mpf("1e-8")

    def test_ambiguity_invariance(self):
        z, w, exprs, s_expr = genus2_exprs()
        del exprs["F2"]
        grid = build_grid(exprs)
        fn = sympy.lambdify((z, w), s_expr, modules="mpmath")
        with mp.workprec(280):
            prop = PropagatorSpec(tuple(
                tuple(mp.mpc(fn(zv, wv)) for wv in grid.zbar_nodes)
                for zv in grid.z_nodes))
        _, rep0 = cw.genus2_integrate(grid, prop)
        _, rep1 = cw.genus2_integrate(grid, prop,
                                      ambiguity=lambda zz: 5 - zz ** 3)
        assert abs(rep0.max_abs - rep1.max_abs) < mp.mpf("1e-12")

    def test_propagator_json_keeps_40_digits(self):
        digits = "1.141473812272449530734981562205487233815"
        prop = PropagatorSpec.from_json({"S": [[[digits, "0"]]],
                                         "prec_bits": 256})
        assert mp.nstr(prop.values[0][0].real, 40) == digits

    def test_propagator_mismatch(self):
        z, w, exprs, _ = genus2_exprs()
        del exprs["F2"]
        grid = build_grid(exprs)
        bad = PropagatorSpec(tuple(
            tuple(wv ** 2 for wv in grid.zbar_nodes)
            for _ in grid.z_nodes))
        with pytest.raises(PropagatorMismatch):
            cw.genus2_integrate(grid, bad)

    def test_no_silent_failure(self):
        """A metric incompatible with the propagator data must raise."""
        z, w = sympy.symbols("z w")
        c = sympy.Rational(2, 5) + z / 4
        exprs = {"G": 1 / (1 - z * w) ** 2, "K": 0 * z,
                 "F1": 1 + z + z ** 2 / 2, "C": c}
        grid = build_grid(exprs)
        fn = sympy.lambdify((z, w), w * c, modules="mpmath")
        with mp.workprec(280):
            prop = PropagatorSpec(tuple(
                tuple(mp.mpc(fn(zv, wv)) for wv in grid.zbar_nodes)
                for zv in grid.z_nodes))
        from cyworkbench.errors import ResidualToleranceError
        with pytest.raises(ResidualToleranceError):
            cw.genus2_integrate(grid, prop, tolerance=1e-8)


# ----------------------------------------------------------------------
# derived-field memo

def workload_grid():
    """Every field that hae (g=2), ehae (1,1) and genus 2 read, and S."""
    z, w, exprs, s_prop = genus2_exprs()
    exprs.update({"Delta": sympy.Rational(2, 3) - w / 5 + z / 8,
                  "F0_1": 1 + z + z ** 2 / 3, "F1_1": z * w + w ** 2 / 7})
    grid = build_grid(exprs)
    fn = sympy.lambdify((z, w), s_prop, modules="mpmath")
    with mp.workprec(280):
        prop = PropagatorSpec(tuple(
            tuple(mp.mpc(fn(zv, wv)) for wv in grid.zbar_nodes)
            for zv in grid.z_nodes))
    return grid, prop


def workload_calls(prop):
    return {"hae": lambda grid: cw.hae_residual(grid, 2),
            "ehae": lambda grid: cw.ehae_residual(grid, 1, 1),
            "genus2": lambda grid: cw.genus2_integrate(
                grid, prop, tolerance=math.inf)[1]}


def assert_same_report(a, b):
    assert_identical(a.residual, b.residual)
    assert a.max_abs == b.max_abs and a.mean_abs == b.mean_abs


class TestDerivedFieldMemo:
    @pytest.mark.parametrize("name", ["hae", "ehae", "genus2"])
    def test_warm_grid_matches_fresh(self, name):
        fresh, prop = workload_grid()
        calls = workload_calls(prop)
        expected = calls[name](fresh)
        warm, _ = workload_grid()
        for other, call in calls.items():
            if other != name:
                call(warm)
        assert_same_report(calls[name](warm), expected)

    @pytest.mark.parametrize("name, expr", [
        ("F1", lambda z, w: z ** 3 - 2 * z),
        ("G", lambda z, w: sympy.exp(z / 5) * (1 + z * w)),
        ("K", lambda z, w: z / 3 - w * z / 2)])
    def test_with_field_invalidates(self, name, expr):
        grid, prop = workload_grid()
        calls = workload_calls(prop)
        for call in calls.values():
            call(grid)
        z, w = sympy.symbols("z w")
        values = build_grid({name: expr(z, w)}).field(name)
        fresh = AnomalyGrid(grid.z_nodes, grid.zbar_nodes,
                            {**grid.fields, name: values.values})
        replaced = grid.with_field(name, values)
        for call in calls.values():
            assert_same_report(call(replaced), call(fresh))

    def test_one_pass_per_derived_field(self, monkeypatch):
        """hae (g=2), ehae (1,1) and genus 2 on one grid: 10 central
        differences and one log pass over G in total."""
        grid, prop = workload_grid()
        counts = {"central": 0, "log": 0}
        central, log = anomaly._central, mp.log

        def counting_central(*args):
            counts["central"] += 1
            return central(*args)

        def counting_log(x):
            counts["log"] += 1
            return log(x)

        monkeypatch.setattr(anomaly, "_central", counting_central)
        monkeypatch.setattr(mp, "log", counting_log)
        cw.hae_residual(grid, 2)
        cw.ehae_residual(grid, 1, 1)
        cw.genus2_integrate(grid, prop)
        assert counts == {"central": 10,
                          "log": grid.field("G").valid_count()}


class TestNoValidEntry:
    """A check with nothing to compare is refused, not passed as max 0."""

    def test_residual_of_nulls(self):
        grid, _ = workload_grid()
        nulls = ((None,) * len(grid.zbar_nodes),) * len(grid.z_nodes)
        for name in grid.fields:
            grid = grid.with_field(name, nulls)
        for residual in (lambda: cw.hae_residual(grid, 2),
                         lambda: cw.ehae_residual(grid, 1, 1)):
            with pytest.raises(BoundaryPoint, match="^no valid residual"):
                residual()

    def test_grid_too_short_for_the_bracket(self):
        """Four z rows hold a first central difference but no second."""
        _, _, exprs, _ = genus2_exprs()
        grid = build_grid(exprs, nz=4)
        with pytest.raises(BoundaryPoint, match=r"\(g, h\) = \(2, 0\)$"):
            cw.hae_residual(grid, 2)

    def test_propagator_of_nulls(self):
        _, _, exprs, _ = genus2_exprs()
        del exprs["F2"]
        grid = build_grid(exprs)
        nulls = PropagatorSpec(((None,) * len(grid.zbar_nodes),)
                               * len(grid.z_nodes))
        with pytest.raises(PropagatorMismatch, match="has no valid entry"):
            nulls.verify(grid)
        with pytest.raises(PropagatorMismatch, match="has no valid entry"):
            cw.genus2_integrate(grid, nulls)


class TestPropagatorShape:
    def test_wrong_shape_names_the_propagator(self):
        grid, prop = workload_grid()
        short = PropagatorSpec(tuple(row[:-1] for row in prop.values[:-1]))
        with pytest.raises(NonUniformGrid, match="^propagator S does not"):
            cw.genus2_integrate(grid, short)
