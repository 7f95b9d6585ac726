"""CLI contract: commands, artifacts, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest
import sympy
from mpmath import mp

import cyworkbench.cli
import cyworkbench.pipeline
from cyworkbench.anomaly import AnomalyGrid
from cyworkbench.cli import main
from cyworkbench.kernel import MAX_PRECISION_BITS
from cyworkbench.picard_fuchs import MAX_OPERATOR_DEGREE
from cyworkbench.pipeline import (MAX_HODGE_ORDER, MAX_SAMPLE_COUNT,
                                  MAX_TRUNCATION_ORDER, WorkbenchConfig,
                                  config_hash)

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs/quintic.json"


def fast_quintic_config(tmp_path, **overrides) -> Path:
    doc = json.loads(REPO_CONFIG.read_text())
    doc["truncation_order"] = 8
    doc["precision_bits"] = 128
    doc["samples"] = {"count": 6, "radius_fraction": 0.4}
    doc["hodge_order"] = 40
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def trivial_config(tmp_path) -> Path:
    doc = {
        "family": {
            "name": "theta4",
            "kappa": 1,
            "triple_intersection": 1,
            "c2_H": 0,
            "euler": 0,
            "operator": {
                "coefficients": [[], [], [], [], ["1"]],
                "singular_radius": "1",
            },
        },
        "truncation_order": 6,
        "precision_bits": 128,
        "samples": {"count": 4, "radius_fraction": 0.3},
        "hodge_order": 24,
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    return path


def synthetic_grid_doc():
    z, w = sympy.symbols("z w")
    alpha = sympy.Rational(1, 3)
    f1 = 1 + z + z ** 2 / 2
    c = sympy.Rational(2, 5) + z / 4
    s = w * c + z ** 2 / 9
    df1 = sympy.diff(f1, z)
    ddf1 = sympy.diff(df1, z) - alpha * df1
    f2 = s * (ddf1 + df1 ** 2) / 2
    exprs = {"G": sympy.exp(alpha * z), "K": z / 7 + w / 11,
             "F1": f1, "C": c, "F2": f2}
    with mp.workprec(280):
        z_nodes = [mp.mpf("0.3") + k * mp.mpf("0.001") for k in range(7)]
        w_nodes = [mp.mpf("0.2") + k * mp.mpf("0.001") for k in range(7)]
        fields = {}
        for name, expr in exprs.items():
            fn = sympy.lambdify((z, w), expr, modules="mpmath")
            fields[name] = [[mp.mpc(fn(zv, wv)) for wv in w_nodes]
                            for zv in z_nodes]
        grid = AnomalyGrid(z_nodes, w_nodes, fields, prec_bits=256)
        s_fn = sympy.lambdify((z, w), s, modules="mpmath")
        prop = {"S": [[[mp.nstr(s_fn(zv, wv), 40), "0.0"]
                       for wv in w_nodes] for zv in z_nodes]}
    return grid.to_json(), prop


class TestRun:
    def test_quintic_run_and_report(self, tmp_path, capsys):
        cfg = fast_quintic_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for name in ("periods.json", "instantons.json", "hodge.json",
                     "manifest.jsonl"):
            assert (out / name).exists()
        inst = json.loads((out / "instantons.json").read_text())
        assert inst["n"]["1"] == "2875"
        assert inst["n"]["2"] == "609250"

        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "d=1 | n_d=2875" in text
        assert "chi/5760 = -5/144" in text
        assert "g=3 | 5/36288" in text
        assert "signs_ok: True" in text

    def test_trivial_family_reports_no_corrections(self, tmp_path, capsys):
        cfg = trivial_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        assert "no quantum corrections" in capsys.readouterr().out

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        cfg = fast_quintic_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        for name in ("periods.json", "instantons.json", "hodge.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_appends(self, tmp_path):
        cfg = fast_quintic_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        main(["run", str(cfg), "--out", str(out)])
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(x) for x in lines)
        assert first["config_hash"] == second["config_hash"]
        assert first["artifacts"] == second["artifacts"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = fast_quintic_config(tmp_path)
        target = tmp_path / "env-out"
        monkeypatch.setenv("WORKBENCH_OUT", str(target))
        assert main(["run", str(cfg)]) == 0
        assert (target / "instantons.json").exists()


class TestOutputDirectory:
    """One rule: --out, then WORKBENCH_OUT, then the config's output_dir."""

    @pytest.mark.parametrize("command", ["run", "hodge-report"])
    def test_config_output_dir(self, tmp_path, monkeypatch, command):
        cfg = fast_quintic_config(tmp_path,
                                  output_dir=str(tmp_path / "cfg-out"))
        monkeypatch.delenv("WORKBENCH_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main([command, str(cfg)]) == 0
        assert (tmp_path / "cfg-out" / "hodge.json").exists()
        assert not (tmp_path / "workbench-out").exists()

    @pytest.mark.parametrize("command", ["run", "hodge-report"])
    def test_flag_then_env_before_config(self, tmp_path, monkeypatch,
                                         command):
        cfg = fast_quintic_config(tmp_path,
                                  output_dir=str(tmp_path / "cfg-out"))
        monkeypatch.setenv("WORKBENCH_OUT", str(tmp_path / "env-out"))
        assert main([command, str(cfg)]) == 0
        assert main([command, str(cfg), "--out",
                     str(tmp_path / "flag-out")]) == 0
        assert sorted(p.name for p in tmp_path.glob("*-out")) == \
            ["env-out", "flag-out"]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1

    def test_invalid_order(self, tmp_path, capsys):
        cfg = fast_quintic_config(tmp_path, truncation_order=2)
        assert main(["run", str(cfg)]) == 1
        capsys.readouterr()
        # a usage error is a ConfigError too, not argparse's exit 2
        assert main(["run", str(cfg), "--order", "abc"]) == 1
        assert capsys.readouterr().err == ("error (ConfigError): usage: "
                                           "argument --order: invalid int "
                                           "value: 'abc'\n")

    def test_non_calabi_yau_operator(self, tmp_path, capsys):
        """z^25 added to the quintic's a_1 breaks the Calabi-Yau identity
        only past the truncation order 20; the run exits 2 all the same
        and ships no hodge.json."""
        doc = json.loads(fast_quintic_config(tmp_path,
                                             truncation_order=20).read_text())
        a1 = doc["family"]["operator"]["coefficients"][1]
        a1 += ["0"] * (25 - len(a1)) + ["1"]
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error (NormalizationMissing): Q(Omega, theta Omega) residual ")
        assert not (out / "hodge.json").exists()

    @pytest.mark.parametrize("command", ["run", "hodge-report"])
    def test_radius_beyond_singular_point(self, tmp_path, capsys, command):
        """The quintic's nearest singular point is 1/3125; a stated 1/1500
        would put sample points outside the disk of convergence."""
        doc = json.loads(REPO_CONFIG.read_text())
        doc["family"]["operator"]["singular_radius"] = "1/1500"
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([command, str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (DomainError): singular_radius 1/1500 lies beyond the "
            "zero of a_4 at |z| = 0.00032\n")
        assert not (out / "hodge.json").exists()

    def test_non_mum_operator(self, tmp_path):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        # theta^2 (theta-1)^2 has indicial roots 0, 0, 1, 1
        doc["family"]["operator"]["coefficients"] = \
            [[], [], ["1"], ["-2"], ["1"]]
        cfg = tmp_path / "notmum.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", ["--order", "--precision-bits",
                                      "--samples", "--radius-fraction"])
    def test_zero_override_rejected(self, tmp_path, capsys, flag):
        """An override of 0 is validated, not swapped for the config's value."""
        assert main(["hodge-report", str(REPO_CONFIG), flag, "0",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (ConfigError): ")
        assert len(err.strip().splitlines()) == 1

    def test_report_without_run(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["run", "hodge-report"])
    def test_radius_near_one_refused_before_solving(self, tmp_path, capsys,
                                                    command):
        """0.999 asks for 46045 terms: refused up front, not solved."""
        start = time.perf_counter()
        assert main([command, str(REPO_CONFIG), "--radius-fraction", "0.999",
                     "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error (ConfigError): hodge order 46045 exceeds the cap "
            f"MAX_HODGE_ORDER = {MAX_HODGE_ORDER}\n")
        assert not (tmp_path / "o" / "hodge.json").exists()

    @pytest.mark.parametrize("command, option, value, message", [
        (command, "--order", 100000, "truncation order 100000 exceeds the "
         f"cap MAX_TRUNCATION_ORDER = {MAX_TRUNCATION_ORDER}")
        for command in ("run", "hodge-report")] + [
        ("run", "--precision-bits", MAX_PRECISION_BITS + 1,
         f"precision {MAX_PRECISION_BITS + 1} bits exceeds the cap "
         f"MAX_PRECISION_BITS = {MAX_PRECISION_BITS}"),
        ("run", "--samples", MAX_SAMPLE_COUNT + 1,
         f"sample count {MAX_SAMPLE_COUNT + 1} exceeds the cap "
         f"MAX_SAMPLE_COUNT = {MAX_SAMPLE_COUNT}"),
    ], ids=["run", "hodge-report", "run-precision-bits", "run-samples"])
    def test_truncation_order_above_cap_refused_before_solving(
            self, tmp_path, capsys, command, option, value, message):
        start = time.perf_counter()
        assert main([command, str(REPO_CONFIG), option, str(value),
                     "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error (ConfigError): {message}\n"
        for name in ("periods.json", "instantons.json", "hodge.json"):
            assert not (tmp_path / "o" / name).exists()

    @pytest.mark.parametrize("command", ["run", "hodge-report"])
    def test_operator_degree_above_cap_refused_before_solving(
            self, tmp_path, capsys, command):
        """An a_4 of degree 200 would take the radius check half a minute:
        refused with the config, before any solve."""
        doc = json.loads(REPO_CONFIG.read_text())
        doc["family"]["operator"]["coefficients"][4] = \
            ["1"] + ["0"] * 199 + ["-1"]
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error (ConfigError): operator z-degree 200 exceeds the cap "
            f"MAX_OPERATOR_DEGREE = {MAX_OPERATOR_DEGREE}\n")
        for name in ("periods.json", "instantons.json", "hodge.json"):
            assert not (tmp_path / "o" / name).exists()

    def test_explicit_hodge_order_above_cap(self, tmp_path, capsys):
        cfg = fast_quintic_config(tmp_path, hodge_order=5000)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (ConfigError): hodge order 5000 exceeds")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("hodge_order", [0, -5])
    def test_hodge_order_below_one(self, tmp_path, capsys, hodge_order):
        cfg = fast_quintic_config(tmp_path, hodge_order=hodge_order)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error (ConfigError): hodge order must be at least 1\n"

    def test_kappa_other_than_one(self, tmp_path, capsys):
        doc = json.loads(trivial_config(tmp_path).read_text())
        doc["family"]["kappa"] = 2
        cfg = tmp_path / "kappa2.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error (DomainError): ")

    def test_failed_run_recorded_in_manifest(self, tmp_path):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        doc["family"]["operator"]["coefficients"] = \
            [[], [], ["1"], ["-2"], ["1"]]
        cfg = tmp_path / "notmum.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        main(["run", str(cfg), "--out", str(out)])
        entry = json.loads((out / "manifest.jsonl").read_text())
        assert entry["status"] == "error"
        assert entry["failed_stage"] == "periods"
        assert "NotMUM" in entry["error"]


class TestMalformedInput:
    """Malformed values end in exit 1 with one stderr line, no traceback."""

    @staticmethod
    def assert_config_error(capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (ConfigError): malformed ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit", [
        lambda d: d["family"]["operator"]["coefficients"][0].insert(0, "a"),
        lambda d: d.update(truncation_order="abc"),
        lambda d: d["family"].update(triple_intersection="x"),
        lambda d: d.update(samples=3),
        lambda d: d["family"]["operator"]["coefficients"][3].append("1/0"),
        lambda d: d["family"]["operator"].update(singular_radius="1/0"),
    ])
    def test_config_values(self, tmp_path, capsys, edit):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        edit(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        self.assert_config_error(
            capsys, ["run", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["family"].update(triple_intersection=5.5),
         "config triple_intersection must be an integer"),
        (lambda d: d.update(hodge_order=True),
         "config hodge_order must be an integer"),
        (lambda d: d.update(truncation_order=20.7),
         "config truncation_order must be an integer"),
        (lambda d: d["samples"].update(count=2.9),
         "config samples count must be an integer"),
    ], ids=["kappa-5.5", "hodge-order-true", "order-20.7", "count-2.9"])
    def test_config_integers(self, tmp_path, capsys, edit, message):
        """Booleans and fractional numbers are refused, not truncated."""
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        edit(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error (ConfigError): {message}\n"

    def test_config_integer_strings_keep_hash(self, tmp_path):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        cfg = WorkbenchConfig.from_json(doc)
        doc.update(truncation_order="8", hodge_order=40.0)
        doc["family"]["triple_intersection"] = "5"
        doc["samples"]["count"] = "6"
        assert WorkbenchConfig.from_json(doc) == cfg
        assert config_hash(WorkbenchConfig.from_json(doc)) == config_hash(cfg)

    @pytest.mark.parametrize("doc", [{"prec_bits": 64, "fields": {}},
                                     [1, 2]])
    def test_grid_without_grid(self, tmp_path, capsys, doc):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        self.assert_config_error(capsys, ["hae-check", str(path)])

    @pytest.mark.parametrize("edit, start", [
        (lambda d: d["grid"]["z"][3].__setitem__(0, "nan"),
         "error (NonUniformGrid): z axis has a non-finite node"),
        (lambda d: d["grid"]["zbar"][0].__setitem__(1, "-inf"),
         "error (NonUniformGrid): zbar axis has a non-finite node"),
        (lambda d: d.update(prec_bits=0),
         "error (ConfigError): grid prec_bits must be positive"),
        (lambda d: d.update(prec_bits=-100),
         "error (ConfigError): grid prec_bits must be positive"),
        (lambda d: d.update(prec_bits=True),
         "error (ConfigError): grid prec_bits must be an integer"),
        (lambda d: d.update(prec_bits=256.5),
         "error (ConfigError): grid prec_bits must be an integer"),
        (lambda d: d.update(prec_bits=MAX_PRECISION_BITS + 1),
         f"error (ConfigError): grid prec_bits {MAX_PRECISION_BITS + 1} "
         f"exceeds the cap MAX_PRECISION_BITS = {MAX_PRECISION_BITS}\n"),
        (lambda d: d.update(frame_weight="power of the canonical line = 1"),
         "error (ConfigError): grid frame_weight "),
        (lambda d: d.update(limit_convention=None),
         "error (ConfigError): grid limit_convention "),
        # a string is not split into parts, nor a third part dropped
        (lambda d: d["grid"].update(z=[f"{k}0" for k in range(7)]),
         "error (ConfigError): malformed grid JSON: '00' is not a pair "),
        (lambda d: d["fields"]["F2"][3][3].append("9"),
         "error (ConfigError): malformed grid JSON: ["),
    ], ids=["nan-z", "inf-zbar", "prec-0", "prec-neg", "prec-true",
            "prec-fraction", "prec-above-cap", "frame-weight", "limit-null",
            "string-nodes", "three-parts"])
    def test_grid_values_rejected(self, tmp_path, capsys, edit, start):
        """Nodes, values, precision and conventions the program cannot
        honour."""
        doc, _ = synthetic_grid_doc()
        edit(doc)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert main(["hae-check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("prec_bits, message", [
        (0, "propagator prec_bits must be positive"),
        (-100, "propagator prec_bits must be positive"),
        (64, "propagator prec_bits 64 differs from grid prec_bits 256"),
        (True, "propagator prec_bits must be an integer"),
        (256.5, "propagator prec_bits must be an integer"),
        (MAX_PRECISION_BITS + 1, f"propagator prec_bits "
         f"{MAX_PRECISION_BITS + 1} exceeds the cap MAX_PRECISION_BITS = "
         f"{MAX_PRECISION_BITS}"),
    ], ids=["0", "-100", "64", "true", "256.5", "above-cap"])
    def test_propagator_prec_bits_rejected(self, tmp_path, capsys, prec_bits,
                                           message):
        """Nonpositive, not an integer, or other than the grid's 256."""
        grid_doc, prop = synthetic_grid_doc()
        gpath, ppath = tmp_path / "grid.json", tmp_path / "prop.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath.write_text(json.dumps({**prop, "prec_bits": prec_bits}))
        assert main(["genus2", str(gpath), "--propagator", str(ppath)]) == 1
        assert capsys.readouterr().err == f"error (ConfigError): {message}\n"

    def test_grid_node_without_imaginary_part(self, tmp_path, capsys):
        doc, _ = synthetic_grid_doc()
        doc["grid"]["z"][0] = ["0.1"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        self.assert_config_error(capsys, ["hae-check", str(path)])

    @pytest.mark.parametrize("name, text", [
        ("manifest.jsonl", "{cut"), ("manifest.jsonl", "[1, 2]"),
        ("instantons.json", "{}"), ("hodge.json", "not json")])
    def test_damaged_run_directory(self, tmp_path, capsys, name, text):
        out = tmp_path / "o"
        assert main(["run", str(trivial_config(tmp_path)),
                     "--out", str(out)]) == 0
        path = out / name
        if name == "manifest.jsonl":  # a damaged last line
            text = path.read_text() + text + "\n"
        path.write_text(text)
        capsys.readouterr()
        self.assert_config_error(capsys, ["report", str(out)])

    def test_propagator_without_s(self, tmp_path, capsys):
        grid_doc, _ = synthetic_grid_doc()
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps({"prec_bits": 256}))
        self.assert_config_error(
            capsys, ["genus2", str(gpath), "--propagator", str(ppath)])


class TestGridCommands:
    def test_hae_check(self, tmp_path, capsys):
        grid_doc, _ = synthetic_grid_doc()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["hae-check", str(path), "--genus", "2",
                     "--tolerance", "1e-8"]) == 0
        assert "hae residual" in capsys.readouterr().out

    def test_hae_check_tolerance_failure(self, tmp_path):
        grid_doc, _ = synthetic_grid_doc()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["hae-check", str(path), "--genus", "2",
                     "--tolerance", "1e-90"]) == 3

    def test_hae_check_nan_residual_fails(self, tmp_path, capsys):
        """NaN residuals fail the tolerance instead of reading max 0."""
        grid_doc, _ = synthetic_grid_doc()
        grid_doc["fields"]["F2"] = [[["nan", "0"] for _ in row]
                                    for row in grid_doc["fields"]["F2"]]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["hae-check", str(path), "--genus", "2",
                     "--tolerance", "1e-8"]) == 3
        assert "max nan" in capsys.readouterr().out

    def test_all_null_fields_refused(self, tmp_path, capsys):
        """A residual with no valid entry is refused, not read as max 0."""
        grid_doc, _ = synthetic_grid_doc()
        grid_doc["fields"] = {name: [[None for _ in row] for row in rows]
                              for name, rows in grid_doc["fields"].items()}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["hae-check", str(path), "--genus", "2",
                     "--tolerance", "1e-8"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error (BoundaryPoint): no valid residual "
                                "entry at (g, h) = (2, 0)\n")
        assert "hae residual" not in captured.out

    def test_ehae_check_closed_reduction(self, tmp_path):
        grid_doc, _ = synthetic_grid_doc()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["ehae-check", str(path), "--genus", "2",
                     "--holes", "0", "--tolerance", "1e-8"]) == 0

    def test_ehae_unstable_target(self, tmp_path):
        grid_doc, _ = synthetic_grid_doc()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc))
        assert main(["ehae-check", str(path), "--genus", "0",
                     "--holes", "1"]) == 2
        # no default (g, h): the flags are required, a usage error exits 1
        assert main(["ehae-check", str(path)]) == 1

    def test_genus2_command(self, tmp_path, capsys):
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        out = tmp_path / "g2"
        assert main(["genus2", str(gpath), "--propagator", str(ppath),
                     "--out", str(out)]) == 0
        assert (out / "genus2.json").exists()
        doc = json.loads((out / "genus2.json").read_text())
        assert "F2" in doc["fields"]

    def test_ehae_check_open_grid(self, tmp_path, capsys):
        """Solved disk-sector data drives the open check end to end."""
        z, w = sympy.symbols("z w")
        alpha = sympy.Rational(1, 5)
        kappa1 = sympy.Rational(1, 7)
        f01 = 1 + z + z ** 2 / 3
        f1 = z + z ** 2 / 2
        c = sympy.Rational(1, 2) + z / 4 + w / 6
        delta = sympy.Rational(2, 3) - w / 5 + z / 8

        def d_op(expr, weight, degree):
            return (sympy.diff(expr, z) - degree * alpha * expr
                    + weight * kappa1 * expr)

        rhs = (c / 2 * d_op(d_op(f01, 1, 0), 1, 1) - delta * d_op(f1, 0, 0))
        exprs = {"G": sympy.exp(alpha * z),
                 "K": kappa1 * z + sympy.Rational(1, 13) * w,
                 "C": c, "Delta": delta, "F0_1": f01, "F1": f1,
                 "F1_1": sympy.integrate(rhs, w)}
        with mp.workprec(280):
            z_nodes = [mp.mpf("0.3") + k * mp.mpf("0.001") for k in range(7)]
            w_nodes = [mp.mpf("0.2") + k * mp.mpf("0.001") for k in range(7)]
            fields = {}
            for name, expr in exprs.items():
                fn = sympy.lambdify((z, w), expr, modules="mpmath")
                fields[name] = [[mp.mpc(fn(zv, wv)) for wv in w_nodes]
                                for zv in z_nodes]
            grid = AnomalyGrid(z_nodes, w_nodes, fields, prec_bits=256)
        path = tmp_path / "open.json"
        path.write_text(json.dumps(grid.to_json()))
        assert main(["ehae-check", str(path), "--genus", "1",
                     "--holes", "1", "--tolerance", "1e-8"]) == 0
        assert "ehae residual (g=1, h=1)" in capsys.readouterr().out

    def test_genus2_output_grid_round_trips(self, tmp_path):
        """The written F2 field carries null margins that re-ingest fine."""
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        out = tmp_path / "g2"
        assert main(["genus2", str(gpath), "--propagator", str(ppath),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "genus2.json").read_text())
        assert any(v is None for row in doc["fields"]["F2"] for v in row)
        back = AnomalyGrid.from_json(doc)
        from cyworkbench.anomaly import hae_residual
        rep = hae_residual(back, 2)
        assert rep.residual.valid_count() > 0
        assert rep.max_abs < mp.mpf("1e-8")

    def test_genus2_propagator_mismatch(self, tmp_path):
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        prop_doc["S"] = [[["1.5", "0.0"] for v in row]
                         for row in prop_doc["S"]]
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        assert main(["genus2", str(gpath), "--propagator", str(ppath)]) == 3

    def test_genus2_all_null_propagator(self, tmp_path, capsys):
        """dbar S - C with no valid entry is refused, and no F2 of nulls
        is written."""
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        prop_doc["S"] = [[None for _ in row] for row in prop_doc["S"]]
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        out = tmp_path / "g2"
        assert main(["genus2", str(gpath), "--propagator", str(ppath),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error (PropagatorMismatch): dbar S - C has no valid entry\n")
        assert not (out / "genus2.json").exists()

    def test_genus2_nan_propagator(self, tmp_path, capsys):
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        prop_doc["S"] = [[["nan", "0"] for _ in row] for row in prop_doc["S"]]
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        assert main(["genus2", str(gpath), "--propagator", str(ppath)]) == 3
        assert capsys.readouterr().err.startswith(
            "error (PropagatorMismatch): dbar S deviates from C by nan")

    def test_genus2_zero_tolerance_is_kept(self, tmp_path, capsys):
        """--tolerance 0 is a real bound; the residual of ~1e-35 fails it."""
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        assert main(["genus2", str(gpath), "--propagator", str(ppath),
                     "--tolerance", "0"]) == 3
        assert main(["genus2", str(gpath), "--propagator", str(ppath)]) == 0

    def test_genus2_propagator_shape(self, tmp_path, capsys):
        grid_doc, prop_doc = synthetic_grid_doc()
        grid_doc["fields"].pop("F2")
        prop_doc["S"] = [row[:-1] for row in prop_doc["S"][:-1]]
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid_doc))
        ppath = tmp_path / "prop.json"
        ppath.write_text(json.dumps(prop_doc))
        assert main(["genus2", str(gpath), "--propagator", str(ppath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (NonUniformGrid): propagator S ")


class TestHodgeReportCommand:
    @pytest.mark.parametrize("command, flags, order", [
        ("run", [], 24), ("hodge-report", [], 24),
        ("run", ["--order", "30"], 30)])
    def test_one_period_solve(self, tmp_path, monkeypatch, command, flags,
                              order):
        """One solve at max(N, Hodge order 24) serves every stage."""
        solve = cyworkbench.pipeline.frobenius_solve
        orders = []

        def counted(op, order):
            orders.append(order)
            return solve(op, order)

        # cli must not bind a solver of its own; a stale one is counted too
        for module in (cyworkbench.pipeline, cyworkbench.cli):
            monkeypatch.setattr(module, "frobenius_solve", counted,
                                raising=False)
        assert main([command, str(trivial_config(tmp_path)),
                     "--out", str(tmp_path / "o"), *flags]) == 0
        assert orders == [order]

    def test_writes_report(self, tmp_path, capsys):
        cfg = fast_quintic_config(tmp_path)
        out = tmp_path / "hr"
        assert main(["hodge-report", str(cfg), "--out", str(out),
                     "--samples", "4"]) == 0
        doc = json.loads((out / "hodge.json").read_text())
        assert len(doc["points"]) == 4
        assert all(p["chern_form_positive"] for p in doc["points"])

    def test_matches_run_byte_for_byte(self, tmp_path):
        cfg = fast_quintic_config(tmp_path)
        run_out, hr_out = tmp_path / "run", tmp_path / "hr"
        assert main(["run", str(cfg), "--out", str(run_out)]) == 0
        assert main(["hodge-report", str(cfg), "--out", str(hr_out)]) == 0
        assert (hr_out / "hodge.json").read_bytes() == \
            (run_out / "hodge.json").read_bytes()
