"""CLI contract: commands, artifacts, exit codes, determinism."""

import json
from pathlib import Path

import pytest
import sympy
from mpmath import mp

from cyworkbench.anomaly import AnomalyGrid
from cyworkbench.cli import main

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


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1

    def test_invalid_order(self, tmp_path):
        cfg = fast_quintic_config(tmp_path, truncation_order=2)
        assert main(["run", str(cfg)]) == 1

    def test_non_mum_operator(self, tmp_path):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        # theta^2 (theta-1)^2 has indicial roots 0, 0, 1, 1
        doc["family"]["operator"]["coefficients"] = \
            [[], [], ["1"], ["-2"], ["1"]]
        cfg = tmp_path / "notmum.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_report_without_run(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

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
    ])
    def test_config_values(self, tmp_path, capsys, edit):
        doc = json.loads(fast_quintic_config(tmp_path).read_text())
        edit(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        self.assert_config_error(
            capsys, ["run", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("doc", [{"prec_bits": 64, "fields": {}},
                                     [1, 2]])
    def test_grid_without_grid(self, tmp_path, capsys, doc):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        self.assert_config_error(capsys, ["hae-check", str(path)])

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


class TestHodgeReportCommand:
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
