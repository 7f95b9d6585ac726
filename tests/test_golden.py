"""Byte identity of the run artifacts on a small config.

``periods.json`` and ``instantons.json`` are exact and must not change a
byte under a refactor; ``hodge.json`` prints 40 digits of values computed
at a fixed precision and is pinned the same way.  The digests below were
recorded for the shipped quintic and sextic families at truncation order
12, two Hodge samples, Hodge order 48 and 128 bits, and ``SHIPPED`` pins
the shipped configs as they are (order 83 at 256 bits), and
``RADIUS_08_HODGE`` their ``hodge-report --radius-fraction 0.8``, which
solves to order 223, ``HODGE_AT_PRECISION`` their ``hodge-report
--precision-bits`` 64 and 2048, and ``PARTIAL_LAYOUTS`` ``hodge-report
--samples K`` on counts that leave a circle or a conjugate pair partial.
A change that moves one of them changes the program's output and has to
say so.

One ``hodge.json`` key is rounding residue, not a value: Q is
antisymmetric, so i Q(Omega, Omega) vanishes identically and
``self_pairing_abs`` prints whatever the period kernel's rounding leaves
of it.  Any change to how the periods are summed moves that key, and
with it the ``hodge.json`` digests, while every other printed digit
stays put.

The grid path is pinned the same way on the seed-7 10 x 10 grid of the
benchmark's generator (``perfbench/grids.py``, loaded read-only): the
bytes of ``genus2.json`` as ``workbench genus2 --out`` writes them, the
exact binary parts of the ``hae_residual(g=2)`` and
``ehae_residual(1, 1)`` fields, and the exact binary ``max_abs`` and
``mean_abs`` of those two reports and of ``genus2_integrate``'s.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cyworkbench.anomaly import (AnomalyGrid, PropagatorSpec, ehae_residual,
                                 genus2_integrate, hae_residual)
from cyworkbench.cli import main
from cyworkbench.pipeline import WorkbenchConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GRIDS = ROOT / "perfbench" / "grids.py"

GOLDEN = {
    "quintic": {
        "periods.json": "dbf254351222ca7930337f40dc51c163"
                        "aa8674f1e21bc1b6e194d3c26aba1fe9",
        "instantons.json": "0cc7d7433d096faa051a6c0e42e2d36b"
                           "20b01f4607ec6507c3498ae7f8808957",
        "hodge.json": "767cca449d6e7f7387b7320d60bf5ae0"
                      "1c9a8ef14c9b0605d6c75038a9b5233c",
    },
    "sextic": {
        "periods.json": "0b0de1f60be1de78a6b0c1e2fdc62b77"
                        "8779ae221527cd5ebb991468a684370d",
        "instantons.json": "7f535e307fa0e6faca1da7a6b3e68a04"
                           "763aa20f907fee6656198a36de095afc",
        "hodge.json": "9cff21bb93a8a6764e4d6665ca24d89f"
                      "4fd217ef454c0a527528848891b92595",
    },
}


def run_digests(doc, out, names):
    """sha256 of the named artifacts of one pipeline run on doc."""
    run_pipeline(WorkbenchConfig.from_json(doc), out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_artifact_digests(tmp_path, family):
    doc = json.loads((CONFIGS / f"{family}.json").read_text())
    doc.update(truncation_order=12, precision_bits=128, hodge_order=48)
    doc["samples"]["count"] = 2
    assert run_digests(doc, tmp_path, GOLDEN[family]) == GOLDEN[family]


# the shipped configs as they are: truncation order 20, 24 Hodge samples
# at the default Hodge order (83) and 256 bits
SHIPPED = {
    "quintic": {
        "periods.json": "ee9f6ea444d7d317e98c829d3ebac40c"
                        "5b92829d15bb9bde64a9287e0524ce76",
        "instantons.json": "7d4935a198b54d47b9637c0a0deae651"
                           "238551459c6434ad52b2049893d3fabb",
        "hodge.json": "8fe29f48144d22eeb420b91c97ac5ad6"
                      "5a83088a44cb66f988242149149594f8",
    },
    "sextic": {
        "periods.json": "7c84ecda84f7fb15c1d70c28cbf5da38"
                        "7475ec20c55675298be605ff407e051c",
        "instantons.json": "a1743ca7d15e18c59c3fb6819f7e8e47"
                           "8786bec0ad18f41b1aba0c208c61055a",
        "hodge.json": "48f0f36aee364c168ea551226d91efc9"
                      "a07164592e31bc4bf0ae61ea1f517d67",
    },
}


@pytest.mark.parametrize("family", sorted(SHIPPED))
def test_shipped_config_digests(tmp_path, family):
    doc = json.loads((CONFIGS / f"{family}.json").read_text())
    assert run_digests(doc, tmp_path, SHIPPED[family]) == SHIPPED[family]


# hodge-report --radius-fraction 0.8 on the shipped configs: Hodge order
# 223, so the solve is pinned well past the default order 83
RADIUS_08_HODGE = {
    "quintic": "e440d5a9b9e8a028f95ece6b2b528a59"
               "4acf83638216faf9e8f3ab4570815974",
    "sextic": "a0d2bce7fe798052afbe33c7039ac18f"
              "7e74cbb6c856e60962c487dc3bf311dc",
}


@pytest.mark.parametrize("family", sorted(RADIUS_08_HODGE))
def test_radius_08_hodge_digest(tmp_path, capsys, family):
    assert main(["hodge-report", str(CONFIGS / f"{family}.json"),
                 "--radius-fraction", "0.8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = (tmp_path / "hodge.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == RADIUS_08_HODGE[family]


# hodge-report --precision-bits P on the shipped configs, so the kernel's
# roundings are pinned below and far above the shipped 256 bits
HODGE_AT_PRECISION = {
    ("quintic", 64): "baf1720844e8e261ba7c0c1ba88f7fa9"
                     "a5a785a9290af4e2bbe5000e63e63887",
    ("quintic", 2048): "2dd18d8e40f98800e572a902a2ca244c"
                       "13031a502ab00bce719dce76b5234006",
    ("sextic", 64): "957181ad50a1a8321f7405475f3464f1"
                    "79cc3583d4b744694ec81f52ca70e822",
    ("sextic", 2048): "f17e2c3956733b6a17ab6a25ef6a03c2"
                      "d8f17e68505347f1aca1ccef569ed2f0",
}


@pytest.mark.parametrize("family, bits", sorted(HODGE_AT_PRECISION))
def test_hodge_digest_at_precision(tmp_path, capsys, family, bits):
    assert main(["hodge-report", str(CONFIGS / f"{family}.json"),
                 "--precision-bits", str(bits), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = (tmp_path / "hodge.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() \
        == HODGE_AT_PRECISION[family, bits]


# hodge-report --samples K on partial layouts: the quintic's four samples
# leave the 1.8 one without its -1.8 partner, and the sextic's 11 (second
# circle) and x10's 5 (one circle) stop short of the 2.6 sample
PARTIAL_LAYOUTS = {
    ("quintic", 4): "380ddefb171cb7d41c499baa24d2ac43"
                    "f4abc589e5d5a24a60db0e50e164589b",
    ("sextic", 11): "59b8893af82c72b0f7b20f60d6bd3e76"
                    "b58f22f0c80a0e1db13921dc26a90149",
    ("x10", 5): "f96ac6cbcc327720d210e4d205bdda35"
                "cc867d3367e4ef01d86c319fd012c61e",
}


@pytest.mark.parametrize("family, samples", sorted(PARTIAL_LAYOUTS))
def test_partial_layout_hodge_digest(tmp_path, capsys, family, samples):
    assert main(["hodge-report", str(CONFIGS / f"{family}.json"),
                 "--samples", str(samples), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = (tmp_path / "hodge.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() \
        == PARTIAL_LAYOUTS[family, samples]


GENUS2_SHA256 = ("97675b65c2fa0e3575e2bb188a966acc"
                 "7d1a2c40b7098c47c7f30e9ffe25171b")
RESIDUALS_SHA256 = ("ab45aba328f1141637845deca4a076d2"
                    "704af9e38f30ea339c0a53bcaa0bfcbb")
# (sign, man, exp, bc) of max_abs and mean_abs: the two checks report at
# the caller's 53 bits, genus2_integrate at the grid's 256 + 24
RESIDUAL_NORMS = {
    "hae": ((0, 4531988439199695, -165, 53),
            (0, 4989179388608677, -166, 53)),
    "ehae": ((0, 4288000412102133, -164, 52),
             (0, 6997797670275345, -165, 53)),
    "genus2": ((0, int("11837189570545422158519914861368798423879662"
                       "09692040650942944237888236800166869360441"),
                -397, 280),
               (0, int("10011048146744563932751308031382798536886082"
                       "56277150209995482218535064656867635987391"),
                -397, 280)),
}


def seed7_grid_texts():
    spec = importlib.util.spec_from_file_location("_perfbench_grids", GRIDS)
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    return grids.make_grid_texts(7, 10, 10)


def residual_digest(*fields):
    """sha256 of the exact (sign, man, exp, bc) parts of every entry."""
    parts = [[[None if v is None else
               tuple((s, int(m), e, b) for s, m, e, b in v._mpc_)
               for v in row] for row in f.values] for f in fields]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_grid_digests(tmp_path, capsys):
    grid_text, prop_text = seed7_grid_texts()
    (tmp_path / "grid.json").write_text(grid_text)
    (tmp_path / "prop.json").write_text(prop_text)
    assert main(["genus2", str(tmp_path / "grid.json"), "--propagator",
                 str(tmp_path / "prop.json"), "--out",
                 str(tmp_path / "out")]) == 0
    capsys.readouterr()
    written = (tmp_path / "out" / "genus2.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == GENUS2_SHA256
    grid = AnomalyGrid.from_json(json.loads(grid_text))
    assert residual_digest(hae_residual(grid, 2).residual,
                           ehae_residual(grid, 1, 1).residual) \
        == RESIDUALS_SHA256


def test_residual_norms():
    grid_text, prop_text = seed7_grid_texts()
    grid = AnomalyGrid.from_json(json.loads(grid_text))
    prop = PropagatorSpec.from_json(json.loads(prop_text))
    reports = {"hae": hae_residual(grid, 2),
               "ehae": ehae_residual(grid, 1, 1),
               "genus2": genus2_integrate(grid, prop)[1]}
    assert {name: (rep.max_abs._mpf_, rep.mean_abs._mpf_)
            for name, rep in reports.items()} == RESIDUAL_NORMS
