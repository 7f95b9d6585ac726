"""Byte identity of the run artifacts on a small config.

``periods.json`` and ``instantons.json`` are exact and must not change a
byte under a refactor; ``hodge.json`` prints 40 digits of values computed
at a fixed precision and is pinned the same way.  The digests below were
recorded for the shipped quintic and sextic families at truncation order
12, two Hodge samples, Hodge order 48 and 128 bits.  A change that moves
one of them changes the program's output and has to say so.

One ``hodge.json`` key is rounding residue, not a value: Q is
antisymmetric, so i Q(Omega, Omega) vanishes identically and
``self_pairing_abs`` prints whatever the period kernel's rounding leaves
of it.  Any change to how the periods are summed moves that key, and
with it the ``hodge.json`` digests, while every other printed digit
stays put.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cyworkbench.pipeline import WorkbenchConfig, run_pipeline

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_artifact_digests(tmp_path, family):
    doc = json.loads((CONFIGS / f"{family}.json").read_text())
    doc.update(truncation_order=12, precision_bits=128, hodge_order=48)
    doc["samples"]["count"] = 2
    run_pipeline(WorkbenchConfig.from_json(doc), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[family]}
    assert digests == GOLDEN[family]
