"""Reader fuzz: a damaged input document parses or fails one-line.

Each example takes the shipped quintic config, or a seeded grid or
propagator, picks one place in it (the whole document, a key or a list
entry) and drops it, resizes it, or replaces it with a hostile value.
The readers must then either return or raise a ``WorkbenchError``, which
the CLI prints as one line; any other exception would be a traceback.
Only parsing runs, so the property stays fast.
"""

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import cyworkbench as cw

from conftest import CONFIGS

HOSTILE = [None, "nan", "inf", "abc", -1, 0, [], {}]
MUTATIONS = [("drop", None), ("resize", None)] + [("set", v) for v in HOSTILE]


def seeded_grid_and_propagator(seed=11, size=4):
    rng = random.Random(seed)
    with mp.workprec(64):
        nodes = [mp.mpf(k) / 100 for k in range(1, size + 1)]

        def table():
            return [[mp.mpc(rng.randint(-99, 99), rng.randint(-99, 99)) / 64
                     for _ in nodes] for _ in nodes]

        grid = cw.AnomalyGrid(nodes, nodes, {name: table() for name in
                                             ("G", "K", "F1", "C")}, 64)
    doc = grid.to_json()
    return doc, {"prec_bits": 64, "S": doc["fields"]["C"]}


def paths(doc, prefix=()):
    """The path of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, mutation):
    kind, value = mutation
    doc = copy.deepcopy(doc)
    if not path:
        return [doc] if kind != "set" else copy.deepcopy(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "resize":  # a list one longer or one shorter
        target = parent[key]
        parent[key] = (target[:-1] if isinstance(target, list) and target
                       else [target, target])
    else:
        parent[key] = copy.deepcopy(value)
    return doc


GRID, PROPAGATOR = seeded_grid_and_propagator()
READERS = {
    "config": (cw.WorkbenchConfig.from_json,
               json.loads((CONFIGS / "quintic.json").read_text())),
    "grid": (cw.AnomalyGrid.from_json, GRID),
    "propagator": (cw.PropagatorSpec.from_json, PROPAGATOR),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_reader_returns_or_raises_workbench_error(name, data):
    reader, doc = READERS[name]
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    try:
        reader(mutated(doc, path, mutation))
    except cw.WorkbenchError:
        pass
