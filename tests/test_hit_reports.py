"""Hit reports are pinned, and queries on one target set share a closure.

``iptree eval --hit-time`` / ``--hit-prob`` reports, with and without
``--at``, are pinned by sha256 on the coin, the slow chain and seeded random
Markov and table models (some extreme points put no mass on a state, so
traps, infinite hitting times and zero probabilities occur), as
``test_batching.BATTERY_REPORTS`` pins the batteries: a change to the exact
hit path must keep every report bitwise.

The hitting automata of one request's queries on the same targets share
one frozen ``step`` array, so the product closure walked for the first is
the closure the second reads: ``tree.product_closure`` runs once per target
set and conditioning situation, and each record equals the same query run
in a request of its own.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import iptree.cli
import iptree.tree

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("A", "B", "C", "D")


def _points(rng, k: int, count: int) -> list:
    """``count`` extreme points with masses proportional to integers in
    0..4, rounded to 6 decimals; some put no mass on a state."""
    rows = []
    while len(rows) < count:
        w = rng.integers(0, 5, size=k).astype(float)
        if w.sum() == 0:
            continue
        p = np.round(w / w.sum(), 6)
        p[p.argmax()] += 1.0 - p.sum()
        rows.append([float(x) for x in p])
    return rows


def _markov(seed: int, k: int) -> dict:
    rng = np.random.default_rng(seed)
    labels = list(LABELS[:k])
    return {
        "schema": 1,
        "states": labels,
        "model": {
            "kind": "markov",
            "root": _points(rng, k, 2),
            "by_state": {label: _points(rng, k, int(rng.integers(1, 4))) for label in labels},
        },
    }


def _table(seed: int, k: int, depth: int) -> dict:
    rng = np.random.default_rng(seed)
    labels = list(LABELS[:k])
    keys, level = [""], [""]
    for m in range(depth):
        level = [f"{p},{y}" if m else y for p in level for y in labels]
        keys += level
    return {
        "schema": 1,
        "states": labels,
        "model": {
            "kind": "table",
            "depth": depth,
            "default": _points(rng, k, 2),
            "entries": {key: _points(rng, k, int(rng.integers(1, 4))) for key in keys},
        },
    }


MODELS = {
    "coin": json.loads((ROOT / "demos/data/imprecise_coin.json").read_text()),
    "slow": {
        "schema": 1,
        "states": ["H", "T"],
        "model": {"kind": "homogeneous", "extreme_points": [[0.99, 0.01], [0.97, 0.03]]},
    },
    "markov2": _markov(2, 2),
    "markov3": _markov(3, 3),
    "markov4": _markov(4, 4),
    "table2d2": _table(22, 2, 2),
    "table2d3": _table(23, 2, 3),
    "table3d2": _table(32, 3, 2),
}


def _target_sets(labels) -> list:
    return [*labels, ",".join(labels[:2])] if len(labels) > 2 else list(labels)


def _situations(labels) -> list:
    """The inline ``--at`` values pinned: none, one state, two states."""
    return [None, labels[-1], f"{labels[0]},{labels[0]}"]


def _argvs(labels, at) -> list:
    """Every pinned inline query list at one ``--at``: each target set
    alone under each kind and under both, and two different sets."""
    where = [] if at is None else ["--at", at]
    targets = _target_sets(labels)
    argvs = []
    for t in targets:
        argvs += [["--hit-time", t], ["--hit-prob", t], ["--hit-time", t, "--hit-prob", t]]
    argvs.append(["--hit-time", targets[0], "--hit-prob", targets[-1]])
    return [argv + where for argv in argvs]


def eval_report(model: dict, tmp_path, *flags: str) -> str:
    """``iptree eval --model model.json flags`` run in ``tmp_path``, without
    IPTREE_* settings; returns the report it prints."""
    (tmp_path / "model.json").write_text(json.dumps(model))
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    out = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), contextlib.chdir(tmp_path), contextlib.redirect_stdout(out):
        assert iptree.cli.main(["eval", "--model", "model.json", *flags]) == 0
    return out.getvalue()


#: sha256 over the reports of every :func:`_argvs` query list, in order, per
#: (model, ``--at``), as the exact hit path wrote them before the closure,
#: trail and solve were made cheaper per call.
HIT_REPORTS = {
    ('coin', None): "92a29dd8be66f0c7375c9e0fc7d2e3f3aa1637f3c7b9cd451412c247d0232ae6",
    ('coin', 'T'): "fa387e0c777a411c96d1ceed695af45900309919bcdda29e26101e96433350f2",
    ('coin', 'H,H'): "5942386016aa3c35873c0f1ee9e92c56822d9cc8d7b5170b44758de0ffd0c3ce",
    ('slow', None): "0b63310f01e7897cee230e5943adb8e9f67b7aaad7537107caf63c60ecf99c24",
    ('slow', 'T'): "20be41cc0890c52b1aa72ecc21e61827e9ce35b993a6c9ed1303670eaed76910",
    ('slow', 'H,H'): "43509f61766419d5a917446b1a5b137ad0dc1a5e8abcd82d54c84fa0bb771fef",
    ('markov2', None): "5545586157804bea8752b593fd9c1ecccacd5088b74f06d46029780be23ece35",
    ('markov2', 'B'): "0e1716d68d6b326e39d4359c33911e03065bd09d24731e85cf25ed245314cdbd",
    ('markov2', 'A,A'): "7ed48db5f68be4d0e6f2793d265807b9f19ab528cc54524ab960745d63a53153",
    ('markov3', None): "eb3f0de09a1b5334c55738f417c3709edde4c2df86a43608b5f8dff6d0bf4bad",
    ('markov3', 'C'): "1a1faa1a4f02595061d88dec995cf930774cb62b0a4a1d118ca308c3d13b2dc4",
    ('markov3', 'A,A'): "4baf78b6bf84f36fa481bbc15e9fc442f2345f66cd1938db8bd9fe76626b8717",
    ('markov4', None): "7fe0ed2a901981d2196ad427da35962bbc5ead594c1c4f1fbca23d870152ed9a",
    ('markov4', 'D'): "595d68377b57bc5b9318223536c44a17391eebd0f28b7b5da03866fb6d5d8e16",
    ('markov4', 'A,A'): "e3c12d33053bce1511419685cd54cab7d016cc3a2376c8915a17da81dfc64afc",
    ('table2d2', None): "46b63240240b4e0a9baed44cc3f87bf5e1521ae01064a8c34de8de79783596f5",
    ('table2d2', 'B'): "131c750bfa9e88e43340e79e5a585de7d8ecdbbc1afa94c141c61e1bd6bc5cff",
    ('table2d2', 'A,A'): "6014e74a6f0dbad6705ca81736c9c1f90af421a25043e95bc18c7a4d65271190",
    ('table2d3', None): "0d4d563dec378a26023f1d6933bc7d0f538835e2d226b58f5adcbf44b9906d95",
    ('table2d3', 'B'): "0c887f57ccce7ce5c5e37e6f84cd8b6bba7a37ddf7b0cbf673bc81d0d7bceda2",
    ('table2d3', 'A,A'): "1b1c9682bd3e235cf4960bf9e411ab509647d2ab59fae9ebc0dc5d58e2a77d02",
    ('table3d2', None): "4181ea60b91a1e5230dc0855ab4a128259f59a9df243e7d24ab57346b8a81308",
    ('table3d2', 'C'): "2f68e72647f129ab12456ecad17cbbabc41858b65dedc7e8fd01ff14a5c23c37",
    ('table3d2', 'A,A'): "362e4f8a9235eebd2d296aea7243967f12afcf1469e178dc15198dda87e7438d",
}


def _case_ids():
    return [(name, at) for name, doc in MODELS.items() for at in _situations(doc["states"])]


@pytest.mark.parametrize("name, at", _case_ids())
def test_hit_reports_are_pinned(name, at, tmp_path):
    labels = MODELS[name]["states"]
    digest = hashlib.sha256()
    for argv in _argvs(labels, at):
        digest.update(eval_report(MODELS[name], tmp_path, *argv).encode())
    assert digest.hexdigest() == HIT_REPORTS[name, at]


def _walked(model: dict, tmp_path, monkeypatch, *flags: str):
    """The report of ``iptree eval`` with ``flags`` and how many product
    closures it walked."""
    walks = []
    real = iptree.tree.product_closure
    monkeypatch.setattr(iptree.tree, "product_closure", lambda *args: walks.append(1) or real(*args))
    report = json.loads(eval_report(model, tmp_path, *flags))
    monkeypatch.setattr(iptree.tree, "product_closure", real)
    return report, len(walks)


@pytest.mark.parametrize("name, at", [("coin", "H"), ("coin", None), ("markov3", "A"), ("table2d3", "A,B")])
def test_queries_on_one_target_set_share_one_closure(name, at, tmp_path, monkeypatch):
    model, target = MODELS[name], MODELS[name]["states"][-1]
    where = [] if at is None else ["--at", at]
    report, walks = _walked(model, tmp_path, monkeypatch, "--hit-time", target, "--hit-prob", target, *where)
    assert walks == 1
    alone = [_walked(model, tmp_path, monkeypatch, flag, target, *where) for flag in ("--hit-time", "--hit-prob")]
    assert [walks for _, walks in alone] == [1, 1]
    assert report["results"] == [solo["results"][0] for solo, _ in alone]


def test_different_target_sets_walk_their_own_closures(tmp_path, monkeypatch):
    model = MODELS["markov3"]
    report, walks = _walked(model, tmp_path, monkeypatch, "--hit-time", "A", "--hit-prob", "B", "--at", "C")
    assert walks == 2
    alone = [_walked(model, tmp_path, monkeypatch, flag, target, "--at", "C") for flag, target in (("--hit-time", "A"), ("--hit-prob", "B"))]
    assert report["results"] == [solo["results"][0] for solo, _ in alone]
