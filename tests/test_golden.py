"""The golden-trace corpus: every stored config replays to its stored outputs.

``tests/golden/make.py`` wrote one directory per config: the config text,
its ``serialize_config`` output, the trace CSVs and ``report.json`` of
``execute_run``, and for configs at oracle scale the ``blocksweep oracle``
output.  On the Python minor and numpy major.minor versions in
``PROVENANCE.json`` every file must match byte for byte.  Elsewhere the
``n``, mask and termination fields must match exactly and the floats within
1e-12 relative (1e-12 absolute near zero, where a residual or a distance
to the reference ends); the oracle, a fixed point iteration stopped at a
step of 1e-12, within 1e-9.
"""

import csv
import json
import math
import os

import pytest

from golden import make

CASES = sorted(os.listdir(make.CASES_DIR))
with open(make.PROVENANCE) as fh:
    EXACT = json.load(fh) == make.provenance()
FLOAT_COLUMNS = ("residual", "dist_to_ref", "lambda", "gamma", "objective")
# written by the generator beside what a run writes
STORED_ONLY = ("serialized.yaml", "status.json", "oracle.json")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _close(a, b, tol):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
    return a == b


def _same_tree(got, want, tol):
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same_tree(got[k], want[k], tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_tree(g, w, tol) for g, w in zip(got, want)))
    return _close(got, want, tol)


def _same_trace(got, want):
    got_rows = list(csv.DictReader(got.splitlines()))
    want_rows = list(csv.DictReader(want.splitlines()))
    if got.splitlines()[:1] != want.splitlines()[:1]:
        return False
    if len(got_rows) != len(want_rows):
        return False
    for g, w in zip(got_rows, want_rows):
        if (g["n"], g["active_mask"]) != (w["n"], w["active_mask"]):
            return False
        for col in FLOAT_COLUMNS:
            if (g[col] == "") != (w[col] == ""):
                return False
            if w[col] and not _close(float(g[col]), float(w[col]), 1e-12):
                return False
    return True


def _same(name, got, want):
    """``got`` matches the stored ``want`` of the file ``name``."""
    if EXACT or name.endswith(".yaml") or not want:
        return got == want
    if name.endswith(".csv"):
        return _same_trace(got, want)
    tol = 1e-9 if name == "oracle.json" else 1e-12
    return _same_tree(json.loads(got), json.loads(want), tol)


@pytest.mark.parametrize("name", CASES)
def test_a_golden_config_replays_its_stored_outputs(tmp_path, name):
    case = os.path.join(make.CASES_DIR, name)
    status = json.loads(_read(os.path.join(case, "status.json")))
    got = make.outputs(_read(os.path.join(case, "config.yaml")),
                       str(tmp_path), "oracle_exit" in status)
    assert got["serialized"] == _read(os.path.join(case, "serialized.yaml"))

    assert got["status"]["run_exit"] == status["run_exit"]
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(set(os.listdir(case)) - set(STORED_ONLY))
    for file in written:
        assert _same(file, _read(tmp_path / file),
                     _read(os.path.join(case, file))), file

    if "oracle_exit" in status:
        oracle = got["status"]["oracle"]
        assert oracle["exit"] == status["oracle_exit"]
        assert oracle["stderr"] == status.get("oracle_stderr", "")
        stored = os.path.join(case, "oracle.json")
        want = _read(stored) if os.path.exists(stored) else ""
        assert _same("oracle.json", oracle["stdout"], want)


def test_the_corpus_covers_every_kind_scheme_slot_and_ending():
    kinds, schemes, slots, seeds, endings = set(), set(), set(), set(), set()
    for name in CASES:
        case = os.path.join(make.CASES_DIR, name)
        doc = make.yaml.safe_load(_read(os.path.join(case, "serialized.yaml")))
        kinds.add(doc["problem"]["kind"])
        schemes.add(doc["sweeping"]["scheme"])
        slots.update(doc.get("errors", {}))
        seeds.update(doc["seeds"])
        report = json.loads(_read(os.path.join(case, "report.json")))
        endings.update(e["termination"] for e in report["per_seed"].values())
    assert len(kinds) == 7 and len(schemes) == 3
    assert slots == {"a", "b", "c", "d"}
    assert {0, 2**32 - 1} <= seeds
    assert endings == {"tolerance", "max_iterations", "diverged"}
    assert len(CASES) >= 60


# the float fallback, run on the stored files with EXACT forced off; a move
# of ``rel`` is relative above 1 and absolute below, where the fallback's
# absolute tolerance takes over
def _moved(value, rel):
    return value + rel * max(abs(value), 1.0)


def _move_trace(text, rel):
    """``text`` with its largest finite float field moved by ``rel``."""
    rows = [line.split(",") for line in text.splitlines()]
    cols = [rows[0].index(c) for c in FLOAT_COLUMNS]
    j, c = max(((j, c) for j in range(1, len(rows)) for c in cols
                if rows[j][c] and math.isfinite(float(rows[j][c]))),
               key=lambda jc: abs(float(rows[jc[0]][jc[1]])))
    rows[j][c] = repr(_moved(float(rows[j][c]), rel))
    return "\n".join(",".join(row) for row in rows) + "\n"


def _floats(tree, path=()):
    """``(|v|, path)`` of every finite float in a JSON tree."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from _floats(value, path + (key,))
    elif isinstance(tree, float) and math.isfinite(tree):
        yield abs(tree), path


def _move_json(text, rel):
    """``text`` with its largest finite float moved by ``rel``."""
    tree = json.loads(text)
    _, path = max(_floats(tree))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _moved(node[path[-1]], rel)
    return json.dumps(tree, indent=2)


def _flip_mask_bit(text):
    """``text`` with the first activation bit of its first row flipped."""
    lines = text.splitlines()
    row = lines[1].split(",")
    col = lines[0].split(",").index("active_mask")
    row[col] = ("1" if row[col][:1] == "0" else "0") + row[col][1:]
    return "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_the_float_fallback_takes_rounding_and_rejects_real_moves(
        monkeypatch, name):
    monkeypatch.setitem(globals(), "EXACT", False)
    case = os.path.join(make.CASES_DIR, name)
    for file in sorted(os.listdir(case)):
        want = _read(os.path.join(case, file))
        if not file.endswith((".csv", ".json")) or file == "status.json":
            continue
        move = _move_trace if file.endswith(".csv") else _move_json
        # a real move: 100 times the file's tolerance
        far = 1e-7 if file == "oracle.json" else 1e-10
        assert _same(file, want, want), file
        if file.endswith(".csv") and len(want.splitlines()) < 2:
            continue  # a run that diverged before its first record
        assert _same(file, move(want, 1e-14), want), file
        assert not _same(file, move(want, far), want), file
        if file.endswith(".csv"):
            assert not _same(file, _flip_mask_bit(want), want), file
