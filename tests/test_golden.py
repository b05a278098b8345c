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
