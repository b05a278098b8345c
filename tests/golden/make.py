"""Write the golden-trace corpus that ``tests/test_golden.py`` replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make.py

Every case of ``CASES`` becomes a directory under ``tests/golden/cases``
holding:

- ``config.yaml``: the config text a run reads;
- ``serialized.yaml``: its ``serialize_config`` output;
- ``trace_seed<N>.csv`` and ``report.json``: what ``execute_run`` writes;
- ``oracle.json``: what ``blocksweep oracle`` prints, for configs of at most
  200 entries (the oracle's own limit);
- ``status.json``: the exit status of the run and of the oracle, and the
  oracle's error line when it fails.

``PROVENANCE.json`` records the Python minor version and the numpy
major.minor version the corpus was written with; the replay compares bytes
only where both match.  Regenerate the corpus only for a change that is
meant to alter these outputs, and say why where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys

import numpy as np
import yaml

from blocksweep.cli import execute_run, main, parse_config, serialize_config
from blocksweep.diagnostics import _ORACLE_DIM_LIMIT

HERE = os.path.dirname(os.path.abspath(__file__))
CASES_DIR = os.path.join(HERE, "cases")
PROVENANCE = os.path.join(HERE, "PROVENANCE.json")
TOP_SEED = 2**32 - 1


def provenance() -> dict:
    """The interpreter and numpy versions whose floats the corpus pins."""
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": ".".join(np.__version__.split(".")[:2])}


# ---------------------------------------------------------------------------
# the configs: three blocks of dims [1, 2, 1], two image rows of dims [1, 2]
# ---------------------------------------------------------------------------

DIMS = [1, 2, 1]
GRID = [
    [[[1.0]], [[0.5, -0.5]], [[0.25]]],
    [[[0.5], [0.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0]]],
]
SMOOTH = [{"kind": "sq_l2", "center": [1.0], "weight": 1.0},
          {"kind": "sq_l2", "center": [0.5, -0.5], "weight": 2.0}]
MIXED_SMOOTH = [{"kind": "sq_l2", "center": [1.0]},
                {"kind": "quadratic", "matrix": [[2.0, 0.0], [0.0, 1.0]],
                 "offset": [0.5, -0.5]}]
FUNCTIONS = [{"kind": "l1", "dim": 1, "weight": 0.5},
             {"kind": "sq_l2", "center": [1.0, -1.0], "weight": 1.5},
             {"kind": "indicator_box", "lo": [-2.0], "hi": [0.5]}]
OTHER_FUNCTIONS = [{"kind": "indicator_ball", "center": [0.5], "radius": 1.0},
                   {"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]],
                    "offset": [-1.0, 0.5]},
                   {"kind": "zero", "dim": 1}]
MONOTONES = [{"kind": "l1", "dim": 1, "weight": 0.25},
             {"kind": "linear_monotone", "matrix": [[1.0, 1.0], [-1.0, 1.0]],
              "offset": [0.5, 0.0]},
             {"kind": "normal_cone_box", "lo": [-1.0], "hi": [1.0]}]
LINEAR_COUPLING = {"type": "linear",
                   "matrix": [[1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
                   "offset": [-1.0, 0.0, 0.5, 1.0]}
SEPARABLE_COUPLING = {"type": "separable",
                      "blocks": [{"kind": "sq_l2", "center": [1.0]},
                                 {"kind": "linear_monotone",
                                  "matrix": [[1.0, 1.0], [-1.0, 1.0]]},
                                 {"kind": "normal_cone_box", "lo": [-1.0],
                                  "hi": [1.0]}]}
LINEAR_FORWARD = {"type": "linear",
                  "matrix": [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                  "offset": [1.0, -1.0, 0.0, 0.5]}
FORWARD_STEP = {"type": "forward_step", "smooth": SMOOTH, "grid": GRID,
                "stepsize": 0.1}

PROBLEMS = {
    "km": {"kind": "km", "dims": DIMS,
           "operator": {"type": "prox", "functions": FUNCTIONS, "gamma": 1.0}},
    "averaged": {"kind": "averaged", "dims": DIMS,
                 "operator": {"type": "prox", "functions": OTHER_FUNCTIONS,
                              "gamma": 0.5}},
    "double_layer": {"kind": "double_layer", "dims": DIMS,
                     "outer": {"type": "prox", "functions": FUNCTIONS},
                     "inner": FORWARD_STEP},
    "dr": {"kind": "dr", "dims": DIMS, "blocks": MONOTONES,
           "coupling": LINEAR_COUPLING},
    "pd_dr": {"kind": "pd_dr", "dims": DIMS, "functions": FUNCTIONS,
              "duals": [{"kind": "sq_l2", "center": [1.0]},
                        {"kind": "indicator_box", "lo": [-1.0, -1.0],
                         "hi": [1.0, 1.0]}],
              "grid": GRID},
    "fb": {"kind": "fb", "dims": DIMS, "blocks": MONOTONES,
           "forward": LINEAR_FORWARD},
    "fb_min": {"kind": "fb_min", "dims": DIMS, "functions": FUNCTIONS,
               "smooth": MIXED_SMOOTH, "grid": GRID},
}

SOLVERS = {
    "km": {"relaxation": 0.5},
    "averaged": {"relaxation": {"start": 0.9, "end": 0.5, "ramp": 10}},
    "double_layer": {"relaxation": 0.8},
    "dr": {"gamma": 0.8, "dr_relaxation": 1.0},
    "pd_dr": {"gamma": 1.0, "dr_relaxation": {"start": 1.5, "end": 1.0,
                                             "ramp": 8}},
    "fb": {"relaxation": 0.9, "stepsize": 0.5},
    "fb_min": {"relaxation": 0.7, "stepsize": {"start": 0.2, "end": 0.3,
                                              "ramp": 6}},
}



def _scheme(name: str, m: int) -> dict:
    """Sweeping ``name`` over ``m`` mask blocks (``m + p`` for ``pd_dr``)."""
    if name == "single":
        return {"scheme": "single_block",
                "weights": [1.0 + i % 2 for i in range(m)]}
    if name == "bernoulli":
        return {"scheme": "independent_bernoulli",
                "probabilities": [(0.5, 0.7, 0.3)[i % 3] for i in range(m)]}
    return {"scheme": "fixed_subset_size", "size": 2}


SCHEMES = ("single", "bernoulli", "subset")
GAUSSIAN = {"kind": "gaussian_decay", "scale": 0.1, "decay": 0.8}
DETERMINISTIC = {"kind": "deterministic_decay", "scale": 0.05, "decay": 0.5}
NO_ERROR = {"kind": "none"}
SLOTS = {"km": "a", "averaged": "a", "double_layer": "ab", "dr": "ab",
         "pd_dr": "abcd", "fb": "ac", "fb_min": "ac"}


def _doc(kind, scheme="single", iterations=25, seeds=(0,), **sections):
    doc = {"problem": PROBLEMS[kind],
           "solver": dict(SOLVERS[kind], max_iterations=iterations,
                          tolerance=1e-6, snapshot_stride=5),
           "sweeping": _scheme(scheme, 5 if kind == "pd_dr" else 3),
           "seeds": list(seeds)}
    doc.update(sections)
    return doc


def _km(operator, **sections):
    doc = _doc("km", **sections)
    doc["problem"] = {"kind": "km", "dims": DIMS, "operator": operator}
    return doc


def _with(doc, **solver):
    doc["solver"] = dict(doc["solver"], **solver)
    return doc


def _wide(m=1000, iterations=50) -> dict:
    """``fb_min`` over ``m`` one-entry blocks, at 50 iterations."""
    return {"problem": {
                "kind": "fb_min", "dims": [1] * m,
                "functions": [
                    {"kind": "sq_l2", "center": [0.25 * (i % 7) - 0.75]}
                    if i % 2 else {"kind": "l1", "dim": 1, "weight": 0.1}
                    for i in range(m)],
                "smooth": [{"kind": "sq_l2", "center": [1.0]},
                           {"kind": "sq_l2", "center": [-0.5]}],
                "grid": [[[[1.0 / m]]] * m,
                         [[[0.01 if i % 2 else -0.01]] for i in range(m)]]},
            "solver": {"relaxation": 0.9, "stepsize": 1.0,
                       "max_iterations": iterations, "tolerance": 1e-12,
                       "snapshot_stride": 10},
            "sweeping": {"scheme": "single_block"},
            "seeds": [3]}


# the README's example, verbatim: errors, a reference and output.directory
README_EXAMPLE = """\
problem:
  kind: dr                 # km | averaged | double_layer | dr | pd_dr | fb | fb_min
  dims: [1]
  blocks:
    - {kind: l1, dim: 1}
  coupling: {type: linear, matrix: [[1.0]], offset: [-2.0]}
solver: {gamma: 1.0, dr_relaxation: 1.0, tolerance: 1.0e-9}
sweeping: {scheme: single_block}
errors:
  a: {kind: gaussian_decay, scale: 0.1, decay: 0.9}
seeds: [0, 1, 2, 3, 4]
initial: {x0: [[4.0]]}
reference: [[1.0]]
output: {directory: out}
"""

THREE_I = {"type": "affine", "regularity": "nonexpansive",
           "matrix": [[3.0 if i == j else 0.0 for j in range(4)]
                      for i in range(4)]}


def _cases() -> dict:
    cases: dict = {}
    # every kind under every scheme, at seeds 0 and 2**32 - 1
    for kind in PROBLEMS:
        for scheme in SCHEMES:
            cases[f"{kind}_{scheme}"] = _doc(kind, scheme,
                                             seeds=(0, TOP_SEED))
    # every error slot of every driver, one at a time, then all at once
    for kind, slots in SLOTS.items():
        for slot in slots:
            cases[f"{kind}_error_{slot}"] = _doc(kind, "bernoulli", seeds=(1,),
                                                 errors={slot: GAUSSIAN})
        if len(slots) > 1:
            cases[f"{kind}_error_all"] = _doc(
                kind, "subset", seeds=(2,),
                errors={s: DETERMINISTIC for s in slots})
    cases["km_error_deterministic"] = _doc(
        "km", seeds=(5,), errors={"a": DETERMINISTIC})
    cases["km_error_none"] = _doc("km", seeds=(5,), errors={"a": NO_ERROR})
    # the other operator types and couplings
    cases["km_affine_averaged"] = _km(
        {"type": "affine", "matrix": [[0.5, 0.25, 0.0, 0.0],
                                      [0.0, 0.5, 0.0, 0.0],
                                      [0.0, 0.0, 0.25, 0.0],
                                      [0.0, 0.0, 0.0, 0.5]],
         "offset": [1.0, 0.0, -1.0, 0.5], "regularity": "averaged",
         "alpha": {"start": 0.6, "end": 0.5, "ramp": 4},
         "fixed_points": [[[2.0], [0.0, -4.0 / 3.0], [1.0]]]},
        scheme="bernoulli")
    cases["km_box_projection"] = _km(
        {"type": "box_projection", "lo": [-1.0, 0.0, -0.5, 0.0],
         "hi": [1.0, 0.5, 0.5, 2.0]},
        initial={"x0": [[4.0], [-3.0, 2.0], [1.0]]})
    cases["km_constant"] = _km(
        {"type": "constant", "value": [[1.0], [2.0, -1.0], [0.5]]},
        scheme="subset", reference=[[1.0], [2.0, -1.0], [0.5]])
    cases["km_identity"] = _km({"type": "identity"},
                               initial={"x0": [[1.0], [2.0, 3.0], [4.0]]})
    cases["km_forward_step"] = _km(FORWARD_STEP, scheme="bernoulli")
    cases["averaged_forward_step_ramp"] = _doc("averaged")
    cases["averaged_forward_step_ramp"]["problem"] = {
        "kind": "averaged", "dims": DIMS,
        "operator": dict(FORWARD_STEP, stepsize={"start": 0.05, "end": 0.2,
                                                 "ramp": 10})}
    cases["dr_separable"] = _doc("dr", "subset")
    cases["dr_separable"]["problem"] = dict(PROBLEMS["dr"],
                                            coupling=SEPARABLE_COUPLING)
    cases["fb_coupling"] = _doc("fb", "bernoulli")
    cases["fb_coupling"]["problem"] = dict(
        PROBLEMS["fb"], forward={"type": "coupling", "smooth": SMOOTH,
                                 "grid": GRID})
    cases["fb_coupling"]["solver"]["stepsize"] = 0.2
    cases["fb_none"] = _doc("fb")
    cases["fb_none"]["problem"] = dict(PROBLEMS["fb"],
                                       forward={"type": "none"})
    cases["fb_min_other_functions"] = _doc("fb_min", "subset")
    cases["fb_min_other_functions"]["problem"] = dict(
        PROBLEMS["fb_min"], functions=OTHER_FUNCTIONS, smooth=SMOOTH)
    cases["pd_dr_y0"] = _doc("pd_dr", "bernoulli", initial={
        "x0": [[1.0], [0.0, -1.0], [0.5]], "y0": [[-1.0], [0.5, 0.5]]})
    # starts, references, stops and divergence
    cases["km_negative_zero_start"] = _doc("km", initial={
        "x0": [[-0.0], [0.0, -0.0], [-0.0]]}, reference=[[-0.0], [0.0, 0.0],
                                                         [-0.0]])
    cases["pd_dr_negative_zero_start"] = _doc("pd_dr", initial={
        "x0": [[-0.0], [-0.0, 0.0], [-0.0]], "y0": [[-0.0], [-0.0, -0.0]]})
    cases["km_tolerance_stop"] = _with(
        _km({"type": "affine", "matrix": [[0.5 if i == j else 0.0
                                           for j in range(4)]
                                          for i in range(4)]},
            iterations=1000, reference=[[0.0], [0.0, 0.0], [0.0]]),
        tolerance=1e-3)
    cases["fb_min_tolerance_stop"] = _with(_doc("fb_min", iterations=5000),
                                           tolerance=1e-4)
    cases["km_three_i_diverges"] = _with(
        _km(THREE_I, initial={"x0": [[1.0e300], [1.0e300, -1.0e300],
                                     [1.0e300]]}, iterations=100),
        relaxation=0.9)
    cases["km_diverges_before_first_record"] = _km(
        THREE_I, initial={"x0": [[1.0e308], [0.0, 0.0], [0.0]]},
        seeds=(0, 1))
    cases["fb_min_ramp_snapshots"] = _with(_doc("fb_min", "bernoulli",
                                                iterations=40),
                                           snapshot_stride=1)
    cases["wide_fb_min"] = _wide()
    return cases


CASES = _cases()
# the oracle of a diverging run has no answer: `blocksweep oracle` exits 1
# with "error: block entries must be finite" and no warning
NO_ORACLE = {"km_three_i_diverges", "km_diverges_before_first_record"}


# ---------------------------------------------------------------------------
# writing and replaying one case
# ---------------------------------------------------------------------------


class _Dumper(yaml.SafeDumper):
    """Writes a shared list or mapping in full each time, with no alias."""

    def ignore_aliases(self, data):
        return True


def config_text(name: str) -> str:
    if name == "readme_example":
        return README_EXAMPLE
    return yaml.dump(CASES[name], Dumper=_Dumper, sort_keys=False,
                     default_flow_style=None)


def _oracle(path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["oracle", path])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(text: str, out_dir: str, oracle: bool) -> dict:
    """Run the config ``text`` into ``out_dir``; its status and serialization.

    ``out_dir`` receives ``config.yaml``, which the oracle reads, and the
    trace CSVs and ``report.json`` of every seed.  With ``oracle`` the
    status holds what ``blocksweep oracle`` printed and returned.
    """
    cfg = os.path.join(out_dir, "config.yaml")
    with open(cfg, "w") as fh:
        fh.write(text)
    rc = parse_config(text)
    status = {"run_exit": execute_run(rc, out_dir=out_dir)}
    if oracle:
        status["oracle"] = _oracle(cfg)
    return {"serialized": serialize_config(rc), "status": status}


def write_case(name: str) -> None:
    case = os.path.join(CASES_DIR, name)
    os.makedirs(case)
    rc = parse_config(config_text(name))
    problem = rc._plan.problem
    dims = problem.k_dims if rc.problem["kind"] == "pd_dr" else rc._plan.dims
    result = outputs(config_text(name), case,
                     dims.total <= _ORACLE_DIM_LIMIT and name not in NO_ORACLE)
    status = result["status"]
    oracle = status.pop("oracle", None)
    if oracle is not None:
        status["oracle_exit"] = oracle["exit"]
        if oracle["stderr"]:
            status["oracle_stderr"] = oracle["stderr"]
        if oracle["stdout"]:
            with open(os.path.join(case, "oracle.json"), "w") as fh:
                fh.write(oracle["stdout"])
    with open(os.path.join(case, "serialized.yaml"), "w") as fh:
        fh.write(result["serialized"])
    with open(os.path.join(case, "status.json"), "w") as fh:
        json.dump(status, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_corpus() -> int:
    if os.path.isdir(CASES_DIR):
        shutil.rmtree(CASES_DIR)
    os.makedirs(CASES_DIR)
    for name in ["readme_example", *CASES]:
        write_case(name)
    with open(PROVENANCE, "w") as fh:
        json.dump(provenance(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(write_corpus())
