"""Every operator family the package builds comes from one route.

``operators._family`` builds each package family: the identity and the
constant map, the CLI's double-layer composition and the user coupled
resolvent's spot check included.  Each carries its own array core, and
every consumer (the drivers, ``oracle_reference``, ``regularity_test``)
calls that core; ``test_rejections.py`` has the blocks check of each
``evaluate``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import yaml

import blocksweep as bs
from blocksweep import blockspace, cli, operators

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "blocksweep").glob("*.py"))
DOUBLE_LAYER = (Path(__file__).resolve().parent / "golden" / "cases"
                / "double_layer_single" / "config.yaml")

DIMS = [1, 2, 1]
GRID = [[[[1.0]], [[0.5, -0.5]], [[0.25]]],
        [[[0.5], [0.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0]]]]
# one spec per operator type of the CLI; all but the constant are averaged
OPERATORS = {
    "prox": {"type": "prox", "gamma": 0.5,
             "functions": [{"kind": "l1", "dim": 1, "weight": 0.5},
                           {"kind": "sq_l2", "center": [1.0, -1.0]},
                           {"kind": "zero", "dim": 1}]},
    "box_projection": {"type": "box_projection", "lo": [-1.0, 0.0, -0.5, 0.0],
                       "hi": [1.0, 0.5, 0.5, 2.0]},
    "affine": {"type": "affine", "matrix": (0.5 * np.eye(4)).tolist(),
               "offset": [1.0, 0.0, -1.0, 0.5], "regularity": "averaged",
               "alpha": 0.5},
    "identity": {"type": "identity"},
    "constant": {"type": "constant", "value": [[1.0], [2.0, -1.0], [0.5]]},
    "forward_step": {"type": "forward_step", "stepsize": 0.1, "grid": GRID,
                     "smooth": [{"kind": "sq_l2", "center": [1.0]},
                                {"kind": "sq_l2", "center": [0.5, -0.5]}]},
}
AVERAGED = sorted(set(OPERATORS) - {"constant"})


def _config(problem):
    return yaml.safe_dump({
        "problem": {"dims": DIMS, **problem},
        "solver": {"relaxation": 0.5, "max_iterations": 5},
        "sweeping": {"scheme": "single_block"},
        "seeds": [0]})


def _built_families(monkeypatch, problem):
    """Every ``BlockOperatorFamily`` the plan of ``problem`` constructs."""
    made = []
    post_init = operators.BlockOperatorFamily.__post_init__

    def record(self):
        post_init(self)
        made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(operators.BlockOperatorFamily, "__post_init__", record)
        cli.parse_config(_config(problem))._plan
    return made


def test_regularity_report_is_exported():
    assert bs.RegularityReport is operators.RegularityReport
    report = bs.regularity_test(
        bs.affine_family(bs.BlockDims([2]), 0.5 * np.eye(2)), "nonexpansive",
        sample_count=5)
    assert isinstance(report, bs.RegularityReport)


def test_every_family_a_fixed_point_plan_builds_carries_its_core(
        monkeypatch):
    problems = [{"kind": "km", "operator": spec}
                for spec in OPERATORS.values()]
    problems += [{"kind": "averaged", "operator": OPERATORS[name]}
                 for name in AVERAGED]
    problems += [{"kind": "double_layer", "outer": OPERATORS[outer],
                  "inner": OPERATORS[inner]}
                 for outer in AVERAGED for inner in AVERAGED]
    for problem in problems:
        made = _built_families(monkeypatch, problem)
        # a double layer builds its outer, its inner and their composition,
        # which the oracle iterates
        assert len(made) == (3 if problem["kind"] == "double_layer" else 1)
        assert all("_flat" in vars(family) for family in made), problem


def test_the_double_layer_oracle_wraps_no_vector_per_step(monkeypatch):
    problem = cli.parse_config(DOUBLE_LAYER.read_text())._plan.problem
    calls = []
    settle = blockspace._settle

    def counting(*args):
        calls.append(None)
        return settle(*args)

    monkeypatch.setattr(blockspace, "_settle", counting)
    counts = []
    for budget in (10, 40):
        calls.clear()
        with pytest.raises(bs.OracleFailureError):
            bs.oracle_reference(problem, max_iterations=budget)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_regularity_test_samples_the_array_core():
    T = bs.affine_family(bs.BlockDims([1, 2]), 0.5 * np.eye(3))
    want = bs.regularity_test(T, "nonexpansive", sample_count=20)

    def refuse(n, x):
        raise AssertionError("regularity_test called evaluate")

    object.__setattr__(T, "evaluate", refuse)
    assert bs.regularity_test(T, "nonexpansive", sample_count=20) == want


def test_only_the_family_route_constructs_a_family():
    calls = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)
                ) == "BlockOperatorFamily":
                    calls.append((path.name, getattr(top, "name", None)))
    assert calls == [("operators.py", "_family")]
