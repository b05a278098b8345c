"""The config grammar's spec tables, checked entry by entry.

Every kind of every table has a full example below, placed into a host
config that is valid as a whole.  Dropping any required key of an entry
(its kind tag included) or adding a stray key must give a ``ConfigError``
that says so.
"""

import copy
import json

import pytest
import yaml

import blocksweep.cli as cli
from blocksweep import solvers
from blocksweep.cli import execute_run, main, parse_config
from blocksweep.errors import ConfigError

SOLVER = {"relaxation": 0.5, "stepsize": 1.0, "max_iterations": 50}
ZERO = {"kind": "zero", "dim": 1}
SMOOTH = {"kind": "sq_l2", "center": [1.0], "weight": 1.0}
GRID = [[[[1.0]]]]
LINEAR = {"type": "linear", "matrix": [[1.0]], "offset": [-1.0]}

PROBLEMS = {
    "km": {"kind": "km", "dims": [1],
           "operator": {"type": "affine", "matrix": [[0.5]]}},
    "averaged": {"kind": "averaged", "dims": [1],
                 "operator": {"type": "prox", "functions": [SMOOTH]}},
    "double_layer": {"kind": "double_layer", "dims": [1],
                     "outer": {"type": "identity"},
                     "inner": {"type": "prox", "functions": [SMOOTH]}},
    "dr": {"kind": "dr", "dims": [1], "blocks": [ZERO], "coupling": LINEAR},
    "pd_dr": {"kind": "pd_dr", "dims": [1], "functions": [ZERO],
              "duals": [SMOOTH], "grid": GRID},
    "fb": {"kind": "fb", "dims": [1], "blocks": [ZERO], "forward": LINEAR},
    "fb_min": {"kind": "fb_min", "dims": [1], "functions": [ZERO],
               "smooth": [SMOOTH], "grid": GRID},
}

FUNCTIONS = {
    "l1": {"kind": "l1", "dim": 1, "weight": 0.5},
    "sq_l2": SMOOTH,
    "indicator_box": {"kind": "indicator_box", "lo": [-1.0], "hi": [1.0]},
    "indicator_ball": {"kind": "indicator_ball", "center": [0.0],
                       "radius": 1.0},
    "quadratic": {"kind": "quadratic", "matrix": [[1.0]], "offset": [0.0]},
    "zero": ZERO,
}


def _doc(problem, **sections):
    doc = {"problem": problem, "solver": SOLVER,
           "sweeping": {"scheme": "single_block"}, "seeds": [0]}
    doc.update(sections)
    return doc


def _with(kind, key, spec):
    problem = dict(PROBLEMS[kind])
    problem[key] = spec
    return _doc(problem)


# table -> (example spec per kind, host: spec -> config document)
CASES = {
    "_FUNCTIONS": (FUNCTIONS, lambda s: _with("fb_min", "functions", [s])),
    "_MONOTONES": (
        {**FUNCTIONS,
         "linear_monotone": {"kind": "linear_monotone", "matrix": [[1.0]],
                             "offset": [0.0]},
         "normal_cone_box": {"kind": "normal_cone_box", "lo": [-1.0],
                             "hi": [1.0]}},
        lambda s: _with("dr", "blocks", [s])),
    "_SMOOTHS": (
        {"sq_l2": SMOOTH,
         "quadratic": {"kind": "quadratic", "matrix": [[1.0]],
                       "offset": [0.0]}},
        lambda s: _with("fb_min", "smooth", [s])),
    "_OPERATORS": (
        {"prox": {"type": "prox", "functions": [ZERO], "gamma": 1.0},
         "box_projection": {"type": "box_projection", "lo": [-1.0],
                            "hi": [1.0]},
         "affine": {"type": "affine", "matrix": [[0.5]], "offset": [0.0],
                    "regularity": "averaged", "alpha": 0.5,
                    "fixed_points": [[[0.0]]]},
         "identity": {"type": "identity"},
         "constant": {"type": "constant", "value": [[1.0]]},
         "forward_step": {"type": "forward_step", "smooth": [SMOOTH],
                          "grid": GRID, "stepsize": 1.0}},
        lambda s: _with("km", "operator", s)),
    "_COUPLINGS": (
        {"linear": LINEAR,
         "separable": {"type": "separable", "blocks": [SMOOTH]}},
        lambda s: _with("dr", "coupling", s)),
    "_FORWARDS": (
        {"linear": LINEAR,
         "coupling": {"type": "coupling", "smooth": [SMOOTH], "grid": GRID},
         "none": {"type": "none"}},
        lambda s: _with("fb", "forward", s)),
    "_PROBLEMS": (PROBLEMS, _doc),
    "_SCHEMES": (
        {"single_block": {"scheme": "single_block", "weights": [1.0]},
         "independent_bernoulli": {"scheme": "independent_bernoulli",
                                   "probabilities": [0.5]},
         "fixed_subset_size": {"scheme": "fixed_subset_size", "size": 1}},
        lambda s: dict(_doc(PROBLEMS["km"]), sweeping=s)),
    "_ERROR_MODELS": (
        {"none": {"kind": "none"},
         "deterministic_decay": {"kind": "deterministic_decay",
                                 "scale": 0.1, "decay": 0.5},
         "gaussian_decay": {"kind": "gaussian_decay", "scale": 0.1,
                            "decay": 0.5}},
        lambda s: _doc(PROBLEMS["km"], errors={"a": s})),
}

ENTRIES = [(name, kind) for name, (examples, _) in CASES.items()
           for kind in examples]


def _parse(doc):
    return parse_config(yaml.safe_dump(doc))


def _required(name, kind):
    table = getattr(cli, name)
    fields = table.kinds[kind][0]
    return [table.tag] + [key for key, (_, default) in fields.items()
                          if default is cli._REQUIRED]


def test_every_kind_of_every_table_has_an_example():
    tables = {name for name, value in vars(cli).items()
              if isinstance(value, cli._Table)}
    assert tables == set(CASES)
    for name, (examples, _) in CASES.items():
        assert set(examples) == set(getattr(cli, name).kinds), name


@pytest.mark.parametrize("name,kind", ENTRIES)
def test_full_example_parses(name, kind):
    examples, host = CASES[name]
    _parse(host(examples[kind]))


@pytest.mark.parametrize("name,kind", ENTRIES)
def test_dropping_a_required_key_is_rejected(name, kind):
    examples, host = CASES[name]
    for key in _required(name, kind):
        spec = copy.deepcopy(examples[kind])
        del spec[key]
        with pytest.raises(ConfigError,
                           match=f"missing required key '{key}'"):
            _parse(host(spec))


@pytest.mark.parametrize("name,kind", ENTRIES)
def test_a_stray_key_is_rejected(name, kind):
    examples, host = CASES[name]
    spec = dict(examples[kind], stray=1.0)
    with pytest.raises(ConfigError, match=r"unknown keys \['stray'\]"):
        _parse(host(spec))


def test_ramp_schedule_needs_start_and_rejects_stray_keys():
    ramp = {"start": 0.5, "end": 0.25, "ramp": 10}
    km = PROBLEMS["km"]
    _parse(_doc(km, solver=dict(SOLVER, relaxation=ramp)))
    with pytest.raises(ConfigError, match="missing required key 'start'"):
        _parse(_doc(km, solver=dict(SOLVER, relaxation={"end": 0.25,
                                                         "ramp": 10})))
    with pytest.raises(ConfigError, match="unknown keys"):
        _parse(_doc(km, solver=dict(SOLVER, relaxation=dict(ramp, x=1))))


# ---------------------------------------------------------------------------
# inputs that escaped or slipped through the per-kind parsers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("doc,key", [
    (_with("fb_min", "smooth", 3), "smooth"),
    (_with("km", "operator", {"type": "forward_step", "smooth": 3,
                              "grid": GRID, "stepsize": 1.0}), "smooth"),
    (_with("fb", "forward", {"type": "coupling", "smooth": 3,
                             "grid": GRID}), "smooth"),
    (_with("pd_dr", "duals", 3), "duals"),
    (_with("km", "operator", {"type": "affine", "matrix": [[0.5]],
                              "fixed_points": 3}), "fixed_points"),
])
def test_non_array_spec_list_is_a_config_error(doc, key):
    with pytest.raises(ConfigError, match=f"{key}: expected an array"):
        _parse(doc)


def test_error_model_none_rejects_extra_keys():
    doc = _doc(PROBLEMS["km"], errors={"a": {"kind": "none", "scale": 5}})
    with pytest.raises(ConfigError, match=r"unknown keys \['scale'\]"):
        _parse(doc)


def test_execute_run_with_no_seeds_exits_1(tmp_path, capsys):
    rc = _parse(_doc(PROBLEMS["km"]))
    assert execute_run(rc, out_dir=str(tmp_path), seeds=[]) == 1
    assert "error: need at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("seeds", [",", ""])
def test_main_run_with_no_seeds_exits_1(tmp_path, capsys, seeds):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(_doc(PROBLEMS["km"])))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seeds", seeds]) == 1
    assert "error: need at least one seed" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# each seed runs one public driver
# ---------------------------------------------------------------------------

DRIVERS = ("run_single_layer", "run_double_layer", "run_dr", "run_pd_dr",
           "run_fb")
DRIVER_OF = {"km": "run_single_layer", "averaged": "run_single_layer",
             "double_layer": "run_double_layer", "dr": "run_dr",
             "pd_dr": "run_pd_dr", "fb": "run_fb", "fb_min": "run_fb"}


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_each_seed_calls_its_public_driver_once(tmp_path, monkeypatch, kind):
    calls = []
    for name in DRIVERS:
        def counting(*args, _name=name, _real=getattr(solvers, name),
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting, raising=False)
    rc = _parse(_doc(PROBLEMS[kind], seeds=[0, 1, 2]))
    assert execute_run(rc, out_dir=str(tmp_path), workers=2) in (0, 2)
    assert calls == [DRIVER_OF[kind]] * 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report["per_seed"]) == ["0", "1", "2"]


# ---------------------------------------------------------------------------
# validate runs every check a seed makes before its first iteration
# ---------------------------------------------------------------------------

DECAY = {"kind": "gaussian_decay", "scale": 0.1, "decay": 0.5}


@pytest.mark.parametrize("doc,message", [
    (_doc(PROBLEMS["km"], errors={"b": DECAY}),
     "single-layer driver supports error slots ['a'], got ['b']"),
    (_doc(dict(PROBLEMS["dr"], dims=[2], blocks=[{"kind": "l1", "dim": 1}],
               coupling={"type": "linear", "matrix": [[1.0, 0.0],
                                                      [0.0, 1.0]]})),
     "operator 0 has dim 1, expected 2"),
    (_doc(PROBLEMS["fb"], errors={"b": DECAY}),
     "forward-backward driver supports error slots ['a', 'c'], got ['b']"),
], ids=["km_slot_b", "dr_block_dim", "fb_slot_b"])
def test_validate_rejects_a_config_every_seed_would_reject(tmp_path, capsys,
                                                          doc, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"invalid config: {message}\n"


@pytest.mark.parametrize("blocks,message", [
    ([{"kind": "l1", "dim": 2}], "coupling block 0 has dim 2, expected 1"),
    ([ZERO, ZERO],
     "problem.coupling.blocks: expected 1 entries, one per block, got 2"),
], ids=["block_dim", "block_count"])
def test_validate_rejects_a_separable_coupling_that_does_not_match_dims(
        tmp_path, capsys, blocks, message):
    doc = _with("dr", "coupling", {"type": "separable", "blocks": blocks})
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == f"invalid config: {message}\n"


WIDE_GRID = [[[[1.0, 0.0]]]]  # one primal block of two columns, not one


@pytest.mark.parametrize("doc,message", [
    (_with("km", "operator", {"type": "prox",
                              "functions": [{"kind": "l1", "dim": 2}]}),
     "starting point does not match the operator family"),
    (_with("km", "operator", {"type": "forward_step", "smooth": [SMOOTH],
                              "grid": WIDE_GRID, "stepsize": 1.0}),
     "starting point does not match the operator family"),
    (_with("fb", "forward", {"type": "coupling", "smooth": [SMOOTH],
                             "grid": WIDE_GRID}),
     "forward operator dims do not match the iterate"),
    (_with("pd_dr", "grid", WIDE_GRID), "primal term 0 has dim 1, expected 2"),
    (_with("fb_min", "grid", WIDE_GRID), "function 0 has dim 1, expected 2"),
], ids=["prox", "forward_step", "fb_coupling", "pd_dr", "fb_min"])
def test_dims_mismatch_is_rejected_by_the_drivers_own_check(doc, message):
    with pytest.raises(ConfigError) as exc:
        _parse(doc)
    assert str(exc.value) == message


def test_exponent_without_dot_is_rejected_with_a_hint():
    text = yaml.safe_dump(_doc(PROBLEMS["km"])).replace(
        "max_iterations: 50", "max_iterations: 50\n  tolerance: 1e-8")
    assert "tolerance: 1e-8" in text
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == (
        "solver.tolerance: expected a number, got '1e-8' (YAML 1.1 reads "
        "this as a string; write 1.0e-8)")
    written = parse_config(text.replace("1e-8", "1.0e-8"))
    assert written.solver["tolerance"] == 1e-8
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace("1e-8", "small"))
    assert str(exc.value).endswith("got 'small'")
