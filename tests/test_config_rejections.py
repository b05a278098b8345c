"""Configs that must be rejected when they are parsed.

The config walker checks the grammar (keys, types, defaults and one entry
per block); the values go to the constructors and driver checks the run
plan calls, whose errors ``parse_config`` turns into a ``ConfigError``.
Every config below breaks one value rule, and both ``parse_config`` and
``blocksweep validate`` must reject it, whichever layer the rule lives in.
"""

import json
import math

import pytest
import yaml

import blocksweep as bs
from blocksweep.cli import execute_run, main, parse_config
from blocksweep.errors import BlocksweepError, ConfigError

SMOOTH = {"kind": "sq_l2", "center": [1.0]}
ZERO = {"kind": "zero", "dim": 1}
GRID2 = [[[[1.0]], [[1.0]]]]  # one image row over two primal blocks
RAGGED = [[[[1.0]], [[1.0]]], [[[1.0]]]]


def _km(operator, dims=(1, 1), **sections):
    doc = {"problem": {"kind": "km", "dims": list(dims),
                       "operator": operator},
           "solver": {"relaxation": 0.5, "max_iterations": 5},
           "sweeping": {"scheme": "single_block"}, "seeds": [0]}
    doc.update(sections)
    return doc


IDENTITY = {"type": "identity"}
HALF = {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]]}


def _affine(**keys):
    return _km(dict(HALF, **keys))


def _pd_dr(grid=GRID2, **sections):
    doc = {"problem": {"kind": "pd_dr", "dims": [1, 1],
                       "functions": [ZERO, ZERO], "duals": [SMOOTH],
                       "grid": grid},
           "solver": {"max_iterations": 5},
           "sweeping": {"scheme": "single_block"}, "seeds": [0]}
    doc.update(sections)
    return doc


def _dr(**sections):
    doc = {"problem": {"kind": "dr", "dims": [1], "blocks": [ZERO],
                       "coupling": {"type": "linear", "matrix": [[1.0]]}},
           "solver": {"max_iterations": 5},
           "sweeping": {"scheme": "single_block"}, "seeds": [0]}
    doc.update(sections)
    return doc


def _fb_min(grid=GRID2):
    return {"problem": {"kind": "fb_min", "dims": [1, 1],
                        "functions": [ZERO, ZERO], "smooth": [SMOOTH],
                        "grid": grid},
            "solver": {"relaxation": 0.5, "stepsize": 0.5,
                       "max_iterations": 5},
            "sweeping": {"scheme": "single_block"}, "seeds": [0]}


def _fb(stepsize):
    return {"problem": {"kind": "fb", "dims": [1], "blocks": [ZERO],
                        "forward": {"type": "linear", "matrix": [[1.0]]}},
            "solver": {"relaxation": 0.5, "stepsize": stepsize,
                       "max_iterations": 5},
            "sweeping": {"scheme": "single_block"}, "seeds": [0]}


HUGE = [[[[1.0e200]], [[1.0e200]]]]  # finite, but its row gram is not
COLUMNS_HUGE = [[[[1.0e154]]], [[[1.0e154]]]]  # two image rows, one column
NO_RAMP = {"start": 0.5, "end": 0.25}
RAMP_0 = {"start": 0.5, "end": 0.25, "ramp": 0}
LONG = [[1.0, 2.0], [3.0]]  # block 0 one entry too long
SHORT = [[1.0]]  # one block short

REJECTED = {
    "dims_zero": _km(IDENTITY, dims=[0]),
    "dims_empty": _km(IDENTITY, dims=[]),
    "relaxation_end_without_ramp": _km(IDENTITY, solver={
        "relaxation": NO_RAMP}),
    "relaxation_ramp_0": _km(IDENTITY, solver={"relaxation": RAMP_0}),
    "dr_relaxation_ramp_0": _pd_dr(solver={"dr_relaxation": RAMP_0}),
    "stepsize_end_without_ramp": _fb(NO_RAMP),
    "stepsize_ramp_0": _fb(RAMP_0),
    "alpha_end_without_ramp": _affine(regularity="averaged", alpha=NO_RAMP),
    "alpha_ramp_0": _affine(regularity="averaged", alpha=RAMP_0),
    "regularity_bogus": _affine(regularity="bogus"),
    "pd_dr_grid_empty": _pd_dr(grid=[]),
    "pd_dr_grid_empty_row": _pd_dr(grid=[[]]),
    "pd_dr_grid_ragged": _pd_dr(grid=RAGGED),
    "pd_dr_grid_empty_row_with_y0": _pd_dr(grid=[[]],
                                           initial={"y0": [[1.0]]}),
    "fb_min_grid_empty": _fb_min(grid=[]),
    "fb_min_grid_empty_row": _fb_min(grid=[[]]),
    "fb_min_grid_ragged": _fb_min(grid=RAGGED),
    "box_lo_short": _km({"type": "box_projection", "lo": [0.0],
                         "hi": [1.0, 1.0]}),
    "box_hi_long": _km({"type": "box_projection", "lo": [0.0, 0.0],
                        "hi": [1.0, 1.0, 1.0]}),
    "x0_block_length": _km(IDENTITY, initial={"x0": LONG}),
    "x0_block_count": _km(IDENTITY, initial={"x0": SHORT}),
    "y0_block_length": _pd_dr(initial={"y0": [[1.0, 2.0]]}),
    "y0_block_count": _pd_dr(initial={"y0": [[1.0], [2.0]]}),
    "dr_initial_z0": _dr(initial={"z0": [[1.0]]}),
    "pd_dr_initial_w0": _pd_dr(initial={"w0": [[1.0]]}),
    "reference_block_length": _km(IDENTITY, reference=LONG),
    "reference_block_count": _km(IDENTITY, reference=SHORT),
    "fixed_points_block_length": _affine(fixed_points=[LONG]),
    "fixed_points_block_count": _affine(fixed_points=[SHORT]),
    "constant_value_block_length": _km({"type": "constant", "value": LONG}),
    "constant_value_block_count": _km({"type": "constant", "value": SHORT}),
    "pd_dr_grid_overflow": _pd_dr(grid=HUGE),
    "fb_min_grid_overflow": _fb_min(grid=HUGE),
    "fb_coupling_grid_overflow": {**_fb(0.5), "problem": {
        "kind": "fb", "dims": [1], "blocks": [ZERO],
        "forward": {"type": "coupling", "smooth": [SMOOTH],
                    "grid": [[[[1.0e200]]]]}}},
    "forward_step_grid_overflow": _km({"type": "forward_step",
                                       "smooth": [SMOOTH], "grid": HUGE,
                                       "stepsize": 0.5}),
    # each row gram is finite, I + L'L is not
    "pd_dr_grid_columns_overflow": {**_pd_dr(), "problem": {
        "kind": "pd_dr", "dims": [1], "functions": [ZERO],
        "duals": [SMOOTH, SMOOTH], "grid": COLUMNS_HUGE}},
    "dr_coupling_not_full_space": {**_dr(), "problem": {
        "kind": "dr", "dims": [1, 1], "blocks": [ZERO, ZERO],
        "coupling": {"type": "linear", "matrix": [[1.0]]}}},
    "fb_forward_not_full_space": {**_fb(0.5), "problem": {
        "kind": "fb", "dims": [1, 1], "blocks": [ZERO, ZERO],
        "forward": {"type": "linear", "matrix": [[1.0]]}}},
    "fb_forward_zero": {**_fb(0.5), "problem": {
        "kind": "fb", "dims": [1], "blocks": [ZERO],
        "forward": {"type": "linear", "matrix": [[0.0]]}}},
    "regularity_not_a_string": _affine(regularity=5),
}

# the messages of the entries above whose rule no other test names
MESSAGES = {
    "pd_dr_grid_columns_overflow": "the coupling grid overflows: the sum of "
                                   "its squared entries is not finite",
    "dr_coupling_not_full_space": "coupling matrix must act on the full "
                                  "space",
    "fb_forward_not_full_space": "forward.matrix must act on the full space",
    "fb_forward_zero": "forward.matrix must be nonzero; use forward type "
                       "none instead",
    "regularity_not_a_string": "problem.operator.regularity: expected a "
                               "string, got 5",
}


def test_the_hosts_parse_when_the_broken_value_is_mended():
    for doc in (_km(IDENTITY), _affine(regularity="averaged", alpha=0.5),
                _pd_dr(initial={"y0": [[1.0]]}),
                _fb_min(), _fb(0.5),
                _km({"type": "box_projection", "lo": [0.0, 0.0],
                     "hi": [1.0, 1.0]}),
                _km({"type": "constant", "value": [[1.0], [2.0]]},
                    initial={"x0": [[1.0], [2.0]]},
                    reference=[[1.0], [2.0]]),
                _affine(fixed_points=[[[0.0], [0.0]]])):
        parse_config(yaml.safe_dump(doc))


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_a_broken_value_is_a_config_error(name):
    with pytest.raises(ConfigError):
        parse_config(yaml.safe_dump(REJECTED[name]))


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_validate_exits_1_on_a_broken_value(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(REJECTED[name]))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("invalid config: ")


@pytest.mark.parametrize("name", sorted(n for n in REJECTED
                                       if n.endswith("_grid_overflow")))
def test_a_grid_row_that_overflows_is_named(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(REJECTED[name]))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "invalid config: image row 0 of the coupling grid overflows: the sum "
        "of its squared entries is not finite\n")


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_a_broken_value_is_named(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(REJECTED[name]))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"invalid config: {MESSAGES[name]}\n")


@pytest.mark.parametrize("reference,message", [
    (LONG, r"block 0 has shape \(2,\), expected \(1,\)"),
    (SHORT, "expected 2 blocks of data, got 1"),
], ids=["block_length", "block_count"])
def test_a_wrong_reference_names_its_key(reference, message):
    with pytest.raises(ConfigError, match=rf"^reference: {message}$"):
        parse_config(yaml.safe_dump(_km(IDENTITY, reference=reference)))


@pytest.mark.parametrize("key", ["x0", "y0"])
def test_a_wrong_start_names_its_key(key):
    doc = _pd_dr(initial={key: [[1.0, 2.0]] if key == "y0" else LONG})
    with pytest.raises(ConfigError, match=rf"^initial.{key}: block 0 has "
                                          r"shape \(2,\), expected \(1,\)$"):
        parse_config(yaml.safe_dump(doc))


def _prox_km(function):
    return _km({"type": "prox", "functions": [function]}, dims=[1])


def _gaussian(scale):
    return _km(IDENTITY, errors={"a": {"kind": "gaussian_decay",
                                       "scale": scale, "decay": 0.5}})


ONE = bs.BlockDims([1])
NAN = math.nan


def _in_problem(doc, **keys):
    doc["problem"].update(keys)
    return doc


def _parsing(doc):
    return lambda: parse_config(yaml.safe_dump(doc))


def _prox_gamma(gamma):
    return _km({"type": "prox", "functions": [ZERO], "gamma": gamma},
               dims=[1])


# a check written ``x < 0`` or ``x <= 0`` lets a NaN through
NOT_A_NUMBER = {
    "tolerance": ("tolerance must be", lambda: parse_config(yaml.safe_dump(
        _km(IDENTITY, solver={"relaxation": 0.5, "tolerance": NAN})))),
    "error_scale_nan": ("error scale must be", lambda: parse_config(
        yaml.safe_dump(_gaussian(NAN)))),
    # an infinite scale is not summable either
    "error_scale_inf": ("error scale must be", lambda: parse_config(
        yaml.safe_dump(_gaussian(math.inf)))),
    "l1_weight": ("l1 weight must be", lambda: parse_config(yaml.safe_dump(
        _prox_km({"kind": "l1", "dim": 1, "weight": NAN})))),
    "sq_l2_weight": ("sq_l2 weight must be", lambda: parse_config(
        yaml.safe_dump(_prox_km({"kind": "sq_l2", "center": [1.0],
                                 "weight": NAN})))),
    "ball_radius": ("ball radius must be", lambda: parse_config(
        yaml.safe_dump(_prox_km({"kind": "indicator_ball", "center": [1.0],
                                 "radius": NAN})))),
    "lipschitz": ("Lipschitz constant must be",
                  lambda: bs.SmoothTerm(1, lambda y: y, NAN)),
    "cocoercivity": ("cocoercivity constant must be",
                     lambda: bs.CocoerciveOperator(ONE, lambda v: v, NAN)),
    "relaxation_end": ("schedule start and end must be finite", _parsing(
        _km(IDENTITY, dims=[1], solver={"relaxation": {
            "start": 0.5, "end": NAN, "ramp": 5}}))),
    # a NaN gamma is a NaN schedule, caught before its bound is
    "prox_gamma_nan": ("schedule start and end must be finite",
                       _parsing(_prox_gamma(NAN))),
    "prox_gamma_zero": ("gamma must be > 0", _parsing(_prox_gamma(0.0))),
    "prox_gamma_negative": ("gamma must be > 0", _parsing(_prox_gamma(-1.0))),
    "sq_l2_center": ("sq_l2 center must be finite", _parsing(
        _prox_km({"kind": "sq_l2", "center": [NAN]}))),
    "smooth_sq_l2_center": ("sq_l2 center must be finite", _parsing(
        _in_problem(_fb_min(), smooth=[{"kind": "sq_l2", "center": [NAN]}]))),
    "ball_center": ("ball center must be finite", _parsing(
        _prox_km({"kind": "indicator_ball", "center": [NAN],
                  "radius": 1.0}))),
    "quadratic_offset": ("quadratic b must be finite", _parsing(
        _prox_km({"kind": "quadratic", "matrix": [[1.0]],
                  "offset": [NAN]}))),
    "fb_forward_offset": ("quadratic b must be finite", _parsing(
        _in_problem(_fb(0.5), forward={"type": "linear", "matrix": [[1.0]],
                                       "offset": [NAN]}))),
    "affine_matrix": ("affine matrix must be finite", _parsing(
        _km({"type": "affine", "matrix": [[NAN]]}, dims=[1]))),
    "affine_offset": ("affine offset must be finite", _parsing(
        _affine(offset=[0.0, NAN]))),
    "dr_coupling_matrix": ("linear monotone M must be finite", _parsing(
        _in_problem(_dr(), coupling={"type": "linear", "matrix": [[NAN]]}))),
    "dr_coupling_offset": ("linear monotone offset must be finite", _parsing(
        _in_problem(_dr(), coupling={"type": "linear", "matrix": [[1.0]],
                                     "offset": [NAN]}))),
    "fb_min_grid_entry": ("grid entries must be finite", _parsing(
        _fb_min(grid=[[[[1.0]], [[NAN]]]]))),
    "pd_dr_grid_entry": ("grid entries must be finite", _parsing(
        _pd_dr(grid=[[[[1.0]], [[NAN]]]]))),
}


@pytest.mark.parametrize("name", sorted(NOT_A_NUMBER))
def test_a_parameter_that_is_not_a_number_fails_its_check(name):
    message, build = NOT_A_NUMBER[name]
    with pytest.raises(BlocksweepError, match=message):
        build()


@pytest.mark.parametrize("host", [_dr, _pd_dr])
def test_a_splitting_config_checks_the_gamma_it_reads(host):
    parse_config(yaml.safe_dump(host(solver={"gamma": 0.5})))
    for gamma in (0.0, -1.0, NAN):
        with pytest.raises(ConfigError, match="gamma must be > 0"):
            parse_config(yaml.safe_dump(host(solver={"gamma": gamma})))


# finite data near the float maximum that every check must take quietly
QUIET = {
    # a monotone coupling, not cocoercive, whose symmetric part overflows
    "dr_coupling_max": _in_problem(_dr(), coupling={
        "type": "linear", "matrix": [[1.0e308]]}),
    "dr_coupling_not_symmetric": _in_problem(_dr(), dims=[2], blocks=[
        {"kind": "zero", "dim": 2}], coupling={
            "type": "linear", "matrix": [[1.0, 1.0], [-1.0, 1.0]]}),
    "dr_block_linear_monotone_max": _in_problem(_dr(), blocks=[{
        "kind": "linear_monotone", "matrix": [[1.0e308]]}]),
    # theta = 1 / (1e308 * 0.25), and the step below 2 * theta
    "fb_min_smooth_weight_max": {**_fb_min(), "problem": {
        "kind": "fb_min", "dims": [1], "functions": [ZERO],
        "smooth": [{"kind": "sq_l2", "center": [2.0], "weight": 1.0e308}],
        "grid": [[[[0.5]]]]}, "solver": {"stepsize": 1.0e-308,
                                         "max_iterations": 5}},
    # theta = 1 / (1e308 * 4), about 2.5e-309, and gamma / (2 * theta)
    # is 0.02 though 1 / (2 * theta) overflows
    "fb_min_theta_below_min_normal": {**_fb_min(), "problem": {
        "kind": "fb_min", "dims": [1], "functions": [ZERO],
        "smooth": [{"kind": "sq_l2", "center": [2.0], "weight": 1.0e308}],
        "grid": [[[[2.0]]]]}, "solver": {"stepsize": 1.0e-310,
                                         "max_iterations": 5}},
}


@pytest.mark.parametrize("name", sorted(QUIET))
def test_finite_data_near_the_float_maximum_validates_quietly(
        tmp_path, capsys, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(QUIET[name]))
    assert main(["validate", str(cfg)]) == 0
    assert capsys.readouterr() == ("config OK\n", "")
    rc = parse_config(yaml.safe_dump(QUIET[name]))
    assert execute_run(rc, out_dir=str(tmp_path / "out")) in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all("error" not in e for e in report["per_seed"].values())
