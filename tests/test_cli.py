import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep.cli import (
    RunConfig,
    execute_run,
    main,
    parse_config,
    serialize_config,
    write_trace,
)
from blocksweep.errors import ConfigError


MINIMAL_KM = """
problem:
  kind: km
  dims: [1]
  operator: {type: affine, matrix: [[0.5]]}
solver:
  relaxation: 0.5
  tolerance: 1.0e-8
sweeping: {scheme: single_block}
seeds: [0]
initial: {x0: [[8.0]]}
"""

DR_1D = """
problem:
  kind: dr
  dims: [1]
  blocks:
    - {kind: l1, dim: 1, weight: 1.0}
  coupling:
    type: linear
    matrix: [[1.0]]
    offset: [-2.0]
solver:
  gamma: 1.0
  dr_relaxation: 1.0
  tolerance: 1.0e-9
sweeping: {scheme: single_block}
seeds: [0, 1, 2, 3, 4]
initial: {x0: [[4.0]]}
reference: [[1.0]]
"""

FB_TEMPLATE = """
problem:
  kind: fb
  dims: [1]
  blocks:
    - {{kind: zero, dim: 1}}
  forward:
    type: linear
    matrix: [[1.0]]
    offset: [-1.0]
solver:
  relaxation: 0.9
  stepsize: {stepsize}
  tolerance: 1.0e-9
sweeping: {{scheme: single_block}}
seeds: [0]
"""


def test_minimal_km_config_valid():
    rc = parse_config(MINIMAL_KM)
    assert rc.problem["kind"] == "km"
    assert rc.seeds == (0,)


def test_single_layer_relaxation_one_rejected():
    bad = MINIMAL_KM.replace("relaxation: 0.5", "relaxation: 1.0")
    with pytest.raises(ConfigError, match="sup lambda_n < 1"):
        parse_config(bad)


def test_fb_stepsize_at_twice_theta_rejected():
    # theta = 1 for the unit forward matrix, so 2.0 hits the open endpoint
    with pytest.raises(ConfigError, match=r"\]0, 2\*theta\["):
        parse_config(FB_TEMPLATE.format(stepsize="2.0"))
    parse_config(FB_TEMPLATE.format(stepsize="1.0"))  # interior is fine


# one smooth row whose gram is diag(1, 0.998001): theta = 1 exactly, and
# the top two eigenvalues are close
FB_MIN_CLOSE_EIGENVALUES = """
problem:
  kind: fb_min
  dims: [1, 1]
  functions:
    - {{kind: zero, dim: 1}}
    - {{kind: zero, dim: 1}}
  smooth:
    - {{kind: sq_l2, center: [1.0, 1.0]}}
  grid: [[[[1.0], [0.0]], [[0.0], [0.999]]]]
solver: {{relaxation: 0.9, stepsize: {stepsize}, tolerance: 1.0e-9}}
sweeping: {{scheme: single_block}}
seeds: [0]
"""


def test_fb_min_stepsize_bound_reads_the_exact_theta(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"\]0, 2\*theta\[ = \]0, 2\.0\["):
        parse_config(FB_MIN_CLOSE_EIGENVALUES.format(stepsize="2.0005"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(FB_MIN_CLOSE_EIGENVALUES.format(stepsize="2.0005"))
    assert main(["validate", str(cfg)]) == 1
    assert "2*theta" in capsys.readouterr().err
    parse_config(FB_MIN_CLOSE_EIGENVALUES.format(stepsize="1.999"))


def test_dr_relaxation_bound_rejected():
    bad = DR_1D.replace("dr_relaxation: 1.0", "dr_relaxation: 2.0")
    with pytest.raises(ConfigError, match=r"\]0, 2\["):
        parse_config(bad)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(MINIMAL_KM + "\nbogus_key: 1\n")
    bad = MINIMAL_KM.replace("  relaxation: 0.5",
                             "  relaxation: 0.5\n  typo_field: 3")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(bad)


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("problem: [unclosed\n  bad: {")


def test_roundtrip_parse_serialize_parse():
    for text in (MINIMAL_KM, DR_1D, FB_TEMPLATE.format(stepsize="1.0")):
        rc = parse_config(text)
        again = parse_config(serialize_config(rc))
        assert rc == again


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.floats(min_value=1.0, max_value=5.0),     # sup lambda >= 1
    st.floats(min_value=-2.0, max_value=0.0),    # inf lambda <= 0
))
def test_out_of_range_single_layer_relaxations_always_rejected(lam):
    bad = MINIMAL_KM.replace("relaxation: 0.5", f"relaxation: {lam!r}")
    with pytest.raises(ConfigError):
        parse_config(bad)


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.floats(min_value=2.0, max_value=6.0),
    st.floats(min_value=-1.0, max_value=0.0),
))
def test_out_of_range_splitting_relaxations_always_rejected(mu):
    bad = DR_1D.replace("dr_relaxation: 1.0", f"dr_relaxation: {mu!r}")
    with pytest.raises(ConfigError):
        parse_config(bad)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=2.0, max_value=8.0))
def test_out_of_range_stepsizes_always_rejected(gamma):
    with pytest.raises(ConfigError):
        parse_config(FB_TEMPLATE.format(stepsize=repr(gamma)))


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def _small_trace():
    d = bs.BlockDims([1, 1, 1])
    T = bs.affine_family(d, 0.5 * np.eye(3))
    cfg = bs.SolverConfig(sweeping=bs.single_block(3),
                          relaxation=bs.Schedule(0.5), max_iterations=3,
                          tolerance=0.0, seed=1)
    return bs.run_single_layer(T, cfg, bs.construct(d, [[1.0], [2.0], [3.0]]))


def test_write_trace_line_count_and_header(tmp_path):
    trace = _small_trace()
    assert len(trace.records) == 3
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "n,residual,dist_to_ref,active_mask,lambda,gamma,objective"


def test_write_trace_mask_encoding(tmp_path):
    d = bs.BlockDims([1, 1, 1])
    rec = bs.TraceRecord(0, 1.0, (1, 0, 1), 0.5, None, None, None, None)
    trace = bs.IterateTrace((rec,), bs.construct(d), "max_iterations")
    path = tmp_path / "m.csv"
    write_trace(trace, str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "101"
    assert row[1] == "1"  # 17 significant digits, shortest form
    assert row[2] == ""


def test_write_trace_float_precision(tmp_path):
    d = bs.BlockDims([1])
    value = 1 / 3
    rec = bs.TraceRecord(0, value, (1,), value, value, value, value, None)
    trace = bs.IterateTrace((rec,), bs.construct(d), "max_iterations")
    path = tmp_path / "p.csv"
    write_trace(trace, str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[1]) == value  # 17 digits round-trip exactly


# ---------------------------------------------------------------------------
# execute_run
# ---------------------------------------------------------------------------


def test_execute_run_dr_writes_artifacts(tmp_path):
    rc = parse_config(DR_1D)
    code = execute_run(rc, out_dir=str(tmp_path))
    assert code == 0
    for seed in range(5):
        assert (tmp_path / f"trace_seed{seed}.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["success_fraction"] == 1.0
    assert report["kind"] == "dr"
    assert len(report["per_seed"]) == 5


def test_execute_run_budget_exhaustion_exit_2(tmp_path):
    rc = parse_config(DR_1D)
    code = execute_run(rc, out_dir=str(tmp_path), max_iter=1)
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["success_fraction"] < 1.0


def test_execute_run_unwritable_path_exit_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = parse_config(DR_1D)
    code = execute_run(rc, out_dir=str(blocker / "sub"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_execute_run_replay_byte_identical(tmp_path):
    rc = parse_config(DR_1D)
    a, b = tmp_path / "a", tmp_path / "b"
    assert execute_run(rc, out_dir=str(a)) == 0
    assert execute_run(rc, out_dir=str(b)) == 0
    for seed in range(5):
        fa = (a / f"trace_seed{seed}.csv").read_bytes()
        fb = (b / f"trace_seed{seed}.csv").read_bytes()
        assert fa == fb


def test_execute_run_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("BLOCKSWEEP_OUT", str(target))
    rc = parse_config(MINIMAL_KM)
    assert execute_run(rc) == 0
    assert (target / "trace_seed0.csv").exists()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_validate_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DR_1D)
    assert main(["validate", str(cfg_path)]) == 0
    assert "OK" in capsys.readouterr().out
    out_dir = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out_dir),
                 "--seeds", "7,8"]) == 0
    assert (out_dir / "trace_seed7.csv").exists()
    assert (out_dir / "trace_seed8.csv").exists()


def test_main_invalid_config_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(MINIMAL_KM.replace("relaxation: 0.5",
                                           "relaxation: 1.0"))
    assert main(["validate", str(cfg_path)]) == 1
    assert "sup lambda_n" in capsys.readouterr().err


def test_main_oracle_prints_solution(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DR_1D)
    assert main(["oracle", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"][0][0] == pytest.approx(1.0, abs=1e-9)


def test_main_tol_and_max_iter_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DR_1D)
    out_dir = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out_dir),
                 "--tol", "1e-2", "--max-iter", "50"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["max_final_residual"] <= 1e-2


# ---------------------------------------------------------------------------
# the other problem kinds parse and run end to end
# ---------------------------------------------------------------------------


PD_1D = """
problem:
  kind: pd_dr
  dims: [1]
  functions:
    - {kind: l1, dim: 1}
  duals:
    - {kind: sq_l2, center: [2.0]}
  grid: [[[[1.0]]]]
solver: {gamma: 1.0, tolerance: 1.0e-9}
sweeping: {scheme: single_block}
seeds: [0]
initial: {x0: [[4.0]]}
reference: [[1.0]]
"""

FB_MIN_LASSO = """
problem:
  kind: fb_min
  dims: [1]
  functions:
    - {kind: l1, dim: 1, weight: 0.5}
  smooth:
    - {kind: sq_l2, center: [1.0]}
  grid: [[[[1.0]]]]
solver: {relaxation: 0.9, stepsize: 1.0, tolerance: 1.0e-9}
sweeping: {scheme: single_block}
seeds: [0, 1]
reference: [[0.5]]
"""

DOUBLE_LAYER = """
problem:
  kind: double_layer
  dims: [2]
  outer: {type: identity}
  inner:
    type: prox
    functions:
      - {kind: sq_l2, center: [1.0, -1.0]}
    gamma: 1.0
solver: {relaxation: 1.0, tolerance: 1.0e-9}
sweeping: {scheme: fixed_subset_size, size: 1}
seeds: [3]
"""

AVERAGED = """
problem:
  kind: averaged
  dims: [1]
  operator:
    type: prox
    functions:
      - {kind: sq_l2, center: [2.0]}
    gamma: 1.0
solver: {relaxation: 1.5, tolerance: 1.0e-9}
sweeping: {scheme: single_block}
seeds: [0]
"""


@pytest.mark.parametrize("text,expected", [
    (PD_1D, 1.0),
    (FB_MIN_LASSO, 0.5),
])
def test_end_to_end_with_reference(tmp_path, text, expected):
    rc = parse_config(text)
    out = tmp_path / "out"
    assert execute_run(rc, out_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    for entry in report["per_seed"].values():
        assert entry["distance_to_reference"] <= 1e-5


@pytest.mark.parametrize("text", [DOUBLE_LAYER, AVERAGED])
def test_end_to_end_other_kinds(tmp_path, text):
    rc = parse_config(text)
    assert execute_run(rc, out_dir=str(tmp_path / "x")) == 0


def test_pd_dr_mask_covers_all_blocks():
    # the sweeping rule is automatically sized over primal + image blocks
    rc = parse_config(PD_1D)
    from blocksweep.cli import _build_plan, _build_sweeping
    plan = _build_plan(rc)
    assert plan.mask_blocks == 2
    assert _build_sweeping(rc, plan.mask_blocks).m == 2


def test_averaged_kind_requires_averaged_operator():
    bad = AVERAGED.replace(
        """    type: prox
    functions:
      - {kind: sq_l2, center: [2.0]}
    gamma: 1.0""",
        "    {type: affine, matrix: [[0.5]]}")
    with pytest.raises(ConfigError, match="averaged"):
        parse_config(bad)


def test_execute_run_foreign_exception_keeps_other_seeds(tmp_path, monkeypatch,
                                                         capsys):
    import blocksweep.cli as cli

    real = cli.run_single_layer

    def flaky(T, cfg, x0):
        if cfg.seed == 1:
            raise ValueError("user callable broke")
        return real(T, cfg, x0)

    monkeypatch.setattr(cli, "run_single_layer", flaky)
    rc = parse_config(MINIMAL_KM.replace("seeds: [0]", "seeds: [0, 1, 2]"))
    assert execute_run(rc, out_dir=str(tmp_path), workers=2) == 1
    assert (tmp_path / "trace_seed0.csv").exists()
    assert (tmp_path / "trace_seed2.csv").exists()
    assert not (tmp_path / "trace_seed1.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_seed"]["1"] == {"error": "ValueError: user callable broke"}
    assert report["per_seed"]["0"]["reached_tolerance"]
    assert report["per_seed"]["2"]["reached_tolerance"]
    err = capsys.readouterr().err
    assert "Traceback" in err and "seed 1 failed" in err


def test_seeds_run_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    import threading

    import blocksweep.cli as cli

    real = cli.run_single_layer
    started = []

    def checked(T, cfg, x0):
        # the previous seed's CSV is written before this seed starts
        if started:
            assert (tmp_path / f"trace_seed{started[-1]}.csv").exists()
        assert threading.current_thread() is threading.main_thread()
        started.append(cfg.seed)
        return real(T, cfg, x0)

    monkeypatch.setattr(cli, "run_single_layer", checked)
    rc = parse_config(MINIMAL_KM.replace("seeds: [0]", "seeds: [2, 0, 1]"))
    assert execute_run(rc, out_dir=str(tmp_path)) == 0
    assert started == [2, 0, 1]


def test_invalid_overrides_fail_every_seed_and_are_reported(tmp_path, capsys):
    rc = parse_config(MINIMAL_KM.replace("seeds: [0]", "seeds: [1, 0]"))
    assert execute_run(rc, out_dir=str(tmp_path), max_iter=0) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    error = {"error": "ParameterError: max_iterations must be >= 1"}
    assert report["per_seed"] == {"0": error, "1": error}
    assert not list(tmp_path.glob("trace_seed*.csv"))
    assert capsys.readouterr().err == (
        "seed 0 failed: ParameterError: max_iterations must be >= 1\n"
        "seed 1 failed: ParameterError: max_iterations must be >= 1\n")


def _config_texts():
    """Every YAML run config written out in the test modules."""
    import re

    here = os.path.dirname(os.path.abspath(__file__))
    texts = []
    for name in sorted(os.listdir(here)):
        if name.startswith("test_") and name.endswith(".py"):
            with open(os.path.join(here, name)) as fh:
                texts += re.findall(r'"""(\nproblem:.*?)"""', fh.read(), re.S)
    return [t.format(stepsize="1.0") if "{stepsize}" in t else t
            for t in texts]


def test_c_and_python_yaml_loaders_parse_equal_configs(monkeypatch):
    import yaml

    import blocksweep.cli as cli

    if yaml.__with_libyaml__:
        assert cli._YAML_LOADER is yaml.CSafeLoader
    texts = _config_texts()
    assert len(texts) >= 8
    parsed = [parse_config(t) for t in texts]
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
    assert [parse_config(t) for t in texts] == parsed
    with pytest.raises(ConfigError, match="line"):
        parse_config("problem: [unclosed\n  bad: {")


def test_plan_built_once_per_run_config(tmp_path, monkeypatch):
    import blocksweep.cli as cli

    built = []
    real = cli._build_plan

    def counting(rc):
        built.append(rc)
        return real(rc)

    monkeypatch.setattr(cli, "_build_plan", counting)
    rc = parse_config(DR_1D)
    assert execute_run(rc, out_dir=str(tmp_path / "a")) == 0
    assert execute_run(rc, out_dir=str(tmp_path / "b"), seeds=[7]) == 0
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DR_1D)
    assert main(["oracle", str(cfg_path)]) == 0
    assert len(built) == 2
    assert built[0] is rc and built[1] == rc and built[1] is not rc


def test_fb_min_setup_is_not_repeated_per_seed(tmp_path, monkeypatch):
    from blocksweep import operators

    counts = {"cocoercivity_bound": 0, "SeparableSweep": 0}
    real_bound = operators.cocoercivity_bound
    real_init = operators.SeparableSweep.__init__

    def bound(*args, **kwargs):
        counts["cocoercivity_bound"] += 1
        return real_bound(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["SeparableSweep"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(operators, "cocoercivity_bound", bound)
    monkeypatch.setattr(operators.SeparableSweep, "__init__", init)

    def counts_in_execute_run(seeds):
        rc = parse_config(FB_MIN_LASSO.replace("seeds: [0, 1]",
                                               f"seeds: {seeds}"))
        counts.update(dict.fromkeys(counts, 0))
        out = tmp_path / str(len(seeds))
        assert execute_run(rc, out_dir=str(out), workers=2) == 0
        return dict(counts)

    assert counts_in_execute_run([0]) == counts_in_execute_run([0, 1, 2])


def test_write_trace_mask_column_matches_str_join(tmp_path):
    rng = np.random.default_rng(1234)
    d = bs.BlockDims([1])
    masks = [(1,), (0, 1), (1,) * 1000, (0,) * 999 + (1,), None]
    for _ in range(40):
        m = int(rng.integers(1, 1001))
        bits = rng.integers(0, 2, size=m)
        bits[rng.integers(m)] = 1
        masks.append(tuple(int(b) for b in bits))
    records = tuple(bs.TraceRecord(n, 1.0, mask, None, None, None, None, None)
                    for n, mask in enumerate(masks))
    path = tmp_path / "masks.csv"
    write_trace(bs.IterateTrace(records, bs.construct(d), "max_iterations"),
                str(path))
    column = [row.split(",")[3] for row in path.read_text().splitlines()[1:]]
    assert column == ["" if mask is None else "".join(str(b) for b in mask)
                      for mask in masks]


FB_MIN_SHARED = """
problem:
  kind: fb_min
  dims: [1, 2, 1]
  functions:
    - {kind: l1, dim: 1, weight: 0.2}
    - {kind: sq_l2, center: [0.5, -0.5]}
    - {kind: indicator_box, lo: [-1.0], hi: [1.0]}
  smooth:
    - {kind: sq_l2, center: [1.0, 2.0]}
  grid: [[[[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0]]]]
solver: {relaxation: 0.9, stepsize: 0.2, tolerance: 1.0e-9,
         max_iterations: 300}
sweeping: {scheme: single_block}
errors:
  a: {kind: gaussian_decay, scale: 0.01, decay: 0.9}
seeds: [0, 1, 2, 3, 4, 5, 6, 7]
"""


def test_seeds_sharing_one_plan_match_serial_runs(tmp_path):
    import sys

    rc = parse_config(FB_MIN_SHARED)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    code = execute_run(rc, out_dir=str(serial), workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert execute_run(rc, out_dir=str(threaded), workers=8) == code
    finally:
        sys.setswitchinterval(interval)
    for name in [f"trace_seed{s}.csv" for s in rc.seeds] + ["report.json"]:
        assert (threaded / name).read_bytes() == (serial / name).read_bytes()


# affine 3*I declared nonexpansive: the iterate stays finite for 2000
# iterations while its residual norm overflows to inf
DIVERGING_KM = """
problem:
  kind: km
  dims: [1, 1]
  operator: {type: affine, matrix: [[3.0, 0.0], [0.0, 3.0]]}
solver: {relaxation: 0.5, tolerance: 1.0e-9, max_iterations: 2000}
sweeping: {scheme: single_block}
seeds: [0]
initial: {x0: [[1.0], [1.0]]}
"""


PD_DR_HUGE_DUAL_CENTRE = """
problem:
  kind: pd_dr
  dims: [1]
  functions: [{kind: zero, dim: 1}]
  duals: [{kind: sq_l2, center: [1.0e+308]}]
  grid: [[[[1.0]]]]
sweeping: {scheme: single_block}
seeds: [0]
"""


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_report_of_a_diverging_seed_is_strict_json(tmp_path):
    # the iterate stays finite for 2000 iterations; the distance to this
    # reference is about 2.4e308, past the largest float even when scaled
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DIVERGING_KM
                        + "reference: [[-1.7e+308], [-1.7e+308]]\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 2
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    seed = report["per_seed"]["0"]
    assert seed["termination"] == "max_iterations"
    assert seed["distance_to_reference"] is None
    last = (out_dir / "trace_seed0.csv").read_text().splitlines()[-1]
    residual, dist = last.split(",")[1:3]
    assert dist == "inf"
    assert float(residual) < float("inf")
    assert seed["final_residual"] == float(residual)
    assert report["max_final_residual"] == float(residual)


def test_the_identity_operator_parses_without_a_dense_matrix():
    import tracemalloc

    # a total x total identity matrix at 3000 blocks of dim 1 is 69 MiB
    doc = {"problem": {"kind": "km", "dims": [1] * 3000,
                       "operator": {"type": "identity"}},
           "solver": {"relaxation": 0.5, "max_iterations": 5},
           "sweeping": {"scheme": "single_block"}, "seeds": [0]}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


PD_DR_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "cases", "pd_dr_bernoulli",
                            "config.yaml")


# a pd_dr run factors I + L'L with scipy's LAPACK wrapper loaded on its own:
# neither the scipy.linalg package nor numpy.f2py, which it pulls in, loads
# (five iterations stop short of the tolerance: exit status 2)
@pytest.mark.parametrize("argv, status", [
    (None, None),
    (["validate", PD_DR_GOLDEN], 0),
    (["run", PD_DR_GOLDEN, "--max-iter", "5", "--out", "{out}"], 2),
], ids=["import", "validate", "run"])
def test_importing_the_cli_does_not_load_scipy(argv, status, tmp_path):
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(bs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, blocksweep.cli\n"
    if argv is not None:
        argv = [a.format(out=tmp_path / "out") for a in argv]
        code += f"print(blocksweep.cli.main({argv!r}))\n"
    code += ("print(sorted({'scipy', 'scipy.linalg', 'numpy.f2py'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    lines = out.stdout.splitlines()
    assert lines[-1] == "[]"
    if argv is not None:
        assert lines[-2] == str(status)


def test_a_diverging_seed_is_reported_with_its_partial_trace(tmp_path):
    import subprocess
    import sys

    # the config above without its iteration budget: the iterate overflows
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(DIVERGING_KM.replace(", max_iterations: 2000", ""))
    out_dir = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(bs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "blocksweep.cli", "run", str(cfg_path),
         "--out", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert run.stderr == ""  # no numpy overflow warning either
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    seed = report["per_seed"]["0"]
    assert seed["termination"] == "diverged"
    assert not seed["reached_tolerance"]
    rows = (out_dir / "trace_seed0.csv").read_text().splitlines()
    assert len(rows) == seed["iterations"] + 1 > 1000


def test_a_diverged_seed_counts_the_iteration_it_diverged_at(tmp_path):
    unbudgeted = DIVERGING_KM.replace(", max_iterations: 2000", "")
    rc = parse_config(unbudgeted.replace("seeds: [0]", "seeds: [0, 1]"))
    out_dir = tmp_path / "out"
    assert execute_run(rc, out_dir=str(out_dir)) == 2
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    for seed in ("0", "1"):
        entry = report["per_seed"][seed]
        rows = (out_dir / f"trace_seed{seed}.csv").read_text().splitlines()
        last_n = int(rows[-1].split(",")[0])
        assert entry["termination"] == "diverged"
        assert entry["iterations"] == last_n + 1 == len(rows) - 1 > 1000

    # a start whose first image overflows diverges before any record
    at_once = parse_config(unbudgeted.replace("[[1.0], [1.0]]",
                                              "[[1.0e+308], [1.0]]"))
    assert execute_run(at_once, out_dir=str(tmp_path / "at_once")) == 2
    report = json.loads((tmp_path / "at_once" / "report.json").read_text())
    assert report["per_seed"]["0"]["termination"] == "diverged"
    assert report["per_seed"]["0"]["iterations"] == 0


def test_a_capped_pd_dr_seed_whose_final_projection_overflows_is_an_outcome(
        tmp_path, capsys):
    # every measured iterate is finite, the projection at the final one is
    # not: the seed ends at its cap with no error and no overflow warning
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(PD_DR_HUGE_DUAL_CENTRE)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir),
                 "--max-iter", "10"]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    seed = report["per_seed"]["0"]
    assert seed["termination"] == "max_iterations" and "error" not in seed
    rows = (out_dir / "trace_seed0.csv").read_text().splitlines()
    assert len(rows) == 11  # the header and 10 iterations


def test_a_seed_diverged_before_any_record_reports_no_residual(tmp_path):
    at_once = parse_config(
        DIVERGING_KM.replace(", max_iterations: 2000", "")
        .replace("[[1.0], [1.0]]", "[[1.0e+308], [1.0]]")
        .replace("seeds: [0]", "seeds: [0, 1, 2]"))
    trace = at_once._plan.runner(at_once._plan.config)
    assert trace.records == () and trace.final_residual is None
    out_dir = tmp_path / "out"
    assert execute_run(at_once, out_dir=str(out_dir)) == 2
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    for seed in ("0", "1", "2"):
        entry = report["per_seed"][seed]
        assert entry["termination"] == "diverged"
        assert entry["final_residual"] is None
        rows = (out_dir / f"trace_seed{seed}.csv").read_text().splitlines()
        assert len(rows) == 1  # the header only
    assert report["max_final_residual"] is None
    assert report["success_fraction"] == 0.0


PD_ORACLE = """
problem:
  kind: pd_dr
  dims: [1, 1]
  functions:
    - {kind: l1, dim: 1, weight: 0.1}
    - {kind: sq_l2, center: [2.0]}
  duals:
    - {kind: sq_l2, center: [1.0]}
  grid: [[[[1.0]], [[1.0]]]]
solver: {gamma: 1.0, tolerance: 1.0e-12, max_iterations: 20000}
sweeping: {scheme: single_block}
seeds: [0]
"""


def test_main_oracle_on_a_pd_dr_config(tmp_path, capsys):
    # minimizes 0.1|x1| + (x2 - 2)^2 / 2 + (x1 + x2 - 1)^2 / 2
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(PD_ORACLE)
    assert main(["oracle", str(cfg_path)]) == 0
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    assert np.allclose(blocks, [[-0.8], [1.9]], rtol=0.0, atol=1e-12)
    rc = parse_config(PD_ORACLE)
    plan = rc._plan
    trace, solution = bs.run_pd_dr(plan.problem, 1.0, plan.config,
                                   bs.construct(plan.dims))
    assert trace.termination == "tolerance"
    assert np.allclose(solution.primal.flat, np.ravel(blocks), rtol=0.0,
                       atol=1e-9)


# affine 3*I from 1e300: the first full-mask step overflows
OVERFLOWING_KM = """
problem:
  kind: km
  dims: [1]
  operator: {type: affine, matrix: [[3.0]]}
sweeping: {scheme: single_block}
seeds: [0]
initial: {x0: [[1.0e+300]]}
"""


def test_main_oracle_on_an_overflowing_run_is_quiet(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(OVERFLOWING_KM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", str(cfg_path)]) == 1
    assert capsys.readouterr() == ("",
                                   "error: block entries must be finite\n")


def test_main_oracle_past_the_dimension_limit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(MINIMAL_KM.replace("dims: [1]", "dims: [201]")
                        .replace("operator: {type: affine, matrix: [[0.5]]}",
                                 "operator: {type: identity}")
                        .replace("initial: {x0: [[8.0]]}\n", ""))
    assert main(["oracle", str(cfg_path)]) == 1
    assert capsys.readouterr() == (
        "", "error: reference solutions support total dim <= 200\n")


def test_main_rejects_seeds_that_are_not_integers(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(MINIMAL_KM)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--seeds", "x",
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr() == (
        "", "error: --seeds must be comma-separated integers\n")
    assert not out_dir.exists()


def test_main_on_a_config_that_does_not_exist(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["validate", str(missing)]) == 1
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
