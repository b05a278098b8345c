"""Every public rejection of the package, one table row each.

Each row calls one public entry point with one broken value and names the
exception type and the exact message the caller gets.  The configuration
grammar has its own table in ``test_config_rejections.py``; the rows here
are the library's own checks, plus the grammar's matrix checks and the exit
status of ``execute_run``.  The last tests run the few accessors and
branches that no rejection reaches.
"""

import dataclasses
import textwrap

import numpy as np
import pytest

import blocksweep as bs
from blocksweep import operators
from blocksweep.cli import execute_run, parse_config

D1 = bs.BlockDims([1])
D2 = bs.BlockDims([1, 1])
X1 = bs.construct(D1, [[1.0]])
X2 = bs.construct(D2, [[1.0], [2.0]])
GRID = bs.LinearBlockOperator([[np.eye(1)]])


def _cfg(m=1, **kw):
    return bs.SolverConfig(sweeping=bs.single_block(m), max_iterations=5,
                           **kw)


def _trace(*points):
    records = tuple(bs.TraceRecord(n, 0.0, (1,) * x.dims.m, 1.0, None, None,
                                   None, x) for n, x in enumerate(points))
    return bs.IterateTrace(records, points[-1], "max_iterations")


def _pd_problem():
    return bs.assemble_pd_problem([bs.L1Norm(1)], [bs.L1Norm(1)], GRID)


def _dr_problem():
    return bs.DrProblem((bs.Subdifferential(bs.L1Norm(1)),), lambda v: v,
                        1.0, D1)


def _wrong_length_family():
    # a user family whose value has one entry more than its iterate
    return bs.BlockOperatorFamily(
        D1, lambda n, x: bs.construct(D2), "nonexpansive")


def _km_config(matrix):
    return textwrap.dedent(f"""\
        problem:
          kind: km
          dims: [1]
          operator: {{type: affine, matrix: {matrix}}}
        solver: {{relaxation: 0.5}}
        sweeping: {{scheme: single_block}}
        seeds: [0]
        """)


REJECTED = [
    # blockspace
    ("vector_length", lambda: bs.BlockVector(D1, np.zeros(2)),
     bs.ShapeError, "flat data has shape (2,), expected (1,)"),
    ("reduce_weight_count",
     lambda: bs.reduce(X2, X2, bs.WeightedNormSpec([1.0])),
     bs.ShapeError, "got 1 weights for 2 blocks"),
    ("masked_update_mask_size",
     lambda: bs.masked_update(X2, bs.ActivationMask((1,)), 1.0, X2),
     bs.ShapeError, "mask has 1 bits for 2 blocks"),
    # cli grammar
    ("matrix_without_rows", lambda: parse_config(_km_config("[]")),
     bs.ConfigError,
     "problem.operator.matrix: matrix must have at least one row"),
    ("ragged_matrix",
     lambda: parse_config(_km_config("[[1.0], [1.0, 0.0]]")),
     bs.ConfigError,
     "problem.operator.matrix: matrix rows must have equal length"),
    # diagnostics
    ("fejer_phi", lambda: bs.fejer_monitor(_trace(X1, X1), X1, phi="t3"),
     bs.ParameterError, "phi must be 't' or 't2', got 't3'"),
    ("fejer_short_envelope",
     lambda: bs.fejer_monitor(_trace(X1, X1, X1), X1, chi=[0.0]),
     bs.ShapeError, "envelope has 1 entries, need 3"),
    ("identity_check_point_dims",
     lambda: bs.expectation_identity_check(
         bs.affine_family(D1, np.eye(1)), X2, X1, bs.single_block(1)),
     bs.ShapeError, "points must match the operator family dims"),
    ("pd_dr_residual_without_pair",
     lambda: bs.inclusion_residual(_pd_problem(), X1),
     bs.CapabilityError,
     "linearly coupled inclusions need a primal-dual pair"),
    ("dr_residual_without_forward_or_dual",
     lambda: bs.inclusion_residual(_dr_problem(), X1),
     bs.CapabilityError,
     "need either a forward evaluation of the coupled operator or a dual "
     "point to measure this inclusion"),
    ("oracle_of_another_type", lambda: bs.oracle_reference(object()),
     bs.CapabilityError, "no reference route for object"),
    ("monte_carlo_metric",
     lambda: bs.monte_carlo_summary(lambda seed: None, [0, 1], 1.0,
                                    metric="max"),
     bs.ParameterError, "unknown metric 'max'"),
    # operators
    ("ball_conjugate", lambda: bs.BallIndicator([0.0], 1.0).conjugate(),
     bs.CapabilityError, "no closed-form conjugate for kind 'indicator_ball'"),
    ("box_shapes", lambda: bs.BoxIndicator([0.0], [1.0, 1.0]),
     bs.ShapeError, "box bounds must have equal shapes"),
    ("linear_monotone_offset", lambda: bs.LinearMonotone(np.eye(2), [0.0]),
     bs.ShapeError, "offset must match M"),
    ("separable_sweep_dims",
     lambda: operators.SeparableSweep([bs.L1Norm(1)], "prox").apply(X2, 1.0),
     bs.ShapeError, "vector dims do not match the operator blocks"),
    ("family_value_length",
     lambda: bs.run_single_layer(_wrong_length_family(), _cfg(), X1),
     bs.ShapeError, "operator value has 2 entries, expected 1"),
    ("adjoint_dims", lambda: GRID.adjoint(X2),
     bs.ShapeError, "input dims do not match the operator target"),
    ("forward_coupling_eval_dims",
     lambda: bs.forward_coupling_eval(
         GRID, [bs.SmoothTerm.squared_distance([0.0])], X2),
     bs.ShapeError, "input dims do not match the operator source"),
    ("cocoercivity_constant_count",
     lambda: bs.cocoercivity_bound(GRID, [1.0, 1.0]),
     bs.ShapeError, "need 1 Lipschitz constants, got 2"),
    ("cocoercivity_constant_sign", lambda: bs.cocoercivity_bound(GRID, [0.0]),
     bs.ParameterError, "Lipschitz constants must be > 0"),
    ("graph_projection_dims",
     lambda: bs.graph_projection(bs.GraphSubspace(GRID), X2, X1),
     bs.ShapeError, "projection input dims do not match the subspace"),
    ("alpha_without_averaging",
     lambda: bs.affine_family(D1, np.eye(1)).alpha_at(0),
     bs.ParameterError, "family has no averaging constant"),
    ("identity_step_without_dims", lambda: bs.forward_step_family(None, 1.0),
     bs.ParameterError, "need dims when the forward operator is absent"),
    ("identity_dims",
     lambda: bs.forward_step_family(None, 1.0, D1).evaluate(0, X2),
     bs.ShapeError, "vector dims do not match the operator blocks"),
    ("constant_dims", lambda: bs.constant_family(X1).evaluate(0, X2),
     bs.ShapeError, "vector dims do not match the operator blocks"),
    ("affine_matrix_shape", lambda: bs.affine_family(D1, np.eye(2)),
     bs.ShapeError, "matrix must be 1 x 1"),
    ("affine_offset_shape",
     lambda: bs.affine_family(D1, np.eye(1), [0.0, 0.0]),
     bs.ShapeError, "offset must match the total dimension"),
    ("fixed_point_dims",
     lambda: bs.affine_family(bs.BlockDims([1, 2]), 0.5 * np.eye(3),
                              regularity="quasinonexpansive",
                              fixed_points=[X1]),
     bs.ShapeError, "fixed point 0 is not on the operator blocks"),
    ("regularity_claim",
     lambda: bs.regularity_test(bs.affine_family(D1, np.eye(1)), "firm"),
     bs.ParameterError, "unknown regularity claim 'firm'"),
    # solvers
    ("snapshot_stride", lambda: _cfg(snapshot_stride=0),
     bs.ParameterError, "snapshot_stride must be >= 1"),
    ("double_layer_start",
     lambda: bs.run_double_layer(bs.forward_step_family(None, 1.0, D1),
                                 bs.forward_step_family(None, 1.0, D1),
                                 _cfg(), X2),
     bs.ShapeError, "starting point does not match the operator families"),
    ("pd_term_type",
     lambda: bs.assemble_pd_problem([object()], [bs.L1Norm(1)], GRID),
     bs.ShapeError, "expected a function or monotone operator, got object"),
    ("pd_dr_x0", lambda: bs.run_pd_dr(_pd_problem(), 1.0, _cfg(2), X2),
     bs.ShapeError, "x0 must live on the primal blocks"),
    ("pd_dr_y0",
     lambda: bs.run_pd_dr(_pd_problem(), 1.0, _cfg(2), X1, y0=X2),
     bs.ShapeError, "y0 must live on the image blocks"),
    # sweeping
    ("rule_without_blocks", lambda: bs.SweepingRule("single_block", 0),
     bs.InvalidRuleError, "rule needs at least one block"),
    ("rule_weight_count",
     lambda: bs.SweepingRule("single_block", 2, weights=(1.0,)),
     bs.InvalidRuleError, "single_block needs one weight per block"),
    ("rule_probability_count",
     lambda: bs.SweepingRule("independent_bernoulli", 2,
                             probabilities=(0.5,)),
     bs.InvalidRuleError,
     "independent_bernoulli needs one probability per block"),
    ("rule_scheme", lambda: bs.SweepingRule("round_robin", 1),
     bs.InvalidRuleError, "unknown sweeping scheme 'round_robin'"),
]


@pytest.mark.parametrize("call, error, message",
                         [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_each_public_rejection_names_its_type_and_message(call, error,
                                                          message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def _unbuildable(tmp_path):
    # a parsed config whose dims no longer fit its operator: the plan,
    # built on first use, raises inside execute_run
    rc = parse_config(_km_config("[[0.5]]"))
    rc = dataclasses.replace(rc, problem={**rc.problem, "dims": [2]})
    return rc, tmp_path / "out"


def _unwritable(tmp_path):
    # report.json is a directory, so the report cannot be written
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    return parse_config(_km_config("[[0.5]]")), out


@pytest.mark.parametrize("setup, stderr", [
    (_unbuildable, "error: matrix must be 2 x 2\n"),
    (_unwritable, "error: cannot write artifacts: [Errno 21] Is a directory: "
                  "'{out}/report.json'\n"),
], ids=["plan_raises", "report_unwritable"])
def test_execute_run_reports_its_rejections_with_exit_status_1(
        setup, stderr, tmp_path, capsys):
    rc, out = setup(tmp_path)
    assert execute_run(rc, str(out)) == 1
    assert capsys.readouterr().err == stderr.format(out=out)


def test_the_accessors_no_rejection_reaches(tmp_path, monkeypatch):
    assert (X1 == 1.0) is False
    assert repr(X2) == "BlockVector([1.], [2.])"
    assert GRID.m == 1
    assert bs.Schedule(0.5).scaled(2.0) == bs.Schedule(1.0)
    assert bs.error_norm_series(bs.ErrorModel("none"), D1) == 0.0
    # the final iterate is a snapshot too: three steps, a fourth chi unread
    report = bs.fejer_monitor(_trace(X1, X1, X1), bs.construct(D1),
                              chi=[0.5, 0.5, 0.5, 9.0])
    assert report.slacks == (-0.5, -0.5, -0.5)
    # the families the drivers run through their array cores still
    # evaluate on block vectors
    assert bs.forward_step_family(None, 1.0, D2).evaluate(0, X2) == X2
    assert bs.constant_family(X1).evaluate(3, bs.construct(D1)) == X1
    # with no --out and no BLOCKSWEEP_OUT the config names the directory
    monkeypatch.delenv("BLOCKSWEEP_OUT", raising=False)
    out = tmp_path / "from_config"
    rc = dataclasses.replace(parse_config(_km_config("[[0.5]]")),
                             output_directory=str(out))
    assert execute_run(rc) == 0
    assert (out / "report.json").is_file()
