"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` rebinds the package's functions and methods by
name, so a rename under ``src/`` breaks a traced benchmark run.  This test
installs a ``Tracer`` on the package (the file is imported, not changed),
runs one tiny driver call and uninstalls it again, so such a rename fails
here too.  Every patched name must hold its original once uninstalled.
"""

import importlib.util
import os

import numpy as np

import blocksweep as bs

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_a_run_and_puts_every_name_back():
    tracer = _load_tracer().Tracer()
    d = bs.BlockDims([1, 2])
    T = bs.affine_family(d, 0.5 * np.eye(3))
    cfg = bs.SolverConfig(sweeping=bs.single_block(2), max_iterations=5,
                          seed=0)
    x0 = bs.construct(d, [[1.0], [2.0, 3.0]])
    try:
        tracer.install(bs)
        patched = list(tracer._undo)
        trace = bs.run_single_layer(T, cfg, x0)
    finally:
        tracer.uninstall()
    assert trace.iterations == 5
    spans, _, _ = tracer.take()
    assert "solvers.run_single_layer" in {tracer.names[s[1]] for s in spans}
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
