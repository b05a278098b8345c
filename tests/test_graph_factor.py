"""The graph projector's factor and solve equal scipy's, byte for byte.

``GraphSubspace`` factors ``I + L'L`` with LAPACK ``dpotrf`` and solves with
``dpotrs``, bound from scipy's compiled wrapper without importing the
``scipy.linalg`` package.  These are the calls ``cho_factor`` and
``cho_solve`` make, so the upper factor and every solve must match theirs
bit for bit, whichever was loaded first: the suite's conftest imports
``scipy.optimize``, and with it ``scipy.linalg``, before any test runs, and
one test loads the wrapper first in a fresh interpreter.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import blocksweep as bs
from blocksweep import operators

ORDERS = list(range(1, 41)) + [160, 161, 300]


def _same_bits(V, rhs):
    """Compare ``V``'s factor and solve with ``cho_factor``/``cho_solve``."""
    S = V.operator.stacked
    normal = np.eye(S.shape[1]) + S.T @ S
    c, lower = cho_factor(normal)
    assert not lower
    assert np.triu(V._factor).tobytes() == np.triu(c).tobytes()
    assert V._solve(rhs).tobytes() == cho_solve((c, lower), rhs).tobytes()


@pytest.mark.parametrize("order", ORDERS)
def test_factor_and_solve_equal_cho_factor_and_cho_solve(order):
    rng = np.random.default_rng(order)
    a = rng.standard_normal((order // 2 + 1, order))
    V = bs.GraphSubspace(bs.LinearBlockOperator([[a]]))
    _same_bits(V, rng.standard_normal(order))


@st.composite
def grids(draw):
    sources = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    targets = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def block(rows, cols):
        flat = draw(st.lists(entries, min_size=rows * cols,
                             max_size=rows * cols))
        return np.array(flat).reshape(rows, cols)

    grid = [[block(r, d) for d in sources] for r in targets]
    rhs = np.array(draw(st.lists(entries, min_size=sum(sources),
                                 max_size=sum(sources))))
    return bs.LinearBlockOperator(grid), rhs


@settings(max_examples=100, deadline=None)
@given(grids())
def test_factor_and_solve_equal_scipy_on_drawn_grids(case):
    L, rhs = case
    _same_bits(bs.GraphSubspace(L), rhs)


def test_the_wrapper_scipy_linalg_loaded_is_reused():
    lapack = sys.modules["scipy.linalg._flapack"]
    assert operators._lapack() == (lapack.dpotrf, lapack.dpotrs)


def test_a_missing_wrapper_names_the_path_it_tried(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    scipy = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(operators, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError) as raised:
        operators._lapack.__wrapped__()
    assert f"{tmp_path}/linalg/_flapack" in str(raised.value)


# prints whether scipy.linalg was loaded before it was imported, then
# whether every factor and solve equals cho_factor's and cho_solve's
STANDALONE_FIRST = """
import sys
import numpy as np
import blocksweep as bs

cases = []
for order in (1, 2, 40, 160, 161, 300):
    rng = np.random.default_rng(order)
    a = rng.standard_normal((order // 2 + 1, order))
    V = bs.GraphSubspace(bs.LinearBlockOperator([[a]]))
    rhs = rng.standard_normal(order)
    cases.append((a, V._factor, V._solve(rhs), rhs))
print("scipy.linalg" in sys.modules)

from scipy.linalg import cho_factor, cho_solve
same = []
for a, factor, solved, rhs in cases:
    c, lower = cho_factor(np.eye(a.shape[1]) + a.T @ a)
    same.append(np.triu(factor).tobytes() == np.triu(c).tobytes())
    same.append(solved.tobytes() == cho_solve((c, lower), rhs).tobytes())
print(len(same), all(same))
"""


def test_loading_the_wrapper_before_scipy_linalg_gives_the_same_bits():
    src = os.path.dirname(os.path.dirname(bs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", STANDALONE_FIRST],
                         capture_output=True, text=True, env=env, timeout=60,
                         check=True)
    assert out.stdout.splitlines() == ["False", "12 True"]
