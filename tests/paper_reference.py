"""The paper's recursions, transcribed in plain numpy.

Each function here restates one driver's iteration as the source paper
writes it (Combettes & Pesquet, "Stochastic quasi-Fejér block-coordinate
fixed point iterations with random sweeping", SIAM J. Optim. 25(2), 2015),
with none of the package's engine, array cores or masked update.  The
activation variables ``eps_n`` and the errors ``a_n`` come from the public
samplers ``sample_mask`` and ``sample_error``, so a reference sees the same
random draws as the driver; the operators are plain functions
``T(n, x) -> array`` of the iteration and the flat iterate.

So far this holds the relaxed single-layer update of ``run_single_layer``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from blocksweep import BlockDims, sample_error, sample_mask

# the error slots a, b, c, d of ``SolverConfig`` draw on streams 1 to 4
STREAMS = {"a": 1, "b": 2, "c": 3, "d": 4}


class Record(NamedTuple):
    """What one iteration reads: ``n``, the iterate ``x_n``, the residual
    ``||T_n x_n - x_n||``, ``||x_n - ref||`` and the activation pattern
    (None when the iteration stopped at the tolerance)."""

    n: int
    x: np.ndarray
    residual: float
    distance: float | None
    eps: tuple[int, ...] | None


def single_layer(
    T: Callable[[int, np.ndarray], np.ndarray],
    dims: list[int],
    x0: np.ndarray,
    lam: Callable[[int], float],
    rule,
    seed: int,
    iterations: int,
    tol: float = 0.0,
    a=None,
    ref: np.ndarray | None = None,
) -> tuple[list[Record], np.ndarray]:
    """Run ``x_{i,n+1} = x_{i,n} + eps_{i,n} lam_n (T_{i,n} x_n + a_{i,n}
    - x_{i,n})`` for every block ``i``, with every ``T_{i,n}`` read at the
    full iterate ``x_n``.

    ``a`` is the error model of slot ``a`` (None: no errors).  The run
    stops before the update once ``||T_n x_n - x_n|| < tol``.  Returns the
    records and the last iterate.
    """
    offsets = np.concatenate([[0], np.cumsum(dims)])
    blocks = [slice(offsets[i], offsets[i + 1]) for i in range(len(dims))]
    x = np.array(x0, dtype=np.float64)
    records = []
    for n in range(iterations):
        tx = T(n, x)
        residual = float(np.linalg.norm(tx - x))
        distance = None if ref is None else float(np.linalg.norm(x - ref))
        if residual < tol:
            records.append(Record(n, x, residual, distance, None))
            return records, x
        eps = sample_mask(rule, n, seed).bits
        a_n = (np.zeros_like(x) if a is None else
               sample_error(a, BlockDims(dims), n, seed, STREAMS["a"]).flat)
        new = x.copy()
        for e, sl in zip(eps, blocks):
            new[sl] = x[sl] + e * lam(n) * (tx[sl] + a_n[sl] - x[sl])
        records.append(Record(n, x, residual, distance, eps))
        x = new
    return records, x
