"""The paper's recursions, transcribed in plain numpy.

Each function here restates one driver's iteration as the source paper
writes it (Combettes & Pesquet, "Stochastic quasi-Fejér block-coordinate
fixed point iterations with random sweeping", SIAM J. Optim. 25(2), 2015),
with none of the package's engine, array cores or masked update.  The
activation variables ``eps_n`` and the errors ``a_n`` come from the public
samplers ``sample_mask`` and ``sample_error``, so a reference sees the same
random draws as the driver; the operators are plain functions
``T(n, x) -> array`` of the iteration and the flat iterate.

So far this holds the relaxed single-layer update of ``run_single_layer``
and the random block Douglas-Rachford splitting of ``run_dr`` with its
primal-dual form ``run_pd_dr``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from blocksweep import BlockDims, sample_error, sample_mask

# the error slots a, b, c, d of ``SolverConfig`` draw on streams 1 to 4
STREAMS = {"a": 1, "b": 2, "c": 3, "d": 4}


class Record(NamedTuple):
    """What one iteration reads: ``n``, the iterate ``x_n``, the residual
    the driver stops on, its distance to ``ref`` and the activation pattern
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


def errors(slots, n: int, seed: int) -> np.ndarray:
    """The errors of iteration ``n`` for the ``(slot, model, dims)`` parts,
    concatenated; a part whose model is None contributes zeros."""
    return np.concatenate([
        np.zeros(BlockDims(dims).total) if model is None else
        sample_error(model, BlockDims(dims), n, seed, STREAMS[slot]).flat
        for slot, model, dims in slots])


def douglas_rachford(
    JA: list[Callable[[np.ndarray], np.ndarray]],
    Q: Callable[[np.ndarray], np.ndarray],
    dims: list[int],
    x0: np.ndarray,
    mu: Callable[[int], float],
    rule,
    seed: int,
    iterations: int,
    tol: float = 0.0,
    a: Callable[[int], np.ndarray] | None = None,
    b: Callable[[int], np.ndarray] | None = None,
    ref: np.ndarray | None = None,
    split: int | None = None,
) -> tuple[list[Record], np.ndarray]:
    """Run, for every block ``i``,

        z_{i,n+1} = z_{i,n} + eps_{i,n} (Q_i x_n + b_{i,n} - z_{i,n})
        x_{i,n+1} = x_{i,n} + eps_{i,n} mu_n (J_{gamma A_i}(2 z_{i,n+1}
                    - x_{i,n}) + a_{i,n} - z_{i,n+1})

    with ``Q = J_{gamma B}`` read at the full iterate ``x_n``, the shadow
    state ``z`` carried from ``z_0 = 0``, and ``JA[i]`` the resolvent
    ``J_{gamma A_i}`` of block ``i``.  ``a`` and ``b`` give the errors of
    iteration ``n`` (None: no errors).  The run stops before the update once
    ``2 ||J_{gamma A}(2 Q x_n - x_n) - Q x_n|| < tol``; the distance is
    ``||(Q x_n)[:split] - ref||``.  Returns the records and the last
    iterate.
    """
    offsets = np.concatenate([[0], np.cumsum(dims)])
    blocks = [slice(offsets[i], offsets[i + 1]) for i in range(len(dims))]
    x = np.array(x0, dtype=np.float64)
    z = np.zeros_like(x)
    records = []
    for n in range(iterations):
        q = Q(x)
        r = 2.0 * q - x
        ja = np.concatenate([J(r[sl]) for J, sl in zip(JA, blocks)])
        residual = 2.0 * float(np.linalg.norm(ja - q))
        distance = (None if ref is None else
                    float(np.linalg.norm(q[:split] - ref)))
        if residual < tol:
            records.append(Record(n, x, residual, distance, None))
            return records, x
        eps = sample_mask(rule, n, seed).bits
        a_n = np.zeros_like(x) if a is None else a(n)
        b_n = np.zeros_like(x) if b is None else b(n)
        new_z, new = z.copy(), x.copy()
        for i, (e, sl) in enumerate(zip(eps, blocks)):
            new_z[sl] = z[sl] + e * (q[sl] + b_n[sl] - z[sl])
            new[sl] = x[sl] + e * mu(n) * (
                JA[i](2.0 * new_z[sl] - x[sl]) + a_n[sl] - new_z[sl])
        records.append(Record(n, x, residual, distance, eps))
        x, z = new, new_z
    return records, x


def graph_projector(L: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The projector onto ``{(x, y) : Lx = y}`` by a dense solve:
    ``(x, y) -> (t, Lt)`` with ``(I + L'L) t = x + L'y``."""
    h = L.shape[1]
    normal = np.eye(h) + L.T @ L

    def project(v: np.ndarray) -> np.ndarray:
        t = np.linalg.solve(normal, v[:h] + L.T @ v[h:])
        return np.concatenate([t, L @ t])

    return project


def primal_dual_douglas_rachford(
    JA: list[Callable[[np.ndarray], np.ndarray]],
    L: np.ndarray,
    h_dims: list[int],
    g_dims: list[int],
    x0: np.ndarray,
    y0: np.ndarray,
    mu: Callable[[int], float],
    rule,
    seed: int,
    iterations: int,
    tol: float = 0.0,
    models=None,
    ref: np.ndarray | None = None,
) -> tuple[list[Record], np.ndarray]:
    """``douglas_rachford`` on the paired space of the primal blocks
    ``h_dims`` and the image blocks ``g_dims``, where ``B`` is the normal
    cone of the graph of ``L`` and so ``Q`` its projector.

    ``JA`` holds the resolvents of the primal then the image blocks, and
    the paired iterate starts at ``(x0, y0)``.  ``models`` maps the error
    slots to models: ``a`` and ``b`` perturb the primal and image blocks of
    the ``x`` update, ``c`` and ``d`` those of the ``z`` refresh.  The
    distance is measured on the primal blocks of ``Q x_n``.
    """
    models = models or {}

    def draws(first: str, second: str):
        if models.get(first) is None and models.get(second) is None:
            return None
        return lambda n: errors([(first, models.get(first), h_dims),
                                 (second, models.get(second), g_dims)],
                                n, seed)

    return douglas_rachford(
        JA, graph_projector(L), list(h_dims) + list(g_dims),
        np.concatenate([x0, y0]), mu, rule, seed, iterations, tol,
        draws("a", "b"), draws("c", "d"), ref, sum(h_dims))
