"""Numeric health probes for solver and graph observability.

The paper's consistency regimes hinge on quantities that are invisible in
a final RMSE: conditioning of the grounded Laplacian as ``lambda`` and the
bandwidth vary, degree spread, connectivity, and iterative-solver effort.
These probes compute those quantities *cheaply* and attach them to spans.

Every ``record_*`` helper is a no-op on a non-recording span, so probes
cost nothing when tracing is disabled; condition estimation additionally
degrades from exact (small dense systems) to a power-iteration estimate
(large systems) so it never dominates the solve being observed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = [
    "condition_estimate",
    "graph_stats",
    "record_graph_stats",
    "record_spd_system",
    "record_solve_info",
    "record_schur_blocks",
    "record_workspace_stats",
    "record_serving_stats",
]

#: Systems at or below this size get an exact 2-norm condition number.
EXACT_COND_MAX_SIZE = 512


def condition_estimate(matrix, *, exact_max_size: int = EXACT_COND_MAX_SIZE, iterations: int = 30) -> tuple[float, str]:
    """Estimate the 2-norm condition number of a symmetric matrix.

    Returns ``(estimate, method)`` where method is ``"exact"`` (SVD-based,
    for systems up to ``exact_max_size``) or ``"power_iteration"``
    (extreme-eigenvalue estimates from shifted power iterations — an
    O(iterations * nnz) upper-ish bound good to the order of magnitude,
    which is what regime diagnostics need).
    """
    n = matrix.shape[0]
    if n == 0:
        return 1.0, "exact"
    if n <= exact_max_size:
        dense = np.asarray(matrix.todense()) if sparse.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        return float(np.linalg.cond(dense)), "exact"

    if sparse.issparse(matrix):
        mat = matrix.tocsr()
        matvec = lambda v: mat @ v  # noqa: E731
    else:
        mat = np.asarray(matrix, dtype=np.float64)
        matvec = lambda v: mat @ v  # noqa: E731

    rng = np.random.default_rng(0)

    def dominant_eig(operator) -> float:
        vec = rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        value = 0.0
        for _ in range(iterations):
            nxt = operator(vec)
            norm = float(np.linalg.norm(nxt))
            if norm == 0.0:
                return 0.0
            vec = nxt / norm
            value = float(vec @ operator(vec))
        return value

    lam_max = dominant_eig(matvec)
    if lam_max <= 0:
        return float("inf"), "power_iteration"
    # lambda_min of an SPD matrix via the dominant eigenvalue of the
    # spectrum flipped around lam_max: lam_max - A has dominant eigenvalue
    # lam_max - lam_min.
    flipped = dominant_eig(lambda v: lam_max * v - matvec(v))
    lam_min = lam_max - flipped
    if lam_min <= 0:
        return float("inf"), "power_iteration"
    return float(lam_max / lam_min), "power_iteration"


def graph_stats(weights, n_labeled: int | None = None) -> dict:
    """Cheap structural statistics of a similarity graph.

    Returns degree min/mean/max, positive-edge density, connected
    component count, isolated-vertex count, and (when ``n_labeled`` is
    given) the minimum labeled mass seen from any unlabeled vertex.
    """
    n = weights.shape[0]
    stats: dict = {"n_vertices": int(n)}
    if n == 0:
        return stats
    if sparse.issparse(weights):
        csr = weights.tocsr()
        degrees = np.asarray(csr.sum(axis=1)).ravel()
        positive = csr.sign()
    else:
        dense = np.asarray(weights)
        degrees = dense.sum(axis=1)
        positive = sparse.csr_matrix(dense > 0)
    stats["degree_min"] = float(degrees.min())
    stats["degree_mean"] = float(degrees.mean())
    stats["degree_max"] = float(degrees.max())
    nnz_off = positive.nnz - int(positive.diagonal().sum())
    stats["nnz"] = int(positive.nnz)
    stats["edge_density"] = float(nnz_off / (n * (n - 1))) if n > 1 else 0.0
    from scipy.sparse.csgraph import connected_components

    n_components, labels = connected_components(positive, directed=False)
    stats["n_components"] = int(n_components)
    stats["isolated_vertices"] = int(np.sum(degrees == 0))
    if n_labeled is not None and 0 < n_labeled < n:
        if sparse.issparse(weights):
            labeled_mass = np.asarray(weights.tocsr()[n_labeled:, :n_labeled].sum(axis=1)).ravel()
        else:
            labeled_mass = np.asarray(weights)[n_labeled:, :n_labeled].sum(axis=1)
        stats["labeled_mass_min"] = float(labeled_mass.min())
    return stats


def record_graph_stats(span, weights, n_labeled: int | None = None) -> None:
    """Attach :func:`graph_stats` to ``span`` under ``graph.*`` keys."""
    if not span.recording:
        return
    for key, value in graph_stats(weights, n_labeled).items():
        span.set_attribute(f"graph.{key}", value)


def record_spd_system(span, matrix) -> None:
    """Attach system size and a condition estimate under ``system.*`` keys."""
    if not span.recording:
        return
    span.set_attribute("system.size", int(matrix.shape[0]))
    estimate, how = condition_estimate(matrix)
    span.set_attribute("system.condition_estimate", estimate)
    span.set_attribute("system.condition_method", how)


def record_solve_info(span, info) -> None:
    """Attach a :class:`~repro.linalg.solvers.SolveInfo` under ``solver.*``."""
    if not span.recording or info is None:
        return
    span.set_attribute("solver.method", info.method)
    span.set_attribute("solver.iterations", int(info.iterations))
    span.set_attribute("solver.converged", bool(info.converged))
    residual = info.final_residual
    if residual == residual:  # skip NaN (direct solves without a residual)
        span.set_attribute("solver.final_residual", float(residual))
    nnz = getattr(info, "nnz", None)
    fill = getattr(info, "fill_nnz", None)
    if nnz is not None:
        span.set_attribute("solver.nnz", int(nnz))
    if fill is not None:
        span.set_attribute("solver.fill_nnz", int(fill))
        if nnz:
            span.set_attribute("solver.fill_ratio", float(fill) / float(nnz))


def record_workspace_stats(span, stats) -> None:
    """Attach a :class:`~repro.linalg.workspace.WorkspaceStats` snapshot.

    Every counter lands under a ``workspace.*`` key, so traces show how
    much work a sweep did.  String-valued fields (``hierarchy_mode``)
    are attached verbatim.
    """
    if not span.recording or stats is None:
        return
    for key, value in stats._asdict().items():
        span.set_attribute(
            f"workspace.{key}",
            value if isinstance(value, str) else int(value),
        )


def record_serving_stats(span, stats) -> None:
    """Attach a serving stats snapshot under ``serving.*`` keys.

    Works with both counter tuples of the serving stack — a model's
    :class:`~repro.serving.model.ServingStats` (adds a derived
    ``serving.mean_batch_size``) and a server's
    :class:`~repro.serving.server.ServerStats` (adds
    ``serving.mean_flush_size`` and ``serving.pending``, and carries
    the error/flush-reason counters) — so traces show how much
    amortization request batching achieved and how the queue behaved.
    """
    if not span.recording or stats is None:
        return
    for key, value in stats._asdict().items():
        span.set_attribute(f"serving.{key}", int(value))
    batches = getattr(stats, "batches", None)
    if batches:
        span.set_attribute(
            "serving.mean_batch_size", stats.queries / batches
        )
    flushes = getattr(stats, "flushes", None)
    if flushes is not None:
        span.set_attribute("serving.pending", int(stats.pending))
        if flushes:
            span.set_attribute(
                "serving.mean_flush_size", stats.answered / flushes
            )


def record_schur_blocks(span, n: int, m: int) -> None:
    """Attach Schur-complement block sizes under ``schur.*`` keys."""
    if not span.recording:
        return
    span.set_attribute("schur.labeled_block", int(n))
    span.set_attribute("schur.unlabeled_block", int(m))
