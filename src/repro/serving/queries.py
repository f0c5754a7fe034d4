"""Query-edge extraction: how a new point attaches to a frozen reference graph.

Serving treats the fitted reference graph as *frozen*: answering a query
never changes reference-reference edges (a true kNN insertion could —
the query might displace some vertex's k-th neighbour — but re-wiring
the reference graph per query would defeat fit-once/query-many).  A
query vertex therefore connects by the same rule its graph family used,
applied one-sidedly from the query:

* ``full`` graphs — kernel weights to every reference point;
* ``knn`` graphs — kernel weights to the query's own ``k`` nearest
  reference points (regardless of the reference graph's symmetrization
  mode: reference vertices never "select" a point that did not exist
  when the graph was built);
* ``epsilon`` graphs — kernel weights to reference points within the
  construction radius.

The exact-insertion oracle in the parity suite builds its extended
graph from the same rows, so every serving method answers questions
about one well-defined extended graph.

Determinism contract
--------------------
Every extracted row depends only on its own query point — never on
which other queries share the batch.  The dense route computes cross
squared distances with ``np.einsum`` (fixed per-element summation
order, no batch-shaped BLAS blocking) and the sparse routes use
per-point ``cKDTree`` queries, so ``extract(batch)[i]`` is bit-identical
to ``extract(batch[i:i+1])[0]``.  Everything downstream (NW,
exact insertion) consumes these rows one query at a time, which is what
makes ``predict_batch`` bit-identical to a loop of ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernels.base import RadialKernel

__all__ = ["QueryRow", "QueryExtractor", "cross_sq_distances"]


def cross_sq_distances(queries: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Row-independent squared distances between queries and reference rows.

    Same quantity as :func:`repro.kernels.base.pairwise_sq_distances`
    but computed without the batch-shaped BLAS gemm, so each output row
    is a pure function of its own query point (see the module docstring
    for why serving needs that).
    """
    q_norms = np.einsum("ij,ij->i", queries, queries)
    r_norms = np.einsum("ij,ij->i", reference, reference)
    cross = np.einsum("id,jd->ij", queries, reference)
    sq = q_norms[:, None] + r_norms[None, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return sq


@dataclass(frozen=True)
class QueryRow:
    """One query's edges into the reference graph.

    ``indices`` are reference-vertex positions (labeled-first ordering,
    matching the fit), ``weights`` the kernel edge weights, and
    ``self_weight`` the kernel's ``profile(0)`` — kept separate because
    it sits on the extended graph's diagonal (degree convention) but
    never couples the query to anything.
    """

    indices: np.ndarray
    weights: np.ndarray
    self_weight: float
    #: Coupling mass ``sum_j w(x, x_j)`` (diagonal excluded).  Stored at
    #: extraction time — it is read on every downstream use of the row
    #: (support check, NW denominator, degree), and an axis-1 reduction
    #: of the contiguous batch weights reduces each row independently,
    #: so precomputing it is bit-identical to summing per row.
    total: float

    def degree(self) -> float:
        """Extended-graph degree ``d(x) = self_weight + total``."""
        return self.self_weight + self.total


class QueryExtractor:
    """Extract :class:`QueryRow`\\ s for a fitted reference set.

    Parameters
    ----------
    x_reference:
        ``(N, d)`` reference inputs, labeled vertices first.
    kernel, bandwidth:
        The fitted kernel and resolved bandwidth.
    construction:
        ``"full"``, ``"knn"`` or ``"epsilon"`` — the reference graph's
        family, which fixes the attachment rule above.
    params:
        The graph's construction params (``k`` for knn, ``radius`` for
        epsilon).
    """

    def __init__(
        self,
        x_reference: np.ndarray,
        *,
        kernel: RadialKernel,
        bandwidth: float,
        construction: str,
        params: dict | None = None,
    ) -> None:
        params = dict(params or {})
        self.x_reference = np.ascontiguousarray(x_reference, dtype=np.float64)
        self.kernel = kernel
        self.bandwidth = float(bandwidth)
        self.construction = construction
        self.self_weight = float(kernel.profile(np.zeros(1))[0])
        #: Extended-graph degrees ``self_weight + total`` of the most
        #: recent :meth:`extract` batch, as one vector.  The drift
        #: watchdog reads this instead of re-deriving degrees row by
        #: row — the totals are already a vectorized axis-1 reduction
        #: here, so the per-row Python loop would be pure overhead.
        self.last_degrees: np.ndarray | None = None
        self._tree = None
        if construction == "full":
            self.k = None
            self.radius = None
        elif construction == "knn":
            self.k = int(params["k"])
            self.radius = None
        elif construction == "epsilon":
            self.k = None
            self.radius = float(params["radius"])
        else:
            raise ConfigurationError(
                f"cannot serve queries against a {construction!r} reference "
                f"graph; supported families: full, knn, epsilon"
            )

    @property
    def tree(self):
        """The kd-tree over reference points (built lazily, cached)."""
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.x_reference)
        return self._tree

    def extract(self, queries: np.ndarray) -> list[QueryRow]:
        """Edge rows for a validated ``(b, d)`` batch, one per query."""
        if self.construction == "knn":
            return self._extract_knn(queries)
        if self.construction == "epsilon":
            return self._extract_epsilon(queries)
        return self._extract_full(queries)

    def _extract_full(self, queries: np.ndarray) -> list[QueryRow]:
        sq = cross_sq_distances(queries, self.x_reference)
        weights = self.kernel.profile(np.sqrt(sq) / self.bandwidth)
        totals = weights.sum(axis=1)
        self.last_degrees = self.self_weight + totals
        indices = np.arange(self.x_reference.shape[0])
        return [
            QueryRow(indices, weights[i], self.self_weight, float(totals[i]))
            for i in range(queries.shape[0])
        ]

    def _extract_knn(self, queries: np.ndarray) -> list[QueryRow]:
        # The tree evaluates each query point independently, so batch
        # results match per-point results bit for bit.  The sort and
        # the kernel profile are likewise applied per row / element-wise
        # (axis-1 argsort and radial profiles never mix rows), so doing
        # them batch-at-a-time is purely a Python-overhead optimization.
        dist, idx = self.tree.query(queries, k=self.k)
        if self.k == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        order = np.argsort(idx, axis=1, kind="stable")
        indices = np.ascontiguousarray(
            np.take_along_axis(idx, order, axis=1), dtype=np.int64
        )
        weights = self.kernel.profile(
            np.take_along_axis(dist, order, axis=1) / self.bandwidth
        )
        totals = weights.sum(axis=1)
        self.last_degrees = self.self_weight + totals
        return [
            QueryRow(indices[i], weights[i], self.self_weight, float(totals[i]))
            for i in range(queries.shape[0])
        ]

    def _extract_epsilon(self, queries: np.ndarray) -> list[QueryRow]:
        rows = []
        for i in range(queries.shape[0]):
            indices = np.sort(
                np.asarray(
                    self.tree.query_ball_point(queries[i], self.radius),
                    dtype=np.int64,
                )
            )
            if indices.size:
                diffs = queries[i] - self.x_reference[indices]
                dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
                weights = self.kernel.profile(dist / self.bandwidth)
            else:
                weights = np.zeros(0)
            rows.append(
                QueryRow(indices, weights, self.self_weight, float(weights.sum()))
            )
        self.last_degrees = self.self_weight + np.asarray(
            [row.total for row in rows], dtype=np.float64
        )
        return rows
