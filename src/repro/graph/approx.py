"""Approximate k-nearest-neighbour graphs via random-projection trees.

Exact kd-tree queries dominate graph construction beyond N ≈ 10⁵ (and
degrade toward brute force in higher dimensions).  This module trades a
controlled amount of recall for near-linear construction:

1. Build ``n_trees`` **random-projection trees**: each node splits its
   points at the median of their projections onto a random direction,
   recursing until leaves hold at most ``leaf_size`` points (Dasgupta &
   Freund's RP-trees — median splits adapt to intrinsic dimension).
2. Within every leaf, compute exact pairwise distances and keep each
   point's ``k`` best leaf-mates as *candidates*.
3. Merge candidates across trees and keep each point's ``k`` best by
   ``(distance, index)`` — the same deterministic tie rule as the exact
   routes in :mod:`repro.graph.similarity`.

Each tree costs ``O(N log N)`` projections plus ``O(N · leaf_size)``
leaf distances, and a neighbour is found whenever *any* tree co-locates
the pair in a leaf, so recall improves geometrically with ``n_trees`` —
the **recall knob**.  The default (:data:`DEFAULT_N_TREES`) targets
recall ≥ 0.95 on clustered data (enforced by the parity suite in
``tests/test_graph_approx.py`` and measured by
``benchmarks/test_bench_large_n.py``).  Rows that end up with fewer
than ``k`` candidates (pathologically unlucky splits) fall back to an
exact brute-force pass, so the result always has exactly ``k``
neighbours per row.

Everything is seeded: the same ``(x, k, n_trees, leaf_size, seed)``
always produces the same graph.

Beyond N ≈ 5·10⁵ the *merge* becomes the memory wall: holding every
tree's candidate list at once costs ``n_trees · N · k`` 24-byte triples
(plus a concatenation copy).  The query phase therefore streams once the
forest's candidate volume exceeds :data:`STREAM_AUTO_CANDIDATES`: leaf
fragments accumulate in a buffer of :data:`DEFAULT_BLOCK_CANDIDATES`
triples (:class:`_CandidateMerge`) that folds into an ``(N, k)`` running
top-k state whenever it fills, capping peak memory at
``O(N·k + DEFAULT_BLOCK_CANDIDATES)``.  Streaming is bit-identical to the
one-shot merge at every buffer capacity (pinned by
``tests/test_graph_approx.py``).  docs/SCALING.md compares its peak
memory and time with the one-shot merge and the exact kd-tree route.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError
from repro.graph.similarity import SimilarityGraph, _knn_graph, _knn_neighbor_lists
from repro.kernels.base import pairwise_sq_distances
from repro.utils.validation import check_matrix_2d

__all__ = [
    "rp_tree_knn",
    "approx_knn_graph",
    "knn_recall",
    "DEFAULT_N_TREES",
    "DEFAULT_BLOCK_CANDIDATES",
    "STREAM_AUTO_CANDIDATES",
]

#: Default number of random-projection trees — the recall knob.  Eight
#: trees over the default leaves put recall near 0.999 on clustered
#: data (union symmetrization then recovers almost every missed
#: directed edge, keeping downstream estimator scores within 1e-2 of
#: the exact graph); halve for speed on easy data, raise when the
#: cluster structure is adversarial.
DEFAULT_N_TREES = 8

#: Leaves smaller than this stop splitting.  Must exceed ``k`` so one
#: leaf can supply a full candidate row; the resolved default is
#: ``max(4 * (k + 1), 96)`` — fatter leaves cost ``O(leaf_size)`` more
#: distance work per point but raise per-tree recall enough that fewer
#: trees are needed overall.
MIN_LEAF_SIZE = 96

#: The query phase streams automatically once the forest's total
#: candidate volume (``n_trees * n * k`` triples of 24 bytes) exceeds
#: this many triples — ~100 MB of concatenated edge list, which the
#: one-shot merge briefly doubles.  Below it the one-shot path (hold
#: every candidate, reduce once) stays fastest.
STREAM_AUTO_CANDIDATES = 2**22

#: Candidate-buffer capacity, in ``(row, col, sq-distance)`` triples, of
#: the streamed path: 2^20 triples = 24 MB of buffered leaf fragments
#: between merges.
DEFAULT_BLOCK_CANDIDATES = 2**20


class _CandidateMerge:
    """Bounded-memory running top-k merge of kNN candidate fragments.

    Holds an ``(n, k)`` running state (each row's current best candidates
    by ``(distance, index)``; empty slots carry the sentinel index ``n``)
    plus at most ``capacity`` buffered candidate triples.  :meth:`push`
    appends one leaf's fragment and triggers a merge once the buffer
    fills, so peak memory is ``O(n k + capacity)`` instead of the
    one-shot path's ``O(n_trees · n · k)`` concatenated edge list.

    Each merge is the same dedup → lexsort → per-row top-k reduction as
    the one-shot path, applied to "state entries first, buffered
    fragments after" — so a pair seen in an earlier tree wins the dedup
    against a later duplicate, exactly as it does in the one-shot
    concatenation.  With ``capacity=None`` nothing merges until
    :meth:`finish` and the computation *is* the one-shot path.
    """

    def __init__(self, n: int, k: int, capacity: int | None):
        self.n = int(n)
        self.k = int(k)
        self.capacity = capacity
        self.idx = np.full((n, k), n, dtype=np.intp)
        self.sq = np.full((n, k), np.inf)
        self.merges = 0
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._sq: list[np.ndarray] = []
        self._buffered = 0

    def push(self, rows: np.ndarray, cols: np.ndarray, sq: np.ndarray) -> None:
        self._rows.append(rows)
        self._cols.append(cols)
        self._sq.append(sq)
        self._buffered += rows.size
        if self.capacity is not None and self._buffered >= self.capacity:
            self._merge()
            self.merges += 1

    def _merge(self) -> None:
        # State first: np.unique keeps the *first* occurrence of each
        # (row, col) pair, so already-merged (earlier-tree) candidates
        # win the dedup over buffered duplicates.
        valid = self.idx != self.n
        rows = np.concatenate([np.nonzero(valid)[0], *self._rows])
        cols = np.concatenate([self.idx[valid], *self._cols])
        dists = np.concatenate([self.sq[valid], *self._sq])
        self._rows, self._cols, self._sq = [], [], []
        self._buffered = 0

        pair_key = rows * np.intp(self.n) + cols
        _, first = np.unique(pair_key, return_index=True)
        rows, cols, dists = rows[first], cols[first], dists[first]
        order = np.lexsort((cols, dists, rows))
        rows, cols, dists = rows[order], cols[order], dists[order]
        counts = np.bincount(rows, minlength=self.n)
        row_starts = np.concatenate(([0], np.cumsum(counts)))
        position = np.arange(rows.size) - row_starts[rows]
        keep = position < self.k
        self.idx.fill(self.n)
        self.sq.fill(np.inf)
        flat = rows[keep] * self.k + position[keep]
        self.idx.ravel()[flat] = cols[keep]
        self.sq.ravel()[flat] = dists[keep]

    def finish(self) -> np.ndarray:
        """Final merge; returns per-row candidate counts."""
        self._merge()
        return np.sum(self.idx != self.n, axis=1)


def _tree_leaves(x: np.ndarray, leaf_size: int, rng) -> list[np.ndarray]:
    """Partition all points into RP-tree leaves of ≈ ``leaf_size``.

    Median splits keep the tree balanced; a node whose projections are
    all identical (duplicate-heavy regions) becomes a leaf rather than
    recursing forever.
    """
    d = x.shape[1]
    leaves: list[np.ndarray] = []
    stack = [np.arange(x.shape[0], dtype=np.intp)]
    while stack:
        ids = stack.pop()
        if ids.size <= leaf_size:
            leaves.append(ids)
            continue
        direction = rng.standard_normal(d)
        projections = x[ids] @ direction
        below = projections < np.median(projections)
        if not below.any() or below.all():
            leaves.append(ids)
            continue
        # Boolean masks preserve order, so leaf ids stay sorted — the
        # per-leaf top-k below then breaks ties by global vertex index.
        stack.append(ids[below])
        stack.append(ids[~below])
    return leaves


def _leaf_candidates(x: np.ndarray, ids: np.ndarray, k: int):
    """Each leaf member's best ≤ k leaf-mates by ``(distance, index)``."""
    size = ids.size
    keep = min(k, size - 1)
    if keep < 1:
        return None
    sq = pairwise_sq_distances(x[ids])
    np.fill_diagonal(sq, np.inf)
    # Leaf ids are sorted (see _tree_leaves), so the stable argsort's
    # positional tiebreak is exactly the global smallest-index rule.
    order = np.argsort(sq, axis=1, kind="stable")[:, :keep]
    rows = np.repeat(ids, keep)
    cols = ids[order.ravel()]
    dists = np.take_along_axis(sq, order, axis=1).ravel()
    return rows, cols, dists


def rp_tree_knn(
    x: np.ndarray,
    k: int,
    *,
    n_trees: int = DEFAULT_N_TREES,
    leaf_size: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate k-nearest-neighbour lists from random-projection trees.

    The query phase streams its candidate merge once ``n_trees · n · k``
    exceeds :data:`STREAM_AUTO_CANDIDATES`; the neighbour lists are
    bit-identical either way, only peak memory changes.

    Parameters
    ----------
    x:
        Inputs of shape ``(n, d)``.
    k:
        Neighbours per row (``1 <= k < n``).
    n_trees:
        The recall knob: more trees, higher recall, linearly more work.
    leaf_size:
        Leaf capacity per tree; defaults to ``max(4 * (k + 1), 96)``.
    seed:
        Seeds the projection directions; results are deterministic in
        ``(x, k, n_trees, leaf_size, seed)``.

    Returns
    -------
    ``(dist, idx)`` arrays of shape ``(n, k)``: Euclidean distances and
    neighbour indices, each row sorted by ``(distance, index)`` and
    excluding the row's own vertex — the same contract as the exact
    neighbour lists behind ``knn_graph(construction="neighbors")``.
    """
    x = check_matrix_2d(x, "x")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ConfigurationError(f"k must satisfy 1 <= k < n; got k={k}, n={n}")
    if n_trees < 1:
        raise ConfigurationError(f"n_trees must be >= 1, got {n_trees}")
    if leaf_size is None:
        leaf_size = max(4 * (k + 1), MIN_LEAF_SIZE)
    elif leaf_size <= k:
        raise ConfigurationError(
            f"leaf_size must exceed k so a leaf can hold k neighbours; "
            f"got leaf_size={leaf_size}, k={k}"
        )
    # buffer capacity in candidate triples; None merges one-shot
    capacity = (
        DEFAULT_BLOCK_CANDIDATES if n_trees * n * k > STREAM_AUTO_CANDIDATES else None
    )
    rng = np.random.default_rng(seed)

    with obs.span(
        "repro.graph.rp_tree_knn",
        n_vertices=n,
        k=k,
        n_trees=int(n_trees),
        leaf_size=int(leaf_size),
        streamed=capacity is not None,
    ) as span:
        merge = _CandidateMerge(n, k, capacity)
        for _ in range(n_trees):
            for ids in _tree_leaves(x, leaf_size, rng):
                candidates = _leaf_candidates(x, ids, k)
                if candidates is None:
                    continue
                merge.push(*candidates)
        counts = merge.finish()

        neighbour_idx = np.zeros((n, k), dtype=np.intp)
        neighbour_sq = np.full((n, k), np.inf)
        full = counts >= k
        if full.any():
            neighbour_idx[full] = merge.idx[full]
            neighbour_sq[full] = merge.sq[full]

        short = np.flatnonzero(~full)
        if short.size:
            # Unlucky rows (every tree isolated them in tiny leaves) get
            # an exact, chunked brute-force pass — correctness never
            # depends on tree luck.
            sq = pairwise_sq_distances(x[short], x)
            sq[np.arange(short.size), short] = np.inf
            order = np.argsort(sq, axis=1, kind="stable")[:, :k]
            neighbour_idx[short] = order
            neighbour_sq[short] = np.take_along_axis(sq, order, axis=1)
        if span.recording:
            span.set_attribute("fallback_rows", int(short.size))
            span.set_attribute("candidate_merges", int(merge.merges))
        obs.get_registry().counter("graph.rp_tree.queries").inc()

    return np.sqrt(neighbour_sq), neighbour_idx


def approx_knn_graph(
    x: np.ndarray,
    *,
    k: int,
    kernel=None,
    bandwidth: float,
    mode: str = "union",
    n_trees: int = DEFAULT_N_TREES,
    leaf_size: int | None = None,
    seed: int = 0,
) -> SimilarityGraph:
    """Approximate kNN similarity graph with the exact routes' contract.

    :func:`~repro.graph.similarity.knn_graph` with
    ``construction="approx"`` and the RP-tree knobs exposed: the
    neighbour lists come from :func:`rp_tree_knn`, and the kernel
    weights, union/intersection symmetrization, self-weight diagonal,
    degeneracy validation, span and ``params`` are ``knn_graph``'s own.
    ``n_trees`` is the recall knob; at the default the graph differs
    from the exact one only in a few percent of the longest
    (smallest-weight) edges, and downstream estimator scores match
    within 1e-2 (pinned by ``tests/test_graph_approx.py``).
    """
    return _knn_graph(
        x, k, kernel, bandwidth, mode, "approx",
        n_trees=n_trees, leaf_size=leaf_size, seed=seed,
    )


def knn_recall(x: np.ndarray, k: int, approx_idx: np.ndarray) -> float:
    """Fraction of true k-nearest neighbours present in ``approx_idx``.

    Computes the exact deterministic neighbour lists and measures mean
    per-row overlap.  Under tied distances the exact list is one valid
    choice among equals, so recall can read slightly below the true
    edge-set recall on duplicate-heavy data; on generic data it is the
    standard recall@k.
    """
    x = check_matrix_2d(x, "x")
    approx_idx = np.asarray(approx_idx)
    if approx_idx.shape != (x.shape[0], k):
        raise ConfigurationError(
            f"approx_idx must have shape {(x.shape[0], k)}, "
            f"got {approx_idx.shape}"
        )
    _, exact_idx = _knn_neighbor_lists(x, k)
    hits = (approx_idx[:, :, None] == exact_idx[:, None, :]).any(axis=2)
    return float(hits.mean())
