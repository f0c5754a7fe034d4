"""Unit tests for the cross-solve amortization workspace.

Covers which factorizations a workspace makes and keeps, the labeled
count every accessor validates, the backend names a workspace rejects,
invalidation on graph mutation
(including a hypothesis property test: a mutated workspace must raise,
never serve stale answers) with one fingerprint per public call, the
labeled-reachability check made from the components computed at
construction or carried over by ``permuted``, the multigrid backend's
hard V-cycle, which operators a workspace keeps, the true residual
every PCG path reports, and the ``x0`` threading through ``solve_spd``.  Numerical parity against direct solves
lives in ``tests/test_workspace_parity.py``.
"""

import gc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import obs
from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DisconnectedGraphError,
    WorkspaceInvalidatedError,
)
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import laplacian
from repro.graph.similarity import full_kernel_graph, knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg import workspace as workspace_module
from repro.linalg.coarsen import (
    MultigridPreconditioner,
    aggregation_operator,
    coarsen_weights,
)
from repro.linalg.solvers import SolveInfo, SPDFactorization, solve_spd
from repro.linalg.workspace import SolveWorkspace


@pytest.fixture(scope="module")
def problem():
    data = make_synthetic_dataset(60, 30, seed=7)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    return data, graph


@pytest.fixture(scope="module")
def sparse_problem():
    data = make_synthetic_dataset(60, 60, seed=9)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
    return data, graph


class TestFactorizationCache:
    """A factorization lives in its operator: kept with a kept operator,
    made and dropped by a solve at a ``(λ, n)`` nobody kept."""

    def test_unkept_soft_solve_factorizes_each_time(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        a = ws.solve_soft(data.y_labeled, 0.1)
        b = ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factorizations == 2
        assert np.array_equal(a.scores, b.scores)

    def test_kept_operator_factorizes_once(self, problem):
        data, graph = problem
        y, n = data.y_labeled, data.y_labeled.shape[0]
        ws = SolveWorkspace(graph.weights, backend="exact")
        unkept = ws.solve_soft(y, 0.1).scores
        operator = ws.operator(0.1, n)
        assert isinstance(operator.precondition, SPDFactorization)
        assert ws.stats().factorizations == 2
        for _ in range(2):
            np.testing.assert_array_equal(ws.solve_soft(y, 0.1).scores, unkept)
            assert ws.operator(0.1, n).precondition is operator.precondition
        assert ws.stats().factorizations == 2

    def test_hard_factorization_reused_across_calls(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        ws.hard_system(data.y_labeled.shape[0])  # assembles, never factorizes
        assert ws.stats().factorizations == 0
        ws.solve_hard(data.y_labeled)
        ws.solve_hard(data.y_labeled)
        ws.solve_soft(data.y_labeled, 0.0)  # delegates to hard
        assert ws.stats().factorizations == 1

    def test_distinct_masks_get_distinct_factorizations(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.solve_soft(data.y_labeled[:50], 0.1)
        assert ws.stats().factorizations == 2
        for _ in range(2):
            ws.solve_hard(data.y_labeled)
            ws.solve_hard(data.y_labeled[:50])
        assert ws.stats().factorizations == 4

    def test_invalid_configuration_rejected(self, problem):
        _, graph = problem
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, backend="nope")
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, backend="spectral")
        ws = SolveWorkspace(graph.weights)
        # the hard solve runs on the workspace's own backend: it takes
        # no per-call backend, and no strict-mode switch exists
        with pytest.raises(TypeError):
            ws.solve_hard(np.ones(10), backend="nope")
        with pytest.raises(TypeError):
            SolveWorkspace(graph.weights, exact=True)

    def test_left_out_backend_follows_the_graph(self):
        """The workspace applies the backend rule itself: ``multigrid``
        for a sparse graph above the factorization floor, ``exact`` for a
        sparse graph at the floor and for a dense graph of any size;
        ``backend=`` still pins one."""
        floor = workspace_module.FACTORIZE_MAX_VERTICES
        x = np.random.default_rng(4).normal(size=(floor + 1, 3))
        above = knn_graph(x, k=10, bandwidth=0.5)
        assert SolveWorkspace(above.weights).backend == "multigrid"
        assert SolveWorkspace(above).backend == "multigrid"
        assert SolveWorkspace(above.weights, backend="exact").backend == "exact"
        at_floor = knn_graph(x[:floor], k=10, bandwidth=0.5)
        assert SolveWorkspace(at_floor.weights).backend == "exact"
        dense = full_kernel_graph(x, bandwidth=0.5)
        assert SolveWorkspace(dense.weights).backend == "exact"

    def test_n_components_knob_removed(self, problem):
        _, graph = problem
        with pytest.raises(TypeError):
            SolveWorkspace(graph.weights, n_components=8)

    @pytest.mark.parametrize(
        "option",
        [
            {"max_factorizations": 2},
            {"pcg_tol": 1e-8},
            {"reanchor_budget": 5},
            {"on_mutation": "recompute"},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_removed_constructor_options(self, problem, option):
        _, graph = problem
        with pytest.raises(TypeError):
            SolveWorkspace(graph.weights, **option)

    def test_per_call_backend_removed(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        with pytest.raises(TypeError):
            ws.solve_soft(data.y_labeled, 0.1, backend="exact")
        with pytest.raises(TypeError):
            ws.sweep_soft(data.y_labeled, (0.1, 1.0), backend="exact")


class TestContinuation:
    def test_classic_iterative_backends_rejected(self, problem):
        """Only ``exact`` and ``multigrid`` are backends; every other
        name, ``factored`` included, is rejected."""
        _, graph = problem
        for backend in ("cg", "jacobi", "gauss_seidel", "factored"):
            with pytest.raises(ConfigurationError, match="backend must be one of") as caught:
                SolveWorkspace(graph.weights, backend=backend)
            assert "('exact', 'multigrid')" in str(caught.value)


class TestInvalidation:
    def test_dense_mutation_raises(self, problem):
        data, graph = problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights)
        ws.solve_soft(data.y_labeled, 0.1)
        ws.weights[0, 1] += 0.25
        ws.weights[1, 0] += 0.25
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_soft(data.y_labeled, 0.1)

    def test_sparse_mutation_raises(self, sparse_problem):
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights.copy())
        ws.solve_hard(data.y_labeled)
        ws.weights.data[0] += 1.0
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_hard(data.y_labeled)

    def test_caller_sparse_mutation_raises(self, sparse_problem):
        """The workspace keeps the caller's canonical CSR matrix, not a
        copy, so an edit through the caller's handle is caught too."""
        data, graph = sparse_problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights)
        assert ws.weights is weights
        ws.solve_hard(data.y_labeled)
        weights.data[0] += 1.0
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_hard(data.y_labeled)

    def test_fingerprint_values_equal_the_byte_copy_hashes(self, sparse_problem):
        """The fingerprint hashes each array's buffer in place, with the
        values that hashing a ``tobytes()`` copy of it gave: sparse, dense
        (C and Fortran order) and dense past the full-content limit."""
        import zlib

        def by_copy(weights):
            if sparse.issparse(weights):
                return (
                    "sparse",
                    weights.shape,
                    int(weights.nnz),
                    zlib.crc32(np.ascontiguousarray(weights.data).tobytes()),
                    zlib.crc32(np.ascontiguousarray(weights.indices).tobytes()),
                )
            arr = np.ascontiguousarray(weights)
            if arr.size <= workspace_module.FULL_FINGERPRINT_MAX_ELEMENTS:
                return ("dense", arr.shape, zlib.crc32(arr.tobytes()))
            flat = arr.reshape(-1)
            idx = np.linspace(0, flat.size - 1, 4096).astype(np.intp)
            return (
                "dense-sampled",
                arr.shape,
                zlib.crc32(np.ascontiguousarray(flat[idx]).tobytes()),
                float(flat.sum()),
            )

        _, graph = sparse_problem
        rng = np.random.default_rng(4)
        dense = rng.random((40, 40))
        large = rng.random((1001, 1001))
        assert large.size > workspace_module.FULL_FINGERPRINT_MAX_ELEMENTS
        for weights in (graph.weights, dense, np.asfortranarray(dense), large):
            assert workspace_module._fingerprint(weights) == by_copy(weights)

    def test_explicit_invalidate_clears_caches(self, problem, multilevel_problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factorizations == 2
        # The kept hard operator goes with its factorization.
        ws.solve_hard(data.y_labeled)
        ws.invalidate()
        ws.solve_hard(data.y_labeled)
        assert ws.stats().factorizations == 4
        # Every kept operator goes too: each (λ, n) is built again.
        data, graph = multilevel_problem
        n = data.y_labeled.shape[0]
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        kept = [ws.operator(lam, n) for lam in (0.0, 0.5)]
        for lam, operator in zip((0.0, 0.5), kept):
            assert ws.operator(lam, n).precondition is operator.precondition
        builds = ws.stats().coarsen_builds
        ws.invalidate()
        for lam, operator in zip((0.0, 0.5), kept):
            rebuilt = ws.operator(lam, n)
            assert rebuilt.system is not operator.system
            assert rebuilt.precondition is not operator.precondition
            assert (rebuilt.system != operator.system).nnz == 0
        assert ws.stats().coarsen_builds == 2 * builds

    @settings(max_examples=15, deadline=None)
    @given(
        entry=st.tuples(
            st.integers(min_value=0, max_value=89),
            st.integers(min_value=0, max_value=89),
        ),
        bump=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_never_serves_stale_factorization(self, entry, bump):
        """Property: after ANY symmetric weight bump, a workspace raises
        instead of serving the cached answer for the old graph.  Diagonal
        bumps are excluded: they shift the degree by the same amount,
        leaving ``L = D - W`` (and hence the solution) unchanged."""
        assume(entry[0] != entry[1])
        data = make_synthetic_dataset(60, 30, seed=3)
        bandwidth = paper_bandwidth_rule(60, 5)
        weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).weights.copy()
        ws = SolveWorkspace(weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        i, j = entry
        ws.weights[i, j] += bump
        ws.weights[j, i] = ws.weights[i, j]
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_soft(data.y_labeled, 0.1)

    @pytest.mark.parametrize("backend", ["exact", "multigrid"])
    def test_one_fingerprint_per_public_call(self, deep_problem, monkeypatch, backend):
        """The helpers a solve runs read the caches without fingerprinting
        the weights again; an edit between two calls still raises."""
        data, graph = deep_problem
        y = data.y_labeled
        calls = []
        original = workspace_module._fingerprint

        def counting(weights):
            calls.append(weights.shape)
            return original(weights)

        monkeypatch.setattr(workspace_module, "_fingerprint", counting)
        ws = SolveWorkspace(graph.weights.copy(), backend=backend)
        assert len(calls) == 1
        for lam in (0.01, 0.1, 1.0, 10.0):
            calls.clear()
            ws.solve_soft(y, lam)
            assert len(calls) == 1, lam
        calls.clear()
        ws.solve_hard(y)
        assert len(calls) == 1
        if backend == "multigrid":
            assert ws.stats().multigrid_solves == 5
        n = y.shape[0]
        accessors = (
            lambda: ws.operator(0.0, n),
            lambda: ws.operator(0.5, n),
            lambda: ws.soft_system(0.5, n),
            lambda: ws.hard_system(n),
            lambda: ws.laplacian,
            lambda: ws.degrees,
        )
        for call in accessors:
            calls.clear()
            call()
            assert len(calls) == 1
        ws.weights.data[0] += 1.0
        for call in (lambda: ws.solve_soft(y, 0.1), lambda: ws.solve_hard(y), *accessors):
            with pytest.raises(WorkspaceInvalidatedError):
                call()


class TestCoreDelegation:
    """The core solves are the per-point reference; they take no workspace."""

    def test_soft_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        with pytest.raises(TypeError):
            solve_soft_criterion(graph.weights, data.y_labeled, 0.1, workspace=ws)
        assert ws.stats().factorizations == 0

    def test_hard_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        with pytest.raises(TypeError):
            solve_hard_criterion(graph.weights, data.y_labeled, workspace=ws)
        assert ws.stats().factorizations == 0


@pytest.fixture(scope="module")
def orphaned_problem():
    """A kNN graph with a 300-vertex cluster that no label can reach."""
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(size=(3700, 3)), rng.normal(size=(300, 3)) + 50.0])
    graph = knn_graph(x, k=10, bandwidth=0.5)
    return graph, np.sin(x[:200, 0])


class TestReachability:
    """Every solve checks its labeled mask against the components the
    workspace computed when it was built, before any expensive phase."""

    def _assert_raises_cheaply(self, ws, call, weights, n):
        with pytest.raises(DisconnectedGraphError) as caught:
            call()
        with pytest.raises(DisconnectedGraphError) as reference:
            require_labeled_reachability(weights, n)
        assert str(caught.value) == str(reference.value)
        assert caught.value.component_indices == tuple(range(3700, 4000))
        stats = ws.stats()
        assert stats.factorizations == 0
        assert stats.coarsen_builds == 0
        assert stats.multigrid_solves == stats.pcg_iterations == stats.fallbacks == 0

    @pytest.mark.parametrize("backend", ["exact", "multigrid"])
    def test_solve_soft_raises_on_orphaned_component(self, orphaned_problem, backend):
        graph, y = orphaned_problem
        ws = SolveWorkspace(graph.weights, backend=backend)
        self._assert_raises_cheaply(
            ws, lambda: ws.solve_soft(y, 0.1), graph.weights, y.shape[0]
        )

    def test_sweep_soft_raises_on_orphaned_component(self, orphaned_problem):
        graph, y = orphaned_problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        self._assert_raises_cheaply(
            ws, lambda: ws.sweep_soft(y, (0.01, 0.1, 1.0)), graph.weights, y.shape[0]
        )

    def test_solve_hard_raises_on_orphaned_component(self, orphaned_problem):
        graph, y = orphaned_problem
        for backend in ("exact", "multigrid"):
            ws = SolveWorkspace(graph.weights, backend=backend)
            self._assert_raises_cheaply(
                ws, lambda: ws.solve_hard(y), graph.weights, y.shape[0]
            )

    def test_components_computed_once_per_workspace(self, sparse_problem, monkeypatch):
        data, graph = sparse_problem
        calls = []
        original = workspace_module.validated_components

        def counting(weights):
            calls.append(weights.shape)
            return original(weights)

        monkeypatch.setattr(workspace_module, "validated_components", counting)
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.sweep_soft(data.y_labeled, (0.01, 0.1, 1.0, 10.0))
        ws.solve_hard(data.y_labeled)
        ws.solve_soft(data.y_labeled[:40], 0.1)
        assert len(calls) == 1
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.1)
        assert len(calls) == 2


@pytest.fixture(scope="module")
def multilevel_problem():
    """A kNN graph whose unlabeled block (660 vertices) exceeds the
    V-cycle's 512-vertex coarsest level, so the hard V-cycle coarsens."""
    data = make_synthetic_dataset(40, 660, seed=4)
    bandwidth = paper_bandwidth_rule(40, 5)
    graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
    return data, graph


@pytest.fixture(scope="module")
def deep_problem():
    """2400 unlabeled vertices: above its 512-vertex coarsest level the
    hard V-cycle keeps at least two coarse levels."""
    data = make_synthetic_dataset(40, 2400, seed=5)
    bandwidth = paper_bandwidth_rule(40, 5)
    graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
    return data, graph


class TestHardMultigrid:
    """On ``multigrid`` the hard criterion runs cold-started PCG on a
    Galerkin V-cycle of ``D22 - W22``, built once per ``n_labeled``."""

    def test_levels_are_galerkin_products_of_the_level_above(self, deep_problem):
        """``D22 - W22 = L(W22) + diag(W21·1)`` coarsens like the soft
        system: each level is assembled from a hierarchy of ``W22`` and
        equals the triple product ``PᵀAP`` of the level above."""
        data, graph = deep_problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        n = data.y_labeled.shape[0]
        vcycle = ws.operator(0.0, n).precondition
        systems = vcycle._systems
        assert systems[0] is ws.hard_system(n)
        prolongations = [aggregation_operator(labels) for labels in vcycle._labels]
        assert len(systems) >= 3
        for fine, coarse, p in zip(systems[:-1], systems[1:], prolongations, strict=True):
            np.testing.assert_allclose(
                coarse.toarray(), (p.T @ fine @ p).toarray(), rtol=1e-12, atol=0
            )

    def test_matches_reference_on_a_multilevel_vcycle(self, multilevel_problem):
        data, graph = multilevel_problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        fit = ws.solve_hard(data.y_labeled)
        assert fit.details["n_levels"] >= 2
        np.testing.assert_allclose(
            fit.scores,
            solve_hard_criterion(graph.weights, data.y_labeled).scores,
            atol=1e-8,
            rtol=0,
        )

    def test_vcycle_built_once_per_mask_and_counted(self, multilevel_problem):
        data, graph = multilevel_problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        first = ws.solve_hard(data.y_labeled)
        second = ws.solve_hard(data.y_labeled)
        third = ws.solve_hard(data.y_labeled[:30])
        stats = ws.stats()
        assert stats.coarsen_builds == 2
        assert stats.multigrid_solves == 3
        assert stats.factorizations == 0
        assert stats.warm_starts == 0
        assert stats.pcg_iterations == sum(
            fit.solve_info.iterations for fit in (first, second, third)
        )
        # Cold starts: a repeated solve returns the same floats.
        np.testing.assert_array_equal(first.scores, second.scores)

    @pytest.mark.parametrize(
        "backend, solve_method",
        [("exact", "sparse_lu"), ("multigrid", "multigrid_pcg")],
    )
    def test_route_is_reported(self, sparse_problem, backend, solve_method):
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights, backend=backend)
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            fit = ws.solve_hard(data.y_labeled)
        (span,) = [s for s in tracer.iter_spans() if s.name == "repro.workspace.solve"]
        assert span.attributes["backend"] == backend
        assert span.attributes["solve_method"] == solve_method
        (built,) = [s for s in tracer.iter_spans() if s.name == "repro.workspace.operator"]
        assert built.attributes["kind"] == "hard"
        assert built.attributes["backend"] == backend
        assert fit.method == f"workspace[{backend}]"
        assert fit.details["backend"] == backend
        assert fit.solve_info.method == solve_method

    def test_stalled_vcycle_falls_back_to_factorization(self, sparse_problem, monkeypatch):
        data, graph = sparse_problem
        monkeypatch.setattr(workspace_module, "MULTIGRID_MAX_ITER", 0)
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        with obs.use_registry() as registry:
            fit = ws.solve_hard(data.y_labeled)
        stats = ws.stats()
        assert fit.details["fallback"] == "exact"
        assert stats.fallbacks == 1 and stats.factorizations == 1
        assert registry.counter("workspace.fallbacks").value == 1
        assert stats.multigrid_solves == 0
        np.testing.assert_array_equal(
            fit.scores, SolveWorkspace(graph.weights).solve_hard(data.y_labeled).scores
        )

    @pytest.mark.parametrize("backend", ["exact", "multigrid"])
    def test_preconditioner_accessor(self, multilevel_problem, backend):
        """``operator(0, n).precondition`` is ``r ↦ M⁻¹r``: the
        factorization's back-substitution (``M = A``) or the cached
        V-cycle."""
        data, graph = multilevel_problem
        n = data.y_labeled.shape[0]
        ws = SolveWorkspace(graph.weights, backend=backend)
        system = ws.hard_system(n)
        r = np.random.default_rng(0).normal(size=system.shape[0])
        inverse = ws.operator(0.0, n).precondition
        assert inverse is ws.operator(0.0, n).precondition
        if backend == "multigrid":
            assert inverse.n_levels >= 2
            assert ws.stats().factorizations == 0
            # A V-cycle is an SPD approximation of A⁻¹, not A⁻¹ itself.
            z = inverse(r)
            assert float(r @ z) > 0
            assert np.linalg.norm(system @ z - r) < np.linalg.norm(r)
        else:
            np.testing.assert_allclose(system @ inverse(r), r, atol=1e-10)
            assert ws.stats().factorizations == 1


def _referenced(root):
    """Every object reachable from ``root`` through references, classes,
    functions and modules excepted."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


class TestOperatorLifetime:
    def test_a_sweep_keeps_no_soft_operator(self, multilevel_problem):
        """A soft system and its V-cycle live for one solve unless
        ``operator`` asked for them: after a 4-λ sweep the workspace
        holds its weights, Laplacian and hierarchy, and no ``N × N``
        system or V-cycle."""
        data, graph = multilevel_problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        ws.sweep_soft(data.y_labeled, (0.01, 0.1, 1.0, 10.0))
        assert ws.stats().multigrid_solves == 4
        held = _referenced(ws)
        assert not [obj for obj in held if isinstance(obj, MultigridPreconditioner)]
        square = [
            obj for obj in held if sparse.issparse(obj) and obj.shape == graph.weights.shape
        ]
        assert len(square) == 2
        assert any(obj is ws.weights for obj in square)
        assert any(obj is ws.laplacian for obj in square)


    def test_an_exact_sweep_keeps_no_factorization(self, multilevel_problem):
        """An ``exact`` solve's factorization lives for that solve unless
        ``operator`` asked for its ``(λ, n)``: after a 30-λ sweep the
        workspace holds no factorization and no ``N × N`` system."""
        data, graph = multilevel_problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.sweep_soft(data.y_labeled, np.logspace(-3, 2, 30))
        assert ws.stats().factorizations == 30
        held = _referenced(ws)
        assert not [obj for obj in held if isinstance(obj, SPDFactorization)]
        square = [
            obj for obj in held if sparse.issparse(obj) and obj.shape == graph.weights.shape
        ]
        assert len(square) == 2


class TestLabeledCount:
    """``operator``, ``hard_system`` and ``soft_system`` take a labeled
    count ``n``: an integer in ``[0, N]``, checked before anything is
    built or kept."""

    ACCESSORS = {
        "operator": (lambda ws, n: ws.operator(0.0, n), lambda ws, n: ws.operator(0.5, n)),
        "hard_system": (lambda ws, n: ws.hard_system(n),),
        "soft_system": (lambda ws, n: ws.soft_system(0.5, n),),
    }

    @pytest.mark.parametrize("backend", ["exact", "multigrid"])
    @pytest.mark.parametrize("bad", ["-3", "N+50", "2.5"])
    @pytest.mark.parametrize("accessor", list(ACCESSORS))
    def test_rejects_a_count_outside_the_graph(self, sparse_problem, accessor, bad, backend):
        data, graph = sparse_problem
        total = graph.weights.shape[0]
        n = {"-3": -3, "N+50": total + 50, "2.5": 2.5}[bad]
        ws = SolveWorkspace(graph.weights, backend=backend)
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            for call in self.ACCESSORS[accessor]:
                with pytest.raises(DataValidationError, match=rf"integer in \[0, {total}\]"):
                    call(ws, n)
            assert ws.stats().coarsen_builds == ws.stats().factorizations == 0
            # Nothing was kept: a valid operator is built exactly once.
            for _ in range(2):
                ws.operator(0.5, data.y_labeled.shape[0])
        built = [s for s in tracer.iter_spans() if s.name == "repro.workspace.operator"]
        assert len(built) == 1

    @pytest.mark.parametrize("accessor", list(ACCESSORS))
    def test_no_labels_leave_every_vertex_unreachable(self, sparse_problem, accessor):
        _, graph = sparse_problem
        ws = SolveWorkspace(graph.weights)
        for call in self.ACCESSORS[accessor]:
            with pytest.raises(DisconnectedGraphError):
                call(ws, 0)


class TestPermuted:
    """``permuted(order)`` is the same workspace over the reordered graph;
    on ``multigrid`` it reuses the hierarchy, reordering only ``P₀``."""

    @staticmethod
    def _order(n, total, seed):
        """Labeled vertices stay first, each block shuffled."""
        rng = np.random.default_rng(seed)
        return np.concatenate([rng.permutation(n), n + rng.permutation(total - n)])

    def test_shares_the_hierarchy_and_solves_the_reordered_graph(self, deep_problem):
        data, graph = deep_problem
        y, n, total = data.y_labeled, data.y_labeled.shape[0], graph.weights.shape[0]
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        scores = ws.solve_soft(y, 0.3).scores
        order = self._order(n, total, 0)
        moved = ws.permuted(order)
        assert moved.backend == "multigrid"
        assert (moved.weights != graph.weights[order][:, order]).nnz == 0
        shared, own = ws.hierarchy(), moved.hierarchy()
        assert len(shared.levels) >= 2
        assert own.levels[1:] == shared.levels[1:]
        first = own.levels[0]
        np.testing.assert_array_equal(first.aggregates, shared.levels[0].aggregates[order])
        np.testing.assert_allclose(
            laplacian(
                coarsen_weights(moved.weights, aggregation_operator(first.aggregates))
            ).toarray(),
            first.laplacian.toarray(),
            rtol=1e-12,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            moved.solve_soft(y[order[:n]], 0.3).scores, scores[order], atol=1e-8, rtol=0
        )
        assert moved.stats().coarsen_builds == 0

    def test_dense_workspace_and_unbuilt_hierarchy(self, problem):
        data, graph = problem
        y, n, total = data.y_labeled, data.y_labeled.shape[0], graph.weights.shape[0]
        order = self._order(n, total, 1)
        moved = SolveWorkspace(graph.weights).permuted(order)
        assert moved.backend == "exact"
        np.testing.assert_array_equal(moved.weights, graph.weights[np.ix_(order, order)])
        np.testing.assert_allclose(
            moved.solve_soft(y[order[:n]], 0.1).scores,
            solve_soft_criterion(graph.weights, y, 0.1).scores[order],
            atol=1e-10,
            rtol=0,
        )
        sparse_moved = SolveWorkspace(
            knn_graph(data.x_all, k=10, bandwidth=1.0).weights, backend="multigrid"
        ).permuted(order)
        assert sparse_moved._hierarchy is None

    def test_adopts_the_components_without_validating(self, monkeypatch):
        """Three clusters, shuffled: the reordered workspace's components
        and reachability verdicts equal a fresh workspace's, although
        ``permuted`` neither validates the weights nor searches for
        components."""
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(size=(150, 3)) + 40.0 * c for c in range(3)])
        weights = knn_graph(x, k=8, bandwidth=1.0).weights
        ws = SolveWorkspace(weights, backend="multigrid")
        assert ws._components[0] == 3
        order = rng.permutation(weights.shape[0])
        calls = []
        for name in ("check_weight_matrix", "validated_components"):
            original = getattr(workspace_module, name)

            def counting(matrix, name=name, original=original):
                calls.append(name)
                return original(matrix)

            monkeypatch.setattr(workspace_module, name, counting)
        moved = ws.permuted(order)
        assert calls == []
        fresh = SolveWorkspace(weights[order][:, order])
        assert moved.weights.has_canonical_format
        for got, want in (
            (moved.weights.indptr, fresh.weights.indptr),
            (moved.weights.indices, fresh.weights.indices),
            (moved.weights.data, fresh.weights.data),
        ):
            np.testing.assert_array_equal(got, want)
        assert moved._components[0] == fresh._components[0] == 3
        np.testing.assert_array_equal(moved._components[1], fresh._components[1])
        for n in range(0, weights.shape[0] + 1, 9):
            outcomes = []
            for workspace in (moved, fresh):
                try:
                    workspace._require_reachable(n)
                    outcomes.append(None)
                except DisconnectedGraphError as exc:
                    outcomes.append((str(exc), exc.component_indices))
            assert outcomes[0] == outcomes[1], n
            assert moved._reachability[n] == fresh._reachability[n]
        moved.weights.data[0] += 1.0
        with pytest.raises(WorkspaceInvalidatedError):
            moved.hierarchy()

    def test_rejects_an_order_that_is_no_permutation(self, problem):
        _, graph = problem
        ws = SolveWorkspace(graph.weights)
        total = graph.weights.shape[0]
        for order in (np.zeros(total, dtype=int), np.arange(total - 1), np.arange(1, total + 1)):
            with pytest.raises(DataValidationError, match="permutation"):
                ws.permuted(order)


class TestTrueResidual:
    """Every PCG path reports ``‖b − A f‖`` of the answer it returns."""

    def test_multigrid_soft(self, multilevel_problem):
        data, graph = multilevel_problem
        y = data.y_labeled
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        fit = ws.solve_soft(y, 0.5)
        assert fit.solve_info.method == "multigrid_pcg"
        b = np.concatenate([y, np.zeros(ws.n_total - y.shape[0])])
        expected = np.linalg.norm(b - ws.soft_system(0.5, y.shape[0]) @ fit.scores)
        assert fit.solve_info.final_residual == expected

    def test_multigrid_hard(self, multilevel_problem):
        data, graph = multilevel_problem
        y = data.y_labeled
        n = y.shape[0]
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        fit = ws.solve_hard(y)
        assert fit.solve_info.method == "multigrid_pcg"
        b = np.asarray(graph.weights[n:, :n] @ y).ravel()
        expected = np.linalg.norm(b - ws.hard_system(n) @ fit.scores[n:])
        assert fit.solve_info.final_residual == expected


class TestSolveSpdWarmStart:
    """Satellite: x0 threading through solve_spd."""

    def _system(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 40))
        return a @ a.T + 40 * np.eye(40), rng.normal(size=40)

    def test_x0_forwarded_to_iterative(self):
        system, rhs = self._system()
        exact = np.linalg.solve(system, rhs)
        cold, cold_info = solve_spd(system, rhs, method="cg", return_info=True)
        warm, warm_info = solve_spd(
            system, rhs, method="cg", x0=exact, return_info=True
        )
        assert not cold_info.warm_started
        assert warm_info.warm_started
        assert warm_info.iterations < cold_info.iterations
        np.testing.assert_allclose(warm, exact, atol=1e-8)

    def test_x0_ignored_by_direct(self):
        system, rhs = self._system()
        plain = solve_spd(system, rhs)
        with_x0 = solve_spd(system, rhs, x0=np.ones(40))
        np.testing.assert_array_equal(plain, with_x0)

    def test_solveinfo_new_fields_default(self):
        info = SolveInfo(method="cholesky", size=5)
        assert info.warm_started is False
