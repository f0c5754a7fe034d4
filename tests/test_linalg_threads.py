"""Threads inside one solve: the BLAS-thread context and row-blocked products.

Row-blocked products must return the bits of ``A @ x`` whatever the
block and worker counts, so a solve's scores do not depend on the host.
The BLAS context must leave every OpenBLAS at the thread count it found,
however it is left.  A child forked from a process whose pool has run
must get a pool of its own.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph.similarity import knn_graph
from repro.linalg import threads
from repro.linalg.threads import RowBlocks, one_blas_thread
from repro.linalg.workspace import SolveWorkspace

_POOLS: dict[int, threads._Pool] = {}


def _pool(workers: int) -> threads._Pool:
    """One pool per worker count for the whole module: workers live as
    long as the process, so each test must not start its own."""
    if workers not in _POOLS:
        _POOLS[workers] = threads._Pool(workers)
    return _POOLS[workers]


def _problem(n_rows, n_cols, seed, density=0.3, empty=0.3):
    """A random CSR matrix with empty rows and a vector spanning ten
    orders of magnitude, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    dense[rng.random(n_rows) < empty] = 0.0
    x = rng.normal(size=n_cols) * 10.0 ** rng.integers(-5, 6, size=n_cols)
    return sparse.csr_matrix(dense), x


class TestRowBlockedProduct:
    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=40),
        n_cols=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        density=st.floats(min_value=0.0, max_value=1.0),
        n_blocks=st.integers(min_value=1, max_value=90),
        workers=st.integers(min_value=1, max_value=4),
    )
    @example(n_rows=1, n_cols=5, seed=0, density=1.0, n_blocks=7, workers=4)
    @example(n_rows=0, n_cols=3, seed=0, density=1.0, n_blocks=2, workers=1)
    @example(n_rows=12, n_cols=12, seed=1, density=0.0, n_blocks=3, workers=2)
    def test_equals_the_plain_product_bit_for_bit(
        self, n_rows, n_cols, seed, density, n_blocks, workers
    ):
        """Empty rows, a single row, more blocks than rows, 1-4 workers."""
        matrix, x = _problem(n_rows, n_cols, seed, density)
        blocks = RowBlocks(matrix.indptr, n_blocks)
        starts = [start for start, _ in blocks.bounds]
        assert starts == sorted(set(starts))
        assert all(start < stop for start, stop in blocks.bounds)
        assert sum(stop - start for start, stop in blocks.bounds) == n_rows
        product = blocks.product(matrix)
        with mock.patch.object(threads, "_POOL", _pool(workers)):
            for _ in range(3):
                assert product(x).tobytes() == (matrix @ x).tobytes()

    def test_blocks_hold_about_equal_nnz(self):
        matrix, _ = _problem(2000, 50, 3, density=0.2, empty=0.0)
        blocks = RowBlocks(matrix.indptr, 4)
        sizes = [matrix.indptr[stop] - matrix.indptr[start] for start, stop in blocks.bounds]
        assert len(sizes) == 4
        assert max(sizes) - min(sizes) <= 2 * np.diff(matrix.indptr).max()

    def test_other_input_takes_the_plain_product(self):
        matrix, _ = _problem(30, 20, 4)
        product = RowBlocks(matrix.indptr, 4).product(matrix)
        ints = np.arange(20)
        assert product(ints).tobytes() == (matrix @ ints).tobytes()
        with pytest.raises(ValueError):
            product(np.ones(21))

    def test_a_failing_block_raises_in_the_caller(self):
        def task(index):
            if index == 5:
                raise ZeroDivisionError("block 5")

        with pytest.raises(ZeroDivisionError, match="block 5"):
            _pool(3).run(task, 8)
        _pool(3).run(lambda index: None, 8)  # the pool still serves

    def test_stress_more_workers_than_cores_with_a_short_switch_interval(self):
        """Every block runs exactly once under frequent thread switches:
        a block run twice or skipped changes the output bits."""
        matrix, x = _problem(600, 300, 5, density=0.05)
        expected = (matrix @ x).tobytes()
        product = RowBlocks(matrix.indptr, 64).product(matrix)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(threads, "_POOL", _pool(4)):
                for _ in range(300):
                    assert product(x).tobytes() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_row_blocks_follow_the_crossover_and_the_cpus(self, monkeypatch):
        small = np.array([0, threads.BLOCKED_MIN_NNZ - 1])
        large = np.array([0, threads.BLOCKED_MIN_NNZ])
        monkeypatch.setattr(threads, "_cpus", lambda: 2)
        assert threads.row_blocks(small) is None
        assert threads.row_blocks(large) is not None
        monkeypatch.setattr(threads, "_cpus", lambda: 1)
        assert threads.row_blocks(large) is None


def _sweep_hash(weights, y):
    """Score hash of a 4-λ multigrid sweep and a hard solve."""
    workspace = SolveWorkspace(weights, backend="multigrid")
    fits = workspace.sweep_soft(y, (0.01, 0.1, 1.0, 10.0)) + [workspace.solve_hard(y)]
    assert all(fit.solve_info.method == "multigrid_pcg" for fit in fits)
    digest = hashlib.sha256()
    for fit in fits:
        digest.update(fit.scores.tobytes())
    return digest.hexdigest()


def test_sweep_scores_do_not_depend_on_the_worker_count(monkeypatch):
    """With the crossover lowered so every level's products are blocked,
    a sweep returns the bits of the plain products at one worker, at all
    of this host's CPUs and at more workers than cores."""
    x = np.random.default_rng(0).normal(size=(3000, 3))
    weights = knn_graph(x, k=10, bandwidth=0.5).weights
    y = np.random.default_rng(1).normal(size=150)
    plain = _sweep_hash(weights, y)
    monkeypatch.setattr(threads, "BLOCKED_MIN_NNZ", 1)
    for workers in sorted({1, max(threads._cpus() - 1, 1), 3}):
        monkeypatch.setattr(threads, "_cpus", lambda workers=workers: workers + 1)
        monkeypatch.setattr(threads, "_POOL", _pool(workers))
        assert _sweep_hash(weights, y) == plain, f"{workers} workers"


@pytest.fixture
def openblas():
    """Every loaded OpenBLAS, each set to 2 threads; the counts found are
    restored afterwards."""
    libraries = threads._loaded_openblas()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded in this process")
    found = [get() for get, _ in libraries]
    for _, set_ in libraries:
        set_(2)
    yield libraries
    for (_, set_), count in zip(libraries, found):
        set_(count)


def _counts(libraries):
    return [get() for get, _ in libraries]


class TestOneBlasThread:
    def test_sets_one_thread_and_restores_on_exit(self, openblas):
        with one_blas_thread():
            assert _counts(openblas) == [1] * len(openblas)
        assert _counts(openblas) == [2] * len(openblas)

    def test_restores_on_an_exception(self, openblas):
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread():
                raise RuntimeError("inside")
        assert _counts(openblas) == [2] * len(openblas)

    def test_nested_contexts_restore_on_the_outermost_exit(self, openblas):
        with one_blas_thread():
            with one_blas_thread():
                assert _counts(openblas) == [1] * len(openblas)
            assert _counts(openblas) == [1] * len(openblas)
        assert _counts(openblas) == [2] * len(openblas)

    @pytest.mark.parametrize("first_out", ["main", "other"])
    def test_entered_from_two_threads(self, openblas, first_out):
        """The counts come back only once both threads have left."""
        inside, leave = threading.Event(), threading.Event()

        def other():
            with one_blas_thread():
                inside.set()
                assert leave.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        assert inside.wait(10)
        with one_blas_thread():
            if first_out == "other":
                leave.set()
                thread.join(10)
                assert not thread.is_alive()
            assert _counts(openblas) == [1] * len(openblas)
        if first_out == "main":
            assert _counts(openblas) == [1] * len(openblas)
            leave.set()
            thread.join(10)
            assert not thread.is_alive()
        assert _counts(openblas) == [2] * len(openblas)

    def test_a_workspace_solve_runs_inside_it(self, openblas, monkeypatch):
        import repro.linalg.workspace as workspace_module

        seen = []
        factorize = workspace_module.SolveWorkspace._factorize

        def recording(workspace, *args):
            seen.append(_counts(openblas))
            return factorize(workspace, *args)

        monkeypatch.setattr(workspace_module.SolveWorkspace, "_factorize", recording)
        x = np.random.default_rng(2).normal(size=(200, 2))
        workspace = SolveWorkspace(knn_graph(x, k=8, bandwidth=1.0).weights)
        workspace.solve_soft(np.ones(20), 0.5)
        workspace.solve_hard(np.ones(20))
        assert seen == [[1] * len(openblas)] * 2
        assert _counts(openblas) == [2] * len(openblas)


def _blocked_product_in_child(connection):
    """Run in a forked child: its pool must be a fresh one, and a blocked
    product on it must return the plain product's bits."""
    fresh = threads._POOL is None
    matrix, x = _problem(400, 400, 7)
    product = RowBlocks(matrix.indptr, 8).product(matrix)
    connection.send((fresh, product(x).tobytes() == (matrix @ x).tobytes()))
    connection.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_completes_a_blocked_product():
    """A ``fork`` child of a process whose pool has run (as the
    experiment executor's process pool makes) runs a blocked product on a
    pool of its own: the parent's workers did not survive the fork, and
    jobs put on their queues would never be taken."""
    matrix, x = _problem(400, 400, 6)
    RowBlocks(matrix.indptr, 8).product(matrix)(x)
    assert threads._POOL is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_blocked_product_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the child did not finish its product"
        assert receive.recv() == (True, True)
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
