"""Threads inside one solve: the BLAS pools and row-blocked CSR products.

A ``multigrid`` solve is PCG on a V-cycle.  Each iteration makes three
fine-level CSR products, then dot products and norms.  Two things decide
how such a solve uses a host's cores.

* **The BLAS pools.**  numpy and SciPy each load their own OpenBLAS
  (``libscipy_openblas64_`` and ``libscipy_openblas``), and each keeps
  its own thread pool.  A dot product on a long vector wakes a pool,
  whose threads then spin on the other cores while the solve goes on
  without them.  :func:`one_blas_thread` sets every loaded OpenBLAS to
  one thread through the library's own setter and restores the previous
  counts on the outermost exit.  Every public
  :class:`~repro.linalg.workspace.SolveWorkspace` solve runs inside it.
* **Row-blocked products.**  :class:`RowBlocks` cuts a CSR pattern once
  into whole-row blocks of about equal nnz.  Its products put the blocks
  on a pool of ``len(os.sched_getaffinity(0)) - 1`` worker threads,
  created on first use, and the calling thread takes every block no
  worker has started, so a late worker costs at most the one block it
  took.  SciPy's ``csr_matvec`` releases the interpreter lock while it
  sums, so the blocks run on separate cores.  Each row is summed in
  storage order into a zeroed output, as ``A @ x`` sums it, so a blocked
  product has the bits of ``A @ x`` whatever the worker count.  Dot
  products and norms stay unblocked, because a blocked sum changes bits.

Below :data:`BLOCKED_MIN_NNZ` stored entries, or on one CPU,
:func:`row_blocks` returns ``None`` and products stay the plain ``@``:
there, a split saves less than one late worker wake-up can cost
(docs/SCALING.md, "Threads").

Both pools are per process, because the BLAS thread counts and the CPUs
are.  A child forked from a process whose pool has run starts without
one and creates its own on first use.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import queue
import threading
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np
from scipy.sparse import _sparsetools

__all__ = ["BLOCKED_MIN_NNZ", "BLOCKS_PER_THREAD", "RowBlocks", "one_blas_thread", "row_blocks"]

#: Products over a pattern with fewer stored entries than this stay the
#: plain ``A @ x``.  Below it a product takes under 0.4 ms and blocking
#: saves under 0.1 ms, about what one late worker wake-up costs on a
#: loaded host; from it on, blocked products won by 30% and more in every
#: measured session (docs/SCALING.md, "Threads").
BLOCKED_MIN_NNZ = 250_000

#: Blocks per CPU of a blocked product.  More than one lets the calling
#: thread take up the blocks of a worker that wakes late
#: (docs/SCALING.md, "Threads").
BLOCKS_PER_THREAD = 2


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# BLAS pools
# ----------------------------------------------------------------------

#: ``(getter, setter)`` symbol pairs of the OpenBLAS builds that numpy
#: (64-bit integers) and SciPy wheels load.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _loaded_openblas() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread-count getter and setter of every OpenBLAS this process
    has loaded, found through ``/proc/self/maps``; none where that file
    does not exist.  Libraries are opened with ``RTLD_NOLOAD``, so none
    is loaded here."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                fields[5].strip()
                for fields in (line.split(None, 5) for line in maps)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5])
            })
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # unmapped since, or not a shared object
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


class _BlasThreads:
    """Process-wide state of :func:`one_blas_thread`: how many contexts
    are open, and the counts the first one found.

    The libraries are looked up on the first entry and kept; a library
    loaded later is left alone.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.libraries: list | None = None
        self.saved: list[int] = []

    def enter(self) -> None:
        with self.lock:
            if self.depth == 0:
                if self.libraries is None:
                    self.libraries = _loaded_openblas()
                self.saved = [get() for get, _ in self.libraries]
                for _, set_ in self.libraries:
                    set_(1)
            self.depth += 1

    def exit(self) -> None:
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                for (_, set_), count in zip(self.libraries, self.saved, strict=True):
                    set_(count)


_BLAS = _BlasThreads()


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Reentrant, and safe to enter from several threads at once: the first
    entry saves each library's thread count and sets it to 1, and the
    last exit restores the saved counts, on an exception too.  A no-op
    where no OpenBLAS is loaded.  Usable as a decorator.
    """
    _BLAS.enter()
    try:
        yield
    finally:
        _BLAS.exit()


# ----------------------------------------------------------------------
# Row-blocked products
# ----------------------------------------------------------------------


class _Job:
    """One product's blocks, claimed in order by every thread that runs
    :meth:`work`.

    ``itertools.count`` hands out each index once under the interpreter
    lock, so no block runs twice and none is skipped.  The thread that
    finishes the last block releases ``done``.
    """

    __slots__ = ("task", "size", "claims", "finished", "done", "error")

    def __init__(self, task: Callable[[int], None], size: int):
        self.task = task
        self.size = size
        self.claims = itertools.count()
        self.finished = itertools.count(1)
        self.done = threading.Lock()
        self.done.acquire()
        self.error: BaseException | None = None

    def work(self) -> None:
        while (index := next(self.claims)) < self.size:
            try:
                self.task(index)
            except BaseException as error:  # re-raised by the caller in run()
                self.error = error
            if next(self.finished) == self.size:
                self.done.release()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get().work()


class _Pool:
    """Worker threads that help the calling thread through a job's blocks.

    Each worker waits on its own queue; :meth:`run` puts the job on every
    queue, works through the blocks itself and returns once all of them
    are done.  A worker that wakes after the last block has been claimed
    finds nothing left.  Workers are daemon threads and live as long as
    the process.
    """

    def __init__(self, n_workers: int):
        self._queues = [queue.SimpleQueue() for _ in range(n_workers)]
        for jobs in self._queues:
            threading.Thread(target=_serve, args=(jobs,), name="repro-rows", daemon=True).start()

    def run(self, task: Callable[[int], None], size: int) -> None:
        """Call ``task(i)`` once for each ``i`` in ``range(size)``."""
        job = _Job(task, size)
        for jobs in self._queues:
            jobs.put(job)
        job.work()
        if size:
            job.done.acquire()
        if job.error is not None:
            raise job.error


_POOL_LOCK = threading.Lock()
_POOL: _Pool | None = None


def _shared_pool() -> _Pool:
    """The process's pool, created on first use with one worker per CPU
    beyond the calling thread's."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = _Pool(_cpus() - 1)
        return _POOL


def _forget_pool() -> None:
    """In a forked child: the parent's workers did not survive the fork."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()
    _BLAS.lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


class RowBlocks:
    """Whole-row blocks of about equal nnz of one CSR pattern, cut once.

    ``bounds`` holds each block's ``(first row, end row)``; empty blocks
    are dropped, so a pattern with fewer rows than ``n_blocks`` gets one
    block per row.  Every matrix written into the pattern shares the
    cuts: :meth:`product` reads the rows' extents from the matrix itself.
    """

    __slots__ = ("bounds",)

    def __init__(self, indptr: np.ndarray, n_blocks: int):
        n_rows = indptr.shape[0] - 1
        targets = np.linspace(0, int(indptr[-1]), n_blocks + 1)[1:-1]
        cuts = np.unique(np.concatenate(([0], np.searchsorted(indptr, targets), [n_rows])))
        self.bounds = tuple(zip(cuts[:-1].tolist(), cuts[1:].tolist()))

    def product(self, matrix) -> Callable[[np.ndarray], np.ndarray]:
        """``x ↦ matrix @ x`` for a float64 CSR ``matrix``, its blocks run
        on the process's pool.

        Any other matrix, and input other than a float64 vector of the
        right length, goes to the plain product, which also raises on a
        mismatch.
        """
        if matrix.format != "csr" or matrix.dtype != np.float64:
            return matrix.__matmul__
        n_rows, n_cols = matrix.shape
        indices, data = matrix.indices, matrix.data
        blocks = [
            (start, stop, matrix.indptr[start : stop + 1]) for start, stop in self.bounds
        ]

        def apply(x: np.ndarray) -> np.ndarray:
            if x.dtype != np.float64 or x.shape != (n_cols,):
                return matrix @ x
            x = np.ascontiguousarray(x)
            out = np.zeros(n_rows)

            def block(index: int) -> None:
                start, stop, indptr = blocks[index]
                _sparsetools.csr_matvec(
                    stop - start, n_cols, indptr, indices, data, x, out[start:stop]
                )

            _shared_pool().run(block, len(blocks))
            return out

        return apply


def row_blocks(indptr: np.ndarray) -> RowBlocks | None:
    """The blocks products over a CSR pattern run on, or ``None`` for the
    plain product: below :data:`BLOCKED_MIN_NNZ` stored entries or on
    one CPU."""
    cpus = _cpus()
    if cpus < 2 or int(indptr[-1]) < BLOCKED_MIN_NNZ:
        return None
    return RowBlocks(indptr, BLOCKS_PER_THREAD * cpus)
