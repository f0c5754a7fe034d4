"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching unrelated
``ValueError``/``RuntimeError`` instances::

    try:
        fit = solve_hard_criterion(weights, labels)
    except ReproError as exc:
        log.warning("graph SSL failed: %s", exc)
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataValidationError",
    "GraphStructureError",
    "DisconnectedGraphError",
    "SingularSystemError",
    "ConvergenceError",
    "AssumptionViolationError",
    "NotFittedError",
    "ConfigurationError",
    "NonFiniteMetricError",
    "WorkspaceInvalidatedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DataValidationError(ReproError, ValueError):
    """Raised when user-supplied arrays fail shape/dtype/finite checks."""


class GraphStructureError(ReproError, ValueError):
    """Raised when a similarity graph is structurally unusable.

    Examples: a non-square or asymmetric weight matrix, negative weights,
    or an isolated unlabeled vertex with zero degree.
    """


class DisconnectedGraphError(GraphStructureError):
    """Raised when unlabeled vertices cannot reach any labeled vertex.

    The hard criterion's linear system ``(D22 - W22) f_u = W21 y`` is
    singular exactly when some connected component of the graph contains
    unlabeled vertices only; there is then no information with which to
    label that component.
    """

    def __init__(self, message: str, component_indices: tuple[int, ...] = ()):
        super().__init__(message)
        #: Indices (into the full vertex set) of one offending component.
        self.component_indices = component_indices


class SingularSystemError(ReproError, ValueError):
    """Raised when a linear system required by a criterion is singular."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative solver fails to reach tolerance.

    Carries the iteration count and final residual so callers can decide
    whether to retry with a looser tolerance or a direct solver.
    """

    def __init__(self, message: str, iterations: int = -1, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class AssumptionViolationError(ReproError, ValueError):
    """Raised when inputs violate the assumptions of Theorem II.1.

    Only raised by the strict-mode theory checkers in
    :mod:`repro.core.theory`; the estimators themselves accept any valid
    graph and merely warn, because the paper's own experiments use a
    kernel (the Gaussian RBF) that violates the compact-support condition.
    """


class NotFittedError(ReproError, RuntimeError):
    """Raised when ``predict``/``score`` is called before ``fit``."""


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid experiment or estimator configuration values."""


class WorkspaceInvalidatedError(ReproError, RuntimeError):
    """Raised when a solve workspace detects its graph was mutated.

    A :class:`~repro.linalg.workspace.SolveWorkspace` fingerprints its
    weight matrix at construction; serving a cached factorization or
    hierarchy after the weights changed would silently return answers
    for a different graph, so the workspace always raises this instead.
    Call :meth:`~repro.linalg.workspace.SolveWorkspace.invalidate` to
    adopt edited weights explicitly.
    """


class NonFiniteMetricError(ReproError, ValueError):
    """Raised when a replicate returns a NaN/inf metric under strict mode.

    A non-finite replicate value would silently poison every downstream
    mean/std/sem; :func:`repro.experiments.runner.run_replicates` raises
    this (naming the metric and replicate index) unless ``strict=False``,
    in which case it warns and counts the event instead.
    """
