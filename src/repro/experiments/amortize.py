"""Shared sweep-backend plumbing for the experiment drivers.

Every λ-sweep driver exposes ``sweep_backend``, one of
:data:`~repro.linalg.workspace.SWEEP_BACKEND_CHOICES`:

* ``"direct"`` (default) — per-point :func:`repro.core.soft.solve_soft_criterion`
  solves, bit-identical to previous releases;
* ``"exact"`` / ``"factored"`` / ``"multigrid"`` — one
  :class:`~repro.linalg.workspace.SolveWorkspace` per replicate (or per
  fixed graph) amortizes assembly, factorization and warm starts across
  the grid.  ``"exact"`` stays bit-compatible with direct full-system
  solves; ``"factored"``/``"multigrid"`` stop at relative residual
  ``pcg_tol`` (validated at atol 1e-8 in the parity suite).
"""

from __future__ import annotations

from repro.linalg.workspace import (
    SWEEP_BACKEND_CHOICES,
    SolveWorkspace,
    check_sweep_backend,
)

__all__ = ["SWEEP_BACKEND_CHOICES", "check_sweep_backend", "make_workspace"]


def make_workspace(weights, sweep_backend: str):
    """A :class:`SolveWorkspace` for the backend, or ``None`` for direct."""
    check_sweep_backend(sweep_backend)
    if sweep_backend == "direct":
        return None
    return SolveWorkspace(weights, backend=sweep_backend)
