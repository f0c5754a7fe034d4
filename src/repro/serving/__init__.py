"""Inductive serving layer: out-of-sample prediction without re-solving.

Everything in :mod:`repro.core` is transductive — predictions exist only
for the vertices the criterion was solved on.  This package is the
fit-once/query-many counterpart:

* :class:`~repro.serving.model.GraphSSLModel` — fit a reference graph
  once through a :class:`~repro.linalg.workspace.SolveWorkspace` that
  caches a factorization (dense and small sparse graphs) or a Galerkin
  V-cycle (sparse graphs above a measured size), then serve new points
  through the Nadaraya-Watson rule or exact incremental vertex
  insertion preconditioned by that cache, with optional per-query
  credible intervals.
* :class:`~repro.serving.server.ModelServer` — request micro-batching
  in front of a fitted model.
* :func:`~repro.serving.evaluate.run_serve_eval` — the ``repro
  serve-eval`` driver: throughput and exact-parity numbers for a
  synthetic serving workload.

See ``docs/SERVING.md`` for the accuracy-vs-latency trade-offs.
"""

from repro.serving.evaluate import ServeEvalResult, run_serve_eval
from repro.serving.insertion import ExactInserter, InsertionResult
from repro.serving.model import SERVING_METHODS, GraphSSLModel, ServingStats
from repro.serving.queries import QueryExtractor, QueryRow
from repro.serving.server import ModelServer, PredictionTicket, ServerStats

__all__ = [
    "GraphSSLModel",
    "ModelServer",
    "PredictionTicket",
    "ServerStats",
    "ServingStats",
    "SERVING_METHODS",
    "QueryExtractor",
    "QueryRow",
    "ExactInserter",
    "InsertionResult",
    "ServeEvalResult",
    "run_serve_eval",
]
