"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation holds the Figure-1 workload fixed (Model 1, hard
criterion) and swaps one axis:

* :func:`run_kernel_ablation` — kernel family (the theorem wants compact
  support; the paper's RBF has full support);
* :func:`run_bandwidth_ablation` — bandwidth rule (paper rule vs median
  heuristic vs Scott/Silverman/k-NN);
* :func:`run_graph_ablation` — full graph vs k-NN vs epsilon
  sparsifiers;
* :func:`run_solver_ablation` — direct vs CG vs Jacobi vs Gauss-Seidel
  vs label propagation, reporting both agreement with the direct solve
  and wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.core.propagation import propagate_labels
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_replicates
from repro.experiments.sweep import SweepResult
from repro.graph.similarity import build_similarity_graph
from repro.kernels.bandwidth import (
    knn_distance_rule,
    median_heuristic,
    paper_bandwidth_rule,
    scott_rule,
    silverman_rule,
)
from repro.kernels.library import kernel_by_name
from repro.metrics.regression import root_mean_squared_error
from repro.utils.timing import Stopwatch

__all__ = [
    "run_kernel_ablation",
    "run_bandwidth_ablation",
    "run_graph_ablation",
    "run_solver_ablation",
    "SolverAblationResult",
]

_DEFAULT_KERNELS = (
    "gaussian",
    "truncated_gaussian",
    "epanechnikov",
    "boxcar",
    "triangular",
    "tricube",
)
_DEFAULT_BANDWIDTH_RULES = ("paper", "median", "scott", "silverman", "knn")
_DEFAULT_GRAPHS = ("full", "knn", "epsilon", "local_scaling")


def _ablation_sweep(
    name: str,
    variants: tuple[str, ...],
    replicate_fn,
    *,
    n_replicates: int,
    seed,
    meta: dict,
    n_jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Aggregate a single-metric replicate function over named variants."""
    summary = run_replicates(
        replicate_fn, n_replicates=n_replicates, seed=seed, n_jobs=n_jobs,
        label=name, progress=progress,
    )
    means = np.array([[summary.means[v] for v in variants]])
    stds = np.array([[summary.stds[v] for v in variants]])
    sems = np.array([[summary.sems[v] for v in variants]])
    return SweepResult(
        name=name,
        x_label="variant",
        x_values=variants,
        series_labels=("rmse",),
        means=means,
        stds=stds,
        sems=sems,
        metric="rmse",
        n_replicates=n_replicates,
        meta=meta,
    )


def _kernel_ablation_replicate(
    rng, *, kernels: tuple[str, ...], n_labeled: int, n_unlabeled: int
) -> dict[str, float]:
    """One kernel-ablation replicate (module-level so it pickles for n_jobs)."""
    instances = {name: kernel_by_name(name) for name in kernels}
    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=rng)
    base_bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    metrics = {}
    for name, kernel in instances.items():
        scale = 1.0 if not np.isfinite(kernel.support_radius) else 2.0
        graph = build_similarity_graph(
            data.x_all, kernel=kernel, bandwidth=scale * base_bandwidth
        )
        fit = solve_hard_criterion(graph.weights, data.y_labeled)
        metrics[name] = root_mean_squared_error(
            data.q_unlabeled, fit.unlabeled_scores
        )
    return metrics


def run_kernel_ablation(
    *,
    kernels: tuple[str, ...] = _DEFAULT_KERNELS,
    n_labeled: int = 200,
    n_unlabeled: int = 30,
    n_replicates: int = 50,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Hard-criterion RMSE under different kernel families.

    The bandwidth is scaled per kernel so that compactly-supported
    kernels (support radius 1) cover a similar neighbourhood as the
    Gaussian at the paper's bandwidth; without this, boxcar-style
    kernels would see far fewer neighbours and the comparison would
    conflate kernel shape with effective scale.
    """
    for name in kernels:  # validate names before any replicate runs
        kernel_by_name(name)

    return _ablation_sweep(
        "ablation_kernels", tuple(kernels),
        partial(
            _kernel_ablation_replicate,
            kernels=tuple(kernels),
            n_labeled=n_labeled,
            n_unlabeled=n_unlabeled,
        ),
        n_replicates=n_replicates, seed=seed,
        meta={"n": n_labeled, "m": n_unlabeled},
        n_jobs=n_jobs, progress=progress,
    )


def _resolve_bandwidth(rule: str, x, n: int) -> float:
    """Apply one named bandwidth rule (picklable, unlike a lambda table)."""
    if rule == "paper":
        return paper_bandwidth_rule(n, x.shape[1])
    if rule == "median":
        return median_heuristic(x)
    if rule == "scott":
        return scott_rule(x)
    if rule == "silverman":
        return silverman_rule(x)
    if rule == "knn":
        return knn_distance_rule(x)
    raise ConfigurationError(f"unknown bandwidth rule {rule!r}")


def _bandwidth_ablation_replicate(
    rng, *, rules: tuple[str, ...], n_labeled: int, n_unlabeled: int
) -> dict[str, float]:
    """One bandwidth-ablation replicate (module-level so it pickles)."""
    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=rng)
    metrics = {}
    for rule in rules:
        bandwidth = _resolve_bandwidth(rule, data.x_all, n_labeled)
        graph = build_similarity_graph(data.x_all, bandwidth=bandwidth)
        fit = solve_hard_criterion(graph.weights, data.y_labeled)
        metrics[rule] = root_mean_squared_error(
            data.q_unlabeled, fit.unlabeled_scores
        )
    return metrics


def run_bandwidth_ablation(
    *,
    rules: tuple[str, ...] = _DEFAULT_BANDWIDTH_RULES,
    n_labeled: int = 200,
    n_unlabeled: int = 30,
    n_replicates: int = 50,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Hard-criterion RMSE under different bandwidth-selection rules."""
    unknown = [r for r in rules if r not in _DEFAULT_BANDWIDTH_RULES]
    if unknown:
        raise ConfigurationError(f"unknown bandwidth rules {unknown}")

    return _ablation_sweep(
        "ablation_bandwidth", tuple(rules),
        partial(
            _bandwidth_ablation_replicate,
            rules=tuple(rules),
            n_labeled=n_labeled,
            n_unlabeled=n_unlabeled,
        ),
        n_replicates=n_replicates, seed=seed,
        meta={"n": n_labeled, "m": n_unlabeled},
        n_jobs=n_jobs, progress=progress,
    )


def _graph_ablation_replicate(
    rng,
    *,
    constructions: tuple[str, ...],
    n_labeled: int,
    n_unlabeled: int,
    knn_k: int,
    epsilon_scale: float,
) -> dict[str, float]:
    """One graph-ablation replicate (module-level so it pickles)."""
    from repro.graph.similarity import local_scaling_graph

    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=rng)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    metrics = {}
    for construction in constructions:
        if construction == "local_scaling":
            graph = local_scaling_graph(data.x_all, k=min(knn_k, 7))
        else:
            params = {}
            if construction == "knn":
                params["k"] = knn_k
            elif construction == "epsilon":
                params["radius"] = epsilon_scale * bandwidth
            graph = build_similarity_graph(
                data.x_all, graph=construction,
                bandwidth=bandwidth, **params,
            )
        fit = solve_hard_criterion(graph.weights, data.y_labeled)
        metrics[construction] = root_mean_squared_error(
            data.q_unlabeled, fit.unlabeled_scores
        )
    return metrics


def run_graph_ablation(
    *,
    constructions: tuple[str, ...] = _DEFAULT_GRAPHS,
    n_labeled: int = 200,
    n_unlabeled: int = 30,
    knn_k: int = 20,
    epsilon_scale: float = 1.5,
    n_replicates: int = 50,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Hard-criterion RMSE under full vs sparsified graph constructions."""
    unknown = [c for c in constructions if c not in _DEFAULT_GRAPHS]
    if unknown:
        raise ConfigurationError(f"unknown graph constructions {unknown}")

    return _ablation_sweep(
        "ablation_graph", tuple(constructions),
        partial(
            _graph_ablation_replicate,
            constructions=tuple(constructions),
            n_labeled=n_labeled,
            n_unlabeled=n_unlabeled,
            knn_k=knn_k,
            epsilon_scale=epsilon_scale,
        ),
        n_replicates=n_replicates, seed=seed,
        meta={"n": n_labeled, "m": n_unlabeled, "k": knn_k},
        n_jobs=n_jobs, progress=progress,
    )


@dataclass(frozen=True)
class SolverAblationResult:
    """Solver-backend comparison on one hard-criterion problem.

    Attributes
    ----------
    methods:
        Backend names (``"direct"`` is the reference).
    max_deviation:
        Per-method max-norm deviation from the direct solution.
    seconds:
        Mean wall-clock per solve.
    """

    methods: tuple[str, ...]
    max_deviation: tuple[float, ...]
    seconds: tuple[float, ...]

    def to_rows(self) -> list[list]:
        return [
            [method, dev, sec]
            for method, dev, sec in zip(self.methods, self.max_deviation, self.seconds)
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["solver", "max|f-f_direct|", "seconds"]


def run_solver_ablation(
    *,
    methods: tuple[str, ...] = ("direct", "cg", "jacobi", "gauss_seidel", "propagation"),
    n_labeled: int = 300,
    n_unlabeled: int = 100,
    repeats: int = 3,
    seed: int = 0,
) -> SolverAblationResult:
    """Compare solver backends for agreement and speed on one problem."""
    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=seed)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = build_similarity_graph(data.x_all, bandwidth=bandwidth)
    reference = solve_hard_criterion(
        graph.weights, data.y_labeled, method="direct"
    ).unlabeled_scores

    watch = Stopwatch()
    deviations = []
    for method in methods:
        scores = None
        for _ in range(repeats):
            with watch.measure(method):
                if method == "propagation":
                    scores = propagate_labels(
                        graph.weights, data.y_labeled, check_reachability=False
                    ).unlabeled_scores
                else:
                    scores = solve_hard_criterion(
                        graph.weights, data.y_labeled, method=method,
                        check_reachability=False,
                    ).unlabeled_scores
        deviations.append(float(np.max(np.abs(scores - reference))))
    return SolverAblationResult(
        methods=tuple(methods),
        max_deviation=tuple(deviations),
        seconds=tuple(watch.mean(method) for method in methods),
    )
