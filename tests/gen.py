"""Randomized scenario construction for property tests.

Platforms are drawn at desk scale: model-unit speeds around 1 / 3.6 / 36 and
power coefficients small enough that offloading can actually pay, so the
feasible region is non-trivial.  The all-local placement is always feasible
under the generated budgets (local energy is ~1e-8 per task), which keeps the
exhaustive solver's optimum well defined.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from fogsched import (
    CloudSpec,
    FogSpec,
    Placement,
    Platform,
    RadioLink,
    SAConfig,
    Scenario,
    TaskGraph,
    TaskSpec,
    Tier,
)

FIG4_SIZES = (170.4, 876.0, 536.0, 291.9, 484.9, 392.0, 554.3, 425.6, 722.6)


def chain_graph(sizes, data_sizes=None) -> TaskGraph:
    if data_sizes is None:
        data_sizes = sizes
    tasks = [
        TaskSpec(id=i + 1, workload=float(w), data_size=float(d))
        for i, (w, d) in enumerate(zip(sizes, data_sizes))
    ]
    edges = [(i, i + 1) for i in range(1, len(tasks))]
    return TaskGraph(tasks, edges)


def random_dag(rng: np.random.Generator, n: int, p_edge: float = 0.35) -> TaskGraph:
    """Random DAG with ids in topological order (edges only go forward)."""
    w = rng.uniform(50.0, 1000.0, size=n)
    d = w * rng.uniform(0.5, 2.0, size=n)
    tasks = [TaskSpec(id=i + 1, workload=float(w[i]), data_size=float(d[i])) for i in range(n)]
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p_edge
    ]
    return TaskGraph(tasks, edges)


def permute_ids(rng: np.random.Generator, graph: TaskGraph) -> TaskGraph:
    """The same DAG with its task ids shuffled, so that the ids are usually
    not a topological order."""
    new = [int(v) + 1 for v in rng.permutation(len(graph))]
    tasks = [replace(t, id=new[t.id - 1]) for t in graph.tasks]
    return TaskGraph(tasks, [(new[a - 1], new[b - 1]) for a, b in graph.edges])


def desk_platform(rng: np.random.Generator | None = None) -> Platform:
    """Randomized desk-scale platform; deterministic defaults when rng is None."""
    if rng is None:
        return Platform(
            device_cpu=1.0,
            kappa=1e-11,
            fog=FogSpec(cpu=3.6, alpha=1e-5, beta=1e-4, epsilon=3.0, price=0.001),
            cloud=CloudSpec(cpu=36.0, alpha=1e-7, beta=1e-4, epsilon=3.0, price=0.004),
            fog_cloud_bandwidth=100.0,
            fog_forward_power=0.1,
            radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
        )
    tx_max = rng.uniform(0.5, 2.0)
    return Platform(
        device_cpu=rng.uniform(0.5, 2.0),
        kappa=1e-11,
        fog=FogSpec(
            cpu=rng.uniform(2.0, 6.0),
            alpha=rng.uniform(1e-6, 1.2e-5),
            beta=rng.uniform(1e-5, 3e-4),
            epsilon=rng.uniform(2.5, 3.0),
            price=rng.uniform(5e-4, 2e-3),
        ),
        cloud=CloudSpec(
            cpu=rng.uniform(20.0, 50.0),
            # spans per-task profitable and unprofitable cloud service
            alpha=rng.uniform(1e-8, 4e-6),
            beta=rng.uniform(1e-5, 3e-4),
            epsilon=rng.uniform(2.5, 3.0),
            price=rng.uniform(2e-3, 8e-3),
        ),
        fog_cloud_bandwidth=rng.uniform(50.0, 200.0),
        fog_forward_power=rng.uniform(0.0, 0.15),
        radio=RadioLink(
            bandwidth=rng.uniform(2.0, 10.0),
            tx_power_max=tx_max,
            channel_gain=rng.uniform(0.5, 2.0),
            noise=rng.uniform(0.5, 2.0),
            interference=0.0 if rng.random() < 0.7 else rng.uniform(0.0, 1.0),
            tx_power=tx_max * rng.uniform(0.5, 1.0),
        ),
    )


def benign_platform(rng: np.random.Generator) -> Platform:
    """Both offloaded tiers profitable on every task and forwarding free, so
    no placement can turn a utility negative and annealing runs full length."""
    base = desk_platform(rng)
    return Platform(
        device_cpu=base.device_cpu,
        kappa=base.kappa,
        fog=base.fog,
        cloud=CloudSpec(
            cpu=base.cloud.cpu,
            alpha=rng.uniform(1e-8, 5e-8),
            beta=1e-5,
            epsilon=base.cloud.epsilon,
            price=base.cloud.price,
        ),
        fog_cloud_bandwidth=base.fog_cloud_bandwidth,
        fog_forward_power=0.0,
        radio=base.radio,
    )


def random_scenario(
    rng: np.random.Generator,
    n_max: int = 8,
    allow_infinite_budget: bool = True,
    benign: bool = False,
) -> Scenario:
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.5:
        w = rng.uniform(50.0, 1000.0, size=n)
        graph = chain_graph(w, w * rng.uniform(0.5, 2.0, size=n))
    else:
        graph = random_dag(rng, n)
    platform = benign_platform(rng) if benign else desk_platform(rng)
    all_fog_cost = platform.fog.price * sum(t.data_size for t in graph.tasks)
    if benign:
        # generous: random placements fit, so annealing rarely restarts
        budget = float("inf") if rng.random() < 0.5 else 10.0 * all_fog_cost
    elif allow_infinite_budget and rng.random() < 0.3:
        budget = float("inf")
    else:
        budget = float(rng.uniform(0.3, 1.5)) * all_fog_cost
    return Scenario(
        graph=graph,
        platform=platform,
        budget=budget,
        seed=int(rng.integers(0, 2**32)),
        solver_config=SAConfig(),
    )


def random_placement(rng: np.random.Generator, graph: TaskGraph) -> Placement:
    return Placement(
        {t.id: Tier(int(rng.integers(1, 4))) for t in graph.tasks}
    )
