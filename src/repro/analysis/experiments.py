"""Experiment harness: parameter sweeps behind the paper's figures.

Each sweep builds BDMs analytically from block-size distributions (or
real entity lists), runs the strategy planners, simulates the cluster,
and returns tidy result records the benchmarks print.  The sweeps
mirror the paper's three experiment axes: data skew (VI-A), number of
reduce tasks (VI-B), and number of nodes (VI-C).

Sweeps also run from *persisted* pipeline results: a
:meth:`~repro.engine.PipelineResult.save`\\ d run carries its BDM, so
:func:`sweep_from_result` replans any strategy × reduce-task grid from
the file — no re-execution, no access to the original input data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..cluster.costmodel import CostModel
from ..cluster.simulation import ClusterSpec
from ..core.bdm import BlockDistributionMatrix
from ..core.planning import StrategyPlan
from ..core.two_source import DualSourceBDM
from ..engine.result import PipelineResult
from ..engine.simulate import simulate_strategy
from ..datasets.partitioning import distribute_block_sizes
from ..datasets.skew import exponential_block_sizes, pair_count
from .metrics import WorkloadStats, time_per_pairs


@dataclass(frozen=True, slots=True)
class SimulatedRun:
    """One (strategy, configuration) point of a sweep."""

    strategy: str
    num_nodes: int
    num_map_tasks: int
    num_reduce_tasks: int
    execution_time: float
    total_pairs: int
    map_output_kv: int
    reduce_stats: WorkloadStats
    plan: StrategyPlan

    @property
    def ms_per_10k_pairs(self) -> float:
        """Figure 9's y-axis: milliseconds per 10⁴ pairs."""
        return time_per_pairs(self.execution_time, self.total_pairs) * 1000.0


def simulate_run(
    strategy_name: str,
    bdm: BlockDistributionMatrix,
    *,
    num_nodes: int,
    num_reduce_tasks: int,
    cost_model: CostModel | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
    node_speeds: Sequence[float] | None = None,
) -> SimulatedRun:
    """Plan + simulate one strategy on one configuration."""
    cluster = ClusterSpec(
        num_nodes=num_nodes,
        node_speeds=tuple(node_speeds) if node_speeds is not None else None,
    )
    timeline, plan = simulate_strategy(
        strategy_name,
        bdm,
        cluster,
        num_reduce_tasks=num_reduce_tasks,
        cost_model=cost_model,
        avg_comparison_length=avg_comparison_length,
        comparison_noise_sigma=comparison_noise_sigma,
    )
    return SimulatedRun(
        strategy=strategy_name,
        num_nodes=num_nodes,
        num_map_tasks=bdm.num_partitions,
        num_reduce_tasks=num_reduce_tasks,
        execution_time=timeline.execution_time,
        total_pairs=plan.total_pairs,
        map_output_kv=plan.total_map_output_kv,
        reduce_stats=WorkloadStats.from_workloads(plan.reduce_comparisons),
        plan=plan,
    )


def bdm_for_block_sizes(
    block_sizes: Sequence[int],
    num_map_tasks: int,
    *,
    order: str = "shuffled",
    seed: int = 13,
) -> BlockDistributionMatrix:
    """Distribute a block-size distribution over ``m`` partitions and
    wrap it as a BDM (the planner-scale input path)."""
    matrix = distribute_block_sizes(
        block_sizes, num_map_tasks, order=order, seed=seed
    )
    # Blocks may end up empty after apportioning zero sizes; drop them.
    keys = [f"b{k}" for k, row in enumerate(matrix) if sum(row) > 0]
    rows = [row for row in matrix if sum(row) > 0]
    return BlockDistributionMatrix(keys, rows)


def bdm_from_result(
    result: "PipelineResult | str | Path",
) -> BlockDistributionMatrix:
    """The one-source BDM of a pipeline result (or persisted result file).

    This is the bridge from execution to analysis-at-rest: every
    BDM-based run persists its block distribution matrix, which is all
    the planners need — so sweeps replay from the file alone.

    Incremental (delta) results work too, for *every* strategy: a
    delta run always persists the merged matrix — persisted corpus
    columns plus the delta's — so the BDM returned here covers the
    whole corpus as of that ingest, not just the delta batch.  (A
    ``basic`` *full* run is the one result kind that carries no BDM.)
    """
    if not isinstance(result, PipelineResult):
        result = PipelineResult.load(result)
    bdm = result.bdm
    if bdm is None:
        raise ValueError(
            f"result (strategy {result.strategy!r}) carries no BDM — "
            "only BDM-based runs (blocksplit/pairrange) can seed sweeps"
        )
    if isinstance(bdm, DualSourceBDM):
        raise ValueError(
            "two-source results cannot seed the one-source sweep planners"
        )
    return bdm


def sweep_from_result(
    strategies: Sequence[str],
    reduce_task_counts: Sequence[int],
    result: "PipelineResult | str | Path",
    *,
    num_nodes: int = 10,
    cost_model: CostModel | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
) -> dict[int, dict[str, SimulatedRun]]:
    """Replan a reduce-task sweep from a finished (or persisted) run.

    Accepts a :class:`~repro.engine.PipelineResult` or a path to one
    saved with ``result.save(path)``; the sweep uses only the
    persisted BDM, so nothing is re-executed and the original input
    data is not needed.  Incremental (delta) results replan the whole
    corpus as of that ingest — their merged BDM spans old and new
    records alike (see :func:`bdm_from_result`).
    """
    return sweep_reduce_tasks(
        strategies,
        reduce_task_counts,
        bdm_from_result(result),
        num_nodes=num_nodes,
        cost_model=cost_model,
        avg_comparison_length=avg_comparison_length,
        comparison_noise_sigma=comparison_noise_sigma,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_skew(
    strategies: Sequence[str],
    skews: Sequence[float],
    *,
    num_entities: int,
    num_blocks: int = 100,
    num_nodes: int = 10,
    num_map_tasks: int = 20,
    num_reduce_tasks: int = 100,
    cost_model: CostModel | None = None,
    comparison_noise_sigma: float = 0.0,
    seed: int = 13,
) -> dict[float, dict[str, SimulatedRun]]:
    """Figure 9: robustness against exponential data skew."""
    results: dict[float, dict[str, SimulatedRun]] = {}
    for skew in skews:
        sizes = exponential_block_sizes(num_entities, num_blocks, skew)
        bdm = bdm_for_block_sizes(sizes, num_map_tasks, seed=seed)
        results[skew] = {
            name: simulate_run(
                name,
                bdm,
                num_nodes=num_nodes,
                num_reduce_tasks=num_reduce_tasks,
                cost_model=cost_model,
                comparison_noise_sigma=comparison_noise_sigma,
            )
            for name in strategies
        }
    return results


def sweep_reduce_tasks(
    strategies: Sequence[str],
    reduce_task_counts: Sequence[int],
    bdm: BlockDistributionMatrix,
    *,
    num_nodes: int = 10,
    cost_model: CostModel | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
) -> dict[int, dict[str, SimulatedRun]]:
    """Figures 10 and 12: vary r on a fixed cluster and dataset."""
    results: dict[int, dict[str, SimulatedRun]] = {}
    for r in reduce_task_counts:
        results[r] = {
            name: simulate_run(
                name,
                bdm,
                num_nodes=num_nodes,
                num_reduce_tasks=r,
                cost_model=cost_model,
                avg_comparison_length=avg_comparison_length,
                comparison_noise_sigma=comparison_noise_sigma,
            )
            for name in strategies
        }
    return results


def sweep_nodes(
    strategies: Sequence[str],
    node_counts: Sequence[int],
    block_sizes: Sequence[int],
    *,
    map_tasks_per_node: int = 2,
    reduce_tasks_per_node: int = 10,
    order: str = "shuffled",
    cost_model: CostModel | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
    seed: int = 13,
) -> dict[int, dict[str, SimulatedRun]]:
    """Figures 13/14: scale nodes with m = 2n and r = 10n.

    The BDM is rebuilt per node count because the number of input
    partitions (m) changes with n.
    """
    results: dict[int, dict[str, SimulatedRun]] = {}
    for n in node_counts:
        m = map_tasks_per_node * n
        r = reduce_tasks_per_node * n
        bdm = bdm_for_block_sizes(block_sizes, m, order=order, seed=seed)
        results[n] = {
            name: simulate_run(
                name,
                bdm,
                num_nodes=n,
                num_reduce_tasks=r,
                cost_model=cost_model,
                avg_comparison_length=avg_comparison_length,
                comparison_noise_sigma=comparison_noise_sigma,
            )
            for name in strategies
        }
    return results


def sweep_input_order(
    strategies: Sequence[str],
    orders: Sequence[str],
    block_sizes: Sequence[int],
    *,
    num_map_tasks: int = 20,
    num_nodes: int = 10,
    reduce_task_counts: Sequence[int] = (20, 40, 60, 80, 100, 120, 140, 160),
    cost_model: CostModel | None = None,
    comparison_noise_sigma: float = 0.0,
    seed: int = 13,
) -> dict[str, dict[int, dict[str, SimulatedRun]]]:
    """Figure 11: unsorted vs. sorted (by blocking key) input data."""
    results: dict[str, dict[int, dict[str, SimulatedRun]]] = {}
    for order in orders:
        bdm = bdm_for_block_sizes(
            block_sizes, num_map_tasks, order=order, seed=seed
        )
        results[order] = sweep_reduce_tasks(
            strategies,
            reduce_task_counts,
            bdm,
            num_nodes=num_nodes,
            cost_model=cost_model,
            comparison_noise_sigma=comparison_noise_sigma,
        )
    return results


def dataset_statistics(block_sizes: Sequence[int]) -> dict[str, float]:
    """The Figure 8 row for one dataset."""
    from ..datasets.skew import largest_block_share

    entity_share, pair_share = largest_block_share(block_sizes)
    return {
        "entities": float(sum(block_sizes)),
        "blocks": float(len(block_sizes)),
        "pairs": float(pair_count(block_sizes)),
        "largest_block_entity_share": entity_share,
        "largest_block_pair_share": pair_share,
    }
