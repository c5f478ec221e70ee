"""Shared machinery for backends that really run the MapReduce jobs.

The two-job workflow (Figure 2) is identical for serial and parallel
execution — only the runtime that schedules the task units differs, so
subclasses supply :meth:`ExecutingBackendBase.make_runtime` and nothing
else.  One- and two-source matching share this single code path, and
the Basic strategy is routed through ``strategy.build_job`` like every
other strategy (the blocking function travels with the request).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.bdm import analytic_bdm, compute_bdm
from ..core.delta import merge_delta_bdm
from ..core.planning import BdmJobPlan, StrategyPlan, plan_bdm_job
from ..core.two_source import analytic_dual_bdm, compute_dual_bdm
from ..er.matching import MatchResult
from ..mapreduce.runtime import LocalRuntime
from ..mapreduce.types import Partition
from .backend import ExecutionBackend, PipelineRequest
from .result import PipelineResult
from .simulate import simulate_executed_workflow


def analytic_plans(
    request: PipelineRequest,
    bdm=None,
    *,
    raw_partition_sizes: tuple[int, ...] | None = None,
) -> tuple[StrategyPlan | None, BdmJobPlan | None]:
    """The request's analytic workload plans (Job 2 and, when the
    strategy needs it, Job 1).

    ``bdm`` is reused when an executing backend already computed it;
    otherwise it is derived analytically from the input partitions.
    ``raw_partition_sizes`` likewise short-circuits the request's
    property when the caller already knows the split sizes (the planned
    backend gets them from the same streaming pass as the BDM, so a
    record source is not streamed twice).  Degenerate inputs with no
    blocked entities at all have no plannable workload and yield
    ``(None, None)``.
    """
    strategy = request.strategy
    r = request.num_reduce_tasks
    if bdm is None:
        bdm = (
            analytic_dual_bdm(request.partitions, request.blocking)
            if request.dual
            else analytic_bdm(request.partitions, request.blocking)
        )
    if bdm.num_blocks == 0:
        return None, None
    if request.dual:
        plan = strategy.plan_dual(bdm, r)
    else:
        plan = strategy.plan(bdm, r)
    bdm_plan = None
    if strategy.requires_bdm:
        if raw_partition_sizes is None:
            raw_partition_sizes = request.raw_partition_sizes
        bdm_plan = plan_bdm_job(
            bdm,
            r,
            use_combiner=request.use_bdm_combiner,
            raw_partition_sizes=raw_partition_sizes,
        )
    return plan, bdm_plan


#: Stage labels stamped onto execution events (``ExecutionEvent.stage``).
STAGE_BDM = "bdm"
STAGE_MATCHING = "matching"


class ExecutingBackendBase(ExecutionBackend):
    """Runs Job 1 (when needed) and Job 2 on a runtime subclasses pick.

    The event channel, when given, is attached to the runtime so every
    job run through it emits lifecycle events; the base sets the
    workflow stage label (``"bdm"`` for Job 1, ``"matching"`` for
    Job 2) before each job, which is how the execution handle tells the
    two apart — in particular, ``"matching"`` reduce outputs are the
    streamed matches.
    """

    executes = True

    def make_runtime(self) -> LocalRuntime:
        raise NotImplementedError

    def execute(
        self, request: PipelineRequest, events=None
    ) -> PipelineResult:
        if events is not None:
            events.raise_if_cancelled()
        if not request.partitions and request.source is not None:
            # A streaming-only request: materialize the shards (one at a
            # time) — executing backends need the records in memory.
            request = replace(
                request, partitions=tuple(request.source.as_partitions())
            )
        runtime = self.make_runtime()
        runtime.events = events
        try:
            return self._execute_on(runtime, request)
        finally:
            runtime.close()

    @staticmethod
    def _set_stage(runtime: LocalRuntime, stage: str) -> None:
        if runtime.events is not None:
            runtime.events.stage = stage

    def _execute_on(self, runtime: LocalRuntime, request: PipelineRequest) -> PipelineResult:
        if request.delta is not None:
            return self._execute_delta(runtime, request)
        strategy = request.strategy
        r = request.num_reduce_tasks
        budget = request.memory_budget
        if request.dual:
            self._set_stage(runtime, STAGE_BDM)
            bdm, job1, annotated = compute_dual_bdm(
                runtime,
                request.partitions,
                request.blocking,
                num_reduce_tasks=r,
                use_combiner=request.use_bdm_combiner,
                memory_budget=budget,
            )
            job = strategy.build_dual_job(bdm, request.matcher, r)
            self._set_stage(runtime, STAGE_MATCHING)
            job2 = runtime.run(
                job, annotated, r,
                properties=request.properties, memory_budget=budget,
            )
        elif strategy.requires_bdm:
            self._set_stage(runtime, STAGE_BDM)
            bdm, job1, annotated = compute_bdm(
                runtime,
                request.partitions,
                request.blocking,
                num_reduce_tasks=r,
                use_combiner=request.use_bdm_combiner,
                memory_budget=budget,
            )
            job = strategy.build_job(
                bdm, request.matcher, r, blocking=request.blocking
            )
            self._set_stage(runtime, STAGE_MATCHING)
            job2 = runtime.run(
                job, annotated, r,
                properties=request.properties, memory_budget=budget,
            )
        else:
            bdm, job1 = None, None
            job = strategy.build_job(
                None, request.matcher, r, blocking=request.blocking
            )
            self._set_stage(runtime, STAGE_MATCHING)
            job2 = runtime.run(
                job, request.partitions, r,
                properties=request.properties, memory_budget=budget,
            )

        plan, bdm_plan = analytic_plans(request, bdm)
        result = PipelineResult(
            strategy=strategy.name,
            backend=self.name,
            matches=MatchResult(record.value for record in job2.output),
            bdm=bdm,
            job1=job1,
            job2=job2,
            plan=plan,
            bdm_plan=bdm_plan,
        )
        if request.cluster is not None:
            timeline = simulate_executed_workflow(
                result, request.cluster, request.cost_model
            )
            result = replace(result, timeline=timeline)
        return result

    def _execute_delta(
        self, runtime: LocalRuntime, request: PipelineRequest
    ) -> PipelineResult:
        """The incremental path: Job 1 over the *delta only*, then Job 2
        over persisted-annotated + delta-annotated partitions with a
        delta-aware matching job.

        Old records never pass through Job 1 again — their blocking keys
        and block counts come from the persisted :class:`~repro.engine.
        backend.DeltaSpec`.  Every strategy runs Job 1 on the delta
        (even Basic, which skips it on full runs): the merged BDM is
        needed to enumerate the remaining ``T(n) − T(o)`` pairs, and the
        uniform counters keep incremental results plannable.
        """
        spec = request.delta
        if spec is None:
            raise RuntimeError("_execute_delta called without request.delta")
        strategy = request.strategy
        r = request.num_reduce_tasks
        budget = request.memory_budget
        self._set_stage(runtime, STAGE_BDM)
        delta_plain, job1, delta_annotated = compute_bdm(
            runtime,
            request.partitions,
            request.blocking,
            num_reduce_tasks=r,
            use_combiner=request.use_bdm_combiner,
            memory_budget=budget,
        )
        merged = merge_delta_bdm(spec.old_bdm, delta_plain, len(request.partitions))
        # Job 2's input: the persisted annotated corpus followed by the
        # delta's fresh annotation, re-indexed contiguously — old before
        # new is what lets the delta reduces buffer old entities first.
        job2_input = [
            Partition(list(p), index=i)
            for i, p in enumerate(list(spec.old_partitions) + list(delta_annotated))
        ]
        job = strategy.build_delta_job(merged, request.matcher, r)
        self._set_stage(runtime, STAGE_MATCHING)
        job2 = runtime.run(
            job, job2_input, r,
            properties=request.properties, memory_budget=budget,
        )
        plan = (
            strategy.plan_delta(merged, r) if merged.num_blocks else None
        )
        bdm_plan = (
            plan_bdm_job(
                delta_plain,
                r,
                use_combiner=request.use_bdm_combiner,
                raw_partition_sizes=request.raw_partition_sizes,
            )
            if delta_plain.num_blocks
            else None
        )
        result = PipelineResult(
            strategy=strategy.name,
            backend=self.name,
            matches=MatchResult(record.value for record in job2.output),
            bdm=merged.matrix,
            job1=job1,
            job2=job2,
            plan=plan,
            bdm_plan=bdm_plan,
        )
        if request.cluster is not None:
            timeline = simulate_executed_workflow(
                result, request.cluster, request.cost_model
            )
            result = replace(result, timeline=timeline)
        return result
