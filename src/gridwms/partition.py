"""Job partitioning and sub-job state merging.

A partitionable job declares a number of independent steps; it is
decomposed into checkpointable sub-jobs with contiguous, non-overlapping
step ranges covering [0, jobSteps), plus an aggregator node that depends
on every sub-job and merges their final saved states.
"""

from __future__ import annotations

from .classad import ClassAd, Integer, ListExpr, Literal, SubAd, Text
from .jdl import DagDescription, JobDescription, ValidationError, Violation, validate_dag
from .util import python_executable

AGGREGATOR_NODE = "aggregator"


def step_ranges(job_steps: int, sub_jobs: int) -> list[tuple[int, int]]:
    """Contiguous half-open ranges covering [0, job_steps), sizes differing
    by at most one."""
    if sub_jobs > job_steps:
        raise ValidationError([Violation("range", "SubJobs", "subJobs must be <= jobSteps")])
    base, extra = divmod(job_steps, sub_jobs)
    ranges = []
    start = 0
    for i in range(sub_jobs):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def partition_job(job: JobDescription) -> DagDescription:
    """Decompose a partitionable job into a DAG of checkpointable
    sub-jobs plus one aggregator node.

    Sub-job n<i> receives StepFirst/StepLast bounds (half-open) which the
    adapter exports as WMS_STEP_FIRST / WMS_STEP_LAST.  The aggregator's
    command collects each sub-job's final saved state and saves the
    merged, node-namespaced pairs as its own checkpoint state.
    """
    if job.job_type != "Partitionable":
        raise ValidationError([Violation("type", "JobType", "not a partitionable job")])
    assert job.job_steps is not None and job.sub_jobs is not None
    ranges = step_ranges(job.job_steps, job.sub_jobs)

    node_items = []
    sub_names = []
    for i, (first, last) in enumerate(ranges):
        name = f"n{i}"
        sub_names.append(name)
        sub_ad = (
            job.ad.with_attr("JobType", Literal(Text("Checkpointable")))
            .with_attr("JobSteps", Literal(Integer(last - first)))
            .with_attr("StepFirst", Literal(Integer(first)))
            .with_attr("StepLast", Literal(Integer(last)))
            .without_attr("SubJobs")
        )
        node_items.append((name, SubAd(sub_ad)))

    aggregator_ad = (
        job.ad.with_attr("JobType", Literal(Text("Normal")))
        .with_attr("Executable", Literal(Text(python_executable())))
        .with_attr("Arguments", Literal(Text("-m gridwms.aggregate")))
        .without_attr("JobSteps")
        .without_attr("SubJobs")
        .without_attr("InputSandbox")
        .without_attr("OutputSandbox")
        .without_attr("StdInput")
    )
    node_items.append((AGGREGATOR_NODE, SubAd(aggregator_ad)))

    deps = ListExpr(
        tuple(ListExpr((Literal(Text(n)), Literal(Text(AGGREGATOR_NODE)))) for n in sub_names)
    )
    dag_ad = ClassAd(
        [
            ("Type", Literal(Text("DAG"))),
            ("Nodes", SubAd(ClassAd(node_items))),
            ("Dependencies", deps),
            ("Aggregator", Literal(Text(AGGREGATOR_NODE))),
        ]
    )
    return validate_dag(dag_ad)


def merge_pairs(states: dict[str, list[tuple[str, str]]]) -> list[tuple[str, str]]:
    """Union of per-node states with variables namespaced <node>.<var>,
    in deterministic (node, var) order."""
    merged = []
    for node in sorted(states):
        for var, value in sorted(states[node]):
            merged.append((f"{node}.{var}", value))
    return merged

