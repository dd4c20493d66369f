"""Sharded parallel campaign execution with a deterministic merge.

The virtual-time testbed makes the paper's campaigns embarrassingly
parallel, the same way large active-measurement systems (ZMap-style
scan-out) get their throughput: partition the target population, run each
partition independently, reduce deterministically.  Three facts make the
partition exact rather than approximate:

* **Virtual time.**  Every protocol API threads explicit timestamps, and
  a campaign schedule (:func:`~repro.core.campaign.notify_schedule` /
  :func:`~repro.core.campaign.probe_schedule`) assigns each task its
  start instant up front — task *i* never inherits timing from task
  *i-1*, so executing a subset executes it at identical instants.
* **Path-pure latency.**  :class:`~repro.net.latency.UniformLatency`
  derives each path's delay from ``(seed, path)`` alone, so every
  shard's network times identical exchanges identically.
* **Shard-local state.**  All mutable state lives in per-receiver
  objects (resolver caches, greylists) or in per-delivery senders.
  :func:`~repro.core.datasets.partition_universe` assigns probes by
  mtaid and notify deliveries by provider pool, so each receiver's
  entire workload lands in exactly one shard.

This is the only campaign pipeline the runner has: one shard is the
serial case.  Each shard stands up a full :class:`~repro.core.campaign.
Testbed` for the universe (receivers filtered to its shard, DKIM key
pair handed down by the coordinator), executes its slice of the
coordinator's schedule, and returns a :class:`ShardResult`: campaign
records, the raw synthesizing-server query log, a metrics snapshot, and
its finished spans (which pickle as plain tuples).  With one worker the
shards run in-process; a process pool starts only when ``workers > 1``.
The merge layer reassembles outputs that are content-identical whatever
the shard count — the same attributed-query multiset, analysis tables,
tracecheck verdict, metrics and spans (up to span ids and one
``campaign.run`` root per shard) — which ``tests/test_core_parallel.py``
proves differentially for K ∈ {1, 2, 4}.

Workers are spawn-safe: the worker entry point is a module-level
function and everything it receives or returns pickles cleanly, so the
engine works under any ``multiprocessing`` start method.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.campaign import (
    NotifyDelivery,
    NotifyEmailCampaign,
    NotifyEmailResult,
    NotifyTask,
    ProbeCampaign,
    ProbeCampaignResult,
    ProbeTask,
    Testbed,
    make_synth_config,
    notify_schedule,
    probe_schedule,
)
from repro.core.datasets import MtaHost, Universe, UniverseShard, partition_universe
from repro.core.policies import POLICIES, policy_by_id
from repro.core.preflight import preflight_policies
from repro.core.probe import ProbeResult
from repro.core.querylog import AttributionStats, QueryIndex, attribute_queries_with_stats
from repro.core.synth import SynthConfig
from repro.dkim.rsa import RsaKeyPair
from repro.dns.server import QueryLogEntry
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, concat_spans, span_records, spans_from_records

_NOTIFY_CAMPAIGN = "notify"
_PROBE_CAMPAIGN = "probe"


@dataclass
class ShardJob:
    """Everything one worker needs, picklable under any start method.

    The coordinator pre-slices its schedule, so a worker never recomputes
    (or risks diverging from) the global ordering; task objects reference
    the same domain/host objects as ``universe``, so the pickle graph
    ships each object once.
    """

    campaign: str  # _NOTIFY_CAMPAIGN | _PROBE_CAMPAIGN
    shard: UniverseShard
    universe: Universe
    tasks: Union[List[NotifyTask], List[ProbeTask]]
    testbed_seed: int
    #: The testbed seed's DKIM key pair, generated once by the coordinator.
    keypair: RsaKeyPair
    obs_enabled: bool = True
    # notify parameters
    spacing: float = 2.0
    start_time: float = 0.0
    # probe parameters
    name: str = ""
    testids: Tuple[str, ...] = ()
    campaign_seed: int = 0
    sleep_seconds: float = 15.0
    stagger: float = 1.0
    # fault injection: the plan travels as (spec, seed) strings — each
    # worker rebuilds an identical FaultPlan, and because plan decisions
    # are pure functions of (seed, kind, endpoints, virtual time), every
    # shard draws exactly what a one-shard run would.
    faults_spec: str = ""
    faults_seed: int = 0


@dataclass
class ShardResult:
    """One worker's picklable output."""

    index: int
    deliveries: List[NotifyDelivery] = field(default_factory=list)
    probe_results: List[ProbeResult] = field(default_factory=list)
    raw_log: List[QueryLogEntry] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None
    #: The shard's finished spans, in completion order, ids from 1.
    spans: List[Span] = field(default_factory=list)

    def __getstate__(self) -> dict:
        # Spans cross the process boundary as plain tuples: a Span's
        # tracer slot would drag the shard's whole Tracer into the pickle.
        state = dict(self.__dict__)
        state["spans"] = span_records(self.spans)
        return state

    def __setstate__(self, state: dict) -> None:
        state["spans"] = spans_from_records(state["spans"])
        self.__dict__.update(state)


@dataclass
class MergedCampaign:
    """A sharded run's merged output — the same for every shard count,
    spans aside from their ids and one ``campaign.run`` root per shard.

    ``raw_log`` is the union of the shard servers' query logs in
    timestamp order, attributed once into ``result.index`` with its drop
    accounting in ``stats``; ``metrics`` is the shard registries merged
    with campaign-global gauges restored; ``spans`` concatenates the
    shards' spans in shard order, ids offset to stay unique.  A run
    continued ``after`` an earlier one leads each of these with the
    earlier run's, as one shared testbed would have logged them.
    """

    result: Union[NotifyEmailResult, ProbeCampaignResult]
    raw_log: List[QueryLogEntry]
    stats: AttributionStats
    keypair: RsaKeyPair
    synth_config: SynthConfig
    metrics: Optional[MetricsRegistry]
    spans: List[Span]
    shards: int
    workers: int
    #: Probe campaigns only: the coordinator's pre-flight audits.
    preflight_audits: Dict[str, object] = field(default_factory=dict)


def default_workers() -> int:
    """The runner's default worker count: one per CPU."""
    return os.cpu_count() or 1


def run_shard(job: ShardJob) -> ShardResult:
    """Worker entry point: build the shard's testbed, run its slice.

    Module-level (importable by name) and argument/return picklable, so
    it is valid under fork and spawn alike.
    """
    obs = Observability() if job.obs_enabled else NULL_OBS
    if job.campaign == _NOTIFY_CAMPAIGN:
        mta_filter = job.shard.notify_mtaids
    else:
        mta_filter = job.shard.mtaids
    faults = FaultPlan.parse(job.faults_spec, seed=job.faults_seed) if job.faults_spec else None
    testbed = Testbed(
        job.universe,
        seed=job.testbed_seed,
        obs=obs,
        mta_filter=mta_filter,
        faults=faults,
        keypair=job.keypair,
    )
    result = ShardResult(index=job.shard.index)
    if job.campaign == _NOTIFY_CAMPAIGN:
        campaign = NotifyEmailCampaign(
            testbed, spacing=job.spacing, start_time=job.start_time
        )
        result.deliveries = campaign.run(schedule=job.tasks).deliveries
    elif job.campaign == _PROBE_CAMPAIGN:
        probe_campaign = ProbeCampaign(
            testbed,
            job.name,
            testids=job.testids,
            sleep_seconds=job.sleep_seconds,
            stagger=job.stagger,
            start_time=job.start_time,
            seed=job.campaign_seed,
            preflight=False,  # the coordinator audited the policies once
        )
        result.probe_results = probe_campaign.run(schedule=job.tasks).results
    else:
        raise ValueError("unknown campaign kind: %r" % (job.campaign,))
    result.raw_log = testbed.synth.query_log
    if job.obs_enabled:
        result.metrics = obs.metrics
        result.spans = obs.tracer.finished
    return result


def _execute(jobs: List[ShardJob], workers: int) -> List[ShardResult]:
    """Run every job, in shard order: in-process with one worker, else
    over a pool of at most ``workers`` processes."""
    processes = min(workers, len(jobs))
    if processes <= 1:
        return [run_shard(job) for job in jobs]
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(run_shard, jobs)


def merge_raw_logs(shard_logs: Sequence[Sequence[QueryLogEntry]]) -> List[QueryLogEntry]:
    """The union of the shards' query logs in virtual-timestamp order.

    A server's log is in *arrival* order, which only differs from
    timestamp order for deferred work (post-delivery SPF checks); every
    consumer (``QueryIndex``, tracecheck, the trace dumps) orders by
    timestamp anyway, so the timestamp-sorted union is the canonical
    form.  The sort is stable with ties broken by shard order; distinct
    conversations get distinct continuous latencies, so cross-shard ties
    do not occur in practice.
    """
    merged: List[QueryLogEntry] = []
    for log in shard_logs:
        merged.extend(log)
    merged.sort(key=lambda entry: entry.timestamp)
    return merged


def _ordered_records(
    campaign: str,
    schedule: Union[Sequence[NotifyTask], Sequence[ProbeTask]],
    shard_results: Sequence[ShardResult],
    index: QueryIndex,
    name: str,
) -> Union[NotifyEmailResult, ProbeCampaignResult]:
    """The shards' records re-ordered to the coordinator's schedule —
    the order a one-shard run produces them in."""
    if campaign == _NOTIFY_CAMPAIGN:
        by_domain: Dict[str, NotifyDelivery] = {}
        for shard in shard_results:
            for delivery in shard.deliveries:
                by_domain[delivery.domain.domainid] = delivery
        deliveries = [
            by_domain[task.domain.domainid]
            for task in schedule
            if task.domain.domainid in by_domain
        ]
        return NotifyEmailResult(deliveries, index)
    by_pair: Dict[Tuple[str, str], ProbeResult] = {}
    for shard in shard_results:
        for probe in shard.probe_results:
            by_pair[(probe.mtaid, probe.testid)] = probe
    results: List[ProbeResult] = []
    probed: Dict[str, MtaHost] = {}
    recipients: Dict[str, str] = {}
    for task in schedule:
        probed[task.host.mtaid] = task.host
        recipients[task.host.mtaid] = task.rcpt_domain
        for testid in task.order:
            probe = by_pair.get((task.host.mtaid, testid))
            if probe is not None:
                results.append(probe)
    return ProbeCampaignResult(
        name=name, results=results, index=index, probed=probed, recipient_domain=recipients
    )


def _run_sharded(
    campaign: str,
    universe: Universe,
    schedule: Union[List[NotifyTask], List[ProbeTask]],
    shards: Optional[int],
    workers: Optional[int],
    testbed_seed: int,
    obs: bool,
    after: Optional[MergedCampaign],
    **params,
) -> MergedCampaign:
    """Partition, execute, and deterministically reduce one campaign.

    The reduce re-orders records to ``schedule``, merges the raw logs by
    timestamp and attributes them once, merges the metrics registries
    with the campaign-global gauge overwritten (each shard recorded its
    local slice size), and concatenates the spans.  ``after`` leads the
    raw log, metrics and spans and lends its key pair."""
    workers = workers if workers is not None else default_workers()
    shards = shards if shards is not None else max(1, workers)
    if after is not None:
        keypair, synth_config = after.keypair, after.synth_config
    else:
        keypair, synth_config = make_synth_config(testbed_seed)
    partition = partition_universe(universe, shards)
    owner: Dict[str, int] = {}
    slices: Dict[int, list] = {}
    for shard in partition:
        slices[shard.index] = []
        for key in shard.domainids if campaign == _NOTIFY_CAMPAIGN else shard.mtaids:
            owner[key] = shard.index
    for task in schedule:
        key = task.domain.domainid if campaign == _NOTIFY_CAMPAIGN else task.host.mtaid
        slices[owner[key]].append(task)
    jobs = [
        ShardJob(
            campaign=campaign,
            shard=shard,
            universe=universe,
            tasks=slices[shard.index],
            testbed_seed=testbed_seed,
            keypair=keypair,
            obs_enabled=obs,
            **params,
        )
        for shard in partition
        if slices[shard.index]
    ]
    shard_results = _execute(jobs, workers)

    raw_logs = [shard.raw_log for shard in shard_results]
    registries = [shard.metrics for shard in shard_results]
    span_parts = [shard.spans for shard in shard_results]
    if after is not None:
        raw_logs.insert(0, after.raw_log)
        registries.insert(0, after.metrics)
        span_parts.insert(0, after.spans)
    raw_log = merge_raw_logs(raw_logs)
    attributed, stats = attribute_queries_with_stats(raw_log, synth_config)
    name = params.get("name", "")
    result = _ordered_records(campaign, schedule, shard_results, QueryIndex(attributed), name)
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = []
    if obs:
        metrics = MetricsRegistry.merged(r for r in registries if r is not None)
        if isinstance(result, NotifyEmailResult):
            metrics.gauge(
                "campaign_domains", len(result.deliveries), (("campaign", "notifyemail"),)
            )
        else:
            metrics.gauge("campaign_eligible_mtas", len(schedule), (("campaign", name),))
        spans = concat_spans(span_parts)
    return MergedCampaign(
        result=result,
        raw_log=raw_log,
        stats=stats,
        keypair=keypair,
        synth_config=synth_config,
        metrics=metrics,
        spans=spans,
        shards=shards,
        workers=workers,
    )


def run_notify_sharded(
    universe: Universe,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    testbed_seed: int = 0,
    spacing: float = 2.0,
    start_time: float = 0.0,
    obs: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
) -> MergedCampaign:
    """The NotifyEmail campaign, sharded K ways (K = ``workers`` unless
    given).

    Produces deliveries, an attributed query index, metrics and spans
    content-identical to ``NotifyEmailCampaign(Testbed(universe,
    seed=testbed_seed)).run()``.
    """
    schedule = notify_schedule(universe.domains, spacing=spacing, start_time=start_time)
    return _run_sharded(
        _NOTIFY_CAMPAIGN,
        universe,
        schedule,
        shards,
        workers,
        testbed_seed,
        obs,
        after=None,
        spacing=spacing,
        start_time=start_time,
        faults_spec=faults_spec,
        faults_seed=faults_seed,
    )


def run_probe_sharded(
    universe: Universe,
    name: str,
    testids: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    testbed_seed: int = 0,
    campaign_seed: int = 0,
    sleep_seconds: float = 15.0,
    stagger: float = 1.0,
    start_time: float = 0.0,
    preflight: bool = True,
    obs: bool = True,
    faults_spec: str = "",
    faults_seed: int = 0,
    after: Optional[MergedCampaign] = None,
) -> MergedCampaign:
    """The probe campaign (NotifyMX / TwoWeekMX), sharded K ways.

    Produces results, an attributed query index, metrics and spans
    content-identical to ``ProbeCampaign(Testbed(universe,
    seed=testbed_seed), name, seed=campaign_seed, ...).run()``.  Pass
    ``after`` (an earlier run with the same ``testbed_seed``) to continue
    its testbed: the query index, raw log, metrics and spans then cover
    both runs, as NotifyMX's do after NotifyEmail, while the records
    remain this campaign's alone.
    """
    testid_list = tuple(testids) if testids is not None else tuple(p.testid for p in POLICIES)
    audits = (
        preflight_policies(policy_by_id(testid) for testid in testid_list)
        if preflight
        else {}
    )
    schedule = probe_schedule(
        universe,
        testid_list,
        seed=campaign_seed,
        stagger=stagger,
        start_time=start_time,
    )
    merged = _run_sharded(
        _PROBE_CAMPAIGN,
        universe,
        schedule,
        shards,
        workers,
        testbed_seed,
        obs,
        after=after,
        name=name,
        testids=testid_list,
        campaign_seed=campaign_seed,
        sleep_seconds=sleep_seconds,
        stagger=stagger,
        start_time=start_time,
        faults_spec=faults_spec,
        faults_seed=faults_seed,
    )
    merged.preflight_audits = audits
    return merged
