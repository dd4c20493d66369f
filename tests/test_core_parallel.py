"""Tests for sharded parallel campaign execution (repro.core.parallel).

The load-bearing property is *differential*: for K ∈ {1, 2, 4} a sharded
run must produce the same attributed-query multiset, the same analysis
tables, the same metrics, the same spans, and the same tracecheck
verdict as one campaign on one testbed.  Everything else (partition
stability, merge algebra) supports that headline guarantee.
"""

import json
import math
import pickle
from collections import Counter

import pytest

from repro.core import analysis as A
from repro.core import parallel
from repro.core.campaign import (
    NotifyEmailCampaign,
    ProbeCampaign,
    Testbed,
    make_synth_config,
    notify_schedule,
    probe_schedule,
)
from repro.core.datasets import (
    DatasetSpec,
    generate_universe,
    partition_universe,
    shard_index,
    stable_hash64,
)
from repro.core.parallel import (
    ShardJob,
    merge_raw_logs,
    run_notify_sharded,
    run_probe_sharded,
    run_shard,
)
from repro.core.querylog import QueryIndex
from repro.lint.tracecheck import check_index
from repro.obs import Observability
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.reconcile import reconcile_spans
from repro.obs.spans import span_records


@pytest.fixture(scope="module")
def universe():
    return generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)


@pytest.fixture(scope="module")
def serial_notify(universe):
    obs = Observability()
    testbed = Testbed(universe, seed=3, obs=obs)
    result = NotifyEmailCampaign(testbed).run()
    return result, testbed, obs


@pytest.fixture(scope="module")
def serial_probe(universe):
    obs = Observability()
    testbed = Testbed(universe, seed=3, obs=obs)
    result = ProbeCampaign(testbed, "notifymx", seed=5, start_time=1e7).run()
    return result, testbed, obs


def query_key(query):
    """Everything observable about one attributed query.

    qname compares by case-insensitive key: DNS 0x20 casing is resolver
    state, invisible to attribution and to every analysis.
    """
    return (
        query.timestamp,
        query.entry.qname.key,
        int(query.qtype),
        query.transport,
        query.entry.client_ip,
        query.mtaid,
        query.testid,
    )


def span_multiset(spans):
    """(name, t0, t1, attrs) of every span below the per-shard roots.

    Span ids depend on how the schedule was split, and every shard opens
    its own ``campaign.run`` root; everything else must not."""
    return Counter(
        (span.name, span.t_start, span.t_end, json.dumps(span.attrs, sort_keys=True, default=str))
        for span in spans
        if span.name != "campaign.run"
    )


def assert_span_ids_consistent(spans):
    ids = [span.span_id for span in spans]
    assert len(set(ids)) == len(ids)
    known = set(ids)
    assert all(span.parent_id is None or span.parent_id in known for span in spans)


class TestPartition:
    def test_stable_hash_is_seed_independent(self):
        # A golden value: blake2b is stable across processes and runs,
        # unlike the salted builtin hash().
        assert stable_hash64("mta00001") == stable_hash64("mta00001")
        assert shard_index("mta00001", 4) == stable_hash64("mta00001") % 4

    def test_partition_is_disjoint_and_complete(self, universe):
        for shards in (1, 2, 4, 7):
            partition = partition_universe(universe, shards)
            assert len(partition) == shards
            all_domains = [d for shard in partition for d in shard.domainids]
            all_mtas = [m for shard in partition for m in shard.mtaids]
            assert len(all_domains) == len(set(all_domains))
            assert sorted(all_domains) == sorted(d.domainid for d in universe.domains)
            assert len(all_mtas) == len(set(all_mtas))
            assert sorted(all_mtas) == sorted(h.mtaid for h in universe.mtas)

    def test_domains_follow_their_provider(self, universe):
        """Every domain of one provider lands in one shard, and that
        shard's notify pool covers the provider's MTAs — receiver state
        (resolver caches, greylists) must stay shard-local."""
        partition = partition_universe(universe, 4)
        domain_shard = {}
        for shard in partition:
            for domainid in shard.domainids:
                domain_shard[domainid] = shard
        for domain in universe.domains:
            shard = domain_shard[domain.domainid]
            for host in domain.mta_hosts:
                assert host.mtaid in shard.notify_mtaids

    def test_membership_independent_of_universe_seed(self):
        a = generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)
        b = generate_universe(DatasetSpec.notify_email(scale=0.004), seed=7)
        assert [s.mtaids for s in partition_universe(a, 4)] == [
            s.mtaids for s in partition_universe(b, 4)
        ]


class TestMergeAlgebra:
    def _registry(self, base):
        registry = MetricsRegistry()
        registry.counter("x_total", (("k", "a"),), value=base, t=float(base))
        registry.counter("x_total", (("k", "b"),), value=2 * base)
        registry.observe("d_seconds", 0.1 * base)
        registry.observe("d_seconds", 3.0)
        registry.gauge("g", base)
        return registry

    def test_registry_merge_is_associative_and_commutative(self):
        registries = [self._registry(b) for b in (1, 2, 3)]
        left = MetricsRegistry.merged(
            [MetricsRegistry.merged(registries[:2]), registries[2]]
        )
        right = MetricsRegistry.merged(
            [registries[0], MetricsRegistry.merged(registries[1:])]
        )
        reversed_ = MetricsRegistry.merged([self._registry(b) for b in (3, 2, 1)])
        for other in (right, reversed_):
            assert left.counter_value("x_total", (("k", "a"),)) == other.counter_value(
                "x_total", (("k", "a"),)
            )
            assert left.histogram("d_seconds").counts == other.histogram("d_seconds").counts
            assert math.isclose(
                left.histogram("d_seconds").total, other.histogram("d_seconds").total
            )
            assert left.virtual_time == other.virtual_time == 3.0
        # Gauges are last-writer-wins: the one intentionally
        # order-dependent series (callers overwrite campaign globals).
        assert left.gauge_value("g") == 3.0
        assert reversed_.gauge_value("g") == 1.0

    def test_histogram_merge_rejects_different_buckets(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 3.0])
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_query_index_merge_matches_rebuild(self, serial_probe):
        result, _, _ = serial_probe
        queries = result.index.queries
        parts = [
            QueryIndex(queries[0::3]),
            QueryIndex(queries[1::3]),
            QueryIndex(queries[2::3]),
        ]
        merged = QueryIndex.merge(parts)
        assert Counter(map(query_key, merged.queries)) == Counter(map(query_key, queries))
        assert merged.mtas_observed() == result.index.mtas_observed()
        assert sorted(merged.pairs()) == sorted(result.index.pairs())


def assert_metrics_equal(serial: MetricsRegistry, merged: MetricsRegistry):
    assert serial.names() == merged.names()
    for name in serial.names():
        kind = serial.kind_of(name)
        assert merged.kind_of(name) == kind
        for labels, value in serial.series(name):
            if kind == "counter":
                assert merged.counter_value(name, labels) == value, (name, labels)
            elif kind == "gauge":
                assert merged.gauge_value(name, labels) == value, (name, labels)
            else:
                other = merged.histogram(name, labels)
                assert other is not None
                assert other.counts == value.counts, (name, labels)
                assert other.count == value.count
                # Float sums associate differently across shards; counts
                # and bucket contents are exact.
                assert math.isclose(other.total, value.total, rel_tol=1e-9)
    assert merged.virtual_time == serial.virtual_time


class TestDifferentialEquivalence:
    """Serial vs sharded, K ∈ {1, 2, 4}, both campaign kinds."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_notify_campaign(self, universe, serial_notify, shards):
        serial, _, obs = serial_notify
        merged = run_notify_sharded(universe, shards=shards, workers=1, testbed_seed=3)
        assert Counter(map(query_key, merged.result.index.queries)) == Counter(
            map(query_key, serial.index.queries)
        )
        assert span_multiset(merged.spans) == span_multiset(obs.tracer.finished)
        assert_span_ids_consistent(merged.spans)
        roots = [span for span in merged.spans if span.name == "campaign.run"]
        assert 1 <= len(roots) <= shards
        assert sum(root.attrs["domains"] for root in roots) == len(serial.deliveries)
        assert [d.domain.domainid for d in merged.result.deliveries] == [
            d.domain.domainid for d in serial.deliveries
        ]
        assert [d.delivery.accepted_with_250 for d in merged.result.deliveries] == [
            d.delivery.accepted_with_250 for d in serial.deliveries
        ]
        assert_metrics_equal(obs.metrics, merged.metrics)
        analysis_serial = A.analyze_notify(serial)
        analysis_merged = A.analyze_notify(merged.result)
        assert (
            A.validation_breakdown_table(analysis_serial).render()
            == A.validation_breakdown_table(analysis_merged).render()
        )
        assert (
            A.provider_table(analysis_serial).render()
            == A.provider_table(analysis_merged).render()
        )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_probe_campaign(self, universe, serial_probe, shards):
        serial, testbed, obs = serial_probe
        merged = run_probe_sharded(
            universe,
            "notifymx",
            shards=shards,
            workers=1,
            testbed_seed=3,
            campaign_seed=5,
            start_time=1e7,
        )
        assert Counter(map(query_key, merged.result.index.queries)) == Counter(
            map(query_key, serial.index.queries)
        )
        assert span_multiset(merged.spans) == span_multiset(obs.tracer.finished)
        assert_span_ids_consistent(merged.spans)
        roots = [span for span in merged.spans if span.name == "campaign.run"]
        assert 1 <= len(roots) <= shards
        assert sum(root.attrs["probes"] for root in roots) == len(serial.results)
        assert [
            (r.mtaid, r.testid, r.stage_reached, r.t_started, r.t_finished)
            for r in merged.result.results
        ] == [
            (r.mtaid, r.testid, r.stage_reached, r.t_started, r.t_finished)
            for r in serial.results
        ]
        assert list(merged.result.probed) == list(serial.probed)
        assert merged.result.recipient_domain == serial.recipient_domain
        assert_metrics_equal(obs.metrics, merged.metrics)
        assert (
            A.behavior_table(A.behavior_stats(merged.result)).render()
            == A.behavior_table(A.behavior_stats(serial)).render()
        )

    def test_tracecheck_verdicts_match(self, universe, serial_probe):
        serial, testbed, _ = serial_probe
        merged = run_probe_sharded(
            universe,
            "notifymx",
            shards=4,
            workers=1,
            testbed_seed=3,
            campaign_seed=5,
            start_time=1e7,
        )
        serial_check = check_index(serial.index, config=testbed.synth_config)
        merged_check = check_index(merged.result.index, config=merged.synth_config)
        assert serial_check.clean == merged_check.clean
        assert serial_check.queries_checked == merged_check.queries_checked
        assert serial_check.pairs_checked == merged_check.pairs_checked

    def test_limit_mtas_slices_after_deterministic_order(self, universe):
        full = probe_schedule(universe, ("t01", "t02"), seed=5)
        limited = probe_schedule(universe, ("t01", "t02"), seed=5, limit_mtas=5)
        assert [t.host.mtaid for t in limited] == [t.host.mtaid for t in full[:5]]
        # And it is stable across calls (the eligible pool is sorted
        # before the seeded shuffle).
        again = probe_schedule(universe, ("t01", "t02"), seed=5, limit_mtas=5)
        assert [t.host.mtaid for t in again] == [t.host.mtaid for t in limited]


class TestRealProcesses:
    def test_multiprocessing_smoke(self, universe, serial_notify):
        """One true-multiprocessing case: pickling, pool dispatch, and
        the merge all behave identically to the inline path, spans
        included."""
        serial, _, obs = serial_notify
        merged = run_notify_sharded(universe, shards=2, workers=2, testbed_seed=3)
        assert Counter(map(query_key, merged.result.index.queries)) == Counter(
            map(query_key, serial.index.queries)
        )
        assert span_multiset(merged.spans) == span_multiset(obs.tracer.finished)
        verdict = reconcile_spans(merged.spans, merged.result.index, merged.synth_config)
        assert verdict.matched, verdict.render_text()

    def test_coordinator_reconciles_merged_spans(self, universe):
        merged = run_probe_sharded(
            universe,
            "notifymx",
            testids=("t01", "t03"),
            shards=2,
            workers=1,
            testbed_seed=3,
            campaign_seed=5,
            start_time=1e7,
        )
        assert len([s for s in merged.spans if s.name == "campaign.run"]) == 2
        verdict = reconcile_spans(merged.spans, merged.result.index, merged.synth_config)
        assert verdict.matched, verdict.render_text()
        assert sum(verdict.span_counts.values()) > 0

    def test_pickled_shard_result_carries_no_tracer(self, universe):
        shard = partition_universe(universe, 2)[0]
        tasks = [
            task for task in notify_schedule(universe.domains)
            if task.domain.domainid in shard.domainids
        ]
        keypair, _ = make_synth_config(3)
        result = run_shard(
            ShardJob(
                campaign=parallel._NOTIFY_CAMPAIGN,
                shard=shard,
                universe=universe,
                tasks=tasks,
                testbed_seed=3,
                keypair=keypair,
            )
        )
        assert result.spans
        data = pickle.dumps(result)
        assert b"Tracer" not in data
        assert b"Span" not in data
        assert span_records(pickle.loads(data).spans) == span_records(result.spans)


class TestMergeRawLogs:
    def test_timestamp_order(self, serial_probe):
        result, testbed, _ = serial_probe
        raw = testbed.synth.query_log
        merged = merge_raw_logs([raw[0::2], raw[1::2]])
        assert len(merged) == len(raw)
        times = [entry.timestamp for entry in merged]
        assert times == sorted(times)
