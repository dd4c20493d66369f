"""Per-layer ledger, measured from outside the program.

The traced run wraps the public entry points of every layer a probe or a
delivery crosses, times them with ``time.perf_counter`` and counts their
calls.  Nothing inside ``src/`` is edited: each wrapper is patched where
its callers look the name up (a class attribute for methods, every
``repro.*`` module binding for functions imported by name), and every
patch is undone afterwards and checked to be undone.

Two kinds of wrapper exist:

* a **frame** measures a layer's *self* time: its duration minus the
  time spent in nested frames.  Frames never overlap, so their self
  times add up, and the sum divided by the execution's wall time is the
  *explained share*;
* a **timer** measures inclusive time and is transparent to frames
  (``mta.receiver.spf_s`` contains ``spf.self_s``), so timers never enter
  the explained sum.

cProfile is not used: it inflates this call-heavy code several-fold and
over-weights small functions, which is the distortion the ledger exists
to avoid.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Each frame layer and the metric its self time reports under, in the
# order the explained-time table prints them.
SELF_METRIC = {
    "dns.name": "dns.name.self_s",
    "dns.wire": "dns.wire.self_s",
    "core.synth": "core.synth.self_s",
    "dns.server": "dns.server.self_s",
    "dns.resolver": "dns.resolver.self_s",
    "net.network": "net.network.self_s",
    "spf": "spf.self_s",
    "smtp.client": "smtp.client.self_s",
    "smtp.server": "smtp.server.self_s",
    "dkim.sign": "dkim.sign_self_s",
    "dkim.verify": "dkim.verify_self_s",
    "dkim.keygen": "dkim.keygen_s",
    "core.datasets.generate": "core.datasets.generate_s",
    "core.querylog.attribute": "core.querylog.attribute_s",
    "lint.tracecheck": "lint.tracecheck.check_s",
    "core.analysis": "core.analysis.s",
    "core.trace.save": "core.trace.save_s",
    "obs.export": "obs.export_s",
    "obs.span_dump": "obs.span_dump_s",
    "obs.reconcile": "obs.reconcile_s",
}
FRAME_LAYERS = tuple(SELF_METRIC)

# Every per-layer metric with its unit, as BENCHMARK.json lists them.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("dns.name.calls", "count"),
    ("dns.name.self_s", "s"),
    ("dns.wire.encode_calls", "count"),
    ("dns.wire.decode_calls", "count"),
    ("dns.wire.truncate_calls", "count"),
    ("dns.wire.self_s", "s"),
    ("dns.wire.bytes", "B"),
    ("core.synth.resolve_calls", "count"),
    ("core.synth.self_s", "s"),
    ("dns.server.queries", "count"),
    ("dns.server.self_s", "s"),
    ("dns.resolver.queries", "count"),
    ("dns.resolver.exchanges", "count"),
    ("dns.resolver.cache_hit_ratio", "ratio"),
    ("dns.resolver.tcp_fallbacks", "count"),
    ("dns.resolver.self_s", "s"),
    ("net.network.udp_requests", "count"),
    ("net.network.tcp_connects", "count"),
    ("net.network.self_s", "s"),
    ("spf.check_host_calls", "count"),
    ("spf.lookups_per_check", "count"),
    ("spf.self_s", "s"),
    ("smtp.client.commands", "count"),
    ("smtp.client.self_s", "s"),
    ("smtp.server.self_s", "s"),
    ("mta.receiver.spf_s", "s"),
    ("mta.receiver.dkim_s", "s"),
    ("mta.receiver.dmarc_s", "s"),
    ("dkim.sign_calls", "count"),
    ("dkim.sign_self_s", "s"),
    ("dkim.verify_calls", "count"),
    ("dkim.verify_self_s", "s"),
    ("dkim.keygen_s", "s"),
    ("core.probe.calls", "count"),
    ("core.probe.p50_ms", "ms"),
    ("core.probe.p99_ms", "ms"),
    ("obs.spans", "count"),
    ("obs.spans_per_probe", "count"),
    ("obs.metric_records", "count"),
    ("obs.export_s", "s"),
    ("obs.span_dump_s", "s"),
    ("obs.reconcile_s", "s"),
    ("core.querylog.attribute_s", "s"),
    ("core.querylog.dropped", "count"),
    ("lint.tracecheck.check_s", "s"),
    ("core.analysis.s", "s"),
    ("core.trace.save_s", "s"),
    ("core.datasets.generate_s", "s"),
    ("core.campaign.testbed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.explained_share", "ratio"),
    ("host.ref_loop_s", "s"),
)

ALL = frozenset(("probe", "notify", "runner"))
DELIVERING = frozenset(("notify", "runner"))
PROBING = frozenset(("probe", "runner"))
RUNNER = frozenset(("runner",))

# Count-like metrics that must be nonzero on the workloads where their
# layer runs; a zero there means a wrapper missed its callers.
MUST_RUN: Dict[str, frozenset] = {
    "dns.name.calls": ALL,
    "dns.wire.encode_calls": ALL,
    "dns.wire.decode_calls": ALL,
    "dns.wire.truncate_calls": ALL,
    "core.synth.resolve_calls": ALL,
    "dns.server.queries": ALL,
    "dns.server.self_s": ALL,
    "dns.resolver.queries": ALL,
    "dns.resolver.exchanges": ALL,
    "net.network.udp_requests": ALL,
    "net.network.tcp_connects": ALL,
    "spf.check_host_calls": ALL,
    "smtp.client.commands": ALL,
    "smtp.server.self_s": ALL,
    "mta.receiver.spf_s": ALL,
    "mta.receiver.dkim_s": DELIVERING,
    "mta.receiver.dmarc_s": DELIVERING,
    "dkim.sign_calls": DELIVERING,
    "dkim.verify_calls": DELIVERING,
    "dkim.keygen_s": ALL,
    "core.probe.calls": PROBING,
    "obs.spans": ALL,
    "obs.metric_records": ALL,
    "obs.export_s": RUNNER,
    "obs.span_dump_s": RUNNER,
    "obs.reconcile_s": RUNNER,
    "core.querylog.attribute_s": ALL,
    "lint.tracecheck.check_s": RUNNER,
    "core.analysis.s": RUNNER,
    "core.trace.save_s": RUNNER,
    "core.datasets.generate_s": ALL,
    "core.campaign.testbed_s": ALL,
}


class Patcher:
    """Replaces attributes and puts every one back, last patched first."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr``, keeping classmethod/staticmethod descriptors."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement: object = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` in its defining module and in every loaded
        ``repro.*`` module that imported it by name."""
        current = getattr(module, attr)
        wrapper = make(current)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is current:
                    setattr(other, key, wrapper)
                    self._undo.append((other, key, current))

    def restore(self) -> None:
        """Undo every patch and check that each original is back."""
        undo, self._undo = self._undo, []
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        for owner, attr, original in undo:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                raise RuntimeError("wrapper left behind on %r.%s" % (owner, attr))


class LayerTracer:
    """Frames and timers for one traced execution, plus their readings."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Calls per frame layer, for the explained-time table.
        self.frame_calls: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.values: Counter = Counter()
        self.testbeds: List[object] = []
        self._stack: List[float] = [0.0]
        self._patcher = Patcher()

    # -- wrapper factories -------------------------------------------------

    def frame(self, layer: str, counter: Optional[str] = None, on_result=None):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter
        frame_calls = self.frame_calls

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    self_s[layer] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    frame_calls[layer] += 1
                    if counter is not None:
                        calls[counter] += 1
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        return make

    def timer(self, key: str, keep_samples: bool = False, on_call=None):
        incl_s, calls, samples, clock = self.incl_s, self.calls, self.samples, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    incl_s[key] += elapsed
                    calls[key] += 1
                    if keep_samples:
                        samples[key].append(elapsed)

            return wrapper

        return make

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        from repro.core import analysis, campaign, datasets, querylog, synth, trace
        from repro.core.probe import ProbeClient
        from repro.dkim import rsa
        from repro.dkim.sign import DkimSigner
        from repro.dkim.verify import DkimVerifier
        from repro.dns import wire
        from repro.dns.name import Name
        from repro.dns.resolver import Resolver
        from repro.dns.server import AuthoritativeServer
        from repro.lint import tracecheck
        from repro.mta.receiver import ReceivingMta
        from repro.net.network import Network, TcpChannel
        from repro.obs import export, reconcile, spans
        from repro.smtp.client import SmtpClient
        from repro.smtp.server import SmtpSession
        from repro.spf.evaluator import SpfEvaluator

        p, frame, timer, values = self._patcher, self.frame, self.timer, self.values

        def add_bytes(index):
            def note(args, result):
                values["dns.wire.bytes"] += len(result if index is None else args[index])
            return note

        def note_truncate(args, result):
            values["dns.wire.bytes"] += len(result[0])

        def note_dropped(args, result):
            values["core.querylog.dropped"] += result[1].dropped

        p.method(Name, "__init__", frame("dns.name", "dns.name.calls"))
        p.function(wire, "to_wire", frame("dns.wire", "dns.wire.encode_calls", add_bytes(None)))
        p.function(wire, "from_wire", frame("dns.wire", "dns.wire.decode_calls", add_bytes(0)))
        p.function(wire, "truncate_for_udp", frame("dns.wire", "dns.wire.truncate_calls", note_truncate))
        p.method(synth.SynthesizingAuthority, "resolve", frame("core.synth", "core.synth.resolve_calls"))
        # The UDP handler is bound when a testbed attaches its servers, so
        # install() runs before any testbed is built.  The few queries that
        # fall back to TCP count under net.network.
        p.method(AuthoritativeServer, "udp_handler", frame("dns.server"))
        p.method(Resolver, "query_at", frame("dns.resolver", "dns.resolver.queries"))
        p.method(Resolver, "resolve_addresses", frame("dns.resolver"))
        p.method(Network, "udp_request", frame("net.network", "net.network.udp_requests"))
        p.method(Network, "connect_tcp", frame("net.network", "net.network.tcp_connects"))
        p.method(TcpChannel, "request", frame("net.network"))
        p.method(TcpChannel, "close", frame("net.network"))
        p.method(SpfEvaluator, "check_host", frame("spf", "spf.check_host_calls"))
        p.method(SmtpClient, "connect", frame("smtp.client"))
        p.method(SmtpClient, "command", frame("smtp.client", "smtp.client.commands"))
        p.method(SmtpClient, "send_message", frame("smtp.client", "smtp.client.commands"))
        p.method(SmtpClient, "abort", frame("smtp.client"))
        for attr in ("on_connect", "on_data", "on_close"):
            p.method(SmtpSession, attr, frame("smtp.server"))
        p.method(ReceivingMta, "run_spf", timer("mta.receiver.spf_s"))
        p.method(ReceivingMta, "run_dkim", timer("mta.receiver.dkim_s"))
        p.method(ReceivingMta, "run_dmarc", timer("mta.receiver.dmarc_s"))
        p.method(DkimSigner, "sign", frame("dkim.sign", "dkim.sign_calls"))
        p.method(DkimVerifier, "verify", frame("dkim.verify", "dkim.verify_calls"))
        p.function(rsa, "generate_keypair", frame("dkim.keygen"))
        p.method(ProbeClient, "probe", timer("core.probe", keep_samples=True))
        p.function(export, "render_metrics_text", frame("obs.export"))
        p.function(spans, "save_spans", frame("obs.span_dump"))
        p.function(reconcile, "reconcile_spans", frame("obs.reconcile"))
        p.function(querylog, "attribute_queries_with_stats", frame("core.querylog.attribute", None, note_dropped))
        p.function(querylog, "attribute_queries", frame("core.querylog.attribute"))
        p.function(tracecheck, "check_index", frame("lint.tracecheck"))
        for name, obj in sorted(vars(analysis).items()):
            if inspect.isfunction(obj) and obj.__module__ == analysis.__name__ and not name.startswith("_"):
                p.function(analysis, name, frame("core.analysis"))
        p.function(trace, "save_query_log", frame("core.trace.save"))
        p.function(trace, "save_probe_results", frame("core.trace.save"))
        p.function(datasets, "generate_universe", frame("core.datasets.generate"))
        p.method(campaign.Testbed, "__init__", timer("core.campaign.testbed", on_call=self._keep_testbed))

    def _keep_testbed(self, args) -> None:
        self.testbeds.append(args[0])

    def remove(self) -> None:
        self._patcher.restore()
        if self._stack != [self._stack[0]]:
            raise RuntimeError("unbalanced layer frames: %r" % self._stack)

    # -- readings ----------------------------------------------------------

    def explained_s(self) -> float:
        return sum(self.self_s[layer] for layer in FRAME_LAYERS)

    def readings(self, traced_s: float) -> Dict[str, float]:
        """Every per-layer metric except the run-level diagnostics
        (``trace.overhead_s``, ``host.ref_loop_s``); ``traced_s`` is the
        wall time the wrappers were installed for."""
        out: Dict[str, float] = {}
        for layer in FRAME_LAYERS:
            out[SELF_METRIC[layer]] = self.self_s[layer]
        for key in (
            "dns.name.calls",
            "dns.wire.encode_calls",
            "dns.wire.decode_calls",
            "dns.wire.truncate_calls",
            "core.synth.resolve_calls",
            "dns.resolver.queries",
            "net.network.udp_requests",
            "net.network.tcp_connects",
            "spf.check_host_calls",
            "smtp.client.commands",
            "dkim.sign_calls",
            "dkim.verify_calls",
        ):
            out[key] = float(self.calls[key])
        out["dns.wire.bytes"] = float(self.values["dns.wire.bytes"])
        out["core.querylog.dropped"] = float(self.values["core.querylog.dropped"])
        for key in ("mta.receiver.spf_s", "mta.receiver.dkim_s", "mta.receiver.dmarc_s"):
            out[key] = self.incl_s[key]
        out["core.campaign.testbed_s"] = self.incl_s["core.campaign.testbed"]
        probes = self.samples["core.probe"]
        out["core.probe.calls"] = float(len(probes))
        out["core.probe.p50_ms"] = 1e3 * percentile(probes, 0.50)
        out["core.probe.p99_ms"] = 1e3 * percentile(probes, 0.99)
        out.update(self._obs_readings())
        out["trace.explained_share"] = self.explained_s() / traced_s if traced_s > 0 else 0.0
        return out

    def _obs_readings(self) -> Dict[str, float]:
        """Counters the program keeps itself, summed over the execution's testbeds."""
        queries = exchanges = hits = misses = fallbacks = lookups = checks = spans = records = 0.0
        for testbed in self.testbeds:
            metrics, tracer = testbed.obs.metrics, testbed.obs.tracer
            queries += metrics.counter_total("dns_server_queries_total")
            exchanges += metrics.counter_total("dns_client_exchanges_total")
            hits += metrics.counter_value("dns_client_cache_events_total", (("outcome", "hit"),))
            misses += metrics.counter_value("dns_client_cache_events_total", (("outcome", "miss"),))
            fallbacks += metrics.counter_total("dns_client_tcp_fallbacks_total")
            histogram = metrics.histogram("spf_lookups_per_check")
            if histogram is not None:
                lookups += histogram.total
                checks += histogram.count
            spans += len(tracer)
            records += metric_records(metrics)
        probes = len(self.samples["core.probe"])
        return {
            "dns.server.queries": queries,
            "dns.resolver.exchanges": exchanges,
            "dns.resolver.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "dns.resolver.tcp_fallbacks": fallbacks,
            "spf.lookups_per_check": lookups / checks if checks else 0.0,
            "obs.spans": spans,
            "obs.spans_per_probe": spans / probes if probes else 0.0,
            "obs.metric_records": records,
        }


def metric_records(metrics) -> float:
    """Recording calls behind a registry: counters increment by one, a
    gauge is one record, a histogram one per observation."""
    total = 0.0
    for name in metrics.names():
        kind = metrics.kind_of(name)
        for _labels, value in metrics.series(name):
            if kind == "counter":
                total += value
            elif kind == "gauge":
                total += 1
            else:
                total += value.count
    return total


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def missing_layers(workload: str, readings: Dict[str, float]) -> List[str]:
    """Metrics that read zero on a workload where their layer runs."""
    return [key for key, where in MUST_RUN.items() if workload in where and not readings.get(key)]


def explained_table(traced: list) -> str:
    """The explained-time ledger over traced executions: per frame layer,
    the median self time, calls and cost per call, the self time's share
    of the traced set-up plus execution, and the sum."""
    traced_s = statistics.median(run.span_s for run in traced)
    lines = ["%-26s %12s %10s %9s %7s" % ("layer", "self_s", "calls", "us/call", "share")]
    total = 0.0
    for layer in FRAME_LAYERS:
        self_s = statistics.median(run.readings[SELF_METRIC[layer]] for run in traced)
        calls = statistics.median(run.frame_calls[layer] for run in traced)
        total += self_s
        lines.append("%-26s %12.6f %10d %9.2f %6.1f%%" % (
            layer, self_s, calls, 1e6 * self_s / calls if calls else 0.0, 100 * self_s / traced_s))
    lines.append("%-26s %12.6f %10s %9s %6.1f%%" % ("sum", total, "", "", 100 * total / traced_s))
    lines.append("%-26s %12.6f" % ("traced set-up + execution", traced_s))
    return "\n".join(lines)
