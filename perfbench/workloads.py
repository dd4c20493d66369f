"""The benchmark's three workloads and their self-checks.

Each workload is a closed loop with one caller: a campaign executes its
schedule item by item in virtual time, single-threaded, with
observability on (as users run it) and a clean network.

* ``probe``  -- the TwoWeekMX :class:`ProbeCampaign` on a fresh
  :class:`Testbed`.  DNS codec, synthesis, resolver, SPF, SMTP and span
  work dominate; no message bodies, no RSA signing.
* ``notify`` -- the :class:`NotifyEmailCampaign` on a fresh testbed: one
  DKIM-signed delivery per domain.  RSA, body canonicalisation, DMARC
  and SMTP DATA dominate; it is the control on which a DNS or span
  optimisation should show no change.
* ``runner`` -- ``repro.core.runner.main(["--experiment", "all",
  "--workers", "1", ...])`` in-process: the user's whole path, including
  the NotifyMX cumulative-testbed flow and every post-flight artefact
  (query-log attribution, tracecheck, analysis, JSONL dumps, metrics
  export, span dump and span reconciliation).

A run measures four *inputs*, each executed several times in one
process.  They are built so that the terms that would otherwise
dominate a run's spread are the same in every run:

* probe and notify use the universe ``python -m repro.core.runner``
  builds by default (dataset seed 2021 for NotifyEmail, 2024 for
  TwoWeekMX): a handful of MTAs that validate SPF at probe time carry
  half of a campaign's cost, so a new universe per input would make the
  MTA mix, not the code, the largest term;
* their four inputs use testbed seeds 2022-2025, because the seeded RSA
  key generation inside ``Testbed`` costs anywhere from 0.05 to 0.9 s
  depending on the seed;
* the benchmark seed drives the campaign order: the probe campaign's
  seed (MTA order and each MTA's policy order) and the NotifyEmail
  domain order;
* the runner derives everything from its own ``--seed``, so its four
  inputs are runner seeds 2021-2024, in an order the benchmark seed
  picks.

Untraced executions are timed against the host's speed at the time.
The shared 2-CPU virtual machine this was tuned on runs the same code
up to 1.9x slower from one second to the next, for stretches of seconds
to minutes: over ten 45-second runs, raw execution times spread by 24%
(notify) and 13% (runner), as interquartile range over median.
:class:`HostSpeed` samples a fixed pure-Python loop every 50 ms of wall
time while the program runs, takes that probe time out of every
interval it timed, and scales the rest to a nominal host on which the
loop takes :data:`PROBE_NOMINAL_S`.  Over the same runs the normalised
times spread by 5.5% and 2.1%.  The correction is not complete: when a
second process competed for the memory caches, runner times still
spread by 11%, because the loop barely touches memory.

Every execution is checked: the operation count must equal the schedule
length, tracecheck must be clean, span/query-log reconciliation must
match, and every artefact must load back.  The digest covers the
artefacts a performance change must keep byte-identical (reports,
queries/probes JSONL, tracecheck, metrics); span dumps are left out
because an observability change may legitimately rewrite them.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import campaign, datasets, runner, trace
from repro.core.querylog import QueryIndex, attribute_queries_with_stats
from repro.lint.tracecheck import check_index
from repro.obs import reconcile
from repro.obs.export import render_metrics_text

from ledger import LayerTracer, Patcher

#: A tracecheck artefact with no findings says exactly this.
CLEAN_TRACECHECK = "clean: no findings"


#: Iterations of the host-speed probe loop (about 0.8 ms on a 2-CPU host).
PROBE_ITERATIONS = 20_000
#: The probe time of the nominal host that normalised timings refer to.
PROBE_NOMINAL_S = 0.0008
#: Wall time between two probes during an execution.
PROBE_INTERVAL_S = 0.05


def probe_loop(iterations: int = PROBE_ITERATIONS) -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed samples taken while an execution runs.

    On entry, and then from a ``SIGALRM`` handler every
    :data:`PROBE_INTERVAL_S` of wall time, :func:`probe_loop` runs and
    its start and duration are kept; a last probe runs on exit.  The
    handler runs between the program's bytecodes and touches none of
    its state."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe_loop()))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def busy(self, start: float, end: float) -> float:
        """Probe time spent inside the interval [start, end)."""
        return sum(duration for begin, duration in self.samples if start <= begin < end)

    def scale(self) -> float:
        """Nominal over measured host speed: the median probe time."""
        return PROBE_NOMINAL_S / statistics.median(duration for _begin, duration in self.samples)


@dataclass
class InputRun:
    """One input's timings, outcome and self-check verdicts."""

    seeds: Tuple[int, int]
    #: What an execution records: ``perf_counter`` intervals of set-up
    #: (universe generation, testbed and campaign construction) and of
    #: the execution (the campaign run; the runner's whole ``main``),
    #: and process CPU time over the execution.
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)
    exec_span: Tuple[float, float] = (0.0, 0.0)
    exec_cpu_s: float = 0.0
    #: Timings from those, probe time taken out; untraced executions
    #: are also scaled by ``host_scale`` to the nominal host.
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    host_scale: float = 1.0
    #: Set-up plus execution, unscaled: the window a traced input is traced over.
    span_s: float = 0.0
    ops: int = 0
    expected_ops: int = 0
    artefact_bytes: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    readings: Optional[Dict[str, float]] = None
    frame_calls: Optional[Dict[str, int]] = None

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    def settle(self, speed: Optional[HostSpeed]) -> None:
        """Turn the recorded intervals into timings."""
        busy = speed.busy if speed is not None else (lambda start, end: 0.0)
        self.host_scale = speed.scale() if speed is not None else 1.0
        start, end = self.exec_span
        setup = sum(b - a - busy(a, b) for a, b in self.setup_spans)
        self.raw_wall_s = end - start - busy(start, end)
        self.setup_s = setup * self.host_scale
        self.wall_s = self.raw_wall_s * self.host_scale
        self.cpu_s = (self.exec_cpu_s - busy(start, end)) * self.host_scale
        first = min([start] + [a for a, _b in self.setup_spans])
        self.span_s = end - first - busy(first, end)


def verify_artefacts(out: Path, expected: Dict[str, Optional[int]]) -> List[str]:
    """Check one input's artefact directory.

    ``expected`` maps each experiment name to its probe count, or to
    ``None`` for an experiment that writes no probe transcripts.  Every
    experiment must have a clean tracecheck, a loadable query log, a
    metrics export and, where it probes, a transcript of exactly the
    expected length."""
    problems = []
    for name, probes in sorted(expected.items()):
        tracecheck = out / ("%s_tracecheck.txt" % name)
        if not tracecheck.is_file() or CLEAN_TRACECHECK not in tracecheck.read_text(encoding="utf-8"):
            problems.append("%s: tracecheck missing or not clean" % tracecheck.name)
        if not (out / ("%s_metrics.txt" % name)).is_file():
            problems.append("%s_metrics.txt missing" % name)
        try:
            trace.load_query_log(out / ("%s_queries.jsonl" % name))
        except (OSError, ValueError, KeyError, TypeError, trace.TraceError) as exc:
            problems.append("%s_queries.jsonl unreadable: %s" % (name, exc))
        if probes is None:
            continue
        try:
            loaded = len(trace.load_probe_results(out / ("%s_probes.jsonl" % name)))
        except (OSError, ValueError, KeyError, TypeError, trace.TraceError) as exc:
            problems.append("%s_probes.jsonl unreadable: %s" % (name, exc))
            continue
        if loaded != probes:
            problems.append("%s_probes.jsonl holds %d probes, expected %d" % (name, loaded, probes))
    return problems


def artefact_digest(out: Path) -> str:
    """sha256 over every artefact except span dumps, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file() and not path.name.endswith("_spans.jsonl"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def artefact_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir() if path.is_file())


def write_postflight(testbed, path: Path) -> None:
    """The runner's post-flight tracecheck, written the same way."""
    config = testbed.synth_config
    attributed, stats = attribute_queries_with_stats(testbed.synth.query_log, config)
    result = check_index(QueryIndex(attributed), config=config, stats=stats)
    header = "tracecheck: %d queries over %d (mtaid, testid) pairs" % (
        result.queries_checked,
        result.pairs_checked,
    )
    path.write_text(result.report.render_text(header=header) + "\n", encoding="utf-8")


class Workload:
    """One named workload at a stated scale."""

    name = ""
    #: Testbed seeds of the four inputs (see the module docstring).
    TESTBED_SEEDS = (2022, 2023, 2024, 2025)

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def inputs(self, seed: int) -> List[Tuple[int, int]]:
        """The run's four inputs: (testbed seed, campaign-order seed)."""
        return [(testbed_seed, _order_seed(self.name, seed, slot))
                for slot, testbed_seed in enumerate(self.TESTBED_SEEDS)]

    def measure(self, seeds: Tuple[int, int], out: Path, tracer: Optional[LayerTracer] = None) -> InputRun:
        """Execute one input (traced when ``tracer`` is given), then check it."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        run = InputRun(seeds)
        gc.collect()
        if tracer is not None:
            tracer.install()
            try:
                state = self.execute(seeds, out, run)
            finally:
                tracer.remove()
            run.settle(None)
        else:
            with HostSpeed() as speed:
                state = self.execute(seeds, out, run)
            run.settle(speed)
        if tracer is not None:
            run.readings = tracer.readings(run.span_s)
            run.frame_calls = tracer.frame_calls
        run.problems.extend(self.check(state, out, run))
        run.problems.extend(verify_artefacts(out, self.expected_artefacts(state)))
        run.digest = artefact_digest(out)
        run.artefact_bytes = artefact_bytes(out)
        return run

    def execute(self, seeds: Tuple[int, int], out: Path, run: InputRun):
        raise NotImplementedError

    def check(self, state, out: Path, run: InputRun) -> List[str]:
        raise NotImplementedError

    def expected_artefacts(self, state) -> Dict[str, Optional[int]]:
        raise NotImplementedError


class _CampaignWorkload(Workload):
    """Shared timing for the two single-campaign workloads: set-up is
    universe generation, testbed and campaign construction; execution
    is ``campaign.run`` over the precomputed schedule."""

    #: Dataset seed of the runner's default universe for this campaign.
    dataset_seed = 0

    def execute(self, seeds: Tuple[int, int], out: Path, run: InputRun):
        testbed_seed, order_seed = seeds
        t0 = time.perf_counter()
        universe = datasets.generate_universe(self.spec(), seed=self.dataset_seed)
        testbed = campaign.Testbed(universe, seed=testbed_seed)
        job, schedule = self.build(testbed, order_seed)
        c1 = time.process_time()
        t1 = time.perf_counter()
        result = job.run(schedule=schedule)
        t2 = time.perf_counter()
        run.exec_cpu_s = time.process_time() - c1
        run.setup_spans, run.exec_span = [(t0, t1)], (t1, t2)
        return testbed, schedule, result

    def check(self, state, out: Path, run: InputRun) -> List[str]:
        testbed, schedule, result = state
        run.expected_ops = self.schedule_ops(schedule)
        run.ops = self.result_ops(result)
        problems = []
        if run.ops != run.expected_ops:
            problems.append("%d operations for a schedule of %d" % (run.ops, run.expected_ops))
        self.write_artefacts(testbed, result, out)
        write_postflight(testbed, out / ("%s_tracecheck.txt" % self.name))
        metrics = render_metrics_text(testbed.obs.metrics, header="%s metrics" % self.name)
        (out / ("%s_metrics.txt" % self.name)).write_text(metrics + "\n", encoding="utf-8")
        verdict = reconcile.reconcile_spans(testbed.obs.tracer.finished, result.index, testbed.synth_config)
        if not verdict.matched:
            problems.append("span/query-log reconciliation mismatch")
        return problems


class ProbeWorkload(_CampaignWorkload):
    name = "probe"
    dataset_seed = 2024

    def spec(self):
        return datasets.DatasetSpec.two_week_mx(scale=self.scale)

    def build(self, testbed, order_seed: int):
        job = campaign.ProbeCampaign(testbed, "TwoWeekMX", seed=order_seed)
        return job, job.schedule()

    @staticmethod
    def schedule_ops(schedule) -> int:
        return sum(len(task.order) for task in schedule)

    @staticmethod
    def result_ops(result) -> int:
        return len(result.results)

    def write_artefacts(self, testbed, result, out: Path) -> None:
        trace.save_query_log(result.index.queries, out / "probe_queries.jsonl")
        trace.save_probe_results(result.results, out / "probe_probes.jsonl")

    def expected_artefacts(self, state) -> Dict[str, Optional[int]]:
        return {"probe": self.schedule_ops(state[1])}


class NotifyWorkload(_CampaignWorkload):
    name = "notify"
    dataset_seed = 2021

    def spec(self):
        return datasets.DatasetSpec.notify_email(scale=self.scale)

    def build(self, testbed, order_seed: int):
        job = campaign.NotifyEmailCampaign(testbed)
        domains = list(testbed.universe.domains)
        random.Random(order_seed).shuffle(domains)
        return job, job.schedule(domains)

    @staticmethod
    def schedule_ops(schedule) -> int:
        return len(schedule)

    @staticmethod
    def result_ops(result) -> int:
        return len(result.deliveries)

    def write_artefacts(self, testbed, result, out: Path) -> None:
        trace.save_query_log(result.index.queries, out / "notify_queries.jsonl")

    def expected_artefacts(self, state) -> Dict[str, Optional[int]]:
        return {"notify": None}


class _RunnerWitness:
    """Thin hooks around the runner's call sites: they time set-up
    (``generate_universe`` and ``Testbed(...)``) and keep the campaigns,
    their results and the reconciliation verdicts for the self-checks.
    A handful of calls per input, so they cost nothing measurable."""

    def __init__(self) -> None:
        self.setup_spans: List[Tuple[float, float]] = []
        self.campaigns: List[tuple] = []
        self.verdicts: List[bool] = []
        self._patcher = Patcher()

    def install(self) -> None:
        p = self._patcher

        def timed(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.setup_spans.append((t0, time.perf_counter()))
            return wrapper

        def kept(fn):
            def wrapper(job, *args, **kwargs):
                result = fn(job, *args, **kwargs)
                self.campaigns.append((job, result))
                return result
            return wrapper

        def verdict(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.verdicts.append(result.matched)
                return result
            return wrapper

        p.function(datasets, "generate_universe", timed)
        p.method(campaign.Testbed, "__init__", timed)
        p.method(campaign.NotifyEmailCampaign, "run", kept)
        p.method(campaign.ProbeCampaign, "run", kept)
        p.function(reconcile, "reconcile_spans", verdict)

    def remove(self) -> None:
        self._patcher.restore()


class RunnerWorkload(Workload):
    name = "runner"
    EXPERIMENTS = ("notifyemail", "notifymx", "twoweekmx")
    #: Runner ``--seed`` values of the four inputs.  The runner derives
    #: its universes from its seed, and at this scale one universe can
    #: cost 15% more than another.
    RUNNER_SEEDS = (2021, 2022, 2023, 2024)

    def inputs(self, seed: int) -> List[Tuple[int, int]]:
        """The runner seeds, rotated by the benchmark seed."""
        count = len(self.RUNNER_SEEDS)
        return [(self.RUNNER_SEEDS[(seed + slot) % count], 0) for slot in range(count)]

    def execute(self, seeds: Tuple[int, int], out: Path, run: InputRun):
        witness = _RunnerWitness()
        witness.install()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            status = runner.main(
                [
                    "--experiment", "all",
                    "--workers", "1",
                    "--scale", repr(self.scale),
                    "--seed", str(seeds[0]),
                    "--out", str(out),
                    "--quiet",
                ]
            )
            run.exec_span = (t0, time.perf_counter())
            run.exec_cpu_s = time.process_time() - c0
        finally:
            witness.remove()
        run.setup_spans = witness.setup_spans
        return status, witness

    def check(self, state, out: Path, run: InputRun) -> List[str]:
        status, witness = state
        problems = []
        if status != 0:
            problems.append("runner exited with %r" % status)
        if len(witness.campaigns) != 3:
            problems.append("runner ran %d campaigns, expected 3" % len(witness.campaigns))
        for job, result in witness.campaigns:
            if isinstance(job, campaign.ProbeCampaign):
                expected = ProbeWorkload.schedule_ops(job.schedule())
                done = len(result.results)
            else:
                expected = len(job.schedule())
                done = len(result.deliveries)
            run.expected_ops += expected
            run.ops += done
            if done != expected:
                problems.append("%d operations for a schedule of %d" % (done, expected))
        if len(witness.verdicts) != 3 or not all(witness.verdicts):
            problems.append("span/query-log reconciliation mismatch: %r" % witness.verdicts)
        for name in self.EXPERIMENTS:
            for suffix in ("_report.txt", "_spans.jsonl"):
                if not (out / (name + suffix)).is_file():
                    problems.append("%s%s missing" % (name, suffix))
        return problems

    def expected_artefacts(self, state) -> Dict[str, Optional[int]]:
        _status, witness = state
        probes = {job.name: len(result.results) for job, result in witness.campaigns
                  if isinstance(job, campaign.ProbeCampaign)}
        return {
            "notifyemail": None,
            "notifymx": probes.get("NotifyMX", -1),
            "twoweekmx": probes.get("TwoWeekMX", -1),
        }


def _order_seed(name: str, seed: int, slot: int) -> int:
    digest = hashlib.sha256(("%s|%d|%d" % (name, seed, slot)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def make_workload(name: str, scale: Optional[float] = None) -> Workload:
    """The named workload at its benchmark scale, or at ``scale``."""
    if name == "probe":
        # 57 eligible MTAs x 39 policies = 2,223 probes per input.
        return ProbeWorkload(0.005 if scale is None else scale)
    if name == "notify":
        # 133 domains: 133 deliveries per input.
        return NotifyWorkload(0.005 if scale is None else scale)
    if name == "runner":
        return RunnerWorkload(0.002 if scale is None else scale)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("probe", "notify", "runner")
