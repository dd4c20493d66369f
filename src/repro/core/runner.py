"""Command-line experiment runner.

Runs any of the paper's three experiments end to end and writes the
tables, figures, and raw traces to an output directory::

    python -m repro.core.runner --experiment notifyemail --scale 0.01 --out results/
    python -m repro.core.runner --experiment notifymx   --scale 0.01 --out results/
    python -m repro.core.runner --experiment twoweekmx  --scale 0.01 --out results/
    python -m repro.core.runner --experiment all        --scale 0.01 --out results/

Artefacts per experiment: ``<name>_report.txt`` (every applicable table),
``<name>_queries.jsonl`` and ``<name>_probes.jsonl`` (raw traces loadable
via :mod:`repro.core.trace`), ``<name>_tracecheck.txt`` — the post-flight
differential conformance pass (:mod:`repro.lint.tracecheck`) — and the
observability pair ``<name>_metrics.txt`` / ``<name>_spans.jsonl``
(:mod:`repro.obs`; suppressed by ``--no-obs``).  NotifyMX probes the
NotifyEmail fleet on the same testbed seed, continuing NotifyEmail's
run, so the NotifyMX query trace, tracecheck and observability
artefacts are cumulative over both campaigns; see ``OBSERVABILITY.md``.

Every campaign runs through the sharded engine of
:mod:`repro.core.parallel`; ``--workers N`` (default: one per CPU) sets
the shard and process count, and ``--workers 1`` is its one-shard case,
run in-process.  The merge layer is deterministic, so every report,
trace, tracecheck, and metrics artefact is identical whichever worker
count produced it.  The span dump is written at every worker count; its
content is the same too, apart from span ids and one ``campaign.run``
root per shard.

``--faults SPEC`` threads a deterministic fault-injection plan
(:mod:`repro.net.faults`) through every layer of the testbed; the plan's
seed derives from ``--seed``, so a faulted run is as reproducible as a
clean one — including across ``--workers`` counts.  ``--experiment
faultmatrix`` instead replays the probe campaign under one canonical
plan per fault kind and writes ``faultmatrix_report.txt``; it never runs
as part of ``all``.

A non-clean tracecheck or a span/query-log reconciliation mismatch means
the harness, not a validator, misbehaved; the runner says so loudly but
still writes every artefact.  All human-facing output flows through one
:class:`~repro.obs.progress.ProgressSink`, so ``--quiet`` silences
everything uniformly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import analysis as A
from repro.core import trace
from repro.core.campaign import (
    NotifyEmailResult,
    ProbeCampaignResult,
    apply_reputation_effects,
)
from repro.core.datasets import DatasetSpec, Universe, generate_universe
from repro.core.fingerprint import fingerprint_fleet
from repro.core.parallel import (
    MergedCampaign,
    default_workers,
    run_notify_sharded,
    run_probe_sharded,
)
from repro.core.faultmatrix import FAULT_SCENARIOS, run_fault_matrix
from repro.core.report import render_histogram
from repro.lint.tracecheck import check_index
from repro.net.faults import derive_fault_seed
from repro.obs import ProgressSink
from repro.obs.export import render_metrics_text
from repro.obs.reconcile import reconcile_spans
from repro.obs.spans import save_spans

EXPERIMENTS = ("notifyemail", "notifymx", "twoweekmx")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.core.runner",
        description="Re-run the paper's measurement experiments at a chosen scale.",
    )
    parser.add_argument(
        "--experiment",
        choices=EXPERIMENTS + ("all", "faultmatrix"),
        default="all",
        help="which experiment to run (default: all; 'faultmatrix' replays the "
        "probe under every fault kind and is never part of 'all')",
    )
    parser.add_argument("--scale", type=float, default=0.01, help="universe scale factor (default 0.01)")
    parser.add_argument("--seed", type=int, default=2021, help="master RNG seed")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable metrics/span collection (skips the *_metrics.txt / *_spans.jsonl artefacts)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes for sharded campaign execution "
        "(default: one per CPU; 1 = one shard, in-process)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan: 'kind:prob[:param][@where],...' or a JSON "
        "rule array (see repro.net.faults); seeded from --seed, identical "
        "across worker counts.  An empty spec is a guaranteed no-op.",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    sink = ProgressSink(quiet=args.quiet)
    if args.experiment == "faultmatrix":
        _run_faultmatrix(args, sink)
        sink.say("all done in %.1f s -> %s" % (sink.elapsed(), args.out))
        return 0
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)

    if "notifyemail" in wanted or "notifymx" in wanted:
        _run_notify_family(args, wanted, sink)
    if "twoweekmx" in wanted:
        _run_twoweekmx(args, sink)
    sink.say("all done in %.1f s -> %s" % (sink.elapsed(), args.out))
    return 0


def _campaign_params(args) -> dict:
    """Keywords every sharded campaign run shares: worker count, the obs
    switch, and the fault plan as its ``(spec, seed)`` strings.

    The plan seed is derived from the master seed, so ``--seed`` stays
    the single reproducibility knob; each shard rebuilds an identical
    plan from the two strings, and the pure per-event hash draws make
    its decisions independent of the shard count."""
    return {
        "workers": args.workers,
        "obs": not args.no_obs,
        "faults_spec": args.faults or "",
        "faults_seed": derive_fault_seed(args.faults, args.seed) if args.faults else 0,
    }


# -- report section builders ----------------------------------------------


def _notifyemail_sections(universe: Universe, result: NotifyEmailResult) -> List[str]:
    analysis = A.analyze_notify(result)
    sections = [
        A.validation_breakdown_table(analysis).render(),
        A.spf_summary_table([A.notify_email_spf_row(universe, result, analysis)]).render(),
        A.provider_table(analysis).render(),
        A.alexa_table(universe, analysis).render(),
    ]
    timing = A.timing_analysis(result)
    sections.append(
        render_histogram(
            timing.buckets,
            title="Figure 2: t(SPF)-t(delivery), n=%d (negative %.0f%%, within30 %.0f%%)"
            % (timing.domains_used, 100 * timing.negative_fraction, 100 * timing.within_30s_fraction),
        )
    )
    return sections


def _notifymx_sections(universe: Universe, probe_result: ProbeCampaignResult) -> List[str]:
    sections = [
        A.spf_summary_table([A.probe_spf_row("NotifyMX", universe, probe_result)]).render(),
        A.behavior_table(A.behavior_stats(probe_result)).render(),
        fingerprint_fleet(probe_result).to_table().render(),
    ]
    limits = A.lookup_limit_analysis(probe_result)
    sections.append(
        "Figure 5: %d MTAs; within 10 lookups %.0f%%; all 46 lookups %.0f%%"
        % (limits.total, 100 * limits.within_limit_fraction, 100 * limits.ran_everything_fraction)
    )
    rejections = A.rejection_stats(probe_result)
    sections.append(
        "rejections: spam %d, blacklist %d, invalid recipient %d of %d MTAs"
        % (rejections.spam, rejections.blacklist, rejections.invalid_recipient, rejections.total_mtas)
    )
    return sections


def _twoweekmx_sections(universe: Universe, result: ProbeCampaignResult) -> List[str]:
    rows = [A.probe_spf_row("TwoWeekMX (all)", universe, result)]
    rows += A.decile_rows(universe, result)
    table = A.spf_summary_table(rows)
    mean, stdev = A.decile_consistency(rows[1:])
    table.notes.append("decile domain-rate mean %.1f%%, stdev %.1f" % (mean, stdev))
    return [
        table.render(),
        A.behavior_table(A.behavior_stats(result)).render(),
    ]


def _run_notify_family(args, wanted, sink: ProgressSink) -> None:
    sink.say("generating NotifyEmail universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.notify_email(scale=args.scale), seed=args.seed)
    params = _campaign_params(args)
    email: Optional[MergedCampaign] = None

    if "notifyemail" in wanted:
        sink.say("running NotifyEmail: one signed notification per domain ...")
        email = run_notify_sharded(universe, testbed_seed=args.seed + 1, **params)
        assert isinstance(email.result, NotifyEmailResult)
        _write_artefacts(
            args.out, "notifyemail", email, _notifyemail_sections(universe, email.result), sink
        )

    if "notifymx" in wanted:
        sink.say("running NotifyMX: probing the same MTAs with soured reputation ...")
        apply_reputation_effects(universe, seed=args.seed + 2)
        notifymx = run_probe_sharded(
            universe,
            "NotifyMX",
            testbed_seed=args.seed + 1,
            campaign_seed=args.seed,
            start_time=1e7,
            after=email,
            **params,
        )
        assert isinstance(notifymx.result, ProbeCampaignResult)
        _write_artefacts(
            args.out, "notifymx", notifymx, _notifymx_sections(universe, notifymx.result), sink
        )


def _run_twoweekmx(args, sink: ProgressSink) -> None:
    sink.say("generating TwoWeekMX universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    sink.say("running TwoWeekMX probe campaign ...")
    merged = run_probe_sharded(
        universe, "TwoWeekMX", testbed_seed=args.seed + 4, campaign_seed=args.seed,
        **_campaign_params(args),
    )
    assert isinstance(merged.result, ProbeCampaignResult)
    _write_artefacts(
        args.out, "twoweekmx", merged, _twoweekmx_sections(universe, merged.result), sink
    )


def _run_faultmatrix(args, sink: ProgressSink) -> None:
    """Replay the probe campaign under every canonical fault scenario
    (see :mod:`repro.core.faultmatrix`) and write the summary table."""
    if args.faults:
        sink.warn("  !! --faults is ignored by faultmatrix (it runs its own scenario set)")
    sink.say("generating fault-matrix universe (scale %.3f) ..." % args.scale)
    universe = generate_universe(DatasetSpec.two_week_mx(scale=args.scale), seed=args.seed + 3)
    sink.say("running the probe under %d fault scenarios ..." % len(FAULT_SCENARIOS))
    matrix = run_fault_matrix(universe, seed=args.seed)
    _write(args.out / "faultmatrix_report.txt", [matrix.to_table().render()])
    sink.say("  -> %s" % (args.out / "faultmatrix_report.txt"))


def _write_artefacts(
    out: Path, name: str, merged: MergedCampaign, sections: List[str], sink: ProgressSink
) -> None:
    """Write one experiment's report, traces, tracecheck and obs pair."""
    report_path = out / ("%s_report.txt" % name)
    _write(report_path, sections)
    trace.save_query_log(merged.result.index.queries, out / ("%s_queries.jsonl" % name))
    if isinstance(merged.result, ProbeCampaignResult):
        trace.save_probe_results(merged.result.results, out / ("%s_probes.jsonl" % name))
    _postflight(merged, out / ("%s_tracecheck.txt" % name), sink)
    _write_obs(merged, out, name, sink)
    sink.say("  -> %s" % report_path)


def _postflight(merged: MergedCampaign, path: Path, sink: ProgressSink) -> None:
    """Diff the merged query log against the policy footprints; the
    written report is an artefact like any other."""
    result = check_index(merged.result.index, config=merged.synth_config, stats=merged.stats)
    header = "tracecheck: %d queries over %d (mtaid, testid) pairs" % (
        result.queries_checked,
        result.pairs_checked,
    )
    _write(path, [result.report.render_text(header=header)])
    if not result.clean:
        sink.warn("  !! tracecheck found %d conformance finding(s) -> %s"
                  % (len(result.report.diagnostics), path))


def _write_obs(merged: MergedCampaign, out: Path, name: str, sink: ProgressSink) -> None:
    """Export the merged metrics and spans (no-op under ``--no-obs``),
    then reconcile the spans against the attributed query log as a
    second, independent witness of what the campaign did."""
    if merged.metrics is None:
        return
    metrics_path = out / ("%s_metrics.txt" % name)
    _write(metrics_path, [render_metrics_text(merged.metrics, header="%s metrics" % name)])
    spans_path = out / ("%s_spans.jsonl" % name)
    count = save_spans(merged.spans, spans_path)
    sink.say("  -> %s (%d series), %s (%d spans)"
             % (metrics_path, len(merged.metrics), spans_path, count))
    verdict = reconcile_spans(merged.spans, merged.result.index, merged.synth_config)
    if not verdict.matched:
        sink.warn("  !! span/query-log reconciliation mismatch:\n%s" % verdict.render_text())


def _write(path: Path, sections: List[str]) -> None:
    path.write_text("\n\n".join(sections) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
