"""The benchmark's own tests: a tiny-scale smoke of every workload in
both modes, a second seed, host-speed normalisation, the self-checks
tripping on corrupted artefacts, wrapper removal, and the refusal to run
without the program.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ledger  # noqa: E402
import workloads  # noqa: E402

#: Tiny scales: each workload's smoke finishes in seconds.
TINY = {"probe": 0.002, "notify": 0.002, "runner": 0.001}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(tmp_path, workload, seed=1, trace=0, cwd=ROOT, script=None):
    """Run the benchmark command; returns (exit code, stdout, result)."""
    command = [
        sys.executable,
        str(script or BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--trace", str(trace),
        "--scale", str(TINY[workload]),
        "--history", str(tmp_path / "history.jsonl"),
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, done.stdout, result


def expected_units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    code, out, result = bench(tmp_path, workload)
    assert code == 0, out
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    history = [json.loads(line) for line in (tmp_path / "history.jsonl").read_text().splitlines()]
    assert history[-1]["workload"] == workload and history[-1]["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_layer_metric(tmp_path, workload):
    code, out, result = bench(tmp_path, workload, trace=1)
    assert code == 0, out
    assert result["correct"] is True
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units("per_layer")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert ledger.missing_layers(workload, values) == []
    assert 0.5 < values["trace.explained_share"] <= 1.0
    assert "explained time, %s" % workload in out


def test_second_seed_runs_clean(tmp_path):
    code, out, result = bench(tmp_path, "probe", seed=2)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0


def test_inputs_follow_the_seed():
    probe = workloads.make_workload("probe")
    assert probe.inputs(1) == probe.inputs(1)
    assert probe.inputs(1) != probe.inputs(2)
    assert [testbed_seed for testbed_seed, _order in probe.inputs(1)] == [2022, 2023, 2024, 2025]
    runner = workloads.make_workload("runner")
    assert [runner_seed for runner_seed, _ in runner.inputs(1)] == [2022, 2023, 2024, 2021]


def test_timings_take_probe_time_out_and_scale_to_the_nominal_host():
    nominal = workloads.PROBE_NOMINAL_S
    speed = workloads.HostSpeed()
    # Probes at twice the nominal time: the host runs at half speed.
    speed.samples = [(-1.0, 2 * nominal), (0.5, 2 * nominal), (2.0, 2 * nominal), (3.0, 2 * nominal)]
    run = workloads.InputRun((0, 0), setup_spans=[(0.0, 1.0)], exec_span=(1.0, 3.0), exec_cpu_s=1.5)
    run.settle(speed)
    assert run.host_scale == 0.5
    assert run.setup_s == pytest.approx((1.0 - 2 * nominal) * 0.5)
    assert run.raw_wall_s == pytest.approx(2.0 - 2 * nominal)
    assert run.wall_s == pytest.approx((2.0 - 2 * nominal) * 0.5)
    assert run.cpu_s == pytest.approx((1.5 - 2 * nominal) * 0.5)
    assert run.span_s == pytest.approx(3.0 - 4 * nominal)


def test_host_speed_samples_while_the_program_runs():
    before = signal.getsignal(signal.SIGALRM)
    with workloads.HostSpeed() as speed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.fixture(scope="module")
def probe_input(tmp_path_factory):
    """One tiny probe input's artefacts and its expected probe count."""
    out = tmp_path_factory.mktemp("probe") / "out"
    run = workloads.make_workload("probe", TINY["probe"]).measure((2022, 7), out)
    assert run.problems == []
    return out, run.expected_ops


def corrupted(source: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(source, copy)
    return copy


def test_intact_artefacts_pass(probe_input):
    out, probes = probe_input
    assert workloads.verify_artefacts(out, {"probe": probes}) == []


def test_truncated_transcript_trips_the_check(probe_input, tmp_path):
    out, probes = probe_input
    copy = corrupted(out, tmp_path)
    path = copy / "probe_probes.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    problems = workloads.verify_artefacts(copy, {"probe": probes})
    assert any("probe_probes.jsonl holds" in problem for problem in problems)


def test_tracecheck_finding_trips_the_check(probe_input, tmp_path):
    out, probes = probe_input
    copy = corrupted(out, tmp_path)
    (copy / "probe_tracecheck.txt").write_text("tracecheck: 1 finding\nTRACE001 error ...\n")
    problems = workloads.verify_artefacts(copy, {"probe": probes})
    assert problems == ["probe_tracecheck.txt: tracecheck missing or not clean"]


def test_garbled_query_log_trips_the_check(probe_input, tmp_path):
    out, probes = probe_input
    copy = corrupted(out, tmp_path)
    with (copy / "probe_queries.jsonl").open("a") as handle:
        handle.write("{not json\n")
    problems = workloads.verify_artefacts(copy, {"probe": probes})
    assert any("probe_queries.jsonl unreadable" in problem for problem in problems)


def test_corrupted_artefact_digest_differs(probe_input, tmp_path):
    out, _probes = probe_input
    copy = corrupted(out, tmp_path)
    path = copy / "probe_metrics.txt"
    path.write_text(path.read_text() + " ")
    assert workloads.artefact_digest(copy) != workloads.artefact_digest(out)


def test_dropped_probe_fails_the_input(tmp_path, monkeypatch):
    """A program that loses an operation fails the op-count check."""
    from repro.core import campaign

    original = campaign.ProbeCampaign.run

    def lossy(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.results.pop()
        return result

    monkeypatch.setattr(campaign.ProbeCampaign, "run", lossy)
    run = workloads.make_workload("probe", TINY["probe"]).measure((2022, 7), tmp_path / "out")
    assert any("operations for a schedule of" in problem for problem in run.problems)


def test_wrappers_are_removed():
    from repro.dns import wire
    from repro.dns.name import Name
    from repro.smtp.client import SmtpClient

    before = (Name.__dict__["__init__"], wire.to_wire, SmtpClient.__dict__["connect"])
    tracer = ledger.LayerTracer()
    tracer.install()
    assert wire.to_wire is not before[1]
    tracer.remove()
    assert (Name.__dict__["__init__"], wire.to_wire, SmtpClient.__dict__["connect"]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    command fails without printing a result."""
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, out, result = bench(tmp_path, "probe", cwd=bare, script=bare / "perfbench" / "run.py")
    assert code != 0
    assert result is None
