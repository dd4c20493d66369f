"""Tests for the CLI experiment runner."""

import pytest

from repro.core.runner import build_parser, main
from repro.core.trace import load_probe_results, load_query_index


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.scale == 0.01

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--experiment", "bogus"])

    def test_faults_default_absent(self):
        args = build_parser().parse_args([])
        assert args.faults is None


class TestRunner:
    def test_twoweekmx_run(self, tmp_path):
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.003",
            "--seed", "7", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "twoweekmx_report.txt").read_text()
        assert "Table 5" in report
        assert "Decile 10" in report
        assert "Section 7" in report
        index = load_query_index(tmp_path / "twoweekmx_queries.jsonl")
        probes = load_probe_results(tmp_path / "twoweekmx_probes.jsonl")
        assert probes
        # Every observed validator in the trace was actually probed.
        probed = {probe.mtaid for probe in probes}
        assert index.mtas_observed() <= probed

    def test_notify_family_run(self, tmp_path):
        code = main([
            "--experiment", "notifyemail", "--scale", "0.003",
            "--seed", "8", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "notifyemail_report.txt").read_text()
        assert "Table 4" in report
        assert "Figure 2" in report
        assert (tmp_path / "notifyemail_queries.jsonl").exists()

    def test_notifymx_produces_fingerprints(self, tmp_path):
        code = main([
            "--experiment", "notifymx", "--scale", "0.003",
            "--seed", "9", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "notifymx_report.txt").read_text()
        assert "fingerprints" in report
        assert "rejections:" in report

    def test_deterministic_given_seed(self, tmp_path):
        for run in ("a", "b"):
            main([
                "--experiment", "twoweekmx", "--scale", "0.003",
                "--seed", "42", "--out", str(tmp_path / run), "--quiet",
            ])
        a = (tmp_path / "a" / "twoweekmx_report.txt").read_text()
        b = (tmp_path / "b" / "twoweekmx_report.txt").read_text()
        assert a == b


class TestKeyGeneration:
    def test_one_key_pair_per_testbed_seed(self, tmp_path, monkeypatch):
        """The coordinator generates each testbed seed's DKIM key pair
        once and hands it to every shard; NotifyMX reuses NotifyEmail's
        (both use --seed + 1), so a whole run generates two.  One worker
        keeps every shard's testbed in this process, where the count
        can see it."""
        from repro.core import campaign

        seeds = []
        generate = campaign.generate_keypair

        def counting(*args, **kwargs):
            seeds.append(kwargs.get("seed"))
            return generate(*args, **kwargs)

        monkeypatch.setattr(campaign, "generate_keypair", counting)
        code = main([
            "--experiment", "all", "--scale", "0.002", "--seed", "42",
            "--out", str(tmp_path), "--quiet", "--workers", "1",
        ])
        assert code == 0
        assert sorted(seeds) == [42 + 1 + 4242, 42 + 4 + 4242]


class TestFaults:
    ARTEFACTS = (
        "twoweekmx_report.txt",
        "twoweekmx_queries.jsonl",
        "twoweekmx_probes.jsonl",
        "twoweekmx_tracecheck.txt",
        "twoweekmx_metrics.txt",
    )

    def _run(self, tmp_path, name, *extra):
        out = tmp_path / name
        code = main([
            "--experiment", "twoweekmx", "--scale", "0.003",
            "--seed", "42", "--out", str(out), "--quiet", *extra,
        ])
        assert code == 0
        return out

    def test_empty_plan_is_byte_identical(self, tmp_path):
        # The differential invariant: an empty FaultPlan threaded through
        # every layer must change no artefact at all.
        plain = self._run(tmp_path, "plain", "--workers", "1")
        empty = self._run(tmp_path, "empty", "--workers", "1", "--faults", "")
        for artefact in self.ARTEFACTS:
            assert (plain / artefact).read_bytes() == (empty / artefact).read_bytes()

    def test_faulted_run_identical_across_worker_counts(self, tmp_path):
        spec = "udp_loss:0.1,servfail:0.05"
        serial = self._run(tmp_path, "serial", "--workers", "1", "--faults", spec)
        sharded = self._run(tmp_path, "sharded", "--workers", "4", "--faults", spec)
        for artefact in self.ARTEFACTS:
            assert (serial / artefact).read_bytes() == (sharded / artefact).read_bytes()
        metrics = (serial / "twoweekmx_metrics.txt").read_text()
        assert "faults_injected_total{kind=udp_loss}" in metrics
        assert "faults_injected_total{kind=servfail}" in metrics

    def test_faultmatrix_experiment(self, tmp_path):
        code = main([
            "--experiment", "faultmatrix", "--scale", "0.001",
            "--seed", "42", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        report = (tmp_path / "faultmatrix_report.txt").read_text()
        assert "Fault matrix" in report
        assert "baseline" in report
        assert "banner_absent" in report
