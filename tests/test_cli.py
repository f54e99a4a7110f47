"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.experiment == "table2"
        assert args.steps is None
        assert args.seeds is None

    def test_seed_parsing(self):
        args = build_parser().parse_args(["run", "figure7", "--seeds", "0,3,5"])
        assert args.seeds == (0, 3, 5)

    def test_bad_seed_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure7", "--seeds", "a,b"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])


class TestExecution:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "figure6b"]) == 0
        out = capsys.readouterr().out
        assert "P{F_r(j) <= tau}" in out
        assert "containment" in out

    def test_run_simulated_experiment_scaled(self, capsys):
        assert main(["run", "table2", "--steps", "1", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "I_k (Theorem 5)" in out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "fig6a.json"
        assert main(["run", "figure6a", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["experiment_id"] == "figure6a"
        assert payload["rows"]


class TestBackendFlags:
    def test_backend_flag_parsed(self):
        args = build_parser().parse_args(
            ["run", "table2", "--backend", "process", "--workers", "2"]
        )
        assert args.backend == "process"
        assert args.workers == 2

    def test_backend_defaults_to_none(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.backend is None
        assert args.workers is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--backend", "threads"])

    def test_run_with_serial_backend(self, capsys):
        assert (
            main(
                ["run", "table2", "--steps", "1", "--seeds", "0",
                 "--backend", "serial"]
            )
            == 0
        )
        assert "I_k (Theorem 5)" in capsys.readouterr().out

    def test_backend_ignored_by_analytic_experiments(self, capsys):
        # figure6b runs no simulation; the flag must be silently dropped.
        assert main(["run", "figure6b", "--backend", "process"]) == 0


class TestOnlineCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.devices == 10_000
        assert args.topology_shards == 0
        assert args.batch is None
        assert not args.full

    def test_replay_parser_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.command == "replay"
        assert args.trace is None

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "threads"])

    def test_serve_runs_and_reports(self, capsys):
        assert (
            main(
                ["serve", "--devices", "120", "--ticks", "3", "--churn",
                 "0.05", "--burst-every", "2", "--burst-size", "5",
                 "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve: n=120" in out
        assert "recomputed" in out
        assert "throughput" in out

    def test_serve_full_mode_flag(self, capsys):
        assert (
            main(["serve", "--devices", "60", "--ticks", "2", "--full"]) == 0
        )
        assert "mode=full-recompute" in capsys.readouterr().out

    def test_serve_json_output(self, tmp_path, capsys):
        target = tmp_path / "serve.json"
        assert (
            main(
                ["serve", "--devices", "60", "--ticks", "2", "--json",
                 str(target)]
            )
            == 0
        )
        payload = json.loads(target.read_text())
        assert payload["stats"]["ticks"] == 2
        assert len(payload["ticks"]) == 2
        assert "metrics" in payload

    def test_replay_synthetic_runs(self, capsys):
        assert (
            main(
                ["replay", "--devices", "40", "--steps", "8"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replay: synthetic" in out
        assert "totals:" in out

    def test_replay_trace_file(self, tmp_path, capsys):
        from repro.io.synthetic import TraceConfig, generate_trace
        from repro.io.traces import write_trace

        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(
            write_trace(generate_trace(TraceConfig(devices=20, steps=6)))
        )
        target = tmp_path / "replay.json"
        assert (
            main(["replay", "--trace", str(trace_path), "--json", str(target)])
            == 0
        )
        assert str(trace_path) in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["source"] == str(trace_path)
        assert len(payload["ticks"]) == 5


class TestObservabilityFlags:
    def test_json_report_carries_stage_seconds(self, tmp_path, capsys):
        target = tmp_path / "replay.json"
        assert (
            main(
                ["replay", "--devices", "40", "--steps", "6", "--json",
                 str(target)]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert "dirty-region" in payload["stage_seconds"]
        for tick in payload["ticks"]:
            assert "stage_seconds" in tick
            assert all(v >= 0.0 for v in tick["stage_seconds"].values())

    def test_serve_metrics_port_serves_prometheus(self, capsys, monkeypatch):
        import re

        from repro.obs import fetch_metrics
        import repro.cli as cli

        # The ephemeral endpoint only lives for the duration of main();
        # scrape it mid-run by hooking the server factory.
        scraped = {}
        original = cli._start_metrics_server

        def capture(args):
            server = original(args)
            scraped["url"] = server.url
            return server

        monkeypatch.setattr(cli, "_start_metrics_server", capture)
        original_write = cli._write_service_json

        def scrape_then_write(path, result, service, extra):
            scraped["text"] = fetch_metrics(scraped["url"])
            return original_write(path, result, service, extra)

        monkeypatch.setattr(cli, "_write_service_json", scrape_then_write)
        assert (
            main(
                ["serve", "--devices", "80", "--ticks", "3",
                 "--churn", "0.1", "--metrics-port", "0",
                 "--json", "/dev/null"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "metrics endpoint: http://127.0.0.1:" in err
        text = scraped["text"]
        assert re.search(
            r'repro_stage_seconds_bucket\{stage="dirty-region",le="[^"]+"\} \d+',
            text,
        )
        assert "repro_service_ticks_total" in text
        assert "repro_service_queue_depth" in text
        assert "repro_service_devices 80" in text

    def test_serve_log_json_emits_events(self, capsys):
        assert (
            main(
                ["serve", "--devices", "60", "--ticks", "2", "--log-json"]
            )
            == 0
        )
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.err.splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds.count("tick") == 2
        assert kinds[-1] == "summary"
        tick_events = [e for e in events if e["event"] == "tick"]
        assert all("stage_seconds" in e for e in tick_events)
        # The per-tick table is replaced, not duplicated.
        assert "tick  applied" not in captured.out

    def test_replay_log_json_emits_events(self, capsys):
        assert (
            main(["replay", "--devices", "30", "--steps", "5", "--log-json"])
            == 0
        )
        err_lines = capsys.readouterr().err.splitlines()
        events = [json.loads(line) for line in err_lines]
        assert [e["event"] for e in events].count("tick") == 4

    def test_metrics_command_renders_local_registry(self, capsys):
        from repro.obs import get_registry

        get_registry().counter("cli_probe_total", "probe").inc(2)
        assert main(["metrics"]) == 0
        assert "cli_probe_total 2" in capsys.readouterr().out

    def test_metrics_command_fetches_from_endpoint(self, capsys):
        from repro.obs import MetricsServer
        from repro.obs.metrics import Registry

        registry = Registry()
        registry.gauge("remote_depth", "depth").set(4)
        with MetricsServer(registry) as server:
            assert main(["metrics", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "remote_depth 4" in out
            assert (
                main(["metrics", "--url", server.url, "--format", "json"])
                == 0
            )
            payload = json.loads(capsys.readouterr().out)
            assert payload["remote_depth"]["samples"][0]["value"] == 4.0

    def test_metrics_command_unreachable_endpoint_fails(self, capsys):
        assert main(["metrics", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestDetectorFlags:
    """The --detector family knob on serve/replay."""

    def test_defaults(self):
        for command in ("serve", "replay"):
            args = build_parser().parse_args([command])
            assert args.detector == "step"
            assert args.detection == "bank"

    def test_unknown_detector_rejected_cleanly(self):
        for command in ("serve", "replay"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--detector", "arima"])
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--detection", "gpu"])

    def _replay_ticks(self, tmp_path, capsys, family, plane, extra=()):
        target = tmp_path / f"replay-{family}-{plane}.json"
        assert (
            main(
                [
                    "replay", "--devices", "40", "--steps", "10",
                    "--detector", family, "--detection", plane,
                    *extra, "--json", str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["detector"] == family
        assert payload["detection"] == plane
        # Wall-clock stage timings differ run to run; the cross-plane
        # contract covers the deterministic fields.
        for tick in payload["ticks"]:
            tick.pop("stage_seconds", None)
        return payload["ticks"]

    @pytest.mark.parametrize(
        "family,extra",
        [
            ("step", ()),
            ("band", ("--band-low", "0.5")),
            ("ewma", ("--alpha", "0.3", "--nsigma", "5", "--det-warmup", "3")),
            ("shewhart", ("--window", "6", "--nsigma", "5")),
            ("cusum", ("--cusum-threshold", "0.2", "--cusum-drift", "0.01")),
            ("holt-winters", ("--hw-band", "6",)),
            ("kalman", ("--nsigma", "7",)),
        ],
    )
    def test_each_choice_matches_scalar_reference(
        self, tmp_path, capsys, family, extra
    ):
        bank = self._replay_ticks(tmp_path, capsys, family, "bank", extra)
        scalar = self._replay_ticks(tmp_path, capsys, family, "scalar", extra)
        assert bank == scalar  # identical per-tick flagged/recompute rows

    def test_serve_raw_runs_in_service_bank(self, tmp_path, capsys):
        target = tmp_path / "serve-raw.json"
        assert (
            main(
                [
                    "serve", "--devices", "150", "--ticks", "4", "--churn",
                    "0.1", "--flag-rate", "0.5", "--raw",
                    "--detector", "step", "--json", str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flags=in-service step/bank bank" in out
        payload = json.loads(target.read_text())
        assert payload["detector"] == "step"
        assert payload["detection"] == "bank"

    def test_serve_raw_planes_agree(self, tmp_path, capsys):
        rows = {}
        for plane in ("bank", "scalar"):
            target = tmp_path / f"serve-{plane}.json"
            assert (
                main(
                    [
                        "serve", "--devices", "120", "--ticks", "4",
                        "--churn", "0.1", "--flag-rate", "0.5", "--raw",
                        "--detector", "ewma", "--detection", plane,
                        "--json", str(target),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            ticks = json.loads(target.read_text())["ticks"]
            for tick in ticks:
                tick.pop("stage_seconds", None)  # wall-clock, run-varying
            rows[plane] = ticks
        assert rows["bank"] == rows["scalar"]


class TestCheckpointResume:
    """``serve --checkpoint-dir``: a rerun resumes where the last one
    stopped and ends with the verdicts of an uninterrupted run."""

    BASE = ["serve", "--devices", "300", "--seed", "7"]
    #: Two real shards: the default minimum would collapse 300 devices to one.
    SHARDED = ["--topology-shards", "2", "--min-shard-devices", "100"]

    @staticmethod
    def _rows(out):
        """The per-tick table rows, keyed by tick."""
        rows = {}
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 6 and all(f.isdigit() for f in fields):
                rows[int(fields[0])] = fields
        return rows

    @staticmethod
    def _final_verdicts(directory, sharded):
        from repro.online import (
            latest_checkpoint,
            restore_service,
            restore_sharded_service,
        )

        restore = restore_sharded_service if sharded else restore_service
        with restore(latest_checkpoint(directory)) as service:
            return {
                device: (v.anomaly_type, v.rule, v.witness)
                for device, v in service.verdicts.items()
            }

    @pytest.mark.parametrize(
        "first,second",
        [
            ([], []),
            (SHARDED, SHARDED),
            (
                SHARDED + ["--topology-workers", "process"],
                SHARDED + ["--topology-workers", "inline"],
            ),
        ],
        ids=["single", "sharded", "process-to-inline"],
    )
    def test_rerun_resumes_verdict_identically(
        self, tmp_path, capsys, first, second
    ):
        straight_dir, resumed_dir = tmp_path / "straight", tmp_path / "resumed"
        argv = self.BASE + ["--ticks", "10", "--checkpoint-dir"]
        assert main(argv + [str(straight_dir)] + second) == 0
        want = self._rows(capsys.readouterr().out)

        assert main(
            self.BASE + ["--ticks", "4", "--checkpoint-dir", str(resumed_dir)]
            + first
        ) == 0
        capsys.readouterr()
        assert main(argv + [str(resumed_dir)] + second) == 0
        captured = capsys.readouterr()
        assert "resuming from " in captured.err
        assert "(tick 4)" in captured.err
        got = self._rows(captured.out)

        assert sorted(got) == list(range(5, 11))
        assert [got[t] for t in got] == [want[t] for t in got]
        sharded = bool(second)
        final = self._final_verdicts(straight_dir, sharded)
        assert final
        assert self._final_verdicts(resumed_dir, sharded) == final
