"""Command-line entry point: regenerate paper artifacts, serve, replay.

Usage::

    python -m repro.cli list
    python -m repro.cli run table2
    python -m repro.cli run figure7 --steps 2 --seeds 0,1 --json out.json
    python -m repro.cli run all --steps 2 --seeds 0
    python -m repro.cli serve --devices 10000 --ticks 20 --churn 0.01
    python -m repro.cli serve --metrics-port 9100 --log-json
    python -m repro.cli replay --trace trace.jsonl --batch 512
    python -m repro.cli serve --devices 100000 --topology-shards 4
    python -m repro.cli metrics --url http://127.0.0.1:9100

``run`` executes an experiment's ``run()`` with optional scale overrides
and prints the rendered table (plus an ASCII chart for the figure sweeps);
``--json`` additionally writes the raw :class:`ExperimentResult`.

``serve`` pumps a synthetic load (random drift + anomalous jumps +
optional coordinated bursts) through the online characterization service
and prints per-tick and aggregate figures; ``replay`` runs a detector
bank over a recorded JSON-lines QoS trace (or a generated synthetic one)
and feeds the resulting event stream through the same service.  Both
accept ``--batch`` to exercise the service's batching knob,
``--topology-shards N`` to scale out across N
spatial shards with halo exchange, plus ``--detector`` /
``--detection`` and per-family knobs selecting the error detection
function ``a_k(j)`` (step, band, ewma, shewhart, cusum, holt-winters,
kalman) and its plane (vectorized array bank — the default — or the
scalar reference loop).  ``serve --raw`` ships raw QoS snapshots and
lets the service's own in-service bank decide the flags.

Both service commands take ``--metrics-port`` (a Prometheus + JSON
``/metrics`` endpoint served for the duration of the run) and
``--log-json`` (JSON-lines start/tick/summary events on stderr instead
of the per-tick table); ``metrics`` fetches one snapshot from a running
endpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro.detection.banks import FAMILIES, PLANES
from repro.online.service import VALIDATION_MODES

from repro.experiments import (
    ablation_locality,
    ablation_malicious,
    ablation_sampling,
    ablation_tessellation,
    ablation_theorem7,
    figure6a,
    figure6b,
    figure7,
    figure8,
    figure9,
    table2,
    table3,
)
from repro.io.records import ExperimentResult
from repro.io.render import render_series, render_table

__all__ = ["main", "EXPERIMENTS"]

#: experiment name -> (module, chart spec or None)
EXPERIMENTS: Dict[str, tuple] = {
    "figure6a": (figure6a, ("m", "cdf", "r")),
    "figure6b": (figure6b, ("n", "containment", "tau")),
    "table2": (table2, None),
    "table3": (table3, None),
    "figure7": (figure7, ("A", "unresolved_ratio_percent", "G")),
    "figure8": (figure8, ("A", "missed_detection_percent", "G")),
    "figure9": (figure9, ("A", "unresolved_ratio_percent", "G")),
    "ablation-malicious": (ablation_malicious, None),
    "ablation-sampling": (ablation_sampling, None),
    "ablation-tessellation": (ablation_tessellation, None),
    "ablation-theorem7": (ablation_theorem7, None),
    "ablation-locality": (ablation_locality, None),
}

#: which experiments accept the scale overrides
_SCALED = {
    "ablation-malicious",
    "ablation-sampling",
    "table2",
    "table3",
    "figure7",
    "figure8",
    "figure9",
    "ablation-tessellation",
    "ablation-theorem7",
    "ablation-locality",
}


def _parse_seeds(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DSN'14 anomaly-characterization artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run.add_argument("--steps", type=int, default=None, help="intervals per seed")
    run.add_argument(
        "--seeds", type=_parse_seeds, default=None, help="comma-separated seeds"
    )
    run.add_argument("--json", default=None, help="also write the result JSON here")

    def add_service_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--r", type=float, default=0.03, help="impact radius")
        sub_parser.add_argument("--tau", type=int, default=3, help="density threshold")
        sub_parser.add_argument(
            "--topology-shards", type=int, default=0,
            help="spatial shards with halo exchange (0 = single service)",
        )
        sub_parser.add_argument(
            "--topology-workers", choices=("inline", "process"),
            default="inline",
            help="where shard pipelines run: in this process or in "
            "per-shard processes over shared-memory partitions",
        )
        sub_parser.add_argument(
            "--min-shard-devices", type=int, default=1024,
            help="auto-collapse the shard count so every shard keeps at "
            "least this many devices (0 disables)",
        )
        sub_parser.add_argument(
            "--batch", type=int, default=None, help="updates applied per drain pass"
        )
        sub_parser.add_argument(
            "--queue", type=int, default=65_536, help="ingest queue capacity"
        )
        sub_parser.add_argument(
            "--full", action="store_true",
            help="disable incremental invalidation (recompute all verdicts)",
        )
        sub_parser.add_argument(
            "--json", default=None, help="also write the summary JSON here"
        )
        obs = sub_parser.add_argument_group(
            "observability", "metrics endpoint and structured logging"
        )
        obs.add_argument(
            "--metrics-port", type=int, default=None,
            help="serve /metrics and /healthz on this port while running "
            "(0 = ephemeral; the bound port is printed to stderr)",
        )
        obs.add_argument(
            "--metrics-host", default="127.0.0.1",
            help="bind address for --metrics-port",
        )
        obs.add_argument(
            "--log-json", action="store_true",
            help="emit JSON-lines events (start/tick/summary) on stderr "
            "instead of the per-tick table",
        )
        fault = sub_parser.add_argument_group(
            "fault tolerance", "supervision deadlines and checkpoint-restore"
        )
        fault.add_argument(
            "--dispatch-deadline", type=float, default=None,
            help="seconds a shard-process roundtrip may take before the "
            "child is declared hung, killed and the command retried "
            "(process topology only)",
        )
        fault.add_argument(
            "--validation", choices=VALIDATION_MODES, default="strict",
            help="malformed-input policy: strict rejects the frame, "
            "sanitize repairs bad rows from the last good state",
        )
        fault.add_argument(
            "--checkpoint-dir", default=None,
            help="checkpoint directory; the run resumes from its newest "
            "checkpoint if one exists",
        )
        fault.add_argument(
            "--checkpoint-every", type=int, default=1,
            help="ticks between checkpoints (with --checkpoint-dir)",
        )
        fault.add_argument(
            "--checkpoint-keep", type=int, default=3,
            help="checkpoints retained after pruning",
        )
        detect = sub_parser.add_argument_group(
            "detection", "error-detection function a_k(j) and its knobs"
        )
        detect.add_argument(
            "--detector", choices=FAMILIES, default="step",
            help="detector family flagging abnormal QoS variations",
        )
        detect.add_argument(
            "--detection", choices=PLANES, default="bank",
            help="detection plane: vectorized bank or scalar reference loop",
        )
        detect.add_argument(
            "--max-step", type=float, default=None,
            help="step: largest normal jump (default min(4r, 1))",
        )
        detect.add_argument(
            "--band-low", type=float, default=0.8,
            help="band: lower edge of the acceptable band",
        )
        detect.add_argument(
            "--band-high", type=float, default=1.0,
            help="band: upper edge of the acceptable band",
        )
        detect.add_argument(
            "--alpha", type=float, default=None,
            help="ewma / holt-winters: level smoothing factor",
        )
        detect.add_argument(
            "--nsigma", type=float, default=None,
            help="ewma / shewhart / kalman: control band width in sigmas",
        )
        detect.add_argument(
            "--window", type=int, default=None,
            help="shewhart: samples per control window",
        )
        detect.add_argument(
            "--cusum-threshold", type=float, default=None,
            help="cusum: decision interval h",
        )
        detect.add_argument(
            "--cusum-drift", type=float, default=None,
            help="cusum: allowance nu per deviation",
        )
        detect.add_argument(
            "--hw-beta", type=float, default=None,
            help="holt-winters: trend smoothing factor",
        )
        detect.add_argument(
            "--hw-band", type=float, default=None,
            help="holt-winters: tolerated smoothed deviations",
        )
        detect.add_argument(
            "--kalman-q", type=float, default=None,
            help="kalman: process noise variance",
        )
        detect.add_argument(
            "--kalman-rho", type=float, default=None,
            help="kalman: measurement noise variance",
        )
        detect.add_argument(
            "--det-warmup", type=int, default=None,
            help="samples before a detector may raise (family default)",
        )

    serve = sub.add_parser(
        "serve", help="pump synthetic load through the online service"
    )
    add_service_args(serve)
    serve.add_argument("--devices", type=int, default=10_000, help="population size")
    serve.add_argument("--services", type=int, default=2, help="QoS dimensions")
    serve.add_argument("--ticks", type=int, default=20, help="intervals to run")
    serve.add_argument(
        "--churn", type=float, default=0.01, help="fraction of devices reporting per tick"
    )
    serve.add_argument(
        "--flag-rate", type=float, default=0.1,
        help="fraction of reports that are anomalous",
    )
    serve.add_argument(
        "--burst-every", type=int, default=0,
        help="coordinated burst period in ticks (0 = off)",
    )
    serve.add_argument(
        "--burst-size", type=int, default=8, help="devices per coordinated burst"
    )
    serve.add_argument("--seed", type=int, default=0, help="load generator seed")
    serve.add_argument(
        "--raw", action="store_true",
        help="ship raw QoS snapshots; the service's own detector bank "
        "(--detector/--detection) decides the flags",
    )

    replay = sub.add_parser(
        "replay", help="replay a QoS trace through the online service"
    )
    add_service_args(replay)
    replay.add_argument(
        "--trace", default=None,
        help="JSON-lines trace file (default: generate a synthetic trace)",
    )
    replay.add_argument(
        "--devices", type=int, default=200, help="synthetic trace population"
    )
    replay.add_argument(
        "--services", type=int, default=2, help="synthetic trace QoS dimensions"
    )
    replay.add_argument(
        "--steps", type=int, default=24, help="synthetic trace length"
    )
    replay.add_argument("--seed", type=int, default=0, help="synthetic trace seed")

    metrics = sub.add_parser(
        "metrics",
        help="fetch /metrics from a running endpoint "
        "(or dump the in-process registry)",
    )
    metrics.add_argument(
        "--url", default=None,
        help="endpoint base, e.g. http://127.0.0.1:9100 "
        "(omit to render this process's own registry)",
    )
    metrics.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="exposition format",
    )
    metrics.add_argument(
        "--timeout", type=float, default=5.0, help="fetch timeout in seconds"
    )
    return parser


def _detector_spec(args: argparse.Namespace):
    """Build a :class:`DetectorSpec` from ``--detector`` and its knobs."""
    from repro.detection.banks import DetectorSpec

    family = args.detector
    params = {}

    def put(key, value):
        if value is not None:
            params[key] = value

    if family == "step":
        params["max_step"] = (
            args.max_step if args.max_step is not None else min(4.0 * args.r, 1.0)
        )
    elif family == "band":
        put("low", args.band_low)
        put("high", args.band_high)
    elif family == "ewma":
        put("alpha", args.alpha)
        put("nsigma", args.nsigma)
    elif family == "shewhart":
        put("window", args.window)
        put("nsigma", args.nsigma)
    elif family == "cusum":
        put("threshold", args.cusum_threshold)
        put("drift", args.cusum_drift)
    elif family == "holt-winters":
        put("alpha", args.alpha)
        put("beta", args.hw_beta)
        put("band", args.hw_band)
    elif family == "kalman":
        put("process_var", args.kalman_q)
        put("measurement_var", args.kalman_rho)
        put("nsigma", args.nsigma)
    put("warmup", args.det_warmup)
    return DetectorSpec(family, params)


def _service_config(args: argparse.Namespace):
    """Build a :class:`ServiceConfig` from the shared service flags."""
    from repro.online import ServiceConfig

    return ServiceConfig(
        r=args.r,
        tau=args.tau,
        queue_capacity=args.queue,
        max_batch=args.batch,
        incremental=not args.full,
        dispatch_deadline=args.dispatch_deadline,
        validation=args.validation,
    )


def _open_service(args: argparse.Namespace, initial, resume=None, **kwargs):
    """The service ``serve`` / ``replay`` drives, restored from ``resume``
    (a checkpoint path or loaded checkpoint) or built over ``initial``.

    ``--topology-shards 0`` is the single service — the one-shard,
    in-process :class:`~repro.online.ShardedService` — whose checkpoints
    carry their own topology tag; ``kwargs`` reach the constructor.
    """
    from repro.online import OnlineCharacterizationService, ShardedService

    if args.topology_shards:
        cls = ShardedService
        topology = {"topology_workers": args.topology_workers}
    else:
        cls, topology = OnlineCharacterizationService, {}
    if resume is not None:
        return cls.restore(resume, **topology, **kwargs)
    if args.topology_shards:
        topology.update(
            topology_shards=args.topology_shards,
            min_shard_devices=args.min_shard_devices,
        )
    return cls(initial, _service_config(args), **topology, **kwargs)


def _topology_label(args: argparse.Namespace) -> str:
    """The banners' topology field: empty for the single service."""
    shards = args.topology_shards
    return f" topology-shards={shards}" if shards else ""


def _print_tick_table(ticks) -> None:
    print(
        f"{'tick':>5} {'applied':>8} {'flagged':>8} {'recomputed':>11} "
        f"{'reused':>7} {'dirty':>6}"
    )
    for tick in ticks:
        print(
            f"{tick.tick:>5} {tick.applied:>8} {len(tick.flagged):>8} "
            f"{len(tick.recomputed):>11} {len(tick.reused):>7} "
            f"{tick.dirty_cells:>6}"
        )


def _print_service_summary(result, service) -> None:
    stats = service.stats
    total = result.total_updates
    throughput = total / result.elapsed_seconds if result.elapsed_seconds else 0.0
    recompute_share = (
        100.0 * result.total_recomputed
        / max(1, result.total_recomputed + result.total_reused)
    )
    print(
        f"totals: updates={total} recomputed={result.total_recomputed} "
        f"reused={result.total_reused} ({recompute_share:.1f}% recomputed)"
    )
    print(f"motion families: recomputed={stats.families_recomputed}")
    print(
        f"store memory: {service.nbytes:,} bytes "
        f"({service.bytes_per_device:.0f} bytes/device, n={service.n}, "
        f"d={service.dim})"
    )
    print(
        f"elapsed={result.elapsed_seconds:.3f}s "
        f"throughput={throughput:,.0f} updates/s"
    )


def _write_service_json(path: str, result, service, extra: Dict) -> None:
    payload = {
        "stats": service.stats.as_dict(),
        "store": {
            "n": service.n,
            "dim": service.dim,
            "nbytes": service.nbytes,
            "bytes_per_device": service.bytes_per_device,
        },
        "ticks": [
            {
                "tick": tick.tick,
                "applied": tick.applied,
                "flagged": len(tick.flagged),
                "recomputed": len(tick.recomputed),
                "reused": len(tick.reused),
                "dirty_cells": tick.dirty_cells,
                "stage_seconds": {
                    stage: round(seconds, 6)
                    for stage, seconds in tick.stage_seconds.items()
                },
            }
            for tick in result.ticks
        ],
        "stage_seconds": {
            stage: round(seconds, 6)
            for stage, seconds in result.stage_seconds.items()
        },
        "elapsed_seconds": result.elapsed_seconds,
        **extra,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"(wrote {path})")


def _start_metrics_server(args: argparse.Namespace):
    """Start the --metrics-port endpoint, if requested; else None."""
    if args.metrics_port is None:
        return None
    from repro.obs import MetricsServer

    server = MetricsServer(host=args.metrics_host, port=args.metrics_port)
    port = server.start()
    print(
        f"metrics endpoint: http://{args.metrics_host}:{port}/metrics",
        file=sys.stderr,
    )
    return server


def _json_logger(args: argparse.Namespace, **static_fields):
    """The --log-json event logger, if requested; else None."""
    if not args.log_json:
        return None
    from repro.obs import JsonLinesLogger

    return JsonLinesLogger(**static_fields)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.online import (
        CheckpointWriter,
        LoadGenerator,
        LoadProfile,
        MetricsSink,
        drive_load,
        drive_load_measurements,
        latest_checkpoint,
    )

    profile = LoadProfile(
        devices=args.devices,
        services=args.services,
        churn=args.churn,
        flag_rate=args.flag_rate,
        burst_every=args.burst_every,
        burst_size=args.burst_size,
        seed=args.seed,
    )
    generator = LoadGenerator(profile)
    if not args.raw and (args.detector != "step" or args.detection != "bank"):
        print(
            "note: --detector/--detection only apply with --raw; "
            "without it the load generator's own flags drive the service",
            file=sys.stderr,
        )
    server = _start_metrics_server(args)
    logger = _json_logger(
        args,
        command="serve",
        devices=args.devices,
        topology_shards=args.topology_shards,
    )
    resume = (
        latest_checkpoint(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    try:
        if resume is not None:
            # A previous run left a checkpoint behind: rebuild the
            # service from it and replay the load generator forward so
            # the stream continues exactly where the dead process died.
            service_cm = _open_service(
                args, None, resume, config=_service_config(args)
            )
        else:
            service_cm = _open_service(
                args,
                generator.initial_positions(),
                detector=_detector_spec(args) if args.raw else None,
                detection=args.detection if args.raw else None,
            )
        # The service is a context manager: leaving the block shuts down
        # any shard processes.
        with service_cm as service:
            start_tick = service.current_tick
            if start_tick:
                generator.fast_forward(start_tick)
                print(
                    f"resuming from {resume} (tick {start_tick})",
                    file=sys.stderr,
                )
            if args.checkpoint_dir:
                service.add_sink(
                    CheckpointWriter(
                        service,
                        args.checkpoint_dir,
                        every=args.checkpoint_every,
                        keep=args.checkpoint_keep,
                    )
                )
            metrics = MetricsSink()
            service.add_sink(metrics)
            mode = "full-recompute" if args.full else "incremental"
            flag_source = (
                f"in-service {args.detector}/{args.detection} bank"
                if args.raw
                else "precomputed"
            )
            if logger is not None:
                service.add_sink(logger.tick_sink)
                logger.event(
                    "start",
                    ticks=args.ticks,
                    churn=args.churn,
                    mode=mode,
                    flags=flag_source,
                )
            else:
                print(
                    f"serve: n={args.devices} ticks={args.ticks} "
                    f"churn={args.churn:.2%}{_topology_label(args)} "
                    f"mode={mode} flags={flag_source}"
                )
            ticks_left = max(0, args.ticks - start_tick)
            if args.raw:
                result = drive_load_measurements(service, generator, ticks_left)
            else:
                result = drive_load(service, generator, ticks_left)
            if logger is not None:
                logger.event(
                    "summary",
                    stats=service.stats.as_dict(),
                    verdict_counts=metrics.verdict_counts,
                    verdict_tick_counts=metrics.verdict_tick_counts,
                    elapsed_seconds=round(result.elapsed_seconds, 6),
                )
            else:
                _print_tick_table(result.ticks)
                _print_service_summary(result, service)
                print(f"verdict events: {metrics.verdict_counts}")
                print(f"verdict device-ticks: {metrics.verdict_tick_counts}")
            if args.json:
                _write_service_json(
                    args.json,
                    result,
                    service,
                    {
                        "metrics": metrics.as_dict(),
                        "detector": args.detector if args.raw else None,
                        "detection": args.detection if args.raw else None,
                    },
                )
    finally:
        if server is not None:
            server.close()
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from repro.detection.banks import resolve_bank
    from repro.io.synthetic import Incident, TraceConfig, generate_trace
    from repro.io.traces import read_trace
    from repro.online import (
        CheckpointWriter,
        latest_checkpoint,
        load_checkpoint,
        replay_trace_online,
    )

    if args.trace:
        with open(args.trace) as handle:
            trace = read_trace(handle.read())
        source = args.trace
    else:
        config = TraceConfig(
            devices=args.devices,
            services=args.services,
            steps=args.steps,
            seed=args.seed,
        )
        incidents = []
        massive = min(args.tau + 2, args.devices)
        if massive >= 1:
            incidents.append(
                Incident(
                    start=max(1, args.steps // 3),
                    duration=2,
                    devices=tuple(range(massive)),
                    service=0,
                    drop=0.3,
                )
            )
        incidents.append(
            Incident(
                start=max(1, 2 * args.steps // 3),
                duration=2,
                devices=(args.devices - 1,),
                service=0,
                drop=0.4,
            )
        )
        trace = generate_trace(config, incidents)
        source = f"synthetic (devices={args.devices}, steps={args.steps})"
    mode = "full-recompute" if args.full else "incremental"
    server = _start_metrics_server(args)
    logger = _json_logger(
        args,
        command="replay",
        topology_shards=args.topology_shards,
    )
    if logger is not None:
        logger.event(
            "start",
            source=source,
            mode=mode,
            detector=f"{args.detector}/{args.detection}",
        )
    else:
        print(
            f"replay: {source}{_topology_label(args)} "
            f"mode={mode} detector={args.detector}/{args.detection}"
        )
    service = None
    try:
        resume = (
            latest_checkpoint(args.checkpoint_dir) if args.checkpoint_dir else None
        )
        if resume is not None:
            # The external detector bank rides in the checkpoint's extra
            # blob, so a resumed run flags exactly what the uninterrupted
            # one would have.
            ckpt = load_checkpoint(resume)
            service = _open_service(args, None, ckpt)
            bank = ckpt.extra.get("replay_bank")
            skip = min(service.current_tick, len(trace) - 1)
            print(
                f"resuming from {resume} (tick {service.current_tick})",
                file=sys.stderr,
            )
        else:
            service = _open_service(args, trace[0].qos)
            n, d = trace[0].qos.shape
            bank = resolve_bank(
                n,
                d,
                detector=_detector_spec(args),
                detection=args.detection,
                r=service.config.r,
            )
            skip = 0
        if args.checkpoint_dir:
            service.add_sink(
                CheckpointWriter(
                    service,
                    args.checkpoint_dir,
                    every=args.checkpoint_every,
                    keep=args.checkpoint_keep,
                    extra={"replay_bank": bank},
                )
            )
        result = replay_trace_online(
            trace, service=service, bank=bank, skip_steps=skip
        )
        if logger is not None:
            for tick in result.ticks:
                logger.tick_sink(tick)
            logger.event(
                "summary",
                stats=result.service.stats.as_dict(),
                elapsed_seconds=round(result.elapsed_seconds, 6),
            )
        else:
            _print_tick_table(result.ticks)
            _print_service_summary(result, result.service)
        if args.json:
            _write_service_json(
                args.json,
                result,
                result.service,
                {
                    "source": source,
                    "detector": args.detector,
                    "detection": args.detection,
                },
            )
    finally:
        if service is not None:
            service.close()
        if server is not None:
            server.close()
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    from repro.obs import fetch_metrics, render_json, render_prometheus

    if args.url:
        try:
            text = fetch_metrics(args.url, format=args.format, timeout=args.timeout)
        except OSError as exc:
            print(f"metrics: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 1
    else:
        text = render_json() if args.format == "json" else render_prometheus()
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _run_one(
    name: str, steps: Optional[int], seeds: Optional[tuple]
) -> ExperimentResult:
    module, _ = EXPERIMENTS[name]
    kwargs = {}
    if name in _SCALED:
        if steps is not None:
            kwargs["steps"] = steps
        if seeds is not None:
            kwargs["seeds"] = seeds
    return module.run(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            module, _ = EXPERIMENTS[name]
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<24} {doc}")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = _run_one(name, args.steps, args.seeds)
        print(render_table(result))
        _, chart = EXPERIMENTS[name]
        if chart is not None:
            x, y, group = chart
            print()
            print(render_series(result, x=x, y=y, group=group))
        if args.json:
            path = args.json if len(names) == 1 else f"{args.json}.{name}.json"
            with open(path, "w") as handle:
                handle.write(result.to_json())
            print(f"(wrote {path})")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
