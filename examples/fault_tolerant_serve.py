#!/usr/bin/env python
"""Fault-tolerant serving walkthrough: chaos, checkpoints, resume.

Everything the fault-tolerance PR adds, in one script:

1. run an online stream over a 2-shard process
   :class:`ShardedService` while a :class:`FaultPlan` kills shard
   children and drops their replies at probability 0.2 per dispatch —
   the dispatch deadline catches every silent child, respawns it
   against its shared-memory planes and retries, so the stream never
   stalls;
2. checkpoint every tick through :class:`CheckpointWriter` (atomic
   write-then-rename, newest few kept);
3. "crash" mid-stream, then :func:`restore_sharded_service` from the
   newest checkpoint into a fresh sharded service, fast-forward the
   load generator and finish the run;
4. compare against an uninterrupted fault-free serial run: the verdict
   totals are identical — faults and restores are invisible in the
   output stream.

Run:  python examples/fault_tolerant_serve.py
      python examples/fault_tolerant_serve.py --devices 2000 --ticks 24
"""

import argparse
import tempfile
from pathlib import Path

from repro.online import (
    CheckpointWriter,
    LoadGenerator,
    LoadProfile,
    MetricsSink,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    drive_load,
    latest_checkpoint,
    restore_sharded_service,
)
from repro.robust.chaos import FaultPlan, inject


def _profile(args):
    return LoadProfile(
        devices=args.devices,
        services=2,
        churn=0.05,
        flag_rate=0.2,
        seed=args.seed,
    )


def _verdict_totals(ticks):
    totals = {}
    for tick in ticks:
        for verdict in tick.verdicts.values():
            name = verdict.anomaly_type.name.lower()
            totals[name] = totals.get(name, 0) + 1
    return totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=500)
    parser.add_argument("--ticks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--crash-after", type=int, default=None,
        help="tick after which the first run 'crashes' (default: half)",
    )
    args = parser.parse_args()
    crash_after = args.crash_after or args.ticks // 2

    # Reference: fault-free, serial, uninterrupted.
    generator = LoadGenerator(_profile(args))
    with OnlineCharacterizationService(
        generator.initial_positions(), ServiceConfig(r=0.05, tau=2)
    ) as service:
        reference = drive_load(service, generator, args.ticks).ticks
    print(f"reference run : {args.ticks} ticks, serial, no faults")
    print(f"  verdict totals: {_verdict_totals(reference)}")

    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as ckpt_dir:
        # Leg 1: two process shards under fire, checkpointing every
        # tick — then the front door "dies" (the service is closed).
        plan = FaultPlan(
            seed=args.seed, kill_probability=0.1, drop_probability=0.1
        )
        generator = LoadGenerator(_profile(args))
        service = ShardedService(
            generator.initial_positions(),
            ServiceConfig(r=0.05, tau=2, dispatch_deadline=2.0),
            topology_shards=2,
            topology_workers="process",
        )
        metrics = MetricsSink()
        service.add_sink(metrics)
        service.add_sink(CheckpointWriter(service, ckpt_dir, keep=3))
        with service:
            with inject(plan) as injector:
                head = drive_load(service, generator, crash_after).ticks
        print(
            f"\nleg 1 (chaos) : {crash_after} ticks on 2 process shards, "
            f"faults injected: {dict(injector.injected)}"
        )

        # Leg 2: a fresh sharded service restores the newest checkpoint,
        # fast-forwards the generator and finishes the stream.
        newest = latest_checkpoint(ckpt_dir)
        restored = restore_sharded_service(newest, topology_workers="process")
        generator = LoadGenerator(_profile(args))
        generator.fast_forward(restored.current_tick)
        with restored:
            tail = drive_load(
                restored, generator, args.ticks - restored.current_tick
            ).ticks
        print(
            f"leg 2 (resume): restored {Path(newest).name} at tick "
            f"{crash_after}, ran {len(tail)} more ticks"
        )

    resumed_totals = _verdict_totals(list(head) + list(tail))
    print(f"  verdict totals: {resumed_totals}")
    match = resumed_totals == _verdict_totals(reference)
    print(f"\nverdict totals identical to the reference: {match}")
    if not match:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
