#!/usr/bin/env python
"""Sharded serving walkthrough: spatial scale-out with halo exchange.

Everything the sharded-topology PR adds, in one script:

1. partition a synthetic population across four spatial shards behind
   one :class:`ShardedService` front door — each shard owns a
   contiguous box of grid cells, its own store partition, dirty-region
   tracker and engine;
2. pump :class:`LoadGenerator` traffic through it: events fan out to
   their owning shards, movers migrate between shards mid-stream, and
   each tick the shards exchange a halo band of boundary rows over
   shared memory before characterizing (one process per shard under
   ``--topology-workers process``);
3. snapshot the per-shard metrics plane
   (``repro_shard_devices{shard=...}``, per-shard stage latencies)
   plus the merged tick stage breakdown;
4. drive the *same* stream through one big single service: the merged
   verdict totals are identical — sharding is invisible in the output.

Run:  python examples/sharded_serve.py
      python examples/sharded_serve.py --devices 5000 --ticks 20
      python examples/sharded_serve.py --topology-workers process
"""

import argparse

from repro.online import (
    LoadGenerator,
    LoadProfile,
    MetricsSink,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    drive_load,
)


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
    parser.add_argument("--devices", type=int, default=1000)
    parser.add_argument("--ticks", type=int, default=12)
    parser.add_argument("--topology-shards", type=int, default=4)
    parser.add_argument(
        "--topology-workers", choices=("inline", "process"), default="inline"
    )
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()
    cfg = ServiceConfig(r=0.03, tau=2)

    # Leg 1: the sharded run.
    generator = LoadGenerator(_profile(args))
    metrics = MetricsSink()
    with ShardedService(
        generator.initial_positions(),
        cfg,
        topology_shards=args.topology_shards,
        topology_workers=args.topology_workers,
        sinks=(metrics,),
    ) as service:
        topology = service.topology
        print(
            f"topology      : {service.n_shards} shards "
            f"({args.topology_workers} workers), grid "
            f"{topology.grid}, halo band {topology.halo_rings} cells"
        )
        print(f"  initial shard sizes: {service.shard_sizes()}")
        result = drive_load(service, generator, args.ticks)
        sharded_ticks = result.ticks

        print(
            f"\nsharded run   : {args.ticks} ticks, "
            f"{result.elapsed_seconds * 1e3:.1f} ms total"
        )
        print(f"  final shard sizes  : {service.shard_sizes()}")
        registry = service.tracer.registry
        for shard in range(service.n_shards):
            devices = registry.gauge(
                "repro_shard_devices", labelnames=("shard",)
            ).labels(shard=str(shard)).value
            flagged = registry.gauge(
                "repro_shard_flagged_devices", labelnames=("shard",)
            ).labels(shard=str(shard)).value
            print(
                f"  shard {shard}: devices={int(devices)} "
                f"flagged={int(flagged)}"
            )
        stage_totals = {}
        for tick in sharded_ticks:
            for stage, seconds in tick.stage_seconds.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
        breakdown = ", ".join(
            f"{stage}={seconds * 1e3:.1f}ms"
            for stage, seconds in sorted(stage_totals.items())
        )
        print(f"  stage totals: {breakdown}")
    sharded_totals = _verdict_totals(sharded_ticks)
    print(f"  verdict totals: {sharded_totals}")

    # Leg 2: one big service fed the identical stream.
    generator = LoadGenerator(_profile(args))
    with OnlineCharacterizationService(
        generator.initial_positions(), cfg
    ) as single:
        reference = drive_load(single, generator, args.ticks).ticks
    single_totals = _verdict_totals(reference)
    print(f"\nsingle service: verdict totals: {single_totals}")

    match = sharded_totals == single_totals
    print(f"\nverdict totals identical to the single service: {match}")
    if not match:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
