"""The four workloads and the layers each one should exercise.

Every workload is a closed loop (each client sends its next request only
when the previous one completes) over the cloudping RTT matrix of
``repro.sim.latency`` with +/-5% jitter; nodes of one zone share a data
centre (0.5 ms one-way). Zone size is ``f = 1`` (4 replicas per zone).

This module imports nothing from ``repro``: the point runner imports it
before starting the set-up clock.
"""

from __future__ import annotations

#: Sim time (ms) at which every point takes its prefix fingerprint; a
#: point of a second seed must not reproduce it.
PROBE_MS = 40.0

WORKLOADS: dict[str, dict] = {
    # PBFT, crypto, sim and network do all the work; sync, migration,
    # clusters and reads stay idle. The stage for the crypto/encoding fast
    # path, and the bypass for any cross-zone change.
    "local-write": {
        "kind": "point",
        "spec": dict(num_zones=3, clients_per_zone=20, global_fraction=0.0,
                     warmup_ms=100.0, measure_ms=200.0),
        "cross_zone_fraction": 0.0,
    },
    # Endorsement, sync, migration, clusters, cross-zone transfers and the
    # monitor's evidence path carry most of the self time. The run length
    # is the one that shows the ownership-fork defect (first violation at
    # about 984 sim-ms on seed 1); it must not be shortened to hide it.
    "global-mix": {
        "kind": "point",
        "spec": dict(num_zones=9, num_clusters=3, zones_per_cluster=3,
                     clients_per_zone=20, global_fraction=0.3,
                     cross_cluster_fraction=0.5,
                     warmup_ms=300.0, measure_ms=1000.0),
        "cross_zone_fraction": 0.1,
    },
    # 95% certified reads served by the same replicas beside the writes:
    # a write-path gain that costs reads (watermark signing per batch)
    # shows here.
    "read-mix": {
        "kind": "point",
        "spec": dict(num_zones=3, clients_per_zone=20, global_fraction=0.1,
                     read_fraction=0.95, warmup_ms=100.0, measure_ms=200.0),
        "cross_zone_fraction": 0.0,
    },
    # The z0 primary crashes and recovers 200 ms later, on chaos-tuned
    # timers: the only workload running view change, client
    # retransmission and checkpoint transfer (the recovered replica
    # fetches snapshots). Local writes only: with migrations in the mix
    # the program fails its chaos verdict on some seeds, a program
    # defect recorded in README.md.
    "primary-crash": {
        "kind": "scenario",
        "num_zones": 3,
        "clients_per_zone": 3,
        "global_fraction": 0.0,
        "crash_ms": 800.0,
        "recover_ms": 1000.0,
        "duration_ms": 4000.0,
    },
}

#: Layers predicted to do work (True) or to stay idle (False) on each
#: workload. A layer not listed is not checked there. The traced run
#: fails its self-check when a predicted-active layer records no calls or
#: a predicted-idle layer records any.
_ALWAYS = ("crypto.digest", "crypto.mac", "messages.verify_signed",
           "messages.sig_units", "sim.loop", "sim.network", "sim.process",
           "pbft.host", "pbft.replica", "core.client", "obs", "obs.monitor",
           "storage", "app", "workload")
_GLOBAL = ("core.endorsement", "core.sync_protocol",
           "core.migration_protocol", "crypto.cert")


def _layers(active: tuple, idle: tuple) -> dict[str, bool]:
    out = {layer: True for layer in _ALWAYS + active}
    out.update({layer: False for layer in idle})
    return out


EXPECTED_ACTIVE: dict[str, dict[str, bool]] = {
    "local-write": _layers(
        (), _GLOBAL + ("core.clusters", "core.cross_zone", "reads",
                       "pbft.view_change")),
    "global-mix": _layers(
        _GLOBAL + ("core.clusters", "core.cross_zone"),
        ("reads", "pbft.view_change")),
    "read-mix": _layers(
        _GLOBAL + ("reads",),
        ("core.clusters", "core.cross_zone", "pbft.view_change")),
    "primary-crash": _layers(
        ("pbft.view_change", "pbft.checkpointing"),
        _GLOBAL + ("core.clusters", "core.cross_zone", "reads")),
}
