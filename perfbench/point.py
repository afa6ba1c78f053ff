"""Run one benchmark point in a fresh interpreter; print one JSON line.

    python3 perfbench/point.py --workload local-write --seed 1 [--trace]
                               [--setup-only | --probe]

Run from the root of a checkout: ``src/`` is put on the import path. The
set-up clock starts just before the first ``repro`` import and stops at
the first ``Simulator.run`` call, so it covers imports, build, monitor
attach and client registration. ``--setup-only`` stops there.
``--probe`` stops at the prefix mark and reports only the prefix
fingerprint. ``--trace`` installs :mod:`tracer` before the build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from workloads import PROBE_MS, WORKLOADS


class _Stop(Exception):
    """Raised from the run hook to end a set-up-only or probe point."""


class RunClock:
    """Wraps ``Simulator.run`` to time it and to fire callbacks at fixed
    simulated times.

    A mark splits one ``run(until=t)`` call into ``run(until=mark)``,
    the callback, then the rest. The simulator pops every event with
    time <= ``until`` in (time, seq) order either way, so a split run
    executes exactly the events of the unsplit one.
    """

    def __init__(self, marks: list, stop_after_setup: bool) -> None:
        self.marks = sorted(marks, key=lambda mark: mark[0])
        self.stop_after_setup = stop_after_setup
        self.setup_end: float | None = None
        self.run_end: float | None = None

    def install(self, simulator_cls) -> None:
        original = simulator_cls.run
        clock = self

        def run(sim, until=None, max_events=None):
            if clock.setup_end is None:
                clock.setup_end = perf_counter()
                if clock.stop_after_setup:
                    raise _Stop
            executed = 0
            while clock.marks and (until is None
                                   or clock.marks[0][0] <= until):
                mark_ms, callback = clock.marks.pop(0)
                if mark_ms > sim.now:
                    executed += original(sim, until=mark_ms)
                callback(sim)
            executed += original(sim, until=until, max_events=max_events)
            clock.run_end = perf_counter()
            return executed

        simulator_cls.run = run


def _percentile(values: list[float], fraction: float) -> float:
    from repro.bench.metrics import _percentile as interpolated
    return interpolated(sorted(values), fraction)


def _fingerprint(deployment, violations=()) -> str:
    """Digest of every completed request of every client (and of the
    monitor's violations): equal digests mean equal simulated runs."""
    h = hashlib.sha256()
    for client_id in sorted(deployment.clients):
        for rec in deployment.clients[client_id].completed:
            h.update(repr((client_id, rec.timestamp, rec.operation,
                           rec.result, rec.started_at,
                           rec.completed_at)).encode())
    for v in violations:
        h.update(repr((v.ts, v.kind, v.culprit)).encode())
    h.update(str(deployment.sim.events_processed).encode())
    return h.hexdigest()


def _is_failure(result) -> bool:
    return isinstance(result, tuple) and bool(result) \
        and result[0] in ("err", "rejected")


def _sim_metrics(deployment, records, start_ms, end_ms, violations,
                 stall_ms, compute_metrics) -> dict:
    """Sim-clock metrics over the window ``[start_ms, end_ms)``."""
    m = compute_metrics(records, start_ms, end_ms)
    window = [r for r in records if start_ms <= r.completed_at < end_ms]
    globals_ = [r.latency_ms for r in window
                if r.is_global or (r.operation
                                   and r.operation[0] == "cross-zone")]
    # Closed loop: a client submits its next request the instant the
    # previous one completes, so each client has exactly one request
    # open at the end, sent at its last completion (or at start-up).
    unanswered = stalled = 0
    for client in deployment.clients.values():
        sent_at = client.completed[-1].completed_at if client.completed \
            else 0.0
        unanswered += 1
        if end_ms - sent_at > stall_ms:
            stalled += 1
    failed = sum(1 for r in window if _is_failure(r.result)) + stalled
    attempted = len(window) + unanswered
    # Longest silence between committed replies (errors and refusals do
    # not count) to the clients created in z0, the zone whose primary
    # primary-crash crashes; ClosedLoopDriver names them z0c<i>, and a
    # client that migrates keeps its name.
    times = sorted(r.completed_at for cid, client
                   in deployment.clients.items()
                   if cid.startswith("z0c")
                   for r in client.completed
                   if start_ms <= r.completed_at < end_ms
                   and not _is_failure(r.result))
    gaps = [b - a for a, b in zip([start_ms] + times, times + [end_ms])]
    reads = m.phase_breakdown
    return {
        "completed": m.completed,
        "sim_tput_tps": m.throughput_tps,
        "sim_p50_ms": m.latency_p50_ms,
        "sim_p99_ms": m.latency_p99_ms,
        "sim_p99_samples": m.completed,
        "sim_global_p50_ms": _percentile(globals_, 0.5),
        "global_completed": len(globals_),
        "read_fast_share": reads.get("read_fast", 0.0),
        "read_fallbacks": reads.get("read_fallbacks", 0.0),
        "monitor_violations": len(violations),
        "violation_kinds": dict(sorted(
            Counter(v.kind for v in violations).items())),
        "first_violation_ms": min((v.ts for v in violations), default=None),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_outage_ms": max(gaps),
    }


def run(workload: str, seed: int, trace: bool, setup_only: bool,
        probe: bool) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    w = WORKLOADS[workload]
    t0 = perf_counter()
    from repro.bench import runner
    from repro.bench.metrics import compute_metrics
    from repro.chaos.runner import STALL_TIMEOUT_MS, run_scenario
    from repro.chaos.scenario import FaultAction, Scenario
    from repro.obs.monitor import ProtocolMonitor
    from repro.sim.events import Simulator
    from repro.workload.driver import ClosedLoopDriver

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # Capture the ClosedLoopDriver and ProtocolMonitor that run_point and
    # run_scenario build internally.
    drivers: list = []
    original_init = ClosedLoopDriver.__init__

    def capture(driver, *args, **kwargs):
        original_init(driver, *args, **kwargs)
        drivers.append(driver)

    ClosedLoopDriver.__init__ = capture
    monitors: list = []
    original_monitor_init = ProtocolMonitor.__init__

    def capture_monitor(monitor, *args, **kwargs):
        original_monitor_init(monitor, *args, **kwargs)
        monitors.append(monitor)

    ProtocolMonitor.__init__ = capture_monitor

    if w["kind"] == "point":
        start_ms = w["spec"]["warmup_ms"]
        end_ms = start_ms + w["spec"]["measure_ms"]
    else:
        start_ms, end_ms = 0.0, w["duration_ms"]
    out: dict = {"workload": workload, "seed": seed, "trace": trace}
    at_start: dict = {}

    def window_start(sim) -> None:
        deployment = drivers[0].deployment
        if tracer is not None:
            tracer.reset()
        at_start["events"] = sim.events_processed
        at_start["sent"] = deployment.network.stats.sent
        at_start["wan"] = deployment.network.stats.wan_sent
        at_start["cpu"] = {n: p.cpu_time_ms
                           for n, p in deployment.nodes.items()}
        at_start["wall"] = perf_counter()

    def prefix(sim) -> None:
        out["prefix_fingerprint"] = _fingerprint(drivers[0].deployment)
        if probe:
            raise _Stop

    clock = RunClock([(start_ms, window_start), (PROBE_MS, prefix)],
                     stop_after_setup=setup_only)
    clock.install(Simulator)

    try:
        if w["kind"] == "point":
            spec = runner.PointSpec(protocol="ziziphus", seed=seed,
                                    **w["spec"])
            # runner.run_point itself, with its always-on monitor; only
            # its WorkloadMix gains the cross-zone share that PointSpec
            # cannot express.
            point_mix = runner._mix
            runner._mix = lambda s: replace(
                point_mix(s), cross_zone_fraction=w["cross_zone_fraction"])
            runner.run_point(spec)
            driver = drivers[0]
            deployment = driver.deployment
            violations = list(monitors[0].violations)
            stall_ms = spec.stall_timeout_ms
        else:
            scenario = Scenario(
                name=workload,
                description="the z0 primary crashes (view change), "
                            "then recovers (checkpoint transfer)",
                budget="<=f", expect="safe",
                actions=(FaultAction(at_ms=w["crash_ms"], kind="crash",
                                     node="primary:z0"),
                         FaultAction(at_ms=w["recover_ms"], kind="recover",
                                     node="primary:z0")),
                duration_ms=w["duration_ms"],
                clients_per_zone=w["clients_per_zone"],
                global_fraction=w["global_fraction"])
            # The fault-free twin is not part of the measured point, so
            # an empty twin is passed instead of running one.
            result = run_scenario(scenario, seed=seed,
                                  num_zones=w["num_zones"],
                                  twin=compute_metrics([], 0.0, 1.0))
            driver = drivers[0]
            deployment = driver.deployment
            violations = list(monitors[0].violations)
            out["verdict"] = result.verdict
            out["verdict_reasons"] = result.reasons
            stall_ms = STALL_TIMEOUT_MS
    except _Stop:
        if setup_only:
            out["setup_s"] = clock.setup_end - t0
        return out
    t_end = perf_counter()

    sim = _sim_metrics(deployment, driver.records, start_ms, end_ms,
                       violations, stall_ms, compute_metrics)
    window_wall = clock.run_end - at_start["wall"]
    out.update({
        "setup_s": clock.setup_end - t0,
        "point_wall_s": t_end - t0,
        "window_wall_s": window_wall,
        "txn_per_wall_s": sim["completed"] / window_wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "fingerprint": _fingerprint(deployment, violations),
    })
    if tracer is not None:
        out["layers"] = _layer_report(tracer, deployment, at_start,
                                      start_ms, end_ms, sim)
    return out


def _layer_report(tracer, deployment, at_start, start_ms, end_ms,
                  sim) -> dict:
    """Raw per-layer numbers of the window (run.py derives ratios)."""
    stats = deployment.network.stats
    window_ms = end_ms - start_ms
    busiest = max((p.cpu_time_ms - at_start["cpu"][n]) / window_ms
                  for n, p in deployment.nodes.items())
    return {
        "calls": dict(sorted(tracer.calls.items())),
        "self_ms": {k: v * 1000.0 for k, v in sorted(tracer.self_s.items())},
        "counts": dict(sorted(tracer.counts.items())),
        "events": deployment.sim.events_processed - at_start["events"],
        "msgs": stats.sent - at_start["sent"],
        "wan_msgs": stats.wan_sent - at_start["wan"],
        "queue_wait_p50_ms": _percentile(tracer.queue_waits, 0.50),
        "queue_wait_p99_ms": _percentile(tracer.queue_waits, 0.99),
        "busiest_utilization": busiest,
        "binding_sites": tracer.binding_sites,
        "leaked_bindings": tracer.leaked_bindings(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    out = run(args.workload, args.seed, args.trace, args.setup_only,
              args.probe)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
