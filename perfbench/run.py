"""Ziziphus benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload local-write --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. Every point runs in a fresh interpreter
(``perfbench/point.py``), one after another, never in parallel.

``--trace 0`` repeats the point for about ``--seconds`` (at least twice)
and reports the best reading of each wall-clock metric (see ``_best``);
the simulated-time metrics must be identical in every repetition.
``--trace 1`` alternates untraced and traced points for about
``--seconds`` (at least two of each) and reports the per-layer table of
the traced points plus the tracing overhead.

Both modes check that the point completes transactions, that repetitions
of one seed are identical, that another seed gives another run, and (for
``primary-crash``) that the chaos verdict is ``pass``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import EXPECTED_ACTIVE, WORKLOADS  # noqa: E402

POINT = Path(__file__).resolve().parent / "point.py"
MIN_REPS = 2
#: Set-up-only points run after each full point of a ``--trace 0`` run,
#: and the least number of set-up samples its ``setup_s`` is the best of.
SETUPS_PER_REP = 2
MIN_SETUPS = 15
MIN_COMPLETIONS = 1000
#: Per-point limit; a point that runs longer is reported as a failure.
POINT_TIMEOUT_S = 150

#: End-to-end metrics: (name, unit, clock).
END_TO_END = (
    ("txn_per_wall_s", "1/s", "wall"),
    ("point_wall_s", "s", "wall"),
    ("setup_s", "s", "wall"),
    ("peak_rss_mb", "MB", "wall"),
    ("sim_tput_tps", "1/s", "sim"),
    ("sim_p50_ms", "ms", "sim"),
    ("sim_p99_ms", "ms", "sim"),
)

#: Simulated-time metrics reported beside the end-to-end ones. They are
#: zero on some workloads by design, so they carry no bound.
SIM_EXTRA = (
    ("sim_p99_samples", "count"),
    ("sim_global_p50_ms", "ms"),
    ("sim_outage_ms", "ms"),
    ("failed_share", "share"),
    ("monitor_violations", "count"),
)


class BenchError(Exception):
    """A point could not be run: no result is printed."""


def _point(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(POINT), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=POINT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(workload: str, seed: int, seconds: float,
            *flag_sets: tuple) -> list[list[dict]]:
    """Run one point per flag set, in turn, until the next round would
    end after ``seconds`` (at least ``MIN_REPS`` rounds); returns the
    points of each flag set."""
    points: list[list[dict]] = [[] for _ in flag_sets]
    start = perf_counter()
    while True:
        t = perf_counter()
        for flags, out in zip(flag_sets, points):
            out.append(_point(workload, seed, *flags))
        last = perf_counter() - t
        if len(points[0]) >= MIN_REPS \
                and perf_counter() - start + last > seconds:
            return points


def _other_seed(seed: int) -> int:
    return seed + 7919


def _common_checks(workload: str, seed: int, reps: list) -> list[str]:
    """Checks shared by both modes; returns failure messages."""
    problems = []
    first = reps[0]
    for rep in reps:
        if rep["sim"]["completed"] <= 0:
            problems.append("no transaction completed")
        if rep["sim"] != first["sim"] \
                or rep["fingerprint"] != first["fingerprint"]:
            problems.append("two runs of one seed differ in sim metrics")
        if "verdict" in rep and rep["verdict"] != "pass":
            problems.append(f"chaos verdict {rep['verdict']}: "
                            f"{rep['verdict_reasons']}")
    if first["sim"]["completed"] < MIN_COMPLETIONS:
        problems.append(f"window holds {first['sim']['completed']} < "
                        f"{MIN_COMPLETIONS} completions")
    probe = _point(workload, _other_seed(seed), "--probe")
    if probe["prefix_fingerprint"] == first["prefix_fingerprint"]:
        problems.append("another seed reproduced this seed's run")
    return sorted(set(problems))


def _median(reps: list, key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def _best(reps: list, key: str, better: str = "lower") -> float:
    """The best reading of a wall-clock metric over the points of a run.

    On a shared host other tenants only ever slow a point down (single
    points of one seed vary by up to ~80% within seconds, with no steal
    time visible to the guest), so the fastest point is the steadiest
    estimate of the program's own speed, as with ``timeit``. Every point
    of a run does the same simulated work.
    """
    values = [rep[key] for rep in reps]
    return min(values) if better == "lower" else max(values)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _per_txn(value: float, txns: int) -> float:
    return value / txns if txns else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: counts from the first traced run (identical in
    every traced run), self times as medians over the traced runs."""
    first = traced[0]
    layer = first["layers"]
    sim = first["sim"]
    txns = sim["completed"]
    calls = layer["calls"]
    counts = layer["counts"]

    def self_ms(name: str) -> float:
        return statistics.median(t["layers"]["self_ms"].get(name, 0.0)
                                 for t in traced)

    def per_txn(name: str) -> float:
        return _per_txn(calls.get(name, 0), txns)

    out = {
        "crypto.digest.calls_per_txn": (per_txn("crypto.digest"), "1/txn"),
        "crypto.digest.memo_hit_share": (
            _ratio(counts.get("crypto.digest.memo_hits", 0),
                   calls.get("crypto.digest", 0)), "share"),
        "crypto.mac.sign_per_txn": (
            _per_txn(counts.get("crypto.mac.sign", 0), txns), "1/txn"),
        "crypto.mac.verify_per_txn": (
            _per_txn(counts.get("crypto.mac.verify", 0), txns), "1/txn"),
        "crypto.cert.validations_per_txn": (per_txn("crypto.cert"),
                                            "1/txn"),
        "messages.verify_signed.calls_per_txn": (
            per_txn("messages.verify_signed"), "1/txn"),
        "messages.sig_units.calls_per_txn": (per_txn("messages.sig_units"),
                                             "1/txn"),
        "sim.loop.events_per_txn": (_per_txn(layer["events"], txns),
                                    "1/txn"),
        "sim.loop.cancelled_timer_share": (
            _ratio(counts.get("sim.cancelled", 0),
                   counts.get("sim.scheduled", 0)), "share"),
        "sim.network.msgs_per_txn": (_per_txn(layer["msgs"], txns),
                                     "1/txn"),
        "sim.network.wan_msgs_per_txn": (_per_txn(layer["wan_msgs"], txns),
                                         "1/txn"),
        "sim.process.queue_wait_p50_ms": (layer["queue_wait_p50_ms"], "ms"),
        "sim.process.queue_wait_p99_ms": (layer["queue_wait_p99_ms"], "ms"),
        "sim.process.busiest_utilization": (layer["busiest_utilization"],
                                            "share"),
        "pbft.host.calls_per_txn": (per_txn("pbft.host"), "1/txn"),
        "pbft.replica.calls_per_txn": (per_txn("pbft.replica"), "1/txn"),
        "pbft.replica.ops_per_batch": (
            _ratio(counts.get("pbft.replica.batch_ops", 0),
                   counts.get("pbft.replica.batches", 0)), "ops"),
        "pbft.view_change.calls": (calls.get("pbft.view_change", 0),
                                   "count"),
        "pbft.view_change.view_changes": (
            counts.get("pbft.view_change.initiated", 0), "count"),
        "pbft.checkpointing.calls": (calls.get("pbft.checkpointing", 0),
                                     "count"),
        "pbft.checkpointing.snapshot_fetches": (
            counts.get("pbft.checkpointing.fetches", 0), "count"),
        "core.endorsement.rounds_per_txn": (
            _per_txn(counts.get("core.endorsement.rounds", 0), txns),
            "1/txn"),
        "core.sync_protocol.ballots_per_global": (
            _ratio(counts.get("core.sync_protocol.ballots", 0),
                   sim["global_completed"]), "1/txn"),
        "core.sync_protocol.ops_per_ballot": (
            _ratio(counts.get("core.sync_protocol.ops", 0),
                   counts.get("core.sync_protocol.ballots", 0)), "ops"),
        "core.client.calls_per_txn": (per_txn("core.client"), "1/txn"),
        "reads.fast_path_share": (sim["read_fast_share"], "share"),
        "reads.fallbacks": (sim["read_fallbacks"], "count"),
        "obs.emits_per_txn": (per_txn("obs"), "1/txn"),
        "storage.calls_per_txn": (per_txn("storage"), "1/txn"),
        "app.calls_per_txn": (per_txn("app"), "1/txn"),
        "workload.calls_per_txn": (per_txn("workload"), "1/txn"),
    }
    for name in ("core.sync_protocol", "core.migration_protocol",
                 "core.clusters", "core.cross_zone", "reads", "obs.monitor",
                 "core.endorsement"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("crypto.digest", "crypto.mac", "crypto.cert",
                 "messages.verify_signed", "messages.sig_units",
                 "sim.network", "pbft.host", "pbft.replica",
                 "pbft.view_change", "pbft.checkpointing",
                 "core.endorsement", "core.sync_protocol",
                 "core.migration_protocol", "core.clusters",
                 "core.cross_zone", "core.client", "reads", "obs",
                 "obs.monitor", "storage", "app", "workload"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["sim.loop.residual_self_ms"] = (self_ms("sim.loop"), "ms")
    out["sim.process.deliver_self_ms"] = (self_ms("sim.process"), "ms")
    for name, unit in SIM_EXTRA:
        out[name] = (sim[name], unit)
    out["trace.overhead_ratio"] = (
        _median(traced, "window_wall_s") / _median(untraced, "window_wall_s"),
        "ratio")
    return out


def _layer_checks(workload: str, traced: list, untraced: list) -> list:
    problems = []
    first = traced[0]
    for rep in traced:
        if rep["fingerprint"] != untraced[0]["fingerprint"] \
                or rep["sim"] != untraced[0]["sim"]:
            problems.append("tracing changed the simulated run")
        for key in ("calls", "counts", "events", "msgs", "wan_msgs"):
            if rep["layers"][key] != first["layers"][key]:
                problems.append(f"traced runs differ in exact {key}")
        if rep["layers"]["leaked_bindings"]:
            problems.append("unwrapped bindings: "
                            + ", ".join(rep["layers"]["leaked_bindings"]))
    calls = first["layers"]["calls"]
    for layer, active in EXPECTED_ACTIVE[workload].items():
        if active and not calls.get(layer):
            problems.append(f"layer {layer} predicted active, 0 calls")
        if not active and calls.get(layer):
            problems.append(f"layer {layer} predicted idle, "
                            f"{calls[layer]} calls")
    return sorted(set(problems))


def _print_layer_table(traced: list, overhead: float) -> None:
    layer = traced[0]["layers"]
    txns = traced[0]["sim"]["completed"]
    total = sum(layer["self_ms"].values())
    print(f"traced points={len(traced)} txns/point={txns} "
          f"tracing overhead={overhead:.3f}x (traced/untraced window wall) "
          f"binding sites={layer['binding_sites']}")
    print(f"{'layer':26} {'calls':>9} {'calls/txn':>10} {'self_ms':>9} "
          f"{'share':>6}")
    for name, ms in sorted(layer["self_ms"].items(), key=lambda kv: -kv[1]):
        calls = layer["calls"].get(name, 0)
        print(f"{name:26} {calls:9d} {calls / txns:10.2f} {ms:9.1f} "
              f"{ms / total:6.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    workload, seed = args.workload, args.seed
    try:
        # Untimed: fills the bytecode cache before any set-up is timed.
        _point(workload, seed, "--setup-only")
        if args.trace:
            # Untraced and traced points alternate, so host drift
            # affects both sides of the overhead ratio alike.
            untraced, traced = _repeat(workload, seed, args.seconds,
                                       (), ("--trace",))
            problems = _common_checks(workload, seed, untraced)
            problems += _layer_checks(workload, traced, untraced)
            metrics = layer_metrics(traced, untraced)
            _print_layer_table(traced, metrics["trace.overhead_ratio"][0])
            reps = untraced + traced
        else:
            # Set-up-only points between the full points spread the
            # set-up samples over the whole run.
            reps, *extra = _repeat(workload, seed, args.seconds, (),
                                   *[("--setup-only",)] * SETUPS_PER_REP)
            points = reps + [rep for group in extra for rep in group]
            while len(points) < MIN_SETUPS:
                points.append(_point(workload, seed, "--setup-only"))
            problems = _common_checks(workload, seed, reps)
            sim = reps[0]["sim"]
            wall = {
                "txn_per_wall_s": _best(reps, "txn_per_wall_s", "higher"),
                "point_wall_s": _best(reps, "point_wall_s"),
                "setup_s": _best(points, "setup_s"),
                "peak_rss_mb": _median(reps, "peak_rss_mb"),
            }
            metrics = {name: (wall[name] if clock == "wall"
                              else sim[name], unit)
                       for name, unit, clock in END_TO_END}
            for name, unit, clock in END_TO_END:
                print(f"{name:22} {metrics[name][0]:14.4f} {unit:6} "
                      f"[{clock}]")
            for name, unit in SIM_EXTRA:
                print(f"{name:22} {sim[name]:14.4f} {unit:6} [sim]")
            print("window_wall_s per point:",
                  " ".join(f"{rep['window_wall_s']:.3f}" for rep in reps))
            print("setup_s per point:",
                  " ".join(f"{p['setup_s']:.3f}" for p in points))
            print(f"reps={len(reps)} setups={len(points)} "
                  f"violations={sim['violation_kinds']} "
                  f"first_violation_ms={sim['first_violation_ms']}")
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for problem in problems:
        print("CHECK FAILED:", problem)
    result = {
        "correct": not problems,
        "attempted": sum(rep["sim"]["attempted"] for rep in reps),
        "failed": sum(rep["sim"]["failed"] for rep in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
