"""Outside-in layer tracer: wraps public entry points of each layer.

Nothing under ``src/`` is edited. Every wrapper is installed from here,
before the deployment is built, so handlers registered during the build
and bound methods stored by engines are wrapped too. A span stack gives
self time: a layer's self time is the wall time inside its entry points
minus the time spent in wrapped entry points they call.

Functions imported by name (``from repro.crypto.digest import digest`` in
21 modules) are replaced at every binding site: patching only the
defining module would silently miss those callers. ``leaked_bindings``
re-scans after the run and names any module that still holds an original.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def layer_of_module(module: str) -> str:
    """Layer name of a ``repro`` module (``repro.pbft.replica`` ->
    ``pbft.replica``; everything under ``repro.reads`` -> ``reads``)."""
    name = module[len("repro."):] if module.startswith("repro.") else module
    if name.startswith("reads"):
        return "reads"
    return name


class Tracer:
    """Counts calls and self time per layer at wrapped entry points."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        #: Exact work counters beyond plain call counts.
        self.counts: Counter = Counter()
        #: Sim-ms CPU queue wait of every message accepted by a process.
        self.queue_waits: list[float] = []
        #: Function name -> number of module bindings replaced.
        self.binding_sites: dict[str, int] = {}
        self._stack: list[float] = []
        self._originals: list[tuple[str, object]] = []

    def reset(self) -> None:
        """Zero every counter (called at the start of the window)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.queue_waits.clear()

    # -- wrapper factories ---------------------------------------------
    def span(self, layer: str, fn, before=None):
        """Wrap ``fn`` so each call counts toward ``layer``'s calls and
        self time. ``before(args)``, if given, runs first (counters)."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _patch_method(self, cls: type, name: str, layer: str,
                      before=None) -> None:
        setattr(cls, name, self.span(layer, cls.__dict__[name], before))

    def _patch_everywhere(self, module_name: str, name: str, layer: str,
                          before=None) -> None:
        """Replace function ``module_name.name`` in every loaded ``repro``
        module that binds it, under whatever local name."""
        original = getattr(sys.modules[module_name], name)
        wrapper = self.span(layer, original, before)
        sites = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites += 1
        self.binding_sites[name] = sites
        self._originals.append((name, original))

    def leaked_bindings(self) -> list[str]:
        """``module.attr`` of every ``repro`` binding still holding an
        unwrapped original (must be empty for complete coverage)."""
        leaks = []
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                for name, original in self._originals:
                    if value is original:
                        leaks.append(f"{module_name}.{key} ({name})")
        return leaks

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point (call before building)."""
        from repro.app.banking import BankingApp
        from repro.core.client import MobileClient
        from repro.core.endorsement import EndorsementManager
        from repro.core.sync_protocol import SyncEngine
        from repro.crypto.certificates import CertificateVerifier
        from repro.crypto.keys import KeyRegistry
        from repro.crypto.threshold import ThresholdVerifier
        from repro.messages.pbft import PrePrepare
        from repro.obs.bus import Instrumentation
        from repro.obs.monitor import ProtocolMonitor
        from repro.pbft.checkpointing import CheckpointManager
        from repro.pbft.client import PBFTClient
        from repro.pbft.host import HostNode
        from repro.pbft.view_change import ViewChangeManager
        from repro.reads.engine import ReadEngine
        from repro.sim.events import EventHandle, Simulator
        from repro.sim.network import Network
        from repro.sim.process import CostModel, Process
        from repro.storage.kvstore import KVStore
        from repro.workload.generator import WorkloadGenerator

        counts = self.counts

        def counting(key: str):
            def before(args) -> None:
                counts[key] += 1
            return before

        def digest_before(args) -> None:
            obj = args[0]
            cache = getattr(obj, "__dict__", None)
            if cache is not None and "_repro_digest" in cache:
                counts["crypto.digest.memo_hits"] += 1

        self._patch_everywhere("repro.crypto.digest", "digest",
                               "crypto.digest", digest_before)
        self._patch_everywhere("repro.messages.base", "verify_signed",
                               "messages.verify_signed")
        self._patch_method(KeyRegistry, "sign", "crypto.mac",
                           counting("crypto.mac.sign"))
        self._patch_method(KeyRegistry, "verify", "crypto.mac",
                           counting("crypto.mac.verify"))
        self._patch_method(CertificateVerifier, "validate", "crypto.cert")
        self._patch_method(ThresholdVerifier, "validate", "crypto.cert")
        self._patch_method(CostModel, "service_time", "messages.sig_units")

        self._patch_method(Simulator, "run", "sim.loop")
        original_at = Simulator.at

        def at(sim, *args):
            counts["sim.scheduled"] += 1
            return original_at(sim, *args)

        Simulator.at = at
        original_cancel = EventHandle.cancel

        def cancel(handle) -> None:
            was = handle.cancelled
            original_cancel(handle)
            if handle.cancelled and not was:
                counts["sim.cancelled"] += 1

        EventHandle.cancel = cancel
        self._patch_method(Network, "send", "sim.network")
        self._patch_method(Network, "multicast", "sim.network")
        waits = self.queue_waits

        def deliver_before(args) -> None:
            process = args[0]
            if not process.crashed:
                now = process.sim.now
                waits.append(max(now, process.busy_until) - now)

        self._patch_method(Process, "deliver", "sim.process", deliver_before)

        span = self.span

        def set_timer(process, delay_ms, fn, *args):
            return original_set_timer(
                process, delay_ms,
                span(layer_of_module(fn.__module__), fn), *args)

        original_set_timer = Process.set_timer
        Process.set_timer = set_timer
        self._patch_method(HostNode, "on_message", "pbft.host")

        def batch_before(args) -> None:
            counts["pbft.replica.batches"] += 1
            counts["pbft.replica.batch_ops"] += len(args[1].batch)

        def register_handler(host, payload_type, handler):
            before = batch_before if payload_type is PrePrepare else None
            layer = layer_of_module(handler.__module__)
            return original_register(host, payload_type,
                                     span(layer, handler, before))

        original_register = HostNode.register_handler
        HostNode.register_handler = register_handler
        self._patch_method(ViewChangeManager, "initiate", "pbft.view_change",
                           counting("pbft.view_change.initiated"))
        self._patch_method(CheckpointManager, "generate",
                           "pbft.checkpointing",
                           counting("pbft.checkpointing.generated"))
        self._patch_method(CheckpointManager, "request_snapshot",
                           "pbft.checkpointing",
                           counting("pbft.checkpointing.fetches"))

        self._patch_method(EndorsementManager, "lead", "core.endorsement",
                           counting("core.endorsement.rounds"))

        def ballot_before(args) -> None:
            counts["core.sync_protocol.ballots"] += 1
            counts["core.sync_protocol.ops"] += len(args[1])

        self._patch_method(SyncEngine, "start_global_txn",
                           "core.sync_protocol", ballot_before)
        self._patch_method(MobileClient, "on_message", "core.client")
        self._patch_method(PBFTClient, "on_message", "core.client")
        self._patch_method(ReadEngine, "on_executed", "reads")

        self._patch_method(Instrumentation, "emit", "obs")
        self._patch_method(ProtocolMonitor, "on_event", "obs.monitor")
        self._patch_method(ProtocolMonitor, "finish", "obs.monitor")

        for name in ("get", "require", "put", "delete", "export_prefix",
                     "import_records", "delete_prefix", "snapshot",
                     "restore", "state_digest"):
            self._patch_method(KVStore, name, "storage")
        for name in ("execute", "snapshot", "restore", "state_digest",
                     "export_client", "import_client", "evict_client"):
            if name in BankingApp.__dict__:
                self._patch_method(BankingApp, name, "app")
        self._patch_method(WorkloadGenerator, "next_action", "workload")
