"""Layer tracing from outside the program.

``Tracer.install()`` wraps a fixed list of entry points at class/module
level *before any object is built*, and gives every engine a dispatcher
on the public ``Engine.profiler`` hook. Each wrapped call and each engine
event is a span ``(id, layer, start, end, parent id)``. Spans live in
memory as per-layer accumulators plus a bounded sample of raw spans.

A layer's ``self_s`` is its spans' duration minus the part covered by
child spans, so ``sum(self_s) + unattributed_s == wall`` by
construction; ``unattributed_s`` is the part of the traced wall no span
covers (the workload's own glue: ``build_testbed``, the ``fleet.run``
report loop). Time between two wrapped entry points belongs to the
nearest enclosing one — attribution is as fine as the entry-point list.

Nothing under ``src/`` is edited or can tell: wrappers are plain
attribute replacement, removed by ``uninstall()``, which asserts every
original is back by identity. Forked pool workers restore the originals
first thing (they are separate processes and are *not* traced).
"""

from __future__ import annotations

import importlib
import os
import sys
from functools import wraps
from types import SimpleNamespace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer a span can belong to; "other" takes event callbacks owned
#: by modules outside this list (orchestrator processes, aging loops of
#: unlisted controllers, builtins).
LAYERS = [
    "sim.engine", "sim.resources",
    "net.packet", "net.nsh",
    "fabric.link", "fabric.switch", "fabric.device",
    "vswitch.datapath", "vswitch.vswitch", "vswitch.slow_path",
    "vswitch.session_table", "vswitch.flow_records",
    "core.backend", "core.frontend", "core.header",
    "host.vm", "host.guest_tcp",
    "controller.gateway",
    "workloads.tcp_crr", "workloads.elephant", "workloads.fleet.invert_n",
    "fleet.hotsim", "fleet.shard", "fleet.flyweight", "fleet.coordinator",
    "fleet.materialize",
    "parallel.pool",
    "other",
]

#: Public methods wrapped at class level: (layer, "module:Class", names).
ENTRY_POINTS: List[Tuple[str, str, List[str]]] = [
    ("net.packet", "repro.net.packet:Packet",
     ["encode", "decode", "copy", "five_tuple", "encap", "decap"]),
    ("net.packet", "repro.net.packet:EncapTemplate", ["wrap"]),
    ("net.nsh", "repro.net.nsh:NshHeader", ["encode", "decode"]),
    ("net.nsh", "repro.net.nsh:NshContext", ["encode", "decode"]),
    ("fabric.link", "repro.fabric.link:Link",
     ["transmit", "transmit_burst", "transmit_run"]),
    ("fabric.switch", "repro.fabric.switch:UnderlaySwitch",
     ["receive", "receive_run"]),
    ("fabric.device", "repro.fabric.device:ServerNode",
     ["receive", "receive_run", "send_to_fabric", "send_to_fabric_burst",
      "send_to_fabric_run"]),
    ("vswitch.vswitch", "repro.vswitch.vswitch:VSwitch",
     ["send_from_vnic", "send_from_vnic_burst", "send_from_vnic_run",
      "forward_overlay", "forward_overlay_burst", "forward_overlay_run",
      "charge", "charge_batch"]),
    ("vswitch.datapath", "repro.vswitch.vswitch:LocalDatapath",
     ["handle_tx", "handle_tx_burst", "handle_tx_run",
      "handle_rx", "handle_rx_burst", "handle_rx_run"]),
    ("vswitch.slow_path", "repro.vswitch.slow_path:SlowPath", ["lookup"]),
    ("vswitch.session_table", "repro.vswitch.session_table:SessionTable",
     ["lookup", "insert", "remove", "sweep"]),
    ("vswitch.flow_records", "repro.vswitch.flow_records:FlowRecordStore",
     ["charge", "touch", "flush"]),
    ("core.backend", "repro.core.backend:BackendInstance",
     ["handle_tx", "handle_rx", "handle_from_fe", "handle_notify"]),
    ("core.frontend", "repro.core.frontend:FrontendInstance",
     ["handle_from_be", "handle_overlay_rx"]),
    ("host.vm", "repro.host.vm:Vm", ["send", "send_burst", "send_run"]),
    ("host.guest_tcp", "repro.host.guest_tcp:GuestTcp", ["open"]),
    ("sim.resources", "repro.sim.resources:CpuResource",
     ["submit", "try_submit", "try_book", "try_submit_call"]),
    ("controller.gateway", "repro.controller.gateway:MappingLearner",
     ["refresh"]),
    ("workloads.tcp_crr", "repro.workloads.tcp_crr:ClosedLoopCrr",
     ["start"]),
    ("workloads.fleet.invert_n",
     "repro.workloads.fleet:QuantileDistribution", ["invert_n"]),
    ("fleet.flyweight", "repro.fleet.flyweight:FleetFlowStore",
     ["alloc_block", "free_block", "fold"]),
    ("fleet.materialize", "repro.fleet.shard:ShardState", ["materialize"]),
    ("fleet.coordinator", "repro.fleet.coordinator:FleetCoordinator",
     ["settle"]),
    ("parallel.pool", "repro.experiments.parallel:ResidentPool",
     ["__init__", "step", "collect", "close"]),
]

#: Callbacks a layer registers with the layer below it (fabric sink,
#: guest receive, TCP listeners, completion callbacks). They are how the
#: receive direction crosses a layer boundary; without them the whole RX
#: half of a layer would be billed to whoever delivered the packet.
REGISTERED_CALLBACKS: List[Tuple[str, str, List[str]]] = [
    ("vswitch.vswitch", "repro.vswitch.vswitch:VSwitch",
     ["_fabric_sink", "_fabric_sink_run"]),
    ("host.vm", "repro.host.vm:Vm", ["_rx", "_rx_run"]),
    ("host.guest_tcp", "repro.host.guest_tcp:GuestTcp",
     ["_server_rx", "_client_rx"]),
    ("workloads.tcp_crr", "repro.workloads.tcp_crr:ClosedLoopCrr",
     ["_on_done", "_on_fail"]),
]

#: Module-level functions, re-bound in every ``repro.*`` module that
#: imported them by name (``simulate_hot_epoch`` as bound in
#: ``repro.fleet.shard``, ``run_shard_epoch`` as bound in
#: ``repro.experiments.fleet``, the NSH hop codecs in BE/FE/agent).
FUNCTIONS: List[Tuple[str, str, List[str]]] = [
    ("core.header", "repro.core.header",
     ["build_nezha_hop", "unwrap_nezha_hop"]),
    ("fleet.hotsim", "repro.fleet.hotsim", ["simulate_hot_epoch"]),
    ("fleet.shard", "repro.fleet.shard", ["run_shard_epoch"]),
]

#: Owner -> layer for engine events: a callback belongs to its
#: receiver's class module (bound methods), its generator's module
#: (processes), else its own module; ``(module, Class)`` overrides the
#: module default where one file holds two layers.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.resources": "sim.resources",
    "repro.net.packet": "net.packet",
    "repro.net.nsh": "net.nsh",
    "repro.fabric.link": "fabric.link",
    "repro.fabric.switch": "fabric.switch",
    "repro.fabric.device": "fabric.device",
    "repro.vswitch.vswitch": "vswitch.vswitch",
    "repro.vswitch.slow_path": "vswitch.slow_path",
    "repro.vswitch.rule_tables": "vswitch.slow_path",
    "repro.vswitch.session_table": "vswitch.session_table",
    "repro.vswitch.flow_records": "vswitch.flow_records",
    "repro.core.backend": "core.backend",
    "repro.core.frontend": "core.frontend",
    "repro.core.header": "core.header",
    "repro.host.vm": "host.vm",
    "repro.host.guest_tcp": "host.guest_tcp",
    "repro.controller.gateway": "controller.gateway",
    "repro.workloads.tcp_crr": "workloads.tcp_crr",
    "repro.workloads.elephant": "workloads.elephant",
    "repro.workloads.fleet": "workloads.fleet.invert_n",
    "repro.fleet.hotsim": "fleet.hotsim",
    "repro.fleet.shard": "fleet.shard",
    "repro.fleet.flyweight": "fleet.flyweight",
    "repro.fleet.coordinator": "fleet.coordinator",
    "repro.experiments.parallel": "parallel.pool",
}
CLASS_LAYERS: Dict[Tuple[str, str], str] = {
    ("repro.vswitch.vswitch", "LocalDatapath"): "vswitch.datapath",
    ("repro.vswitch.vswitch", "Datapath"): "vswitch.datapath",
}

#: Raw spans kept per traced repeat (the first this-many, in start order).
SPAN_SAMPLE = 4096

_ROOT = -1


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span accumulators plus the wrappers that feed them.

    One tracer traces one repeat: ``install()``, run the repeat between
    ``start()`` and ``stop()``, ``uninstall()``, read ``result()``.
    """

    def __init__(self) -> None:
        n = len(LAYERS)
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self.self_s = [0.0] * n
        self.calls: Dict[str, int] = {}
        #: Calls made from another layer (a nested same-layer call, e.g.
        #: ``handle_tx`` -> ``handle_tx_burst``, is one outer call).
        self.outer_calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self.events = 0
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._seq = [0]
        # Bottom frame: [layer, child seconds, span id]. Its child time
        # is the wall covered by top-level spans, i.e. the attributed part.
        self._stack: List[list] = [[_ROOT, 0.0, 0]]
        self._patches: List[Tuple[object, str, object]] = []
        self._engines: list = []
        self._owner_cache: Dict[object, int] = {}
        self._started: Optional[float] = None
        self.wall_s = 0.0

    # -- the span wrapper ---------------------------------------------------------

    def _span_wrapper(self, fn: Callable, layer: str, label: str,
                      observe: Optional[Callable] = None) -> Callable:
        lay = self._index[layer]
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        outer_calls = self.outer_calls
        total_s = self.total_s
        spans = self.spans
        seq = self._seq
        clock = perf_counter
        calls[label] = 0
        outer_calls[label] = 0
        total_s[label] = 0.0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            seq[0] = sid = seq[0] + 1
            frame = [lay, 0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[lay] += dur - frame[1]
                parent[1] += dur
                calls[label] += 1
                total_s[label] += dur
                if parent[0] != lay:
                    outer_calls[label] += 1
                if sid <= SPAN_SAMPLE:
                    spans.append((sid, layer, start, end, parent[2]))

        return wrapper

    # -- engine events --------------------------------------------------------------

    def _make_dispatcher(self):
        from repro.sim.engine import Engine, Process

        index = self._index
        other = index["other"]
        cache = self._owner_cache
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        seq = self._seq
        clock = perf_counter
        tracer = self

        def classify(module: Optional[str], qualname: str) -> int:
            owner = qualname.split(".", 1)[0]
            layer = CLASS_LAYERS.get((module, owner)) \
                or MODULE_LAYERS.get(module)
            return index[layer] if layer else other

        def owner_layer(fn, args) -> int:
            # Unwrap the call_soon relay exactly as
            # EngineProfiler._owner_of does (resources.try_submit_call
            # schedules ``call_at(end, engine.call_soon, fn, *args)``).
            while True:
                receiver = getattr(fn, "__self__", None)
                if receiver is None:
                    key = getattr(fn, "__code__", fn)
                    layer = cache.get(key)
                    if layer is None:
                        layer = cache[key] = classify(
                            getattr(fn, "__module__", None),
                            getattr(fn, "__qualname__", ""))
                    return layer
                cls = type(receiver)
                if (cls is Engine and fn.__name__ == "call_soon"
                        and args and callable(args[0])):
                    fn, args = args[0], args[1:]
                    continue
                if cls is Process:
                    # A process event belongs to its generator's module,
                    # not to sim.engine where Process._resume lives.
                    gen = receiver.gen
                    key = gen.gi_code
                    layer = cache.get(key)
                    if layer is None:
                        frame = gen.gi_frame
                        module = frame.f_globals.get("__name__") \
                            if frame is not None else cls.__module__
                        layer = cache[key] = classify(module,
                                                      gen.__qualname__)
                    return layer
                layer = cache.get(cls)
                if layer is None:
                    layer = cache[cls] = classify(cls.__module__,
                                                  cls.__qualname__)
                return layer

        def dispatch(fn, args, now) -> None:
            # The span bookkeeping of ``_span_wrapper``, inlined: this
            # runs once per engine event.
            lay = owner_layer(fn, args)
            tracer.events += 1
            parent = stack[-1]
            seq[0] = sid = seq[0] + 1
            frame = [lay, 0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                fn(*args)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[lay] += dur - frame[1]
                parent[1] += dur
                if sid <= SPAN_SAMPLE:
                    spans.append((sid, LAYERS[lay], start, end, parent[2]))

        # What ``Engine.profiler`` expects: an object with ``dispatch``.
        return SimpleNamespace(dispatch=dispatch)

    # -- install / uninstall ----------------------------------------------------------

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_method(self, layer: str, cls: type, name: str,
                     observe: Optional[Callable] = None) -> None:
        raw = cls.__dict__[name]   # KeyError = the entry-point list is stale
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._span_wrapper(
                raw.__func__, layer, label, observe))
        else:
            wrapped = self._span_wrapper(raw, layer, label, observe)
        self._patch(cls, name, wrapped)

    def _wrap_function(self, layer: str, module_name: str,
                       name: str) -> None:
        original = getattr(importlib.import_module(module_name), name)
        wrapped = self._span_wrapper(original, layer, name)
        for mod_name, module in sorted(sys.modules.items()):
            if (mod_name.startswith("repro") and module is not None
                    and module.__dict__.get(name) is original):
                self._patch(module, name, wrapped)

    def install(self) -> "Tracer":
        from repro.sim.engine import Engine

        observers = self._observers()
        for layer, path, names in ENTRY_POINTS + REGISTERED_CALLBACKS:
            cls = _resolve(path)
            for name in names:
                self._wrap_method(layer, cls, name,
                                  observers.get(f"{cls.__name__}.{name}"))
        for layer, module_name, names in FUNCTIONS:
            for name in names:
                self._wrap_function(layer, module_name, name)

        dispatcher = self._make_dispatcher()
        engines = self._engines
        traced_run = self._span_wrapper(Engine.__dict__["run"],
                                        "sim.engine", "Engine.run")

        @wraps(Engine.__dict__["run"])
        def run(engine, until=None):
            if engine.profiler is None:
                engine.profiler = dispatcher
                engines.append(engine)
            return traced_run(engine, until)

        self._patch(Engine, "run", run)
        _register_fork_hook(self)
        return self

    def _observers(self) -> Dict[str, Callable]:
        items = self.items
        items.update({"invert_n.values": 0, "settle.requests": 0,
                      "settle.grants": 0})

        def invert_n(args, _kwargs, _result) -> None:
            items["invert_n.values"] += len(args[1])

        def settle(args, _kwargs, result) -> None:
            items["settle.requests"] += sum(len(report["hot"])
                                            for report in args[2])
            items["settle.grants"] += len(result)

        return {"QuantileDistribution.invert_n": invert_n,
                "FleetCoordinator.settle": settle}

    def _restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        for engine in self._engines:
            engine.profiler = None
        self._engines.clear()

    def uninstall(self) -> None:
        """Remove every wrapper; assert the originals are back by identity."""
        self._restore()
        for owner, name, original in self._patches:
            current = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            assert current is original, \
                f"{owner!r}.{name} was not restored to the original"
        self._patches.clear()
        _installed.remove(self)

    # -- the traced window ------------------------------------------------------------

    def start(self) -> None:
        self._started = perf_counter()

    def stop(self) -> None:
        self.wall_s = perf_counter() - self._started

    def result(self) -> dict:
        attributed = self._stack[0][1]
        unattributed = self.wall_s - attributed
        return {
            "wall_s": self.wall_s,
            "unattributed_s": unattributed,
            "attributed_share": attributed / self.wall_s
            if self.wall_s else 0.0,
            "events": self.events,
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": dict(self.calls),
            "outer_calls": dict(self.outer_calls),
            "total_s": dict(self.total_s),
            "items": dict(self.items),
            "spans_total": self._seq[0],
            "span_sample": [
                {"id": sid, "layer": layer, "start": start, "end": end,
                 "parent": parent}
                for sid, layer, start, end, parent in self.spans],
        }


# -- fork hook --------------------------------------------------------------------------
#
# ``os.register_at_fork`` cannot be undone, so one hook is registered on
# first use and consults the (at most one) installed tracer.

_installed: List[Tracer] = []
_fork_hook_registered = False


def _after_fork_in_child() -> None:
    for tracer in _installed:
        tracer._restore()


def _register_fork_hook(tracer: Tracer) -> None:
    global _fork_hook_registered
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _fork_hook_registered = True
    _installed.append(tracer)


# -- census: exact counters from public objects -------------------------------------------

#: Classes whose instances built during a pass are kept so their public
#: counters can be read when the pass ends.
CENSUS_CLASSES = [
    "repro.vswitch.vswitch:VSwitch",
    "repro.fabric.link:Link",
    "repro.host.vm:Vm",
    "repro.core.backend:BackendInstance",
    "repro.core.frontend:FrontendInstance",
]


class Census:
    """Collects the instances of a few public classes built while it is
    installed (``__init__`` wrappers that only append ``self``), because
    ``simulate_hot_epoch`` and ``fleet.run`` build their vSwitches
    internally and return plain data."""

    def __init__(self) -> None:
        self.instances: Dict[str, list] = {}
        self._patches: List[Tuple[type, object]] = []

    def install(self) -> "Census":
        for path in CENSUS_CLASSES:
            cls = _resolve(path)
            original = cls.__dict__["__init__"]
            found = self.instances.setdefault(cls.__name__, [])

            def init(self, *args, _original=original, _found=found,
                     **kwargs):
                _found.append(self)
                _original(self, *args, **kwargs)

            self._patches.append((cls, original))
            cls.__init__ = wraps(original)(init)
        return self

    def uninstall(self) -> None:
        for cls, original in self._patches:
            cls.__init__ = original
            assert cls.__dict__["__init__"] is original
        self._patches.clear()

    def counters(self) -> Dict[str, int]:
        """Sum the public counters over everything built."""
        vswitches = self.instances["VSwitch"]
        links = self.instances["Link"]
        backends = self.instances["BackendInstance"]
        frontends = self.instances["FrontendInstance"]
        stats = [vswitch.stats for vswitch in vswitches]
        return {
            "vswitch.pkts": sum(s.tx_packets + s.rx_packets for s in stats),
            "vswitch.slow_path.lookups": sum(s.slow_path_lookups
                                             for s in stats),
            "vswitch.fast_path.hits": sum(s.fast_path_hits for s in stats),
            "vswitch.cpu_drops": sum(s.cpu_drops for s in stats),
            "vswitch.total_drops": sum(s.total_drops() for s in stats),
            "core.nsh_hops": sum(s.nsh_received for s in stats),
            "fabric.link.pkts": sum(link.packets_carried for link in links),
            "fabric.link.drops": sum(link.drops_down for link in links),
            "host.vm.kernel_drops": sum(vm.kernel_drops
                                        for vm in self.instances["Vm"]),
            "core.backend.pkts": sum(
                b.stats.tx_relayed + b.stats.rx_from_fe
                + b.stats.rx_direct_dual_running + b.stats.rx_direct_dropped
                for b in backends),
            "core.frontend.pkts": sum(
                f.stats.tx_processed + f.stats.rx_relayed
                for f in frontends),
        }
