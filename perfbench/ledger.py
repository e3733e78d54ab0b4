"""Per-layer CPU ledger: spans around calls into each layer of ``repro``.

A span opens when a wrapped entry point is called and closes when it
returns.  Its self time is its duration minus the time its child spans
cover.  Spans nest through a stack, so self time is folded into
per-layer totals as each span closes and nothing per span is kept in
memory (a traced ``rack_lossy`` op opens millions of spans).

:func:`install` wraps the entry points listed in :data:`ENTRY_POINTS`
by patching the classes and module attributes in place.  It must run
before any job is built: hot paths cache bound methods and closures at
construction time, and objects built earlier keep the unwrapped ones.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

#: layer -> [(module, class or None for module attributes, [attributes])]
#: Event-handler methods the engine fires directly (timers, arrivals,
#: pipeline completions) are listed alongside the public entry points;
#: without them their work would be charged to ``sim.engine``.
ENTRY_POINTS: dict[str, list[tuple[str, str | None, list[str]]]] = {
    "sim.engine": [
        ("repro.sim.engine", "Simulator", [
            "run_deadline", "run", "step", "schedule", "schedule_at",
            "schedule_call", "schedule_call_at", "schedule_train",
        ]),
    ],
    "core.worker": [
        ("repro.core.worker", "SwitchMLWorker", [
            "start", "on_frame", "on_frames", "_run_deadlines",
            "_fire_deadline", "_on_timeout", "_heartbeat_tick",
            "restart_from", "reconfigure", "quiesce",
        ]),
    ],
    "core.switch_program": [
        ("repro.core.switch_program", "SwitchMLProgram", [
            "handle", "handle_batch", "begin_reduction",
        ]),
    ],
    "core.job": [
        ("repro.core.job", "SwitchMLJob", ["__init__", "all_reduce"]),
        ("repro.core.job", "SwitchMLDataplane", ["process", "process_batch"]),
    ],
    "core.hierarchy": [
        ("repro.core.hierarchy", "RackAggregatorProgram", [
            "handle_child", "handle_result",
        ]),
    ],
    "dataplane.registers": [
        ("repro.dataplane.registers", "RegisterArray", [
            "read", "write", "add", "read_range", "read_range_view",
            "write_range", "fill_range", "add_range", "reset",
        ]),
    ],
    "net.link": [
        ("repro.net.link", "Link", [
            "send", "send_train", "_arrive", "_arrive_burst",
            "_dispatch_one", "_drain_window",
        ]),
    ],
    "net.host": [
        ("repro.net.host", "Host", [
            "deliver", "send", "send_train", "_dispatch", "deliver_burst",
            "deliver_burst_many", "_dispatch_burst", "_dispatch_window",
        ]),
    ],
    "net.switchchassis": [
        ("repro.net.switchchassis", "SwitchChassis", [
            "ingress", "_run_pipeline", "_run_pipeline_burst",
        ]),
    ],
    "net.fabric": [
        ("repro.net.fabric.job", "FabricJob", [
            "__init__", "all_reduce", "rehome", "replay_from_prefix",
            "crash_spine", "quiesce_all",
        ]),
        ("repro.net.fabric.controller", "FabricController", [
            "start", "_probe_tick", "on_heartbeat", "_sweep", "_reroute",
        ]),
        ("repro.net.fabric.dataplane", "LeafDataplane", ["process"]),
        ("repro.net.fabric.dataplane", "SpineDataplane", ["process"]),
        ("repro.net.fabric.faults", "FabricFaultInjector", [
            "arm", "_crash_spine",
        ]),
    ],
    "obs.telemetry": [
        ("repro.obs.telemetry", "TelemetryCollector", ["drain"]),
        ("repro.obs.telemetry", "LinkTap", ["on_transmit", "on_drop"]),
        ("repro.obs.telemetry", "ChassisTap", ["stamp", "absorb"]),
        ("repro.obs.telemetry", "Telemetry", [
            "instrument_rack", "instrument_fabric",
        ]),
    ],
    "quant": [
        # repro.api's own bindings: the names allreduce_float calls
        ("repro.api", None, [
            "quantize", "dequantize", "profile_gradients",
            "choose_scaling_factor", "aggregation_error_bound",
        ]),
    ],
    "api": [
        ("repro.api", None, ["allreduce_float"]),
    ],
    "mlfw": [
        ("repro.mlfw.realtrain", None, ["train_mlp"]),
        ("repro.mlfw.realtrain", "_MLP", ["gradient", "accuracy"]),
    ],
}

#: the chassis hands out per-port ingress closures; the factories are
#: wrapped so every closure they return is traced as the chassis
CLOSURE_FACTORIES: dict[str, list[tuple[str, str, list[str]]]] = {
    "net.switchchassis": [
        ("repro.net.switchchassis", "SwitchChassis", [
            "ingress_callback", "burst_ingress_callback",
            "burst_ingress_many_callback",
        ]),
    ],
}

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)


class Ledger:
    """Self CPU time and call count per layer, folded from nested spans.

    ``clock`` returns integer nanoseconds; the default is process CPU
    time, the same clock the end-to-end metrics use.
    """

    def __init__(self, clock: Callable[[], int] = time.process_time_ns):
        self.clock = clock
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        # open spans: [layer, start_ns, ns covered by closed children]
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0])

    def exit(self) -> None:
        layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - covered
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, layer: str, fn: Callable) -> object:
        """Call ``fn()`` inside a span charged to ``layer``."""
        self.enter(layer)
        try:
            return fn()
        finally:
            self.exit()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call (inlined enter/exit)."""
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                self_ns[layer] = self_ns.get(layer, 0) + duration - frame[2]
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1][2] += duration

        return traced

    def self_seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


def _wrap_factory(ledger: Ledger, layer: str, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return ledger.wrap(layer, factory(*args, **kwargs))

    return make


def install(ledger: Ledger) -> Callable[[], None]:
    """Wrap every entry point; returns a function that restores them."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for table, make in (
        (ENTRY_POINTS, ledger.wrap),
        (CLOSURE_FACTORIES, functools.partial(_wrap_factory, ledger)),
    ):
        for layer, targets in table.items():
            for module_name, class_name, attrs in targets:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name)
                for attr in attrs:
                    if attr not in owner.__dict__:
                        raise AttributeError(
                            f"{module_name}.{class_name or ''}.{attr} not found; "
                            "update perfbench/ledger.py to the current entry points"
                        )
                    patch(owner, attr, make(layer, owner.__dict__[attr]))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
