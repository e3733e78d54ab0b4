"""The three benchmark workloads and their per-op correctness checks.

Each workload turns ``--seed`` into its inputs, builds its first job in
the constructor (set-up), and then runs *units* of work on demand.  A
unit of ``rack_lossy`` or ``fabric_spine_crash`` is one all-reduce on a
freshly built job; a unit of ``train_layers`` is one short training run
(many small all-reduces) on one freshly built job.  Every unit of a run
must produce the same simulated fingerprint.

The workloads call only public entry points and set no execution-mode
knob, so they measure whatever the defaults run.  The all-reduces run
with ``verify=False``: the benchmark checks the sums itself, outside the
timed call, so a wrong sum counts as a failed op instead of raising.  Calls that the tracing
ledger wraps (``api.allreduce_float``, ``realtrain.train_mlp``) are looked
up on their modules at call time, so a ledger installed later sees them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.mlfw import realtrain
from repro.mlfw.datasets import make_classification
from repro.net.fabric import (
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)
from repro.net.loss import BernoulliLoss
from repro.obs import Observability

__all__ = ["WORKLOADS", "Unit"]


@dataclass
class Unit:
    """What one unit of work did and whether it was right."""

    op_cpu_s: list[float]
    failed: int
    failures: list[str]
    elements: int
    packets: int
    fingerprint: tuple
    counters: dict[str, float]
    sim_tat_s: list[float]
    extra: dict[str, float] = field(default_factory=dict)


class _WorkerTally:
    """Worker counters summed over ops (``start`` resets WorkerStats)."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.stale_results_ignored = 0

    def add(self, stats) -> None:
        for s in stats:
            self.packets_sent += s.packets_sent
            self.retransmissions += s.retransmissions
            self.timeouts += s.timeouts
            self.stale_results_ignored += s.stale_results_ignored


def _counters(
    *,
    events: int,
    tally: _WorkerTally,
    one_pass_packets: int,
    programs,
    worker_uplinks,
    links,
    hosts,
    switches,
    sim_elapsed: float,
    fabric_job=None,
    reroutes: int = 0,
    telemetry=None,
) -> dict[str, float]:
    """The exact per-layer counters of one unit, from public stats."""
    sent = tally.packets_sent
    first_tx = sent - tally.retransmissions
    arrived = sum(link.stats.frames_delivered for link in worker_uplinks)
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_packet": events / sent,
        "core.worker.packets_sent": sent,
        "core.worker.retransmissions": tally.retransmissions,
        "core.worker.timeouts": tally.timeouts,
        "core.worker.stale_results_ignored": tally.stale_results_ignored,
        "core.worker.first_tx_ratio": first_tx / sent,
        "core.switch_program.multicasts": sum(p.multicasts for p in programs),
        "core.switch_program.unicast_retransmits": sum(
            p.unicast_retransmits for p in programs
        ),
        "core.switch_program.ignored_duplicates": sum(
            p.ignored_duplicates for p in programs
        ),
        # one contribution per worker per chunk is needed; the rest of the
        # worker frames reaching the first-tier switch were redundant
        "core.switch_program.useful_ratio": one_pass_packets / arrived,
        "net.link.frames_sent": sum(link.stats.frames_sent for link in links),
        "net.link.frames_lost": sum(link.stats.frames_lost for link in links),
        "net.link.frames_queue_dropped": sum(
            link.stats.frames_queue_dropped for link in links
        ),
        "net.link.busy_frac": sum(link.stats.busy_time for link in links)
        / (len(links) * sim_elapsed),
        "net.host.frames_received": sum(h.frames_received for h in hosts),
        "net.switchchassis.frames_in": sum(s.frames_in for s in switches),
        "net.switchchassis.frames_dropped": sum(s.frames_dropped for s in switches),
        "net.fabric.reroutes": reroutes,
        "net.fabric.heartbeats_punted": (
            fabric_job.heartbeats_punted if fabric_job is not None else 0
        ),
        "net.fabric.stale_epoch_drops": (
            fabric_job.stale_epoch_drops if fabric_job is not None else 0
        ),
        # chunks streamed again as first transmissions after a replay
        # rewind, per chunk of one pass (0 without a reroute)
        "net.fabric.replay_ratio": (first_tx - one_pass_packets) / one_pass_packets,
        "obs.telemetry.hops_drained": (
            telemetry.collector.hops_drained if telemetry is not None else 0
        ),
    }


def _timed(call):
    t0 = time.process_time()
    out = call()
    return out, time.process_time() - t0


def _int_tensors(seed: int, workers: int, elements: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-(2**20), 2**20, elements, dtype=np.int64)
        for _ in range(workers)
    ]


class RackLossy:
    """Fig. 4 loss setting: one 8-worker rack, 1 % loss on every link."""

    name = "rack_lossy"
    layers = ("sim.engine", "core.worker", "core.switch_program", "core.job",
              "dataplane.registers", "net.link", "net.host", "net.switchchassis")
    workers = 8
    elements = 262_144
    #: the loss pattern is part of the workload: seed 7 is the Fig. 4 run
    #: whose outcome the project pins (ROADMAP, aim 3)
    sim_seed = 7
    pin = (9645, 0.033694296)  # retransmissions, max TAT (s) at sim seed 7

    def __init__(self, seed: int):
        self.tensors = _int_tensors(seed, self.workers, self.elements)
        self.expected = np.sum(self.tensors, axis=0, dtype=np.int64)
        self._job: SwitchMLJob | None = self._build()

    def _build(self) -> SwitchMLJob:
        return SwitchMLJob(SwitchMLConfig(
            num_workers=self.workers,
            pool_size=128,
            elements_per_packet=32,
            timeout_s=1e-3,
            loss_factory=lambda: BernoulliLoss(0.01),
            seed=self.sim_seed,
        ))

    def run_unit(self) -> Unit:
        job = self._job if self._job is not None else self._build()
        self._job = None
        result, cpu = _timed(lambda: job.all_reduce(self.tensors, verify=False))
        failures = []
        if not result.completed:
            failures.append("all-reduce did not complete")
        elif any(not np.array_equal(r, self.expected) for r in result.results):
            failures.append("aggregate differs from the exact int64 sum")
        fingerprint = (job.sim.events_processed, result.retransmissions,
                       result.max_tat)
        if (result.retransmissions, round(result.max_tat, 9)) != self.pin:
            failures.append(
                f"fingerprint {result.retransmissions} retransmissions, "
                f"max TAT {result.max_tat:.9f} s; pinned {self.pin}"
            )
        tally = _WorkerTally()
        tally.add(result.worker_stats)
        rack = job.rack
        chunks = -(-self.elements // job.config.elements_per_packet)
        return Unit(
            op_cpu_s=[cpu],
            failed=int(bool(failures)),
            failures=failures,
            elements=self.elements,
            packets=tally.packets_sent,
            fingerprint=fingerprint,
            counters=_counters(
                events=job.sim.events_processed,
                tally=tally,
                one_pass_packets=chunks * self.workers,
                programs=[job.program],
                worker_uplinks=rack.uplinks,
                links=rack.uplinks + rack.downlinks,
                hosts=rack.hosts,
                switches=[rack.switch],
                sim_elapsed=job.sim.now,
            ),
            sim_tat_s=[result.max_tat],
        )


class FabricSpineCrash:
    """2-tier Clos; the active spine crashes mid-reduction."""

    name = "fabric_spine_crash"
    layers = ("sim.engine", "core.worker", "core.switch_program",
              "core.hierarchy", "dataplane.registers", "net.link", "net.host",
              "net.switchchassis", "net.fabric", "obs.telemetry")
    leaves, spines, workers_per_leaf = 4, 2, 8
    elements = 65_536
    crash_at_s = 0.15e-3

    def __init__(self, seed: int):
        workers = self.leaves * self.workers_per_leaf
        self.tensors = _int_tensors(seed, workers, self.elements)
        self.expected = np.sum(self.tensors, axis=0, dtype=np.int64)
        self._job: FabricJob | None = self._build()

    def _build(self) -> FabricJob:
        job = FabricJob(FabricConfig(
            num_leaves=self.leaves,
            num_spines=self.spines,
            workers_per_leaf=self.workers_per_leaf,
            pool_size=64,
            # the metrics registry and in-band telemetry are on, as in
            # `repro fabric` / `repro telemetry`
            obs=Observability(tracing_enabled=False, telemetry=True),
        ))
        plan = FabricFaultPlan().add(
            CrashSpine(spine=job.active_spine, at_s=self.crash_at_s)
        )
        FabricFaultInjector(job, plan).arm()
        return job

    def run_unit(self) -> Unit:
        job = self._job if self._job is not None else self._build()
        self._job = None
        first_pool = job.handle.program
        result, cpu = _timed(lambda: job.all_reduce(self.tensors, verify=False))
        failures = []
        if not result.completed:
            failures.append("all-reduce did not complete")
        elif any(not np.array_equal(r, self.expected) for r in result.results):
            failures.append("aggregate differs from the exact int64 sum")
        if not result.reroutes:
            failures.append("the spine crash caused no reroute")
        recovery = result.reroutes[0].recovery_time if result.reroutes else 0.0
        fingerprint = (job.sim.events_processed, result.retransmissions,
                       result.max_tat, len(result.reroutes), recovery)
        tally = _WorkerTally()
        tally.add(result.worker_stats)
        fabric = job.fabric
        chunks = -(-self.elements // job.config.elements_per_packet)
        pools = [first_pool]
        if job.handle.program is not first_pool:
            pools.append(job.handle.program)
        return Unit(
            op_cpu_s=[cpu],
            failed=int(bool(failures)),
            failures=failures,
            elements=self.elements,
            packets=tally.packets_sent,
            fingerprint=fingerprint,
            counters=_counters(
                events=job.sim.events_processed,
                tally=tally,
                one_pass_packets=chunks * job.config.num_workers,
                programs=pools,
                worker_uplinks=[l for leaf in fabric.leaves for l in leaf.host_uplinks],
                links=fabric.all_links(),
                hosts=fabric.hosts,
                switches=[leaf.switch for leaf in fabric.leaves]
                + [spine.switch for spine in fabric.spines],
                sim_elapsed=result.elapsed_s,
                fabric_job=job,
                reroutes=len(result.reroutes),
                telemetry=job.obs.telemetry,
            ),
            sim_tat_s=[result.max_tat],
            extra={"sim_recovery_s": recovery},
        )


class _LayerwiseAllReduce:
    """A framework hook: one ``allreduce_float`` per parameter tensor."""

    def __init__(self, job: SwitchMLJob, sizes: list[int]):
        self.job = job
        self.bounds = [0, *itertools.accumulate(sizes)]
        self.op_cpu_s: list[float] = []
        self.failures: list[str] = []
        self.elements = 0
        self.tally = _WorkerTally()
        self.one_pass_packets = 0
        self.calls: list[tuple] = []  # per-call (events, retx, max TAT)

    def __call__(self, gradients: list[np.ndarray]) -> np.ndarray:
        job = self.job
        k = job.config.elements_per_packet
        parts = []
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            tensors = [g[lo:hi] for g in gradients]
            events = job.sim.events_processed
            out, cpu = _timed(lambda: api.allreduce_float(tensors, job=job))
            self.op_cpu_s.append(cpu)
            self.elements += hi - lo
            self.tally.add(w.stats for w in job.workers)
            self.one_pass_packets += -(-(hi - lo) // k) * len(tensors)
            self.calls.append((job.sim.events_processed - events,
                               out.retransmissions, out.tat_s))
            error = np.abs(out.aggregate - np.sum(tensors, axis=0)).max()
            if not out.completed:
                self.failures.append("allreduce_float did not complete")
            elif not error <= out.error_bound:
                self.failures.append(
                    f"aggregate error {error:g} exceeds the bound "
                    f"{out.error_bound:g}"
                )
            parts.append(out.aggregate)
        return np.concatenate(parts)


class TrainLayers:
    """Data-parallel SGD of the mlfw MLP, one all-reduce per tensor."""

    name = "train_layers"
    layers = ("sim.engine", "core.worker", "core.switch_program", "core.job",
              "dataplane.registers", "net.link", "net.host",
              "net.switchchassis", "quant", "api", "mlfw")
    workers, features, hidden, classes = 8, 20, 32, 4
    epochs = 10
    #: a 4-class problem learned worse than this has gone wrong
    min_accuracy = 0.6

    def __init__(self, seed: int):
        self.seed = seed
        self.dataset = make_classification(
            num_samples=2000, num_features=self.features,
            num_classes=self.classes, seed=seed,
        )
        f, h, c = self.features, self.hidden, self.classes
        self.sizes = [f * h, h, h * c, c]
        self._job: SwitchMLJob | None = self._build()

    def _build(self) -> SwitchMLJob:
        return SwitchMLJob(SwitchMLConfig(num_workers=self.workers))

    def run_unit(self) -> Unit:
        job = self._job if self._job is not None else self._build()
        self._job = None
        hook = _LayerwiseAllReduce(job, self.sizes)
        trained = realtrain.train_mlp(
            self.dataset, num_workers=self.workers, aggregator=hook,
            epochs=self.epochs, hidden=self.hidden, seed=self.seed,
        )
        failures = list(hook.failures)
        failed = len(failures)
        if trained.diverged or not trained.val_accuracy >= self.min_accuracy:
            failed = len(hook.op_cpu_s)  # every update fed a wrong model
            failures.append(
                f"training reached val accuracy {trained.val_accuracy:.3f} "
                f"(diverged={trained.diverged})"
            )
        rack = job.rack
        return Unit(
            op_cpu_s=hook.op_cpu_s,
            failed=failed,
            failures=failures,
            elements=hook.elements,
            packets=hook.tally.packets_sent,
            fingerprint=(tuple(hook.calls), trained.val_accuracy),
            counters=_counters(
                events=job.sim.events_processed,
                tally=hook.tally,
                one_pass_packets=hook.one_pass_packets,
                programs=[job.program],
                worker_uplinks=rack.uplinks,
                links=rack.uplinks + rack.downlinks,
                hosts=rack.hosts,
                switches=[rack.switch],
                sim_elapsed=job.sim.now,
            ),
            sim_tat_s=[tat for _, _, tat in hook.calls],
            extra={"val_accuracy": trained.val_accuracy},
        )


WORKLOADS = {w.name: w for w in (RackLossy, FabricSpineCrash, TrainLayers)}
