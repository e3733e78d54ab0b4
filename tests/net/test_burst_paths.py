"""Unit tests for the burst-granularity entry points in the net layer.

Link, host, and switch chassis each grow a coalescing receive path that
buffers same-timestamp deliveries and drains them through one engine
event.  Grouping is run detection -- an arrival either extends the open
group (same timestamp) or opens a new one -- so a missed tie costs one
extra event, never correctness.
"""

import pytest

from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.net.packet import Frame
from repro.net.switchchassis import SwitchChassis
from repro.sim.engine import Simulator


class BurstRecorder:
    """Agent recording both per-frame and per-burst deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.bursts = []

    def on_frame(self, frame):  # pragma: no cover - not used when batched
        self.bursts.append((self.sim.now, [frame]))

    def on_frames(self, frames):
        self.bursts.append((self.sim.now, list(frames)))


class FrameRecorder:
    """Agent with only the per-frame entry point."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def on_frame(self, frame):
        self.frames.append((self.sim.now, frame))


class TestLinkBurst:
    def _link(self, sim, out, **spec):
        # burst links deliver each drain group through deliver_many
        link = Link(sim, LinkSpec(**spec), "l")
        link.connect(out.append, out.extend)
        return link

    def test_serialized_arrivals_deliver_individually(self):
        sim = Simulator()
        out = []
        link = self._link(sim, out, rate_gbps=10.0, propagation_s=1e-6)
        link.burst = True
        for i in range(3):
            link.send(Frame(wire_bytes=180, flow_key=i))
        sim.run()
        # serialization spaces the arrivals: three groups of one, same
        # frames, same order as packet mode
        assert [f.flow_key for f in out] == [0, 1, 2]
        assert link.stats.frames_delivered == 3

    def test_coinciding_arrivals_coalesce_into_one_event(self):
        # zero serialization + zero propagation puts every frame sent at
        # the same instant on the same arrival timestamp
        sim = Simulator()
        out = []
        link = self._link(sim, out, rate_gbps=float("inf"), propagation_s=0.0)
        link.burst = True
        pending_before = sim.pending
        for i in range(4):
            link.send(Frame(wire_bytes=1, flow_key=i))
        assert sim.pending == pending_before + 1  # one drain event
        sim.run()
        assert [f.flow_key for f in out] == [0, 1, 2, 3]
        assert link.stats.frames_delivered == 4

    def test_burst_observer_sees_every_frame(self):
        sim = Simulator()
        out = []
        link = self._link(sim, out, rate_gbps=float("inf"), propagation_s=0.0)
        link.burst = True
        seen = []
        link.observer = lambda frame, what, t: seen.append((what, t))
        link.send(Frame(wire_bytes=1, flow_key=0))
        link.send(Frame(wire_bytes=1, flow_key=1))
        sim.run()
        assert [w for w, _ in seen] == ["sent", "sent", "delivered", "delivered"]

    def test_packet_mode_unaffected_by_flag_off(self):
        sim = Simulator()
        out = []
        link = self._link(sim, out, rate_gbps=10.0, propagation_s=1e-6)
        link.send(Frame(wire_bytes=180, flow_key=0))
        sim.run()
        assert len(out) == 1


class TestHostBurstRx:
    def _host(self, sim, spec):
        host = Host(sim, "w0", spec)
        host.uplink = Link(
            sim, LinkSpec(rate_gbps=10.0, propagation_s=0.0), "up",
            deliver=lambda f: None,
        )
        return host

    def test_zero_cost_core_coalesces_same_instant_frames(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=1, per_frame_rx_s=0.0,
            io_fixed_latency_s=1e-6, io_batch_frames=0,
        )
        host = self._host(sim, spec)
        agent = BurstRecorder(sim)
        host.attach_agent(agent)
        host.deliver_burst_many(
            [Frame(wire_bytes=180, flow_key=0) for _ in range(3)]
        )
        sim.run()
        assert len(agent.bursts) == 1
        _, frames = agent.bursts[0]
        assert len(frames) == 3
        assert host.frames_received == 3

    def test_nonzero_cost_spreads_dispatches(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=1, per_frame_rx_s=40e-9,
            io_fixed_latency_s=1e-6, io_batch_frames=0,
        )
        host = self._host(sim, spec)
        agent = BurstRecorder(sim)
        host.attach_agent(agent)
        host.deliver_burst_many([Frame(wire_bytes=180, flow_key=0)])
        host.deliver_burst_many([Frame(wire_bytes=180, flow_key=0)])
        sim.run()
        # per-frame RX cost serializes the core: two groups of one
        assert [len(frames) for _, frames in agent.bursts] == [1, 1]

    def test_agent_without_on_frames_gets_per_frame_calls(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=1, per_frame_rx_s=0.0,
            io_fixed_latency_s=1e-6, io_batch_frames=0,
        )
        host = self._host(sim, spec)
        agent = FrameRecorder(sim)
        host.attach_agent(agent)
        host.deliver_burst_many(
            [Frame(wire_bytes=180, flow_key=0) for _ in range(2)]
        )
        sim.run()
        assert len(agent.frames) == 2

    def test_burst_rx_charges_core_like_packet_mode(self):
        def total_busy(burst):
            sim = Simulator()
            spec = HostSpec(
                num_cores=1, per_frame_rx_s=50e-9,
                io_fixed_latency_s=1e-6, io_batch_frames=0,
            )
            host = self._host(sim, spec)
            host.attach_agent(FrameRecorder(sim))
            frames = [Frame(wire_bytes=180, flow_key=0) for _ in range(4)]
            if burst:
                host.deliver_burst_many(frames)
            else:
                for frame in frames:
                    host.deliver(frame)
            sim.run()
            return host.cores[0].busy_time, host.frames_received

        assert total_busy(True) == total_busy(False)

    def test_missing_agent_raises(self):
        sim = Simulator()
        spec = HostSpec(num_cores=1, io_batch_frames=0)
        host = self._host(sim, spec)
        host.deliver_burst_many([Frame(wire_bytes=180, flow_key=0)])
        with pytest.raises(RuntimeError, match="no agent"):
            sim.run()


class _EchoProgram:
    """Minimal per-frame program: forward every frame to port 0."""

    def process(self, frame, in_port):
        class Decision:
            deliveries = [(0, frame)]

        return Decision()


class TestChassisBurst:
    def _chassis(self, sim):
        chassis = SwitchChassis(sim, "sw", pipeline_latency_s=1e-6)
        out = []
        egress = Link(
            sim, LinkSpec(rate_gbps=10.0, propagation_s=0.0), "down",
            deliver=out.append,
        )
        chassis.attach_port(0, egress)
        return chassis, out

    def test_same_instant_arrivals_share_one_drain(self):
        sim = Simulator()
        chassis, out = self._chassis(sim)
        chassis.load_program(_EchoProgram())
        deliver0 = chassis.burst_ingress_many_callback(0)
        deliver1 = chassis.burst_ingress_many_callback(1)
        pending_before = sim.pending
        deliver0([Frame(wire_bytes=180, flow_key=0)])
        deliver1([Frame(wire_bytes=180, flow_key=1)])
        assert sim.pending == pending_before + 1
        sim.run()
        # fallback path (program has no process_batch): per-frame
        # pipeline semantics, shared engine event
        assert [f.flow_key for f in out] == [0, 1]
        assert chassis.frames_in == 2
        assert chassis.frames_out == 2

    def test_distinct_instants_get_distinct_drains(self):
        sim = Simulator()
        chassis, out = self._chassis(sim)
        chassis.load_program(_EchoProgram())
        deliver = chassis.burst_ingress_many_callback(0)
        deliver([Frame(wire_bytes=180, flow_key=0)])
        sim.schedule_call(5e-7, deliver, [Frame(wire_bytes=180, flow_key=1)])
        sim.run()
        assert [f.flow_key for f in out] == [0, 1]

    def test_unloaded_program_raises(self):
        sim = Simulator()
        chassis, _ = self._chassis(sim)
        deliver = chassis.burst_ingress_many_callback(0)
        with pytest.raises(RuntimeError, match="no dataplane program"):
            deliver([Frame(wire_bytes=180, flow_key=0)])
