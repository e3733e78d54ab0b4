"""Train-vs-per-frame egress equivalence.

Burst granularity batches the whole TX path -- worker chunk build, host
TX-core charging, link send bodies, chassis egress -- into frame trains
carried by one engine event each.  The contract (docs/ARCHITECTURE.md
"Frame-train egress"): at ``burst_epsilon=0`` the train path is a pure
mechanical batching of packet mode's per-frame path, so RNG draw
order, loss/jitter/corruption decisions, stats counters, INT series,
and protocol fingerprints are bit-for-bit identical.
"""

import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.link import Link, LinkSpec, _BERN_BLOCK
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.packet import Frame
from repro.obs.base import Observability
from repro.sim.engine import Simulator

N_WORKERS = 8
POOL = 64
K = 32
N_ELEM = K * 1024
SEED = 7


def _link_stats_fp(links):
    return tuple(
        (
            l.stats.frames_sent,
            l.stats.frames_delivered,
            l.stats.frames_lost,
            l.stats.frames_corrupted,
            l.stats.frames_queue_dropped,
            l.stats.bytes_sent,
            l.stats.busy_time,
        )
        for l in links
    )


def _telemetry_fp(hub):
    """Full digest of every INT link series: bucket-exact."""
    if hub is None:
        return None
    out = []
    for name in sorted(hub.collector.links):
        series = hub.collector.links[name]
        out.append(
            (
                name,
                tuple(
                    (
                        b.idx, b.bytes_sent, b.frames, b.queue_drops,
                        b.losses, b.queue_delay_max, b.queue_delay_sum,
                        b.backlog_bytes_max, b.latency_max, b.latency_sum,
                        b.latency_n,
                    )
                    for b in series.intervals()
                ),
            )
        )
    return tuple(out)


def _run_flat(granularity: str, *, loss=0.0, jitter=0.0, corrupt=0.0,
              queue=None, telemetry=False):
    cfg = SwitchMLConfig(
        num_workers=N_WORKERS,
        pool_size=POOL,
        elements_per_packet=K,
        seed=SEED,
        link=LinkSpec(jitter_s=jitter, queue_bytes=queue,
                      corruption_probability=corrupt),
        loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
        granularity=granularity,
        obs=Observability(telemetry=True) if telemetry else None,
    )
    job = SwitchMLJob(cfg)
    res = job.all_reduce(num_elements=N_ELEM, verify=False)
    assert res.completed
    links = list(job.rack.uplinks) + list(job.rack.downlinks)
    return {
        "retx": res.retransmissions,
        "per_worker_retx": [s.retransmissions for s in res.worker_stats],
        "tats": [s.tensor_aggregation_time for s in res.worker_stats],
        "links": _link_stats_fp(links),
        "telemetry": _telemetry_fp(cfg.obs.telemetry if telemetry else None),
    }


FLAT_CASES = {
    "clean": {},
    "lossy": {"loss": 0.01},
    "jittered": {"jitter": 2e-7},
    "corruption": {"corrupt": 0.01},
    "finite_queue": {"queue": 6000, "loss": 0.01},
    "kitchen_sink": {"loss": 0.01, "jitter": 2e-7, "corrupt": 0.005,
                     "queue": 9000},
    "telemetry": {"loss": 0.01, "telemetry": True},
}


class TestTrainBitExactFlat:
    """eps=0: the hard invariant -- every counter and draw identical."""

    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_bit_identical_fingerprint(self, name):
        kw = FLAT_CASES[name]
        per_frame = _run_flat("packet", **kw)
        train = _run_flat("burst", **kw)
        assert per_frame == train


class TestCorruptionDrawOrder:
    """The corruption draw comes from the same block buffer as the
    inlined Bernoulli loss path, in per-frame loss->corruption->jitter
    order -- not a scalar ``rng.random()`` on the side."""

    def _stream(self, name, n):
        # the link's named substream, replayed independently: block
        # draws walk the same double sequence as scalar draws
        probe = Simulator()
        rng = probe.rng(f"link:{name}")
        out = []
        while len(out) < n:
            out.extend(rng.random(_BERN_BLOCK).tolist())
        return out

    def test_decisions_follow_block_stream(self):
        loss_p, corrupt_p, jit = 0.3, 0.4, 1e-6
        sim = Simulator()
        spec = LinkSpec(rate_gbps=10.0, propagation_s=0.0,
                        jitter_s=jit, corruption_probability=corrupt_p)
        got = []
        link = Link(sim, spec, "draworder",
                    deliver=lambda f: got.append((sim.now, f)),
                    loss=BernoulliLoss(loss_p))
        frames = [Frame(wire_bytes=1250, flow_key=i) for i in range(200)]
        for f in frames:
            link.send(f)
        sim.run()

        u = iter(self._stream("draworder", 3 * len(frames)))
        ser = 1250 * 8 / 10e9
        done = 0.0
        expect = []
        for f in frames:
            done += ser
            if next(u) < loss_p:  # loss draw first
                continue
            corrupted = next(u) < corrupt_p  # then corruption
            arrival = done + jit * next(u)  # then jitter
            expect.append((arrival, f.flow_key, corrupted))
        assert [(t, f.flow_key, f.corrupted) for t, f in got] == expect
        assert link.stats.frames_corrupted == sum(c for _, _, c in expect)

    def test_scalar_and_train_paths_share_the_stream(self):
        # the same sends pushed through send_train must consume the
        # stream identically (same decisions, same stats)
        def run(as_train):
            sim = Simulator()
            spec = LinkSpec(propagation_s=0.0, jitter_s=1e-6,
                            corruption_probability=0.2)
            got = []
            link = Link(sim, spec, "shared", loss=BernoulliLoss(0.2))
            link.connect(
                lambda f: got.append((sim.now, f)),
                lambda fs: got.extend((sim.now, f) for f in fs),
            )
            link.burst = True
            frames = [Frame(wire_bytes=1250, flow_key=i)
                      for i in range(150)]
            if as_train:
                link.send_train([(0.0, f) for f in frames])
            else:
                for f in frames:
                    link.send(f)
            sim.run()
            return (
                [(t, f.flow_key, f.corrupted) for t, f in got],
                link.stats.frames_lost,
                link.stats.frames_corrupted,
            )

        assert run(False) == run(True)
