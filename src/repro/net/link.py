"""Point-to-point links with serialization delay, propagation delay,
FIFO queueing, optional buffer caps, and loss injection.

The model is standard store-and-forward: a frame of ``L`` bytes on a link
of rate ``R`` bps occupies the transmitter for ``8L/R`` seconds starting
when the transmitter frees up, then arrives ``propagation`` seconds after
its last bit leaves.  Injected losses (paper SS5.5) consume transmitter
time -- the bits go out, they just never arrive -- which matches how loss
behaves on a real wire and matters for TAT-inflation measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator

__all__ = ["Link", "LinkSpec", "LinkStats"]

#: block size of the inlined Bernoulli draw buffer; must match
#: BernoulliLoss._BLOCK so draw alignment survives path rebinds
_BERN_BLOCK = BernoulliLoss._BLOCK

@dataclass
class LinkSpec:
    """Parameters for one direction of a cable.

    ``propagation_s`` defaults to 500 ns -- roughly 100 m of fibre, a rack
    in-row run.  ``queue_bytes`` caps the transmitter backlog; ``None``
    means infinite (the paper's rack is dedicated and uncongested, SS3.2
    footnote).

    ``jitter_s`` adds a uniform random extra delay per frame, which can
    reorder deliveries -- the paper claims the protocol "is not
    influenced by packet reorderings" because every packet carries its
    pool index and offset (SS3.4); the reordering tests turn this on.

    ``corruption_probability`` flips the delivered frame's ``corrupted``
    flag (a bit-flip survives the wire but fails the receiver's
    checksum): "a simple checksum can be used to detect corruption and
    discard corrupted packets" (SS3.4).  Receivers treat a corrupt frame
    as a loss; the timeout machinery recovers it.
    """

    rate_gbps: float = 10.0
    propagation_s: float = 500e-9
    queue_bytes: int | None = None
    jitter_s: float = 0.0
    corruption_probability: float = 0.0

    @property
    def rate_bps(self) -> float:
        return self.rate_gbps * 1e9

    def serialization_s(self, wire_bytes: int) -> float:
        return wire_bytes * 8.0 / self.rate_bps


@dataclass
class LinkStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    frames_queue_dropped: int = 0
    frames_corrupted: int = 0
    bytes_sent: int = 0
    busy_time: float = 0.0
    _extra: dict = field(default_factory=dict)

    def conservation_holds(self) -> bool:
        """DESIGN.md invariant: every serialized frame was either
        delivered or lost (queue drops never reached the transmitter and
        are accounted separately)."""
        return self.frames_sent == self.frames_delivered + self.frames_lost


class Link:
    """One unidirectional link.

    Parameters
    ----------
    sim:
        Simulation engine.
    spec:
        Rate / delay / buffer parameters.
    name:
        Identifies the link in stats and RNG substreams.
    deliver:
        Callback invoked as ``deliver(frame)`` at arrival time.  Set (or
        replaced) later via :meth:`connect` by topology builders.
    loss:
        Loss model; defaults to :class:`NoLoss`.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        name: str,
        deliver: Callable[[Frame], Any] | None = None,
        loss: LossModel | None = None,
    ):
        self.sim = sim
        self.name = name
        self._deliver = deliver
        self._deliver_many: Callable[[list[Frame]], Any] | None = None
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._rng = sim.rng(f"link:{name}")
        self._schedule_call_at = sim.schedule_call_at
        self._schedule_train = sim.schedule_train
        # local block buffer of uniforms feeding ALL of this link's own
        # draws -- loss, corruption, jitter -- in per-frame order (see
        # _refresh_drop_path); survives spec swaps, reset on loss swaps
        self._u_buf = None
        self._u_i = 0
        #: burst granularity: coalesce same-timestamp arrivals into one
        #: engine event (set by the job when ``granularity="burst"``)
        self.burst = False
        #: epsilon-window coalescing (burst mode only): arrivals within
        #: ``[t0, t0 + eps]`` of the group opener join its drain event,
        #: scheduled at ``t0 + eps``.  Zero keeps exact same-timestamp
        #: coalescing (bit-identical to packet mode); positive values
        #: trade bounded extra latency for larger batches.
        self.burst_epsilon = 0.0
        # current coalescing run: the open arrival group and its
        # timestamp (see the burst branch of `send` for the scheme)
        self._arrive_group: list | None = None
        self._arrive_t = -1.0
        # `spec` and `loss` are properties: fault injection and topology
        # surgery replace the whole object (never mutate fields in
        # place), and the setters refresh the hot-path caches below.
        self.spec = spec
        self.loss = loss if loss is not None else NoLoss()
        #: optional hook called with (frame, "sent"|"lost"|"delivered", time)
        self.observer: Callable[[Frame, str, float], Any] | None = None
        #: in-band telemetry tap (repro.obs.telemetry.LinkTap), installed
        #: by Telemetry.instrument_link; None (one branch) when disabled
        self.telemetry: Any | None = None

    @property
    def spec(self) -> LinkSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: LinkSpec) -> None:
        self._spec = spec
        self._rate_bps = spec.rate_bps
        self._queue_bytes = spec.queue_bytes
        self._prop_s = spec.propagation_s
        self._jitter_s = spec.jitter_s
        self._corrupt_p = spec.corruption_probability
        self._refresh_drop_path()

    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, loss: LossModel) -> None:
        self._loss = loss
        # a NoLoss model needs no per-frame call (and consumes no
        # randomness), so the send path can skip it entirely
        self._lossless = type(loss) is NoLoss
        # a new loss model starts with a fresh draw buffer (a spec swap,
        # by contrast, keeps any pre-drawn uniforms -- discarding them
        # would change the rng consumption order mid-run)
        self._u_buf = None
        self._u_i = 0
        self._refresh_drop_path()

    def _refresh_drop_path(self) -> None:
        """Bind the per-frame draw path.

        ``_buffered`` links feed every draw the link makes -- the
        Bernoulli loss test, the corruption test, and the jitter sample
        -- from one block buffer of uniforms, consumed in per-frame
        order.  The decisions are bit-for-bit what the scalar calls
        produce: ``rng.random(n)`` walks the same double stream as ``n``
        scalar ``rng.random()`` calls, and ``rng.uniform(0, j)`` computes
        exactly ``j * rng.random()``.  Buffering is legal because the
        link's named substream has no other consumer -- which is also
        why it is restricted to the known-pure loss models: a stateful
        or user-supplied model may draw any number of uniforms per frame
        through its own ``should_drop``, so those keep the scalar calls
        (``_should_drop`` bound) in the exact historical order."""
        loss = getattr(self, "_loss", None)
        if loss is None:  # spec set before loss during __init__
            self._bern = None
            self._should_drop = None
            self._buffered = False
            return
        if type(loss) is BernoulliLoss:
            self._bern = loss
            self._should_drop = None
            self._buffered = True
        elif type(loss) is NoLoss:
            self._bern = None
            self._should_drop = None
            self._buffered = True
        else:
            self._bern = None
            self._should_drop = loss.should_drop
            self._buffered = False

    def connect(
        self,
        deliver: Callable[[Frame], Any],
        deliver_many: Callable[[list[Frame]], Any] | None = None,
    ) -> None:
        """Set the receiver callbacks.

        ``deliver_many`` takes a whole coinciding-arrival group in one
        call; it must be behaviorally identical to calling ``deliver``
        once per frame in order.  Burst links (:attr:`burst`) deliver
        through it exclusively, so they need one; packet-mode links
        only ever call ``deliver``.
        """
        self._deliver = deliver
        self._deliver_many = deliver_many

    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Enqueue ``frame`` for transmission.

        Returns False if the frame was tail-dropped at the queue (only
        possible with a finite ``queue_bytes``).
        """
        if self._deliver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")

        sim = self.sim
        now = sim.now
        stats = self.stats
        observer = self.observer
        tap = self.telemetry
        wire_bytes = frame.wire_bytes
        busy = self._busy_until
        queue_bytes = self._queue_bytes
        if queue_bytes is not None:
            backlog_s = busy - now
            if backlog_s > 0.0:
                backlog_bytes = backlog_s * self._rate_bps / 8.0
                if backlog_bytes + wire_bytes > queue_bytes:
                    stats.frames_queue_dropped += 1
                    if observer is not None:
                        observer(frame, "queue_dropped", now)
                    if tap is not None:
                        tap.on_drop(now, False)
                    return False
            elif wire_bytes > queue_bytes:
                stats.frames_queue_dropped += 1
                if observer is not None:
                    observer(frame, "queue_dropped", now)
                if tap is not None:
                    tap.on_drop(now, False)
                return False

        serialization = wire_bytes * 8.0 / self._rate_bps
        done = (busy if busy > now else now) + serialization
        self._busy_until = done
        stats.frames_sent += 1
        stats.bytes_sent += wire_bytes
        stats.busy_time += serialization
        if observer is not None:
            observer(frame, "sent", now)

        bern = self._bern
        if bern is not None:
            # inlined BernoulliLoss.should_drop_buffered against the
            # link-local buffer (this link's rng has no other consumer)
            p = bern.probability
            if p != 0.0:
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                if buf[i] < p:
                    stats.frames_lost += 1
                    if observer is not None:
                        observer(frame, "lost", now)
                    if tap is not None:
                        tap.on_drop(now, True)
                    return True
        elif not self._lossless and self._should_drop(self._rng, frame, now):
            stats.frames_lost += 1
            if observer is not None:
                observer(frame, "lost", now)
            if tap is not None:
                tap.on_drop(now, True)
            return True

        buffered = self._buffered
        corrupt_p = self._corrupt_p
        if corrupt_p > 0.0:
            if buffered:
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                u = buf[i]
            else:
                u = self._rng.random()
            if u < corrupt_p:
                frame.corrupted = True
                stats.frames_corrupted += 1

        arrival = done + self._prop_s
        jit = self._jitter_s
        if jit > 0.0:
            if buffered:
                # uniform(0, j) computes exactly j * random(): same draw,
                # same double, bit-identical arrival
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                arrival += jit * buf[i]
            else:
                arrival += float(self._rng.uniform(0.0, jit))
        if tap is not None:
            # stamped only after the loss draw: a lost frame's bits (and
            # its in-band records) never reach anything that could drain
            # them, matching real INT
            tap.on_transmit(frame, now, wire_bytes, done, arrival)
        if self.burst:
            eps = self.burst_epsilon
            if eps > 0.0:
                # epsilon-window coalescing: the group opener's arrival
                # t0 schedules the drain at t0 + eps; frames landing in
                # [t0, t0 + eps] while the group is still open join it.
                # The drain clears the group ref, so a frame arriving
                # after the drain fired opens a fresh window even if its
                # timestamp is inside the old one.  Jittered arrivals
                # can run backwards; those open a fresh group too.
                group = self._arrive_group
                t0 = self._arrive_t
                if group is not None and t0 <= arrival <= t0 + eps:
                    group.append((arrival, frame))
                else:
                    self._arrive_group = group = [(arrival, frame)]
                    self._arrive_t = arrival
                    self._schedule_call_at(
                        arrival + eps, self._drain_window, group
                    )
                return True
            # Coalesce coinciding arrivals into one engine event, FIFO by
            # send order.  Run detection, not a timestamp map: a frame
            # extends the open group when its arrival matches, otherwise
            # it opens a new group (the drain event captures the list, so
            # no lookup on the way out).  Best-effort by design -- a
            # serializing link spaces arrivals by at least one frame
            # time, so same-link ties only occur with zero serialization
            # or jitter collisions, and a missed tie merely costs one
            # extra event, never correctness.
            group = self._arrive_group
            if group is not None and arrival == self._arrive_t:
                group.append(frame)
            else:
                self._arrive_group = group = [frame]
                self._arrive_t = arrival
                self._schedule_call_at(arrival, self._arrive_burst, group)
            return True
        # arrivals are never cancelled: handle-free fast path
        self._schedule_call_at(arrival, self._arrive, frame)
        return True

    # ------------------------------------------------------------------
    def send_train(self, pairs: list[tuple[float, Frame]]) -> int:
        """Process an ordered train of submits in one call.

        ``pairs`` is ``[(submit_time, frame), ...]`` with non-decreasing
        submit times at or after ``sim.now``.  Each frame's *send body*
        -- queue/backlog test, busy-chain serialization, stats, observer
        and telemetry taps, and the loss/corruption/jitter draws in
        per-frame stream order -- runs now, in one Python frame instead
        of one engine event per frame (the math uses each pair's submit
        time, never ``sim.now``, so running early is invisible).  The
        *dispatch* of each surviving frame (scheduling its arrival, or
        folding it into a burst coalescing group) is deferred to the
        frame's own submit time via one :meth:`~repro.sim.engine.
        Simulator.schedule_train` cursor.  The cursor is created in this
        very call -- the caller's event is where the per-frame path would
        have scheduled its TX entries -- and keeps that sequence number
        across re-insertions, so every entry it later creates lands at
        exactly the time, and with exactly the tie-breaking order, the
        per-frame path would have produced.  Frames submitting at
        ``sim.now`` itself (the chassis egress fan-out case) dispatch
        inline.

        Interleaving: the busy chain is replayed in submit order within
        the train, so a per-frame :meth:`send` submitting inside the
        train's span observes the whole train's backlog (and draws after
        the whole train), not the prefix in flight at its submit time --
        as if the NIC had enqueued the burst's TX descriptors in one
        shot, which is what DPDK's TX burst does.  At epsilon = 0 the
        wired call sites never overlap a train (timeout resends live on
        a far coarser grid than the TX sweep), so the bit-for-bit
        equivalence with the per-frame path holds; positive epsilon
        widens trains until resends can land inside a span, and there
        the two paths model the wire differently (both validly).

        Returns the number of frames accepted (= ``len(pairs)`` minus
        queue tail-drops, mirroring :meth:`send`'s return value).
        """
        records, accepted = self.send_bodies(pairs)
        if self.burst and self.burst_epsilon > 0.0:
            # epsilon-window fold: the window logic keys on each frame's
            # *arrival* value only, so the appends can run here instead
            # of at the submit times -- no cursor, no dispatch events at
            # all.  The one observable difference from the per-frame
            # schedule: a group stays joinable until its drain *fires*,
            # so a frame whose submit falls after the drain instant
            # joins early here where the per-frame path would open a
            # fresh window.  Positive epsilon is already
            # protocol-equivalent-not-bit-exact (see the interleaving
            # note above); epsilon = 0 keeps the exact deferred dispatch
            # below.
            self.dispatch_window_records(records)
            return accepted
        dispatch = [r for r in records if r is not None]
        n = len(dispatch)
        if n:
            dispatch_one = self._dispatch_one
            # the leading run submitting at this very instant dispatches
            # inline -- this event occupies the sequence position the
            # per-frame path's first submit event would have
            now = self.sim.now
            i = 0
            while i < n and dispatch[i][0] == now:
                dispatch_one(dispatch[i])
                i += 1
            if i < n:
                self._schedule_train(
                    [d[0] for d in dispatch[i:]], dispatch_one, dispatch[i:]
                )
        return accepted

    def dispatch_window_records(
        self, records: list[tuple[float, float, Frame] | None]
    ) -> None:
        """Fold a body sweep's surviving records into the epsilon window.

        Only valid on a burst link with a positive ``burst_epsilon`` --
        the batched form of :meth:`_dispatch_one`'s window branch, with
        the group state hoisted out of the per-frame loop.  Used by
        :meth:`send_train` and the chassis egress fan-out
        (which at positive epsilon needs no cross-link delivery-order
        interleaving: appends to different links' windows commute, and
        entries are only created when a window opens, at arrival-derived
        times).
        """
        eps = self.burst_epsilon
        group = self._arrive_group
        t0 = self._arrive_t
        schedule = self._schedule_call_at
        drain = self._drain_window
        for rec in records:
            if rec is None:
                continue
            arrival = rec[1]
            if group is not None and t0 <= arrival <= t0 + eps:
                group.append((arrival, rec[2]))
            else:
                group = [(arrival, rec[2])]
                t0 = arrival
                self._arrive_group = group
                self._arrive_t = t0
                schedule(t0 + eps, drain, group)

    def send_bodies(
        self, pairs: list[tuple[float, Frame]]
    ) -> tuple[list[tuple[float, float, Frame] | None], int]:
        """Run the send bodies of a train; leave the dispatch to the caller.

        The body phase of :meth:`send_train`, split out for callers that
        fan one drain out over *several* links (the chassis egress): they
        batch the bodies per link but must create each frame's engine
        entry in the original cross-link delivery order -- the order the
        per-frame loop would have -- so they interleave the returned
        records themselves through :meth:`_dispatch_one`.

        Returns ``(records, accepted)``: ``records`` is aligned with
        ``pairs`` (``None`` where the frame was tail-dropped or lost),
        and ``accepted`` is ``len(pairs)`` minus queue tail-drops.
        """
        if self._deliver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")

        stats = self.stats
        observer = self.observer
        tap = self.telemetry
        rng = self._rng
        rate = self._rate_bps
        queue_bytes = self._queue_bytes
        prop = self._prop_s
        jit = self._jitter_s
        corrupt_p = self._corrupt_p
        buffered = self._buffered
        bern = self._bern
        lossless = self._lossless
        should_drop = self._should_drop
        busy = self._busy_until
        sent = 0
        lost = 0
        qdrops = 0
        bytes_sent = 0
        # the block-buffer cursor lives in locals for the whole sweep
        # (written back below); nothing else consumes this link's stream
        # while the bodies run
        u_i = self._u_i
        u_buf = self._u_buf

        records: list[tuple[float, float, Frame] | None] = []

        for t, frame in pairs:
            wire_bytes = frame.wire_bytes
            if queue_bytes is not None:
                backlog_s = busy - t
                if backlog_s > 0.0:
                    if backlog_s * rate / 8.0 + wire_bytes > queue_bytes:
                        qdrops += 1
                        records.append(None)
                        if observer is not None:
                            observer(frame, "queue_dropped", t)
                        if tap is not None:
                            tap.on_drop(t, False)
                        continue
                elif wire_bytes > queue_bytes:
                    qdrops += 1
                    records.append(None)
                    if observer is not None:
                        observer(frame, "queue_dropped", t)
                    if tap is not None:
                        tap.on_drop(t, False)
                    continue

            serialization = wire_bytes * 8.0 / rate
            done = (busy if busy > t else t) + serialization
            busy = done
            sent += 1
            bytes_sent += wire_bytes
            # accumulated per frame, not batched: float addition is not
            # associative, and busy_time must match the per-frame path
            # bit for bit
            stats.busy_time += serialization
            if observer is not None:
                observer(frame, "sent", t)

            if bern is not None:
                p = bern.probability
                if p != 0.0:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    u = u_buf[u_i]
                    u_i += 1
                    if u < p:
                        lost += 1
                        records.append(None)
                        if observer is not None:
                            observer(frame, "lost", t)
                        if tap is not None:
                            tap.on_drop(t, True)
                        continue
            elif not lossless and should_drop(rng, frame, t):
                lost += 1
                records.append(None)
                if observer is not None:
                    observer(frame, "lost", t)
                if tap is not None:
                    tap.on_drop(t, True)
                continue

            if corrupt_p > 0.0:
                if buffered:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    u = u_buf[u_i]
                    u_i += 1
                else:
                    u = rng.random()
                if u < corrupt_p:
                    frame.corrupted = True
                    stats.frames_corrupted += 1

            arrival = done + prop
            if jit > 0.0:
                if buffered:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    arrival += jit * u_buf[u_i]
                    u_i += 1
                else:
                    arrival += float(rng.uniform(0.0, jit))

            if tap is not None:
                tap.on_transmit(frame, t, wire_bytes, done, arrival)

            records.append((t, arrival, frame))

        self._busy_until = busy
        self._u_i = u_i
        self._u_buf = u_buf
        stats.frames_sent += sent
        stats.frames_lost += lost
        stats.frames_queue_dropped += qdrops
        stats.bytes_sent += bytes_sent
        return records, len(pairs) - qdrops

    def _dispatch_one(self, rec: tuple[float, float, Frame]) -> None:
        """Dispatch one train frame at its submit time.

        Replicates the tail of :meth:`send` -- the part that creates
        engine entries or mutates coalescing groups -- for a frame whose
        send body already ran in :meth:`send_train`.  Running at the
        frame's own submit time keeps group open/closed state and entry
        insertion order identical to the per-frame path.
        """
        arrival = rec[1]
        frame = rec[2]
        if self.burst:
            eps = self.burst_epsilon
            if eps > 0.0:
                group = self._arrive_group
                t0 = self._arrive_t
                if group is not None and t0 <= arrival <= t0 + eps:
                    group.append((arrival, frame))
                else:
                    self._arrive_group = group = [(arrival, frame)]
                    self._arrive_t = arrival
                    self._schedule_call_at(arrival + eps, self._drain_window, group)
                return
            group = self._arrive_group
            if group is not None and arrival == self._arrive_t:
                group.append(frame)
            else:
                self._arrive_group = group = [frame]
                self._arrive_t = arrival
                self._schedule_call_at(arrival, self._arrive_burst, group)
            return
        self._schedule_call_at(arrival, self._arrive, frame)

    def _arrive(self, frame: Frame) -> None:
        self.stats.frames_delivered += 1
        if self.observer is not None:
            self.observer(frame, "delivered", self.sim.now)
        self._deliver(frame)

    def _arrive_burst(self, frames: list[Frame]) -> None:
        """Deliver one coinciding-arrival group (burst granularity).

        Per-frame stats and observer calls match :meth:`_arrive`; the
        receiver's ``deliver_many`` gets the group in send order, at the
        same ``sim.now`` -- exactly what per-frame ``deliver`` calls
        would have seen.
        """
        if frames is self._arrive_group:
            self._arrive_group = None
        stats = self.stats
        stats.frames_delivered += len(frames)
        observer = self.observer
        if observer is not None:
            t = self.sim.now
            for frame in frames:
                observer(frame, "delivered", t)
        self._deliver_many(frames)

    def _drain_window(self, pairs: list[tuple[float, Frame]]) -> None:
        """Deliver one epsilon-window group at ``t0 + eps``.

        Frames are handed over in arrival order (stable sort keeps send
        order for ties), so the receiver observes the same relative
        sequence it would have seen frame-by-frame -- just compressed to
        one instant.
        """
        if pairs is self._arrive_group:
            self._arrive_group = None
        pairs.sort(key=lambda p: p[0])
        stats = self.stats
        stats.frames_delivered += len(pairs)
        observer = self.observer
        if observer is not None:
            t = self.sim.now
            for _, frame in pairs:
                observer(frame, "delivered", t)
        self._deliver_many([frame for _, frame in pairs])

    # ------------------------------------------------------------------
    @property
    def queue_delay(self) -> float:
        """Seconds a frame submitted now would wait before serializing."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.spec.rate_gbps}Gbps sent={self.stats.frames_sent}>"
