"""Reliable-delivery sublayer for the critical protocol frames.

The Tiamat protocol is deliberately best-effort — most frames can be lost
with no harm beyond wasted effort (a lost QUERY is re-covered by discovery,
a lost DISCOVER_ACK by the next multicast).  A handful of frames are
different: losing a ``CLAIM_ACCEPT`` silently downgrades a destructive
``in`` from exactly-once to at-most-twice (the origin believes it consumed
the tuple while the serving side puts it back on claim timeout), and a
duplicated or reordered offer can make the origin answer the same offer
twice with contradictory verdicts.

This module adds an ack/retransmit/dedup sublayer for exactly those frames:

* **per-peer sequence numbers** — every reliable frame carries
  ``rseq`` (monotone per sender→peer) and ``repoch`` (a fresh value per
  instance incarnation, so a crash+restart never collides with its
  predecessor's numbering);
* **retransmission with exponential backoff and jitter** — a pending frame
  is resent until a ``REL_ACK`` arrives or its *deadline* passes.  The
  deadline is derived from the operation's lease: **leases remain the only
  effort budget** (section 2.5) and no retransmission is ever scheduled
  past lease expiry;
* **a receive-side dedup window** — per (peer, epoch), the receiver tracks
  recently seen sequence numbers; duplicates (network duplication *or*
  retransmissions whose ack was lost) are re-acked but not redispatched,
  which makes every destructive-path handler idempotent.

The sublayer is transparent to handlers: payloads gain ``rseq``/``repoch``
fields on the wire, which handlers ignore.  ``REL_ACK`` frames themselves
are never reliable — a lost ack just causes one more retransmission, which
the dedup window absorbs.  Every reliable frame is answered by its own
``REL_ACK`` naming one ``(rseq, repoch)``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from repro.check import probes
from repro.core import protocol


class PendingFrame:
    """One reliable frame awaiting acknowledgement."""

    __slots__ = ("peer", "seq", "payload", "deadline", "interval", "timer",
                 "attempts")

    def __init__(self, peer: str, seq: int, payload: dict,
                 deadline: Optional[float], interval: float) -> None:
        self.peer = peer
        self.seq = seq
        self.payload = payload
        self.deadline = deadline
        self.interval = interval
        self.timer = None
        self.attempts = 0


class _PeerWindow:
    """Receive-side dedup state for one (peer, epoch)."""

    __slots__ = ("seen", "order", "capacity")

    def __init__(self, capacity: int) -> None:
        self.seen: set[int] = set()
        self.order: deque = deque()
        self.capacity = capacity

    def check_and_add(self, seq: int) -> bool:
        """True iff ``seq`` is fresh (and now recorded)."""
        if seq in self.seen:
            return False
        self.seen.add(seq)
        self.order.append(seq)
        while len(self.order) > self.capacity:
            self.seen.discard(self.order.popleft())
        return True


class ReliableChannel:
    """Per-instance ack/retransmit/dedup machinery.

    One channel serves all of an instance's peers.  Sending is explicit
    (:meth:`send` stamps and tracks the frame); receiving is woven into the
    instance's dispatcher: ``REL_ACK`` frames are fed to :meth:`on_ack`,
    and any arriving frame carrying ``rseq`` goes through
    :meth:`on_receive`, which acks it and reports whether it is fresh.
    """

    def __init__(self, instance) -> None:
        self.instance = instance
        self.config = instance.config
        self.epoch = next(instance.sim.ids("epoch"))
        self._rng = instance.sim.rng(f"reliability/{instance.name}")
        self._next_seq: dict[str, "itertools.count"] = {}
        self._pending: dict[tuple, PendingFrame] = {}
        self._windows: dict[str, dict[int, _PeerWindow]] = {}
        # statistics
        self.sent = 0
        self.retransmits = 0
        self.acked = 0
        self.expired = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        #: Optional ``fn(delay_seconds)`` fed each chosen backoff delay
        #: (installed by ``Observability.observe_reliability``).
        self.backoff_observer = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, peer: str, payload: dict,
             deadline: Optional[float] = None) -> bool:
        """Send ``payload`` reliably; retransmit until acked or ``deadline``.

        ``deadline`` is an *absolute* virtual time, normally the expiry of
        the lease funding the operation.  ``None`` falls back to a window
        of ``config.claim_timeout + config.peer_timeout`` from now — wide
        enough to resolve any claim, still strictly bounded so a dead peer
        can never pin retransmission state forever.

        Returns the underlying ``unicast`` result for the *first*
        transmission attempt (False = peer not visible right now; the
        frame is still queued and will be retried until the deadline —
        the peer may reappear).
        """
        sim = self.instance.sim
        counter = self._next_seq.get(peer)
        if counter is None:
            counter = self._next_seq[peer] = itertools.count(1)
        seq = next(counter)
        payload = dict(payload)
        payload["rseq"] = seq
        payload["repoch"] = self.epoch
        if deadline is None:
            deadline = sim.now + self.config.claim_timeout + self.config.peer_timeout
        pending = PendingFrame(peer, seq, payload, deadline,
                               self.config.retry_initial)
        self._pending[(peer, seq)] = pending
        self.sent += 1
        return self._transmit(pending)

    def _transmit(self, pending: PendingFrame) -> bool:
        sim = self.instance.sim
        pending.attempts += 1
        ok = self.instance.send(pending.peer, pending.payload)
        # Schedule the next attempt (with jitter), but never past deadline.
        delay = pending.interval * (1.0 + self.config.retry_jitter
                                    * self._rng.random())
        if self.backoff_observer is not None:
            self.backoff_observer(delay)
        pending.interval = min(pending.interval * self.config.retry_backoff,
                               self.config.retry_max_interval)
        if pending.deadline is not None and sim.now + delay >= pending.deadline:
            # The next attempt would land after the lease is over: this was
            # the final transmission.  Drop the state at the deadline.
            remaining = max(0.0, pending.deadline - sim.now)
            pending.timer = sim.schedule(remaining, self._give_up, pending)
        else:
            pending.timer = sim.schedule(delay, self._retry, pending)
        return ok

    def _retry(self, pending: PendingFrame) -> None:
        if (pending.peer, pending.seq) not in self._pending:
            return  # acked in the meantime
        self.retransmits += 1
        self.instance.flight_ring.append(
            self.instance.sim.now, "retransmit",
            pending.payload.get("op_id"), pending.payload.get("kind"),
            pending.peer, pending.seq)
        self._transmit(pending)

    def _give_up(self, pending: PendingFrame) -> None:
        if self._pending.pop((pending.peer, pending.seq), None) is not None:
            self.expired += 1
            self.instance.flight_ring.append(
                self.instance.sim.now, "rexpire",
                pending.payload.get("op_id"), pending.payload.get("kind"),
                pending.peer, pending.seq)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_ack(self, peer: str, payload: dict) -> None:
        """A ``REL_ACK`` arrived: stop retransmitting the named frame."""
        if payload.get("repoch") != self.epoch:
            return  # ack addressed to a previous incarnation
        pending = self._pending.pop((peer, payload.get("rseq")), None)
        if pending is not None:
            self.acked += 1
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None

    def on_receive(self, peer: str, payload: dict) -> bool:
        """A reliable data frame arrived: ack it; True iff it is fresh.

        Duplicates (same (epoch, seq) within the window) are re-acked —
        the earlier ack evidently did not make it — but must not be
        dispatched to protocol handlers.
        """
        seq = payload.get("rseq")
        epoch = payload.get("repoch")
        self.acks_sent += 1
        self.instance.send(peer, {"kind": protocol.REL_ACK,
                                  "rseq": seq, "repoch": epoch})
        epochs = self._windows.setdefault(peer, {})
        window = epochs.get(epoch)
        if window is None:
            # Keep at most two epochs per peer: the live one and its
            # predecessor (late frames from before a restart).
            if len(epochs) >= 2:
                oldest = min(epochs)
                if epoch < oldest:
                    return True  # ancient epoch, no state kept; let it pass
                del epochs[oldest]
            window = epochs[epoch] = _PeerWindow(self.config.dedup_window)
        if window.check_and_add(seq):
            if probes.SINK is not None:
                # ``rinc`` is this receiver's own incarnation (its channel
                # epoch): dedup windows are volatile, so the no-dup
                # guarantee is scoped per receiver incarnation — a frame
                # redelivered to a crashed-and-recovered node is ordinary
                # at-least-once behaviour, not a dedup failure.
                probes.emit("rel.dispatch", src=peer,
                            dst=self.instance.name, epoch=epoch, seq=seq,
                            rinc=self.epoch)
            return True
        self.duplicates_dropped += 1
        return False

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Reliable frames still awaiting acknowledgement."""
        return len(self._pending)

    def shutdown(self) -> None:
        """Cancel every retransmission timer (instance going down)."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None
        self._pending.clear()

    def stats(self) -> dict:
        """Plain-dict counters for reports and the CLI."""
        return {
            "sent": self.sent,
            "retransmits": self.retransmits,
            "acked": self.acked,
            "expired": self.expired,
            "duplicates_dropped": self.duplicates_dropped,
            "acks_sent": self.acks_sent,
            "pending": self.pending_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReliableChannel {self.instance.name} epoch={self.epoch} "
                f"pending={self.pending_count}>")
