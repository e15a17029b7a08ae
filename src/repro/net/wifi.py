"""Ad-hoc WiFi cell: shared half-duplex medium with lossy UDP broadcast.

One :class:`WifiCell` per region.  Key modelling choices, each grounded in
the paper:

* **Half-duplex shared channel.** All transmissions in a region serialize
  through one channel (`Resource(capacity=1)`).  Checkpoint traffic
  therefore steals airtime from data tuples — this *is* the fault-tolerance
  throughput overhead of Fig. 8.
* **Broadcast reaches everyone for one transmission.**  A UDP broadcast of
  N blocks costs N block-times of airtime regardless of receiver count;
  unicasting the same data to k receivers costs k×N.  MobiStreams'
  advantage over dist-n follows directly.
* **Per-receiver datagram loss.**  Each member has its own loss process;
  reception bitmaps differ per receiver exactly as in Fig. 6.
* **TCP-like reliable unicast** is modelled as goodput derated by the
  channel's expected loss (retransmissions occupy airtime), plus a small
  per-message latency.

Members register a delivery callback; a phone that leaves the cell simply
stops being reachable, which upper layers observe as broken links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

import numpy as np

from repro.net.loss import BernoulliLoss, LossModel
from repro.net.packet import MTU, Message
from repro.sim.resources import Resource
from repro.util.units import Mbps, transmission_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace
    from repro.sim.rng import RngRegistry

DeliverFn = Callable[[Message], None]


class Unreachable(Exception):
    """Raised when the destination is not a member of the cell."""


@dataclass
class WifiConfig:
    """Tunable parameters of an ad-hoc WiFi cell.

    Defaults follow Section IV: "the measured bandwidth of the ad-hoc WiFi
    network in each region is 1∼5 Mbps"; we default to the middle of that
    band with ~8% datagram loss.
    """

    bandwidth_bps: float = Mbps(2.0)
    #: One-way propagation + stack latency per message.
    latency_s: float = 0.002
    #: Factory producing a fresh loss model per receiver.
    loss_factory: Callable[[], LossModel] = field(
        default_factory=lambda: (lambda: BernoulliLoss(0.08))
    )
    #: Estimated mean loss used to derate reliable-transfer goodput.
    mean_loss: float = 0.08
    #: Per-message protocol overhead in bytes (UDP/IP headers).
    header_bytes: int = 28

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.mean_loss < 1.0:
            raise ValueError("mean_loss must be in [0, 1)")


@dataclass
class BroadcastRoundResult:
    """Outcome of one UDP broadcast round (one sender, many receivers)."""

    #: Map receiver id -> bool array over the *indices sent this round*.
    received: Dict[Any, np.ndarray]
    #: Airtime bytes actually transmitted this round (blocks + headers).
    bytes_sent: int
    #: Wall (virtual) duration of the round.
    duration: float


class WifiCell:
    """The shared ad-hoc WiFi medium of one region."""

    def __init__(
        self,
        sim: "Simulator",
        rng: "RngRegistry",
        config: Optional[WifiConfig] = None,
        name: str = "wifi",
        trace: Optional["Trace"] = None,
    ) -> None:
        self.sim = sim
        self.config = config or WifiConfig()
        self.name = name
        self.trace = trace
        self.channel = Resource(sim, capacity=1)
        self._members: Dict[Any, DeliverFn] = {}
        self._loss: Dict[Any, LossModel] = {}
        self._rng = rng.stream(f"{name}.loss")
        # Uniform-loss cache for the batched broadcast draw: the shared
        # Bernoulli p when every member's model is a plain BernoulliLoss
        # with the same p (the default config), else None.  Recomputed
        # lazily after membership changes.
        self._uniform_p: Optional[float] = None
        self._uniform_dirty = True
        # Pre-resolved counter handles: the per-transmission f-string key
        # build plus two dict lookups used to run on every datagram.
        if trace is not None:
            self._bytes_total = trace.counter("net.wifi.bytes")
            self._bytes_cell = trace.counter(f"net.wifi.{name}.bytes")
        else:
            self._bytes_total = None
            self._bytes_cell = None

    # -- membership -------------------------------------------------------
    def iter_members(self):
        """Iterate member ids without copying.

        The view is live: callers must not join/leave the cell while
        iterating (none of the protocol code does).
        """
        return iter(self._members)

    @property
    def member_count(self) -> int:
        """Number of phones currently in the cell."""
        return len(self._members)

    def join(self, member_id: Any, deliver: DeliverFn) -> None:
        """Add a phone to the cell with its delivery callback.

        The member's loss model (created here on first join) must not be
        mutated in place afterwards — the batched broadcast path caches
        the shared Bernoulli p and would keep drawing with the stale
        value.  Use :meth:`set_loss` to change a member's channel.
        """
        self._members[member_id] = deliver
        self._uniform_dirty = True
        if member_id not in self._loss:
            self._loss[member_id] = self.config.loss_factory()

    def leave(self, member_id: Any) -> None:
        """Remove a phone (departure or failure); silently idempotent."""
        self._members.pop(member_id, None)
        self._uniform_dirty = True

    def set_loss(self, member_id: Any, model: LossModel) -> None:
        """Replace ``member_id``'s loss model.

        The only supported way to change a member's channel after join:
        it invalidates the uniform-loss cache so the batched and
        per-member broadcast paths stay in agreement.
        """
        self._loss[member_id] = model
        self._uniform_dirty = True

    def is_member(self, member_id: Any) -> bool:
        """Whether a phone is currently reachable in the cell."""
        return member_id in self._members

    def _uniform_loss_p(self) -> Optional[float]:
        """Shared Bernoulli p when every member's loss model allows the
        batched draw (plain :class:`BernoulliLoss`, equal p), else None.

        Cached across rounds and invalidated by join/leave/set_loss;
        mutating a model's ``p`` in place bypasses the invalidation (see
        :meth:`join`)."""
        if self._uniform_dirty:
            p: Optional[float] = None
            for member_id in self._members:
                model = self._loss[member_id]
                if type(model) is not BernoulliLoss:
                    p = None
                    break
                if p is None:
                    p = model.p
                elif model.p != p:
                    p = None
                    break
            self._uniform_p = p
            self._uniform_dirty = False
        return self._uniform_p

    # -- timing helpers ----------------------------------------------------
    def tx_time(self, size: int) -> float:
        """Airtime for ``size`` bytes (headers included by the caller)."""
        return transmission_time(size, self.config.bandwidth_bps)

    def _count(self, n_bytes: float) -> None:
        total = self._bytes_total
        if total is not None:
            total.add(n_bytes)
            self._bytes_cell.add(n_bytes)

    # -- datagram (UDP) ----------------------------------------------------
    def udp_unicast(self, msg: Message):
        """Process: send one unreliable datagram. Returns True if delivered.

        The datagram occupies the channel for its airtime; delivery is then
        subject to the receiver's loss process and membership.
        """
        size = msg.size + self.config.header_bytes
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(self.tx_time(size))
        finally:
            self.channel.release(req)
        self._count(size)
        msg.created_at = self.sim.now
        deliver = self._members.get(msg.dst)
        if deliver is None:
            return False
        if not self._loss[msg.dst].sample_one(self._rng):
            return False
        self.sim.call_in(self.config.latency_s, deliver, msg)
        return True

    def udp_broadcast_round(
        self,
        sender: Any,
        indices: np.ndarray,
        block_size: int,
        last_block_size: Optional[int] = None,
        kind: str = "ckpt_block",
        payload: Any = None,
    ):
        """Process: broadcast the datagrams at ``indices`` to all members.

        Models one *phase* of Section III-C: the sender pushes every listed
        block back-to-back; each receiver's loss process independently
        decides which blocks it hears.  Returns a
        :class:`BroadcastRoundResult` whose bitmaps are aligned with
        ``indices``.

        ``last_block_size`` is the wire size of the final block of the
        overall transfer (the paper: "the last block may be less than
        1KB"); it is charged only when ``indices`` includes that block —
        callers pass the block count so we only need sizes here.
        """
        indices = np.asarray(indices)
        n = int(indices.size)
        if n == 0:
            return BroadcastRoundResult(
                received={m: np.zeros(0, dtype=bool) for m in self._members if m != sender},
                bytes_sent=0,
                duration=0.0,
            )
        hdr = self.config.header_bytes
        sizes = np.full(n, block_size + hdr, dtype=float)
        if last_block_size is not None and last_block_size != block_size:
            # indices are positions in the full transfer; the final block
            # is the one with the largest index value.
            last_pos = int(np.argmax(indices))
            sizes[last_pos] = last_block_size + hdr
        total_bytes = float(sizes.sum())

        start = self.sim.now
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(transmission_time(total_bytes, self.config.bandwidth_bps))
        finally:
            self.channel.release(req)
        self._count(total_bytes)

        # A datagram above the link MTU fragments, and one lost fragment
        # drops the whole datagram (the paper's case for 1 KB blocks):
        # sample the loss process at *fragment* granularity and AND the
        # fragments of each datagram.  Single-fragment datagrams (the
        # default 1 KB blocks) reduce to one sample per datagram.
        frags = np.maximum(1, np.ceil(sizes / MTU).astype(int))
        total_frags = int(frags.sum())
        starts = np.cumsum(frags) - frags
        received: Dict[Any, np.ndarray] = {}
        # No yields below this point, so membership cannot change under
        # us: iterate the live dict instead of copying it every round.
        uniform_p = self._uniform_loss_p()
        if uniform_p is not None and self.member_count > (1 if sender in self._members else 0):
            # Batched draw: one 2-D sample for all receivers.  PCG64
            # fills a (receivers, frags) array in row-major order, i.e.
            # exactly the doubles the per-member loop would have drawn
            # member by member — bit-identical bitmaps, one numpy call.
            receivers = [m for m in self._members if m != sender]
            frag_ok = self._rng.random((len(receivers), total_frags)) >= uniform_p
            bitmaps = np.logical_and.reduceat(frag_ok, starts, axis=1)
            for row, member_id in enumerate(receivers):
                received[member_id] = bitmaps[row]
        else:
            # Heterogeneous (or stateful, e.g. Gilbert-Elliott) loss
            # models need their per-member sample() calls.
            for member_id in self._members:
                if member_id == sender:
                    continue
                frag_ok = self._loss[member_id].sample(total_frags, self._rng)
                received[member_id] = np.logical_and.reduceat(frag_ok, starts)
        return BroadcastRoundResult(
            received=received,
            bytes_sent=int(total_bytes),
            duration=self.sim.now - start,
        )

    # -- reliable (TCP-like) -------------------------------------------------
    def reliable_goodput(self) -> float:
        """Effective bits/s of a reliable transfer (loss-derated)."""
        return self.config.bandwidth_bps * (1.0 - self.config.mean_loss)

    def tcp_unicast(self, msg: Message):
        """Process: reliably deliver ``msg`` to ``msg.dst``.

        Occupies the channel for the loss-derated transfer time (the
        retransmissions are airtime too).  Raises :class:`Unreachable` if
        the destination is not (or no longer) a member.
        """
        if msg.dst not in self._members:
            raise Unreachable(f"{msg.dst} is not in cell {self.name}")
        size = msg.size + self.config.header_bytes
        air_time = transmission_time(size, self.reliable_goodput())
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(air_time)
        finally:
            self.channel.release(req)
        self._count(size / (1.0 - self.config.mean_loss))
        deliver = self._members.get(msg.dst)
        if deliver is None:
            # Destination left mid-transfer.
            raise Unreachable(f"{msg.dst} left cell {self.name} during transfer")
        msg.created_at = self.sim.now
        self.sim.call_in(self.config.latency_s, deliver, msg)
        return True

    def control_exchange(self, a: Any, b: Any, size_bytes: int):
        """Process: a small reliable request/response pair between members.

        Used for bitmap queries: sender asks, receiver answers.  Charges
        two messages of ``size_bytes`` total; raises :class:`Unreachable`
        if either endpoint is gone.
        """
        if a not in self._members or b not in self._members:
            raise Unreachable(f"{a} or {b} not in cell {self.name}")
        size = size_bytes + 2 * self.config.header_bytes
        air_time = transmission_time(size, self.reliable_goodput())
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(air_time + 2 * self.config.latency_s)
        finally:
            self.channel.release(req)
        self._count(size)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WifiCell {self.name} members={len(self._members)}>"
