"""The simulated network: registration, delivery, latency, accounting.

``Network`` holds the nodes, the memoized per-link latencies and the stats
ledger.  Routed data operations run on an
:class:`~repro.net.scheduler.EventScheduler` over this network (same
validation, latency sampling and ledger), which measures completion times
on a simulated clock and optionally carries a per-peer queueing layer
(:mod:`repro.load.model`).  The synchronous :meth:`Network.send` serves the
maintenance protocols (construction exchange, load balancing, merge,
anti-entropy) and the Chord baseline: it validates that the destination is
online, samples the link latency, accounts the message, and returns a
single-hop :class:`~repro.net.trace.Trace`.

``Network`` also hosts cross-cutting overlay policy flags that routing
consults via ``peer.network`` (currently :attr:`Network.route_warming`, the
piggybacked route-cache warming switch).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

from repro.errors import NodeUnreachableError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.node import Node
from repro.net.stats import NetworkStats, StatsFrame
from repro.net.trace import Trace


class Network:
    """A set of registered nodes plus a latency model and a stats ledger."""

    def __init__(self, latency_model: LatencyModel | None = None, seed: int = 0):
        self.latency_model = latency_model or ConstantLatency(0.05)
        self.rng = random.Random(seed)
        self.stats = NetworkStats()
        self.nodes: dict[str, Node] = {}
        self._link_latency: dict[tuple[str, str], float] = {}
        #: When True, routed messages piggyback the learned destination so
        #: transit peers warm their route caches (see repro.pgrid.routing).
        self.route_warming = False
        #: Optional :class:`~repro.load.shedding.HintRegistry`.  When set,
        #: event-scheduled messages piggyback the sender's queue depth and
        #: hint-aware choices (diffusion, routing ties, reject retries) read
        #: from it.  ``pnet.event_driven(..., hints=True)`` manages this.
        self.hints = None

    # -- membership ---------------------------------------------------------

    def register(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NodeUnreachableError(node_id, "unknown node") from None

    def is_online(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.online

    def online_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.online]

    def __len__(self) -> int:
        return len(self.nodes)

    # -- latency ------------------------------------------------------------

    def link_latency(self, src: str, dst: str) -> float:
        """Base latency of the directed link, sampled once then memoized."""
        if src == dst:
            return 0.0
        key = (src, dst)
        base = self._link_latency.get(key)
        if base is None:
            base = self.latency_model.sample_base(self.rng)
            self._link_latency[key] = base
        return base

    def set_link_latency(self, src: str, dst: str, seconds: float, symmetric: bool = True) -> None:
        """Pin the base latency of a link (tests/benchmarks with known delays)."""
        if seconds < 0:
            raise ValueError("latency must be >= 0")
        self._link_latency[(src, dst)] = seconds
        if symmetric:
            self._link_latency[(dst, src)] = seconds

    # -- delivery -----------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, size: int = 1) -> Trace:
        """Deliver one message; return its single-hop trace.

        Raises :class:`NodeUnreachableError` if the destination is offline or
        unknown.  A local "send" (``src == dst``) is free and unaccounted —
        operators use it when the initiating peer is itself responsible for
        a key.
        """
        if src == dst:
            return Trace.ZERO
        dst_node = self.nodes.get(dst)
        if dst_node is None:
            raise NodeUnreachableError(dst, "unknown node")
        if not dst_node.online:
            raise NodeUnreachableError(dst, "node offline")
        latency = self.link_latency(src, dst) + self.latency_model.sample_jitter(self.rng)
        self.stats.record(kind, size)
        return Trace.hop(latency)

    # -- accounting ---------------------------------------------------------

    @contextmanager
    def frame(self) -> Iterator[StatsFrame]:
        """Scope a stats frame: all messages sent inside are attributed to it."""
        frame = self.stats.push_frame()
        try:
            yield frame
        finally:
            self.stats.pop_frame(frame)
