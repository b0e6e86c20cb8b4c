"""Message and byte accounting.

The paper's evaluation currency is *messages* and *hops* (its guarantees are
"logarithmic" in these) plus wall-clock answer time.  ``NetworkStats`` is the
global ledger attached to a :class:`~repro.net.network.Network`;
``StatsFrame`` is a scoped sub-ledger used to attribute traffic to a single
query or experiment phase::

    with net.frame() as f:
        store.query(...)
    print(f.messages, f.bytes)

Frames nest; every active frame sees every message.

Messages delivered by the event scheduler carry a simulated-time
timestamp (``record(..., at=...)``); a frame then also tracks the first and
last delivery instants it saw, so a query frame reports its simulated span
(:attr:`StatsFrame.completion_time`) alongside its message counts.

When a load model is attached (:mod:`repro.load.model`), every serviced
message additionally reports its queueing delay and service time through
:meth:`NetworkStats.record_service`, aggregated per peer into
:class:`QueueLedger` entries; admission-control outcomes
(:mod:`repro.load.shedding`) are counted per peer through
:meth:`NetworkStats.record_reject` / :meth:`NetworkStats.record_defer`.
:meth:`StatsFrame.snapshot` includes the queueing fields *only when a load
model produced them* and the shed counters *only when something was shed*
— runs without a load model keep their historical, byte-for-byte identical
snapshot, so the E1–E11 result tables
stay comparable with prior PRs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class QueueLedger:
    """Per-peer queueing totals inside one stats frame."""

    jobs: int = 0
    busy: float = 0.0
    wait: float = 0.0
    sojourn: float = 0.0
    max_depth: int = 0

    def record(self, wait: float, service: float, depth: int) -> None:
        self.jobs += 1
        self.busy += service
        self.wait += wait
        self.sojourn += wait + service
        self.max_depth = max(self.max_depth, depth + 1)


@dataclass
class StatsFrame:
    """A scoped ledger of messages/bytes, broken down by message kind."""

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    first_time: float | None = None
    last_time: float | None = None
    queueing: dict[str, QueueLedger] = field(default_factory=dict)
    rejects: Counter = field(default_factory=Counter)
    deferrals: Counter = field(default_factory=Counter)

    def record(self, kind: str, size: int, at: float | None = None) -> None:
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        if at is not None:
            if self.first_time is None or at < self.first_time:
                self.first_time = at
            if self.last_time is None or at > self.last_time:
                self.last_time = at

    @property
    def completion_time(self) -> float:
        """Latest simulated delivery instant seen (0.0 if never timestamped)."""
        return self.last_time if self.last_time is not None else 0.0

    @property
    def span(self) -> float:
        """Simulated time between the first and last timestamped delivery."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def record_service(self, node_id: str, wait: float, service: float, depth: int) -> None:
        """Account one serviced message's queueing delay at ``node_id``."""
        ledger = self.queueing.get(node_id)
        if ledger is None:
            ledger = self.queueing[node_id] = QueueLedger()
        ledger.record(wait, service, depth)

    def record_reject(self, node_id: str) -> None:
        """Count one admission-control rejection at ``node_id``."""
        self.rejects[node_id] += 1

    def record_defer(self, node_id: str) -> None:
        """Count one admission-control deferral (park round) at ``node_id``."""
        self.deferrals[node_id] += 1

    @property
    def total_rejects(self) -> int:
        """Rejections across all peers in this frame."""
        return sum(self.rejects.values())

    @property
    def total_deferrals(self) -> int:
        """Deferrals across all peers in this frame."""
        return sum(self.deferrals.values())

    def snapshot(self) -> dict:
        """Return a plain-dict summary (stable for logging/tests).

        Queueing fields appear only when a load model serviced messages in
        this frame, and shed counters only when admission control actually
        rejected or deferred something; without either the output is
        byte-for-byte what it was before those subsystems existed.
        """
        snap = {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_kind": dict(self.by_kind),
        }
        if self.rejects:
            snap["rejects"] = dict(sorted(self.rejects.items()))
        if self.deferrals:
            snap["deferrals"] = dict(sorted(self.deferrals.items()))
        if self.queueing:
            snap["queueing"] = {
                node_id: {
                    "jobs": ledger.jobs,
                    "busy": ledger.busy,
                    "wait": ledger.wait,
                    "sojourn": ledger.sojourn,
                    "max_depth": ledger.max_depth,
                }
                for node_id, ledger in sorted(self.queueing.items())
            }
        return snap


class NetworkStats:
    """Global ledger plus the stack of active frames."""

    def __init__(self) -> None:
        self.total = StatsFrame()
        self._frames: list[StatsFrame] = []

    def record(self, kind: str, size: int, at: float | None = None) -> None:
        self.total.record(kind, size, at=at)
        for frame in self._frames:
            frame.record(kind, size, at=at)

    def record_service(self, node_id: str, wait: float, service: float, depth: int) -> None:
        """Account one serviced message (load model active) in every frame."""
        self.total.record_service(node_id, wait, service, depth)
        for frame in self._frames:
            frame.record_service(node_id, wait, service, depth)

    def record_reject(self, node_id: str) -> None:
        """Account one admission-control rejection in every frame."""
        self.total.record_reject(node_id)
        for frame in self._frames:
            frame.record_reject(node_id)

    def record_defer(self, node_id: str) -> None:
        """Account one admission-control deferral in every frame."""
        self.total.record_defer(node_id)
        for frame in self._frames:
            frame.record_defer(node_id)

    def push_frame(self) -> StatsFrame:
        frame = StatsFrame()
        self._frames.append(frame)
        return frame

    def pop_frame(self, frame: StatsFrame) -> None:
        if not self._frames or self._frames[-1] is not frame:
            raise ValueError("stats frames must be popped in LIFO order")
        self._frames.pop()

    @property
    def messages(self) -> int:
        return self.total.messages

    @property
    def bytes(self) -> int:
        return self.total.bytes

    def reset(self) -> None:
        """Clear the global ledger (active frames are left untouched)."""
        self.total = StatsFrame()
