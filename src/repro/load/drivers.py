"""Concurrent workload drivers: many in-flight operations, one shared clock.

The data operations on :class:`~repro.pgrid.network.PGridNetwork` drain the
event heap before returning, so back-to-back calls compose *sequentially* in
simulated time.  To study load they must overlap: a driver schedules every
operation's launch as a simulator event and only drains once, so hundreds of
routed lookups/inserts are in flight together, contending for the same peer
queues.

Two arrival processes:

* :class:`OpenLoopDriver` — Poisson arrivals at a fixed *offered* rate over a
  horizon (open loop: arrivals do not wait for completions, so a saturated
  peer builds a real backlog — the latency knee of benchmark E12);
* :class:`ClosedLoopDriver` — a population of clients that each issue, wait
  for the answer, think, and repeat (closed loop: load self-limits, the
  classic interactive-user model).

Operations route as they launch (hop discovery uses the overlay state *at
launch time*), pick keys Zipf-skewed so popular keys create hot regions, and
optionally spread reads over replica groups
(:func:`~repro.load.diffusion.diffuse_route`).  Every message goes through
the scheduler: a route's hops through
:meth:`~repro.net.scheduler.EventScheduler.chain`, the reply or the replica
pushes through :meth:`~repro.net.scheduler.EventScheduler.gather`.  The
chain's continuations decide what happens off the happy path:

* a *dead hop* (``on_dead``: the peer is offline as the hop departs, or
  died while the message was in flight or queued) re-routes the operation
  from that hop's sender, at most :data:`MAX_REROUTES` times;
* a *shed hop* (``on_rejected``: admission control NACKed it) retries
  another replica-group member when the final hop was shed, and re-routes
  from the sender otherwise, at most :data:`MAX_REJECT_RETRIES` times;
* a route that dead-ends still sends the hops it travelled (they stop at a
  dead hop), and the operation fails with the routing error.

Churn composes: a :class:`~repro.net.churn.ChurnModel` session trace can be
replayed on the same simulator (``run(churn_trace=...)``).  No in-flight
operation is ever silently lost: every :class:`OpRecord` ends completed or
failed, deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.bench.harness import mean, percentile
from repro.bench.workloads import poisson_arrivals, zipf_cumulative, zipf_rank
from repro.errors import RoutingError
from repro.load.diffusion import POLICIES, diffuse_route, pick_member
from repro.net.churn import ChurnEvent, ChurnModel
from repro.net.scheduler import EventScheduler
from repro.pgrid.datastore import Entry
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route_hops

#: A flapping overlay could re-route an operation forever; bound it.
MAX_REROUTES = 8

#: Retry budget after admission-control rejects: a rejected operation tries
#: other replica-group members (then fails *reported*, never silently).
MAX_REJECT_RETRIES = 5


@dataclass
class OpRecord:
    """One driven operation, from issue to completion (or failure)."""

    index: int
    kind: str  # "lookup" | "insert"
    key: str
    issued: float
    completed: float | None = None
    ok: bool = False
    entries: int = 0
    reroutes: int = 0
    rejections: int = 0
    rejected_by: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def latency(self) -> float:
        """Issue-to-completion time (the client-observed answer time)."""
        if self.completed is None:
            raise ValueError(f"operation #{self.index} never completed")
        return self.completed - self.issued


def completed_latencies(records: list[OpRecord]) -> list[float]:
    """Latencies of the successfully completed operations."""
    return [r.latency for r in records if r.ok]


def summarize(records: list[OpRecord]) -> dict:
    """Mean/median/p95/p99/max latency plus completion and shed counts."""
    latencies = completed_latencies(records)
    return {
        "ops": len(records),
        "ok": sum(1 for r in records if r.ok),
        "failed": sum(1 for r in records if r.completed is not None and not r.ok),
        "rejections": sum(r.rejections for r in records),
        "mean": mean(latencies),
        "p50": percentile(latencies, 50.0),
        "p95": percentile(latencies, 95.0),
        "p99": percentile(latencies, 99.0),
        "max": max(latencies, default=0.0),
    }


def goodput(records: list[OpRecord], slo: float, horizon: float) -> float:
    """Useful throughput: completed-in-time operations per second.

    Only operations that succeeded *and* answered within ``slo`` seconds
    count — the currency of benchmark E12d, where shedding trades a few
    reported failures for keeping the admitted work fast.
    """
    if slo <= 0 or horizon <= 0:
        raise ValueError("slo and horizon must be > 0")
    good = sum(1 for r in records if r.ok and r.latency <= slo)
    return good / horizon


@dataclass(slots=True)
class _Op:
    """One driven operation in flight: route, walk, reroute, retry, finish.

    Holds what every step needs — the record, the initiating peer, the
    current route and the completion hook — so the hop continuations handed
    to :meth:`EventScheduler.chain` are plain bound methods.  Every hop and
    follow-up is sent as a ``"lookup"`` (inserts and replica pushes too) and
    every reply as a ``"result"``.
    """

    driver: _DriverBase
    record: OpRecord
    origin: PGridPeer
    on_done: Callable[[OpRecord], None] | None
    destination: PGridPeer | None = None
    hops: list[tuple[str, str]] | None = None

    def route(self, current: PGridPeer, time: float) -> None:
        """Discover (and maybe diffuse) a route from ``current``, then walk it."""
        driver = self.driver
        try:
            destination, hops = route_hops(current, point_key(self.record.key), rng=driver.rng)
        except RoutingError as error:
            # The partial hops were travelled before the dead end; send them
            # (the chain just ends at a dead hop) so message totals stay honest.
            partial = getattr(error, "hops", [])
            driver.scheduler.chain(partial, "lookup", at=time, on_dead=lambda _i, _t: None)
            self.finish(time, ok=False, error=str(error))
            return
        if self.record.kind == "lookup":
            destination, hops = diffuse_route(
                destination,
                hops,
                policy=driver.diffusion,
                rng=driver.rng,
                load=driver.scheduler.load,
                now=time,
                hints=driver.pnet.net.hints,
                observer=self.origin.node_id,
            )
        self.walk(destination, hops, time)

    def walk(self, destination: PGridPeer, hops: list[tuple[str, str]], time: float) -> None:
        """Send ``hops`` towards ``destination``; a local operation arrives now."""
        self.destination = destination
        self.hops = hops
        if not hops:
            self.arrive(time)
            return
        self.driver.scheduler.chain(
            hops,
            "lookup",
            at=time,
            on_done=self.arrive,
            on_dead=self.dead,
            on_rejected=self.rejected,
        )

    def dead(self, index: int, time: float) -> None:
        """Hop ``index``'s peer was offline at departure or died before
        serving it; its work is redone from the hop's sender."""
        self.reroute(self.hops[index][0], time)

    def rejected(self, index: int, time: float) -> None:
        """The peer of hop ``index`` shed this operation; retry elsewhere.

        A reject at the *final* hop retries another member of the responsible
        replica group (every member holds the data); a reject at a transit
        hop re-routes from the last live peer, where hint-aware reference
        choice steers the new route around the saturated peer.  Both paths
        are bounded by :data:`MAX_REJECT_RETRIES`; exhausting the budget
        fails the operation *reported* (``error="rejected…"``), never
        silently.
        """
        record = self.record
        src_id, dst_id = self.hops[index]
        record.rejections += 1
        record.rejected_by.append(dst_id)
        if record.rejections > MAX_REJECT_RETRIES:
            self.finish(time, ok=False, error="rejected: retry budget exhausted")
            return
        src = self.driver.pnet.net.nodes.get(src_id)
        if src is None or not src.online:
            self.reroute(src_id, time)
            return
        final_hop = index == len(self.hops) - 1 and dst_id == self.destination.node_id
        if final_hop and record.kind == "lookup":
            alternative = self.alternative_member(src_id)
            if alternative is not None:
                self.walk(alternative, [(src_id, alternative.node_id)], time)
                return
            self.finish(time, ok=False, error="rejected: no replica admitted")
            return
        # Transit-hop reject (or a shed write): route again from the sender.
        self.route(src, time)

    def alternative_member(self, chooser_id: str) -> PGridPeer | None:
        """An untried replica-group member to retry a shed read at.

        The chooser is the peer that received the reject NACK and sends the
        retry hop; its hint table is ranked when a registry is attached (the
        NACK itself just delivered the rejector's depth to it, and on the
        common cache-hit direct route the chooser *is* the reply-fed
        gateway).  The oracle ranks under the ``least-busy-oracle``
        diffusion policy; otherwise the pick is uniform.
        """
        from repro.pgrid.replication import online_group  # deferred: pgrid imports load

        driver, tried = self.driver, self.record.rejected_by
        members = [p for p in online_group(self.destination) if p.node_id not in tried]
        if not members:
            return None
        hints = driver.pnet.net.hints
        if driver.diffusion == "least-busy-oracle":
            policy = "least-busy-oracle"
        elif hints is not None:
            policy = "least-busy"
        else:
            policy = "random"
        return pick_member(
            members,
            policy,
            rng=driver.rng,
            load=driver.scheduler.load,
            now=driver.scheduler.now,
            hints=hints,
            observer=chooser_id,
        )

    def reroute(self, from_id: str, time: float) -> None:
        """Re-route after a mid-flight failure, from the last live hop."""
        record = self.record
        record.reroutes += 1
        if record.reroutes > MAX_REROUTES:
            self.finish(time, ok=False, error="too many reroutes")
            return
        peer = self.driver.pnet.net.nodes.get(from_id)
        if peer is None or not peer.online or not isinstance(peer, PGridPeer):
            peer = self.origin if self.origin.online else None
        if peer is None:
            self.finish(time, ok=False, error="initiator offline")
            return
        self.route(peer, time)

    def arrive(self, time: float) -> None:
        """Destination work: store and push an insert, or answer a lookup."""
        record, destination, origin = self.record, self.destination, self.origin
        scheduler = self.driver.scheduler
        if record.kind == "insert":
            pnet = self.driver.pnet
            entry = Entry(
                key=record.key,
                item_id=f"drv-{record.index}",
                value=f"v{record.index}",
                version=pnet.next_version(),
            )
            destination.store.put(entry)
            pushes = []
            for replica_id in destination.online_replicas():
                pnet.net.nodes[replica_id].store.put(entry)
                pushes.append((destination.node_id, replica_id, "lookup", 1))
            scheduler.gather(time, pushes, self.finish)
            return
        entries = destination.store.get(record.key)
        record.entries = len(entries)
        if destination is origin:
            self.finish(time)
        elif not origin.online:
            self.finish(time, ok=False, error="initiator offline")
        else:
            reply = (destination.node_id, origin.node_id, "result", max(1, len(entries)))
            scheduler.gather(time, [reply], self.finish)

    def finish(self, time: float, ok: bool = True, error: str | None = None) -> None:
        record = self.record
        record.completed = time
        record.ok = ok
        record.error = error
        if self.on_done is not None:
            self.on_done(record)


class _DriverBase:
    """Common setup and per-run state: key sampling, gateway choice, churn
    replay, and the records of the operations launched so far."""

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        key_skew: float = 0.0,
        insert_fraction: float = 0.0,
        gateways: list[PGridPeer] | None = None,
        diffusion: str = "none",
        seed: int = 0,
    ):
        if not keys:
            raise ValueError("need at least one key to drive")
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be in [0, 1]")
        if diffusion not in POLICIES:
            raise ValueError(f"unknown diffusion policy {diffusion!r} (use one of {POLICIES})")
        self.pnet = pnet
        self.keys = list(keys)
        self.key_skew = key_skew
        self.insert_fraction = insert_fraction
        self.gateways = list(gateways) if gateways else None
        self.diffusion = diffusion
        self.rng = random.Random(seed)
        self._key_cumulative = zipf_cumulative(len(self.keys), key_skew)
        self.scheduler: EventScheduler | None = None
        self.records: list[OpRecord] = []

    def _pick_key(self) -> str:
        return self.keys[zipf_rank(self._key_cumulative, self.rng.random())]

    def _pick_kind(self) -> str:
        if self.insert_fraction and self.rng.random() < self.insert_fraction:
            return "insert"
        return "lookup"

    def _pick_gateway(self) -> PGridPeer:
        if self.gateways:
            candidates = [p for p in self.gateways if p.online]
            if candidates:
                return self.rng.choice(candidates)
        return self.pnet.random_online_peer(self.rng)

    def _begin(self, churn_trace: list[ChurnEvent] | None) -> EventScheduler:
        """Start a run on the attached scheduler and replay ``churn_trace``.

        Churn event times are relative to the run start (the scheduler clock
        is monotone across operations, so they are shifted onto it).
        """
        scheduler = self.pnet.scheduler
        if scheduler is None:
            raise ValueError("drivers need event-driven execution: use pnet.event_driven()")
        self.scheduler = scheduler
        self.records = []
        if churn_trace:
            offset = scheduler.now
            shifted = [replace(event, time=event.time + offset) for event in churn_trace]
            ChurnModel(list(self.pnet.peers), seed=0).apply_trace(scheduler.sim, shifted)
        return scheduler

    def _launch(self, record: OpRecord, start: PGridPeer, on_done=None) -> None:
        """Start one operation now; ``on_done(record)`` fires at completion."""
        self.records.append(record)
        _Op(self, record, start, on_done).route(start, self.scheduler.now)


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at ``rate`` ops/s for ``horizon`` simulated seconds.

    Open loop: the arrival process never waits, so offered load is exact and
    overload shows up as queueing delay (and, past saturation, as a backlog
    that keeps draining after the last arrival).
    """

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        rate: float,
        horizon: float,
        **kwargs,
    ):
        super().__init__(pnet, keys, **kwargs)
        if rate <= 0 or horizon <= 0:
            raise ValueError("rate and horizon must be > 0")
        self.rate = rate
        self.horizon = horizon

    def run(self, churn_trace: list[ChurnEvent] | None = None) -> list[OpRecord]:
        scheduler = self._begin(churn_trace)
        start_time = scheduler.now
        for index, offset in enumerate(poisson_arrivals(self.rng, self.rate, self.horizon)):
            t = start_time + offset
            record = OpRecord(index=index, kind=self._pick_kind(), key=self._pick_key(), issued=t)

            def fire(record: OpRecord = record) -> None:
                self._launch(record, self._pick_gateway())

            scheduler.sim.schedule_at(t, fire)
        scheduler.run()
        return self.records


class ClosedLoopDriver(_DriverBase):
    """``clients`` users issuing ``ops_per_client`` ops with think time.

    Closed loop: each client waits for its answer (plus ``think_time``)
    before issuing again, so in-flight operations are bounded by the client
    population and load self-limits near saturation.
    """

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        clients: int = 8,
        ops_per_client: int = 10,
        think_time: float = 0.0,
        **kwargs,
    ):
        super().__init__(pnet, keys, **kwargs)
        if clients < 1 or ops_per_client < 1:
            raise ValueError("need at least one client and one op per client")
        if think_time < 0:
            raise ValueError("think time must be >= 0")
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.think_time = think_time

    def run(self, churn_trace: list[ChurnEvent] | None = None) -> list[OpRecord]:
        scheduler = self._begin(churn_trace)
        def issue(remaining: int) -> None:
            record = OpRecord(
                index=len(self.records),
                kind=self._pick_kind(),
                key=self._pick_key(),
                issued=scheduler.now,
            )

            def done(_record: OpRecord) -> None:
                if remaining > 1:
                    scheduler.sim.schedule(self.think_time, lambda: issue(remaining - 1))

            self._launch(record, self._pick_gateway(), on_done=done)

        start_time = scheduler.now
        for _client in range(self.clients):
            # Stagger client starts slightly so launch order is not degenerate.
            scheduler.sim.schedule_at(
                start_time + self.rng.uniform(0.0, 1e-3),
                lambda: issue(self.ops_per_client),
            )
        scheduler.run()
        return self.records
