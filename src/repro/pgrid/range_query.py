"""Range queries over the P-Grid key space (paper §2).

Because P-Grid's hash function is order preserving, a key range maps to a
contiguous band of trie leaves.  Two classic algorithms are implemented, the
trade-off the paper's cost-model/strategy discussion builds on:

* **sequential (min-max) traversal** — route to the leaf holding the lower
  bound, then walk leaf-by-leaf to the right.  Messages ≈ log N + L,
  *latency* ≈ (log N + L) hops because the walk is serial (L = number of
  leaves intersecting the range).

* **shower** — the query fans out down the trie: each receiving peer serves
  its local slice and forwards sub-ranges to references covering the other
  intersecting subtrees, in parallel.  Messages are comparable, but the
  critical path stays logarithmic, so latency is much lower for wide ranges.

Both return ``(entries, trace, complete)`` — ``complete`` is False when some
subtree was unreachable (all its replicas offline), matching the paper's
best-effort guarantee discussion.

The shower first chooses its fan-out tree, then runs it as interleaved
events on the overlay's scheduler (:meth:`PGridNetwork.clock`): every edge
departs when its parent actually received the query, sibling subtrees race
each other, and the query completes when the last result funnels back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.net.scheduler import EventScheduler
from repro.net.trace import Trace
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange, increment_path
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route


def range_query_shower(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[Entry], Trace, bool]:
    """Parallel (shower) range query; results funnel back to the initiator."""
    return _shower(pnet, key_range, start, rng, kind, collect=True, groups=None)


def range_query_shower_groups(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[tuple[str, list[Entry]]], Trace, bool]:
    """Shower range query in *produce* mode: results stay at the serving peers.

    Returns ``(groups, trace, complete)`` where groups are
    ``(peer_id, entries)`` pairs; the trace covers the forward fan-out only.
    Physical operators use this to choose their own data flow afterwards.
    """
    groups: list[tuple[str, list[Entry]]] = []
    _entries, trace, complete = _shower(
        pnet, key_range, start, rng, kind, collect=False, groups=groups
    )
    return groups, trace, complete


@dataclass
class _ShowerNode:
    """One visited peer in a pre-expanded shower fan-out tree."""

    peer: PGridPeer
    cover: str
    local: list[Entry]
    children: list["_ShowerNode"] = field(default_factory=list)
    complete: bool = True


def _expand_shower(
    pnet: PGridNetwork,
    peer: PGridPeer,
    key_range: KeyRange,
    cover: str,
    rng: random.Random,
) -> _ShowerNode:
    """Choose the fan-out tree from ``peer`` without sending anything.

    ``peer``'s own leaf lies inside ``cover``; for every complementary
    subtree at levels >= len(cover) that intersects the range, one reference
    is drawn (depth first), which then covers that subtree.
    """
    node = _ShowerNode(peer=peer, cover=cover, local=peer.store.scan(key_range))
    for level in range(len(cover), len(peer.path)):
        subtree = peer.required_prefix(level)
        if not key_range.intersects_path(subtree):
            continue
        refs = peer.valid_refs(level)
        if not refs:
            node.complete = False
            continue
        ref_id = rng.choice(refs)
        child_peer = pnet.net.nodes[ref_id]
        assert isinstance(child_peer, PGridPeer)
        child = _expand_shower(pnet, child_peer, key_range, subtree, rng)
        node.children.append(child)
        node.complete = node.complete and child.complete
    return node


def _shower_cost(node: _ShowerNode, collect: bool) -> tuple[int, int]:
    """(total messages, critical-path hops) of a fan-out tree."""
    per_edge = 2 if collect else 1  # forward edge, plus the funnel-back edge
    messages = 0
    critical = 0
    for child in node.children:
        child_messages, child_critical = _shower_cost(child, collect)
        messages += per_edge + child_messages
        critical = max(critical, per_edge + child_critical)
    return messages, critical


def _shower(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None,
    rng: random.Random | None,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace, bool]:
    """Run a shower fan-out as interleaved events on the simulated clock.

    Each tree edge departs at the instant its parent received the query, so
    sibling subtrees race; with ``collect`` the results funnel back along
    the tree (one send per edge, sized by the subtree's result) and a node
    completes when its slowest child's reply lands; otherwise results stay
    at the serving peers and are appended to ``groups``.  The returned trace
    carries the *measured* latency and completion time.
    """
    start = start or pnet.random_online_peer()
    tree = _expand_shower(pnet, start, key_range, cover="", rng=rng or pnet.rng)
    messages, critical_hops = _shower_cost(tree, collect)
    with pnet.clock() as scheduler:
        start_time = scheduler.now
        outcome: dict[str, object] = {"entries": [], "time": start_time}

        def finished(entries: list[Entry], time: float) -> None:
            outcome["entries"] = entries
            outcome["time"] = time

        _schedule_shower_node(scheduler, tree, start_time, kind, collect, groups, finished)
        scheduler.run()
    completion = float(outcome["time"])  # type: ignore[arg-type]
    entries = outcome["entries"] if collect else []
    trace = Trace(
        messages=messages,
        hops=critical_hops,
        latency=completion - start_time,
        completion_time=completion,
    )
    return entries, trace, tree.complete  # type: ignore[return-value]


def _schedule_shower_node(
    scheduler: EventScheduler,
    node: _ShowerNode,
    at: float,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
    on_done,
) -> None:
    """Serve ``node`` at instant ``at``; call ``on_done(entries, time)``.

    Runs inside the event loop: forward edges to all children depart at
    ``at`` concurrently, every child recursively schedules its own subtree
    on arrival, and (with ``collect``) the node completes when the last
    funnel-back reply has been delivered.
    """
    if groups is not None and node.local:
        groups.append((node.peer.node_id, node.local))
    entries = list(node.local) if collect else []
    if not node.children:
        on_done(entries, at)
        return
    pending = {"count": len(node.children), "finish": at}

    def merged(child_entries: list[Entry], time: float) -> None:
        if collect:
            entries.extend(child_entries)
        pending["count"] -= 1
        pending["finish"] = max(pending["finish"], time)
        if pending["count"] == 0:
            on_done(entries, pending["finish"])

    def child_done(child: _ShowerNode, child_entries: list[Entry], time: float) -> None:
        if collect:
            # Results return along the tree edge; size reflects the payload.
            scheduler.send_at(
                time,
                child.peer.node_id,
                node.peer.node_id,
                kind,
                max(1, len(child_entries)),
                on_delivered=lambda arrival: merged(child_entries, arrival),
            )
        else:
            merged(child_entries, time)

    for child in node.children:

        def arrived(time: float, child: _ShowerNode = child) -> None:
            _schedule_shower_node(
                scheduler,
                child,
                time,
                kind,
                collect,
                groups,
                lambda child_entries, done_time, child=child: child_done(
                    child, child_entries, done_time
                ),
            )

        scheduler.send_at(at, node.peer.node_id, child.peer.node_id, kind, 1, on_delivered=arrived)


def range_query_sequential_groups(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
    max_leaves: int = 4096,
) -> tuple[list[tuple[str, list[Entry]]], Trace, bool]:
    """Sequential traversal in *produce* mode (rows stay at the leaves)."""
    groups: list[tuple[str, list[Entry]]] = []
    _entries, trace, complete = _sequential_walk(
        pnet, key_range, start, rng, kind, max_leaves, groups=groups, collect=False
    )
    return groups, trace, complete


def range_query_sequential(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
    max_leaves: int = 4096,
) -> tuple[list[Entry], Trace, bool]:
    """Sequential (min-max) range traversal, left edge to right edge."""
    return _sequential_walk(
        pnet, key_range, start, rng, kind, max_leaves, groups=None, collect=True
    )


def _sequential_walk(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None,
    rng: random.Random | None,
    kind: str,
    max_leaves: int,
    groups: list[tuple[str, list[Entry]]] | None,
    collect: bool,
) -> tuple[list[Entry], Trace, bool]:
    start = start or pnet.random_online_peer()
    rng = rng or pnet.rng
    entries: list[Entry] = []
    complete = True

    with pnet.clock() as scheduler:
        try:
            current, trace = route(
                start, _left_edge(key_range.lo), kind=kind, rng=rng, scheduler=scheduler
            )
        except RoutingError as error:
            return [], getattr(error, "trace", Trace.ZERO), False

        for _step in range(max_leaves):
            local = current.store.scan(key_range)
            if groups is not None and local:
                groups.append((current.node_id, local))
            entries.extend(local)
            next_key = increment_path(current.path)
            if next_key is None or not key_range.contains(next_key):
                break
            try:
                current, hop_trace = route(
                    current, _left_edge(next_key), kind=kind, rng=rng, scheduler=scheduler
                )
            except RoutingError as error:
                trace = trace.then(getattr(error, "trace", Trace.ZERO))
                complete = False
                break
            trace = trace.then(hop_trace)

        # Ship the collected result back to the initiator.
        if collect and current is not start:
            trace = trace.then(
                pnet.ship(current.node_id, start.node_id, kind, size=max(1, len(entries)))
            )
    return entries, trace, complete


def _left_edge(key: str) -> str:
    """Zero-pad a short key so routing lands on the *leftmost* leaf covering it.

    Routing toward the bare prefix may stop at any peer inside the prefix's
    subtree; the sequential traversal needs the left edge specifically.
    """
    return point_key(key)
