"""Greedy prefix routing (paper §2: "prefix-based query routing").

At each step the current peer compares the target key with its own path; the
first differing bit determines the routing level, and the message is forwarded
to a reference covering the complementary subtree at that level.  Every hop
extends the matched prefix by at least one bit, giving the logarithmic hop
bound the paper's cost model builds on (O(log |Π|) w.h.p. for balanced tries).

Fault tolerance: offline/stale references are skipped; when *all* references
at the needed level are unusable the router detours through an online replica
of the current peer (replicas sample their references independently), and
fails with :class:`RoutingError` only when no progress is possible at all.

Two refinements over plain hop-by-hop routing support the batched data
operations in :mod:`repro.pgrid.network`:

* **route caching** — every peer keeps a :class:`RouteCache` mapping
  key-space prefixes (the paths of previously reached destinations) to the
  destination's address.  A cache hit turns an O(log N) route into one
  direct message.  Entries are validated at use time and evicted when the
  cached peer churned away (went offline, changed path, disappeared); a
  routing dead-end (offline detour) invalidates the covering entry too.

* **route-cache warming** (opt-in: ``network.route_warming = True``) — a
  routed data message piggybacks the sender's freshly learned cache entry
  for the destination, so every *transit* peer on the path warms its own
  cache from traffic it merely forwards, and mid-route the current peer's
  cache is consulted too (a warm intermediate short-circuits the rest of
  the route).  Repeat lookups from a second peer whose route crosses warmed
  peers therefore take fewer hops without ever having routed the key
  themselves.  This shipped in PR 4 as the warming half of the ROADMAP's
  route-cache anti-entropy item; only the gossip-round (proactive)
  propagation half is still open.

* **hint-aware reference choice** (opt-in: attach a
  :class:`~repro.load.shedding.HintRegistry` to the network, e.g. via
  ``pnet.event_driven(load=..., hints=True)``) — when several references
  (or replica detours) make equal routing progress, the current peer
  prefers the candidate it has heard the smallest piggybacked queue-depth
  hint from, steering traffic away from saturated peers using only
  information a real peer possesses.  With no registry attached — or no
  hints heard yet — the choice is the historical uniform ``rng.choice``,
  consuming the same RNG draws: hint-free runs stay byte-identical.

* **deferred accounting** — :func:`route_hops` discovers the hop sequence
  without sending anything, so bulk operations can group keys by destination
  first and then schedule each route *once per region*, at the region's real
  batch size, as a callback chain on an
  :class:`~repro.net.scheduler.EventScheduler`, where chains to different
  regions interleave in simulated time.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from repro.errors import RoutingError
from repro.net.scheduler import EventScheduler
from repro.net.trace import Trace
from repro.pgrid.keys import common_prefix_length, responsible
from repro.pgrid.peer import PGridPeer

#: Hard bound on route length; ordinary routes are O(log N) so hitting this
#: indicates a broken overlay rather than a long route.
MAX_HOPS = 256

#: Zero-padding depth for :func:`point_key`; deeper than any realistic trie
#: (the oracle builder caps paths at 48 bits).
POINT_PAD_DEPTH = 64


def point_key(key: str, depth: int = POINT_PAD_DEPTH) -> str:
    """Zero-pad ``key`` so routing lands on the leaf covering its *point*.

    A bare key routed through :func:`route` may stop at any peer inside the
    key's subtree (the acceptable entry points for prefix queries).  Data
    operations need the exact leaf responsible for the key as a point in
    ``[0, 1)`` — the leftmost leaf under the key — which the zero-padded key
    routes to even when the trie is split deeper than the key is long.
    """
    return key + "0" * depth


class RouteCache:
    """Per-peer memory of last-known destinations, keyed by destination path.

    A successful route towards ``key`` learns that the peer whose path ``π``
    prefixes ``key`` currently answers for that region; the next route to any
    key under ``π`` tries that peer with a single direct message (the
    underlying network is point-to-point — P-Grid peers may contact any
    address they know).  Entries are *validated at use*: the cached peer must
    still exist, be online, and still sit at the cached path, otherwise the
    entry is evicted.  Bounded LRU.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._dest_by_prefix: OrderedDict[str, str] = OrderedDict()
        self._max_prefix = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._dest_by_prefix)

    def get(self, key: str) -> tuple[str, str] | None:
        """Longest cached ``(prefix, peer_id)`` whose prefix covers ``key``."""
        for length in range(min(len(key), self._max_prefix), -1, -1):
            prefix = key[:length]
            peer_id = self._dest_by_prefix.get(prefix)
            if peer_id is not None:
                self._dest_by_prefix.move_to_end(prefix)
                return prefix, peer_id
        return None

    def put(self, prefix: str, peer_id: str) -> None:
        self._dest_by_prefix[prefix] = peer_id
        self._dest_by_prefix.move_to_end(prefix)
        self._max_prefix = max(self._max_prefix, len(prefix))
        while len(self._dest_by_prefix) > self.capacity:
            self._dest_by_prefix.popitem(last=False)

    def invalidate(self, prefix: str) -> None:
        """Drop the entry stored under exactly ``prefix`` (if any)."""
        if self._dest_by_prefix.pop(prefix, None) is not None:
            self.evictions += 1

    def invalidate_key(self, key: str) -> None:
        """Drop every cached entry whose prefix covers ``key``."""
        for prefix in [p for p in self._dest_by_prefix if key.startswith(p)]:
            self.invalidate(prefix)

    def invalidate_peer(self, peer_id: str) -> None:
        """Drop every entry pointing at ``peer_id`` (e.g. it announced leaving)."""
        for prefix in [p for p, d in self._dest_by_prefix.items() if d == peer_id]:
            self.invalidate(prefix)

    def clear(self) -> None:
        self._dest_by_prefix.clear()
        self._max_prefix = 0


def is_destination(peer: PGridPeer, key: str) -> bool:
    """True when routing may stop at ``peer`` for ``key``.

    Either the peer is responsible for the key (path is a prefix of the
    key), or the key itself is a prefix of the peer's path — the latter
    happens for short prefix-query keys, where any peer inside the key's
    subtree is an acceptable entry point.
    """
    return responsible(peer.path, key) or peer.path.startswith(key)


def _cached_destination(start: PGridPeer, key: str) -> PGridPeer | None:
    """Consult ``start``'s route cache; evict entries invalidated by churn."""
    cache = start.route_cache
    hit = cache.get(key)
    if hit is None:
        cache.misses += 1
        return None
    prefix, peer_id = hit
    peer = start.network.nodes.get(peer_id)
    if (
        isinstance(peer, PGridPeer)
        and peer.online
        and peer.path == prefix
        and is_destination(peer, key)
    ):
        cache.hits += 1
        return peer
    cache.invalidate(prefix)
    cache.misses += 1
    return None


def _pick_ref(current: PGridPeer, candidates: list[str], rng: random.Random) -> str:
    """Choose among references (or detours) that make equal progress.

    With a hint registry on the network the current peer prefers the
    candidate with the smallest last-heard queue-depth hint; otherwise (and
    on all-unknown ties, where every hint reads 0.0) this is exactly the
    historical ``rng.choice(candidates)`` — same draw, same pick.
    """
    registry = getattr(current.network, "hints", None)
    if registry is None or len(candidates) == 1:
        return rng.choice(candidates)
    from repro.load.shedding import pick_least_hinted  # deferred: load imports pgrid

    return pick_least_hinted(candidates, current.node_id, registry, rng)


def route_hops(
    start: PGridPeer,
    key: str,
    rng: random.Random | None = None,
    use_cache: bool = True,
) -> tuple[PGridPeer, list[tuple[str, str]]]:
    """Discover the route from ``start`` towards ``key`` without sending.

    Returns ``(destination, hops)`` where hops are ``(src_id, dst_id)``
    pairs; callers schedule them (e.g. :func:`account_hops`) at whatever
    message size the operation carries.  On failure raises :class:`RoutingError`
    with the partial hop list attached as ``.hops``.
    """
    rng = rng or start.network.rng
    if use_cache:
        cached = _cached_destination(start, key)
        if cached is not None:
            hops = [] if cached is start else [(start.node_id, cached.node_id)]
            return cached, hops

    warming = use_cache and getattr(start.network, "route_warming", False)
    current = start
    hops: list[tuple[str, str]] = []
    visited_detours: set[str] = set()

    for _hop in range(MAX_HOPS):
        if is_destination(current, key):
            if use_cache and current.path:
                start.route_cache.put(current.path, current.node_id)
            if warming and current.path:
                _warm_transit(start, hops, current)
            return current, hops

        if warming and current is not start:
            # The message carries the key it routes towards; a transit peer
            # with a warm cache entry short-circuits the remaining hops.
            cached = _cached_destination(current, key)
            if cached is not None and cached is not current:
                hops.append((current.node_id, cached.node_id))
                current = cached
                continue

        level = common_prefix_length(current.path, key)
        candidates = current.valid_refs(level)
        if candidates:
            next_id = _pick_ref(current, candidates, rng)
            hops.append((current.node_id, next_id))
            current = current.network.nodes[next_id]
            continue

        # Dead end at this level: detour through a replica whose independent
        # reference sample may still cover the needed subtree.  A detour is
        # churn evidence, so drop any cached destination for this region.
        if use_cache:
            start.route_cache.invalidate_key(key)
        visited_detours.add(current.node_id)
        detours = [r for r in current.online_replicas() if r not in visited_detours]
        if not detours:
            error = RoutingError(
                f"no route from {current.node_id!r} (path {current.path!r}) "
                f"towards key {key[:24]!r}... at level {level}"
            )
            error.hops = hops
            raise error
        next_id = _pick_ref(current, detours, rng)
        hops.append((current.node_id, next_id))
        current = current.network.nodes[next_id]

    error = RoutingError(f"route exceeded {MAX_HOPS} hops towards {key[:24]!r}")
    error.hops = hops
    raise error


def _warm_transit(start: PGridPeer, hops: list[tuple[str, str]], destination: PGridPeer) -> None:
    """Piggyback the learned ``(path -> destination)`` entry onto the route.

    Every transit peer that forwarded the message (the hop sources, minus
    the initiator whose cache is populated by :func:`route_hops` itself)
    warms its own route cache from the traffic it observed.
    """
    network = start.network
    for src_id, _dst_id in hops:
        if src_id == start.node_id or src_id == destination.node_id:
            continue
        peer = network.nodes.get(src_id)
        if isinstance(peer, PGridPeer):
            peer.route_cache.put(destination.path, destination.node_id)


def route(
    start: PGridPeer,
    key: str,
    kind: str = "route",
    size: int = 1,
    rng: random.Random | None = None,
    use_cache: bool = True,
    scheduler: EventScheduler | None = None,
) -> tuple[PGridPeer, Trace]:
    """Route a message from ``start`` towards ``key``.

    The discovered chain runs on ``scheduler`` (a fresh one when omitted):
    the clock advances to the destination's arrival instant, which the
    returned trace carries as ``completion_time``.  Raises
    :class:`RoutingError` (with the partial trace attached as ``.trace``)
    when the route dead-ends, e.g. because every peer covering the key's
    region is offline.
    """
    scheduler = scheduler or EventScheduler(start.network)
    try:
        destination, hops = route_hops(start, key, rng=rng, use_cache=use_cache)
    except RoutingError as error:
        error.trace = account_hops(scheduler, getattr(error, "hops", []), kind, size)
        raise
    return destination, account_hops(scheduler, hops, kind, size)


def account_hops(
    scheduler: EventScheduler, hops: list[tuple[str, str]], kind: str, size: int
) -> Trace:
    """Run a hop sequence as one callback chain on ``scheduler`` and drain it."""
    start_time = scheduler.now
    arrivals: list[float] = []
    scheduler.chain(hops, kind, size, at=start_time, on_done=arrivals.append)
    scheduler.run()
    finish = arrivals[0] if arrivals else start_time
    return Trace(
        messages=len(hops),
        hops=len(hops),
        latency=finish - start_time,
        completion_time=finish,
    )
