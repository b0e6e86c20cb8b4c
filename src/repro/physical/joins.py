"""Physical join strategies (paper §2/§4: "identical queries ... different
performance results depending on the current data load, network state").

Three implementations of the logical ⋈, differing in data flow:

* :class:`ShipJoin` — both inputs ship to the coordinator, which hash-joins
  locally.  Latency = slower input + one shipping wave; total traffic carries
  *all* rows of both sides.  Best when inputs are small or the coordinator
  needs everything anyway.

* :class:`IndexNestedLoopJoin` — only the left input runs; for each distinct
  join value, the right pattern is resolved with a direct A#v (or OID) index
  lookup.  Traffic ∝ distinct left values × O(log N); unbeatable for small,
  selective left sides, hopeless for large fan-out.

* :class:`RehashJoin` — the PIER-style symmetric re-hash: every producer
  ships each of its rows' join groups *directly* to the rendezvous peer
  responsible for the join value's key; rendezvous peers join their share and
  send only matches to the coordinator.  Traffic ∝ |L|+|R| but fully
  parallel, and non-matching rows never cross the coordinator's link.

All three compute exactly the multiset the reference executor computes; only
cost differs — that is what experiment E4 sweeps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import PlanningError, RoutingError
from repro.net.trace import Trace
from repro.algebra.semantics import (
    Binding,
    join_key,
    merge_bindings,
)
from repro.physical.base import (
    ExecutionContext,
    OpResult,
    PhysicalOperator,
    match_postings,
)
from repro.pgrid.routing import point_key, route_hops
from repro.triples.index import IndexKind, av_key, oid_key, v_key
from repro.vql.ast import Expression, Literal, TriplePattern, Var


@dataclass
class _JoinBase(PhysicalOperator):
    left: PhysicalOperator
    right: PhysicalOperator

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    @staticmethod
    def _shared_variables(left_rows: list[Binding], right_rows: list[Binding]) -> list[str]:
        left_vars = set().union(*(set(b) for b in left_rows)) if left_rows else set()
        right_vars = set().union(*(set(b) for b in right_rows)) if right_rows else set()
        return sorted(left_vars & right_vars)


@dataclass
class ShipJoin(_JoinBase):
    """Ship both sides to the coordinator, hash join locally."""

    join_variables: tuple[str, ...] = ()

    strategy = "ship"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        left_result = self.left.execute(ctx)
        right_result = self.right.execute(ctx)
        left_home = left_result.at_coordinator(ctx, kind="join-ship")
        right_home = right_result.at_coordinator(ctx, kind="join-ship")
        left_rows = left_home.all_bindings()
        right_rows = right_home.all_bindings()
        shared = list(self.join_variables) or self._shared_variables(left_rows, right_rows)
        joined = _hash_join(left_rows, right_rows, shared)
        trace = Trace.parallel([left_home.trace, right_home.trace])
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined)] if joined else [],
            trace=trace,
            complete=left_result.complete and right_result.complete,
        )


@dataclass
class IndexNestedLoopJoin(_JoinBase):
    """Left side runs; right side is resolved by per-value index lookups.

    ``right`` must be a *pattern spec* — this strategy does not execute the
    right operator; it consults the right pattern's index directly.  The
    shared variable must appear in the right pattern's subject (OID lookup)
    or object with literal predicate (A#v lookup) or object alone (v lookup).
    """

    right_pattern: TriplePattern | None = None
    right_filters: tuple[Expression, ...] = ()

    strategy = "index-nl"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if self.right_pattern is None:
            raise PlanningError("IndexNestedLoopJoin needs the right pattern spec")
        left_result = self.left.execute(ctx).at_coordinator(ctx, kind="join-ship")
        left_rows = left_result.all_bindings()
        if not left_rows:
            # An empty outer side joins to nothing; there is no position to
            # probe (and no need to).
            return OpResult([], left_result.trace, left_result.complete)
        pattern = self.right_pattern
        position, shared_name = self._lookup_position(pattern, left_rows)

        joined: list[Binding] = []
        cache: dict[object, list[Binding]] = {}
        key_for_value: dict[object, tuple[str, IndexKind]] = {}
        for value in {row.get(shared_name) for row in left_rows if shared_name in row}:
            key, kind = self._index_key(pattern, position, value)
            if key is None:
                cache[value] = []
                continue
            key_for_value[value] = (key, kind)
        # One destination-grouped multi-key lookup instead of a routed
        # lookup per distinct value — probes to the same region share a route.
        probe_trace = Trace.ZERO
        entries_by_key: dict[str, list] = {}
        if key_for_value:
            entries_by_key, probe_trace = ctx.pnet.lookup_many(
                [key for key, _kind in key_for_value.values()],
                start=ctx.coordinator,
                kind="join-lookup",
            )
        for value, (key, kind) in key_for_value.items():
            cache[value] = match_postings(
                entries_by_key.get(key, []),
                pattern,
                kind,
                shared_name,
                value,
                self.right_filters,
            )
        for row in left_rows:
            for match in cache.get(row.get(shared_name), ()):
                if _consistent(row, match):
                    joined.append(merge_bindings(row, match))
        trace = left_result.trace.then(probe_trace)
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined)] if joined else [],
            trace=trace,
            complete=left_result.complete,
        )

    def _lookup_position(self, pattern: TriplePattern, left_rows: list[Binding]) -> tuple[str, str]:
        """Which position of the right pattern the shared variable sits in."""
        left_vars = set().union(*(set(b) for b in left_rows)) if left_rows else set()
        if isinstance(pattern.subject, Var) and pattern.subject.name in left_vars:
            return "subject", pattern.subject.name
        if isinstance(pattern.object, Var) and pattern.object.name in left_vars:
            return "object", pattern.object.name
        raise PlanningError(
            "IndexNestedLoopJoin: shared variable must be the right pattern's "
            "subject or object"
        )

    def _index_key(
        self, pattern: TriplePattern, position: str, value
    ) -> tuple[str | None, IndexKind]:
        if position == "subject":
            # OIDs are strings; coerce like the MQP probe so non-string join
            # values probe the same key instead of being dropped.
            return oid_key(str(value)), IndexKind.OID
        if isinstance(pattern.predicate, Literal):
            return av_key(str(pattern.predicate.value), value), IndexKind.AV
        return v_key(value), IndexKind.V

    def _label(self) -> str:
        return f"IndexNestedLoopJoin[{self.right_pattern}]"


@dataclass
class RehashJoin(_JoinBase):
    """Symmetric re-hash join at rendezvous peers (Mutant-Query-Plan style
    distributed join; cf. PIER)."""

    join_variables: tuple[str, ...] = ()

    strategy = "rehash"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        left_result = self.left.execute(ctx)
        right_result = self.right.execute(ctx)
        left_rows_all = left_result.all_bindings()
        right_rows_all = right_result.all_bindings()
        shared = list(self.join_variables) or self._shared_variables(left_rows_all, right_rows_all)
        if not shared:
            # Cartesian products cannot rendezvous — fall back to shipping.
            ship = ShipJoin(self.left, self.right)
            return ship.execute(ctx)

        arrivals: dict[str, dict[str, list[tuple[Binding, bool]]]] = defaultdict(
            lambda: defaultdict(list)
        )
        complete = left_result.complete and right_result.complete
        # First pass: discover every bucket's route (no messages yet), so the
        # whole shipping wave can then depart at one common instant.
        plans: list[tuple[list[tuple[str, str]], list[tuple[str, str, str, int]]]] = []
        failed_routes: list[list[tuple[str, str]]] = []
        for result, is_left in ((left_result, True), (right_result, False)):
            for peer_id, rows in result.groups:
                by_value: dict[tuple, list[Binding]] = defaultdict(list)
                for row in rows:
                    if any(name not in row for name in shared):
                        continue
                    by_value[join_key(row, shared)].append(row)
                producer = ctx.pnet.net.nodes[peer_id]
                for value_key, bucket in by_value.items():
                    # Point routing: every producer must land in the SAME
                    # leaf group for a value, even when the trie is split
                    # deeper than the rendezvous key.
                    rendezvous_key = point_key(v_key(_rendezvous_value(value_key)))
                    try:
                        dest, hops = route_hops(producer, rendezvous_key, rng=ctx.rng)
                    except RoutingError as error:
                        complete = False
                        failed_routes.append(getattr(error, "hops", []))
                        continue
                    # Routing may land on any replica of the responsible
                    # group; both sides must meet at the SAME peer, so
                    # canonicalize to the group's smallest online member
                    # (one extra intra-group hop when needed).
                    candidates = [dest.node_id, *dest.online_replicas()]
                    rendezvous_id = min(candidates)
                    if rendezvous_id != dest.node_id:
                        sends = [(dest.node_id, rendezvous_id, "join-rehash", len(bucket))]
                    elif dest is not producer:
                        sends = [(producer.node_id, dest.node_id, "join-rehash", len(bucket))]
                    else:
                        sends = []
                    plans.append((hops, sends))
                    for row in bucket:
                        arrivals[rendezvous_id][str(value_key)].append((row, is_left))

        arrival_trace = self._ship_buckets(ctx, plans, failed_routes)
        base = Trace.parallel([left_result.trace, right_result.trace]).then(arrival_trace)

        joined_all: list[Binding] = []
        result_sends: list[tuple[str, str, str, int]] = []
        for dest_id, by_value in arrivals.items():
            local_matches: list[Binding] = []
            for _value, pairs in by_value.items():
                lefts = [row for row, is_left in pairs if is_left]
                rights = [row for row, is_left in pairs if not is_left]
                local_matches.extend(_hash_join(lefts, rights, shared))
            if local_matches:
                result_sends.append(
                    (dest_id, ctx.coordinator.node_id, "join-result", len(local_matches))
                )
                joined_all.extend(local_matches)
        trace = base.then(ctx.pnet.ship_many(result_sends)) if result_sends else base
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined_all)] if joined_all else [],
            trace=trace,
            complete=complete,
        )

    @staticmethod
    def _ship_buckets(
        ctx: ExecutionContext,
        plans: list[tuple[list[tuple[str, str]], list[tuple[str, str, str, int]]]],
        failed_routes: list[list[tuple[str, str]]],
    ) -> Trace:
        """Run the per-bucket rendezvous shipping wave.

        All chains start at the same instant so producers race on the
        simulated clock, and the wave completes at the measured max.  Partial
        hops of failed routes are accounted (they were sent) but never
        complete — best-effort semantics.
        """
        chains = [
            (hops, "join-rehash", 1, lambda _time, sends=sends: sends) for hops, sends in plans
        ]
        untracked = [(hops, "join-rehash", 1) for hops in failed_routes]
        with ctx.pnet.clock() as scheduler:
            return scheduler.run_chains(chains, untracked=untracked)


def _rendezvous_value(value_key: tuple) -> str:
    """Deterministic string form of a join key for rendezvous routing."""
    return "\x03".join(repr(v) for v in value_key)


def _consistent(a: Binding, b: Binding) -> bool:
    return all(b.get(name, value) == value for name, value in a.items() if name in b)


def _hash_join(
    left_rows: list[Binding], right_rows: list[Binding], shared: list[str]
) -> list[Binding]:
    if not shared:
        return [merge_bindings(l, r) for l in left_rows for r in right_rows]
    if len(right_rows) < len(left_rows):
        left_rows, right_rows = right_rows, left_rows
    table: dict[tuple, list[Binding]] = defaultdict(list)
    for row in left_rows:
        table[join_key(row, shared)].append(row)
    result: list[Binding] = []
    for row in right_rows:
        for match in table.get(join_key(row, shared), ()):
            if _consistent(match, row):
                result.append(merge_bindings(match, row))
    return result
