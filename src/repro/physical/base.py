"""Physical-operator infrastructure.

    "For each logical operator there are several physical implementations
     available ... They differ in the kind of used indexes, applied routing
     strategy, parallelism, etc."  (paper §2)

A physical operator's :meth:`execute` returns an :class:`OpResult` in
*produce form*: the result bindings grouped by the peer currently holding
them, plus the causal trace up to that state.  Consumers then decide the data
flow — ship everything to the coordinator, re-hash to rendezvous peers, prune
locally first — and account the shipping themselves.  This is what lets the
three join strategies and the two ranking strategies differ in measurable
messages/latency while computing identical results.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.net.trace import Trace
from repro.algebra.expressions import satisfies
from repro.algebra.semantics import Binding, merge_bindings
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.triples.index import IndexKind
from repro.triples.store import DistributedTripleStore, Posting
from repro.triples.triple import Triple
from repro.vql.ast import TriplePattern


@dataclass
class ExecutionContext:
    """Everything a physical operator needs to run.

    ``coordinator`` is the query-issuing peer (the paper's demonstration
    laptop); all final results are delivered there.
    """

    store: DistributedTripleStore
    coordinator: PGridPeer
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    range_algorithm: str = "shower"

    @property
    def pnet(self) -> PGridNetwork:
        return self.store.pnet


@dataclass
class OpResult:
    """Bindings grouped by the peer holding them, plus the cost so far."""

    groups: list[tuple[str, list[Binding]]]
    trace: Trace = Trace.ZERO
    complete: bool = True

    def all_bindings(self) -> list[Binding]:
        rows: list[Binding] = []
        for _peer_id, bindings in self.groups:
            rows.extend(bindings)
        return rows

    def total_rows(self) -> int:
        return sum(len(bindings) for _peer, bindings in self.groups)

    def shipped_to(self, ctx: ExecutionContext, dest_id: str, kind: str = "ship") -> "OpResult":
        """Move every group to one peer (parallel sends, sized by payload).

        The sends go through :meth:`PGridNetwork.ship_many`, so the shipping
        wave fans out concurrently on the simulated clock and completes at
        the slowest group's arrival.
        """
        rows: list[Binding] = []
        sends: list[tuple[str, str, str, int]] = []
        for peer_id, bindings in self.groups:
            rows.extend(bindings)
            if peer_id != dest_id and bindings:
                sends.append((peer_id, dest_id, kind, len(bindings)))
        trace = self.trace.then(ctx.pnet.ship_many(sends)) if sends else self.trace
        return OpResult(groups=[(dest_id, rows)], trace=trace, complete=self.complete)

    def at_coordinator(self, ctx: ExecutionContext, kind: str = "ship") -> "OpResult":
        return self.shipped_to(ctx, ctx.coordinator.node_id, kind=kind)


def match_postings(
    entries,
    match: Callable[[Triple], Binding | None],
    kind: IndexKind,
    variable: str,
    value,
    filters,
) -> list[Binding]:
    """Bindings produced by the index postings under one probe key.

    Deduplicates postings, unifies them with ``match`` (the probed
    pattern's :func:`~repro.algebra.semantics.pattern_matcher`), keeps only
    matches whose ``variable`` equals the probed ``value`` and that pass the
    ``filters``.  OID probes compare against ``str(value)`` (OIDs are
    strings) but keep the caller's original join value in the binding, so a
    non-string join value still unifies with the row that produced it.

    Shared, with :func:`join_probed`, by the index-nested-loop join and the
    MQP probe step — the two per-value probe paths — so their matching
    semantics cannot drift.
    """
    matches: list[Binding] = []
    seen: set = set()
    for entry in entries:
        posting = entry.value
        if not isinstance(posting, Posting) or posting.kind is not kind:
            continue
        identity = posting.triple.as_tuple()
        if identity in seen:
            continue
        seen.add(identity)
        binding = match(posting.triple)
        if binding is None:
            continue
        if kind is IndexKind.OID:
            if binding.get(variable) != str(value):
                continue
            binding = {**binding, variable: value}
        elif binding.get(variable) != value:
            continue
        if all(satisfies(f, binding) for f in filters):
            matches.append(binding)
    return matches


def join_probed(
    rows: list[Binding], matches: dict[object, list[Binding]], variable: str, pattern: TriplePattern
) -> list[Binding]:
    """Extend each row with the :func:`match_postings` result of its
    ``variable`` value.

    A match already equals its row on ``variable``, so consistency is checked
    only on the pattern's other variables that the rows bind, and that set is
    computed once per probe instead of per row pair.
    """
    checked = sorted((pattern.variables() - {variable}) & set().union(*rows))
    return [
        merge_bindings(row, binding)
        for row in rows
        for binding in matches.get(row.get(variable), ())
        if not checked or all(row.get(name, binding[name]) == binding[name] for name in checked)
    ]


class PhysicalOperator(ABC):
    """Base class; subclasses are the concrete strategies."""

    #: Short strategy name used in EXPLAIN output and benchmarks.
    strategy: str = ""

    @abstractmethod
    def execute(self, ctx: ExecutionContext) -> OpResult:
        """Run the operator and return results in produce form."""

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def explain(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self._label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        name = type(self).__name__
        return f"{name}[{self.strategy}]" if self.strategy else name
