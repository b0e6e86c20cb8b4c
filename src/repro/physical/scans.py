"""Physical scan strategies for one triple pattern.

Which scans are *applicable* depends on the pattern's bound positions (the
paper's three indexes, §2); which is *chosen* is the optimizer's job:

=====================  ==========================================  ============
strategy               applicable when                             index used
=====================  ==========================================  ============
OidLookupScan          subject literal                             OID
AvLookupScan           predicate + object literals                 A#v (exact)
AvRangeScan            predicate literal, range filter on object   A#v (range)
AvPrefixScan           predicate literal, prefix filter on object  A#v (range)
AttributeScan          predicate literal only                      A#v (subtree)
VLookupScan            object literal, predicate variable          v   (exact)
VRangeScan/VPrefixScan object variable w/ filter, predicate var    v   (range)
QGramScan              predicate literal, edist filter on object   q-gram
BroadcastScan          nothing bound                               A#v (full)
=====================  ==========================================  ============

All scans return bindings in produce form (grouped by serving peer) and apply
their residual ``filters`` where the data lives, before anything is shipped.
The range scans and the OID star expose the ``key_range()`` they read; the
optimizer prices them by the trie leaves that range covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import PlanningError
from repro.net.trace import Trace
from repro.algebra.expressions import satisfies
from repro.algebra.semantics import Binding, pattern_matcher
from repro.physical.base import ExecutionContext, OpResult, PhysicalOperator
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import (
    range_query_sequential_groups,
    range_query_shower_groups,
)
from repro.strings import distinct_count_filter_threshold, edit_distance_within, qgrams
from repro.triples.index import (
    INDEX_TAG,
    IndexKind,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    qgram_key,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.triples.store import Posting
from repro.triples.triple import Triple, Value
from repro.vql.ast import Expression, Literal, TriplePattern, Var


@dataclass
class _ScanBase(PhysicalOperator):
    """Shared binding-construction logic for all scans."""

    pattern: TriplePattern
    filters: tuple[Expression, ...] = ()

    def _bindings(self, entries, kind: IndexKind) -> list[Binding]:
        """Convert index postings to filtered bindings (dedup across replicas)."""
        match = pattern_matcher(self.pattern)
        seen: set[tuple[str, str, Value]] = set()
        bindings: list[Binding] = []
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
            if all(satisfies(f, binding) for f in self.filters):
                bindings.append(binding)
        return bindings

    def _bindings_from_triples(self, triples: list[Triple]) -> list[Binding]:
        match = pattern_matcher(self.pattern)
        bindings: list[Binding] = []
        for triple in triples:
            binding = match(triple)
            if binding is None:
                continue
            if all(satisfies(f, binding) for f in self.filters):
                bindings.append(binding)
        return bindings

    def _label(self) -> str:
        extra = f" | {' AND '.join(str(f) for f in self.filters)}" if self.filters else ""
        return f"{type(self).__name__} {self.pattern}{extra}"


@dataclass
class _RangeScan(_ScanBase):
    """A scan of the one key range :meth:`key_range` names, inside the
    ``index`` posting family; the optimizer prices it by the trie leaves
    that range covers."""

    index = IndexKind.AV

    def key_range(self) -> KeyRange:
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> OpResult:
        algorithm = getattr(self, "algorithm", None) or ctx.range_algorithm
        key_range = self.key_range()
        if algorithm == "shower":
            groups, trace, complete = range_query_shower_groups(
                ctx.pnet, key_range, start=ctx.coordinator, rng=ctx.rng
            )
        elif algorithm == "sequential":
            groups, trace, complete = range_query_sequential_groups(
                ctx.pnet, key_range, start=ctx.coordinator, rng=ctx.rng
            )
        else:
            raise PlanningError(f"unknown range algorithm {algorithm!r}")
        result_groups = []
        for peer_id, entries in groups:
            bindings = self._bindings(entries, self.index)
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(groups=result_groups, trace=trace, complete=complete)


@dataclass
class OidLookupScan(_ScanBase):
    """Exact lookup by subject OID ("efficient reproduction of origin data")."""

    strategy = "oid-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        subject = self.pattern.subject
        if not isinstance(subject, Literal) or not isinstance(subject.value, str):
            raise PlanningError("OidLookupScan needs a string subject literal")
        entries, trace, destination = ctx.pnet.lookup_at(
            oid_key(subject.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.OID)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class AvLookupScan(_ScanBase):
    """Exact lookup on the A#v index (predicate and object bound)."""

    strategy = "av-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate, object_ = self.pattern.predicate, self.pattern.object
        if not isinstance(predicate, Literal) or not isinstance(object_, Literal):
            raise PlanningError("AvLookupScan needs literal predicate and object")
        entries, trace, destination = ctx.pnet.lookup_at(
            av_key(str(predicate.value), object_.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.AV)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class AvRangeScan(_RangeScan):
    """Range scan on the A#v index: ``low <op> attribute <op> high``."""

    low: Value | None = None
    high: Value | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    algorithm: str | None = None  # None = context default

    strategy = "av-range"

    def key_range(self) -> KeyRange:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AvRangeScan needs a literal predicate")
        return av_value_range(
            str(predicate.value), self.low, self.high, self.low_inclusive, self.high_inclusive
        )

    def _label(self) -> str:
        lo_bracket = "[" if self.low_inclusive else "("
        hi_bracket = "]" if self.high_inclusive else ")"
        return (
            f"AvRangeScan {self.pattern} "
            f"{lo_bracket}{self.low}, {self.high}{hi_bracket}"
            + (f" alg={self.algorithm}" if self.algorithm else "")
        )


@dataclass
class AvPrefixScan(_RangeScan):
    """Prefix scan over string values of one attribute."""

    prefix: str = ""
    algorithm: str | None = None

    strategy = "av-prefix"

    def key_range(self) -> KeyRange:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AvPrefixScan needs a literal predicate")
        return av_string_prefix_range(str(predicate.value), self.prefix)


@dataclass
class AttributeScan(_RangeScan):
    """Scan every triple of one attribute (whole A#v subtree)."""

    algorithm: str | None = None

    strategy = "attribute-scan"

    def key_range(self) -> KeyRange:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AttributeScan needs a literal predicate")
        return av_value_range(str(predicate.value))


@dataclass
class VLookupScan(_ScanBase):
    """Exact lookup on the v index — value known, attribute unknown."""

    strategy = "v-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        object_ = self.pattern.object
        if not isinstance(object_, Literal):
            raise PlanningError("VLookupScan needs a literal object")
        entries, trace, destination = ctx.pnet.lookup_at(
            v_key(object_.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.V)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class VRangeScan(_RangeScan):
    """Range scan over the v index (attribute unknown)."""

    low: Value | None = None
    high: Value | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    algorithm: str | None = None

    strategy = "v-range"
    index = IndexKind.V

    def key_range(self) -> KeyRange:
        return v_value_range(self.low, self.high, self.low_inclusive, self.high_inclusive)


@dataclass
class VPrefixScan(_RangeScan):
    """Prefix search over all string values — the paper's substring entry point."""

    prefix: str = ""
    algorithm: str | None = None

    strategy = "v-prefix"
    index = IndexKind.V

    def key_range(self) -> KeyRange:
        return v_string_prefix_range(self.prefix)


@dataclass
class BroadcastScan(_RangeScan):
    """Fallback when nothing is bound: scan the entire A#v subtree.

    Every triple has exactly one A#v posting, so this enumerates the whole
    store once — the expensive strategy the cost model should avoid unless
    the pattern really binds nothing.
    """

    algorithm: str | None = None

    strategy = "broadcast"

    def key_range(self) -> KeyRange:
        return KeyRange.subtree(INDEX_TAG[IndexKind.AV])


@dataclass
class QGramScan(_ScanBase):
    """Similarity selection via the distributed q-gram index (paper ref. [6]).

    Answers ``edist(?obj, text) <= max_distance`` for a pattern with a
    literal predicate using the *prefix filter*: a single edit destroys at
    most ``q`` of the query's distinct grams, so any string within distance
    ``k`` must share at least one of **any** ``k*q + 1`` probed query grams
    (pigeonhole).  The scan therefore fetches only ``k*q + 1`` posting lists
    — preferring interior (pad-free) grams, whose buckets are the most
    selective — and verifies the candidate union with the banded edit
    distance.  Falls back to a full attribute scan when the query has too
    few distinct grams for the filter to be sound (short strings / large k).
    """

    text: str = ""
    max_distance: int = 0
    q: int = 3

    strategy = "qgram"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("QGramScan needs a literal predicate")
        if not ctx.store.enable_qgram_index:
            raise PlanningError("q-gram index not enabled in this store")
        if distinct_count_filter_threshold(self.text, self.q, self.max_distance) < 1:
            fallback = AttributeScan(pattern=self.pattern, filters=self.filters)
            return fallback.execute(ctx)

        attribute = str(predicate.value)
        candidates: dict[tuple[str, str, Value], Triple] = {}
        branches: list[Trace] = []
        for gram in self._probe_grams():
            entries, trace = ctx.pnet.lookup(qgram_key(gram), start=ctx.coordinator, kind="qgram")
            branches.append(trace)
            for entry in entries:
                posting = entry.value
                if not isinstance(posting, Posting) or posting.kind is not IndexKind.QGRAM:
                    continue
                triple = posting.triple
                if triple.attribute != attribute:
                    continue
                candidates.setdefault(triple.as_tuple(), triple)

        verified = [
            t
            for t in candidates.values()
            if isinstance(t.value, str)
            and edit_distance_within(t.value, self.text, self.max_distance) is not None
        ]
        bindings = self._bindings_from_triples(verified)
        groups = [(ctx.coordinator.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=Trace.parallel(branches))

    def _probe_grams(self) -> list[str]:
        """The ``k*q + 1`` probe grams; padded buckets last (they are fat)."""
        from repro.strings.qgrams import PAD_CHAR

        distinct = sorted(set(qgrams(self.text, q=self.q)))
        distinct.sort(key=lambda gram: (PAD_CHAR in gram, gram))
        needed = self.max_distance * self.q + 1
        return distinct[:needed]

    def _label(self) -> str:
        return (
            f"QGramScan {self.pattern} edist(·, {self.text!r}) <= {self.max_distance} "
            f"(q={self.q})"
        )


#: One star pattern's evaluation plan: attribute key, matcher, shared variables.
_StarStep = tuple[Value | None, Callable[[Triple], Binding | None], tuple[str, ...]]


@dataclass
class OidClusterScan(PhysicalOperator):
    """Star-pattern scan over the OID index.

    When several patterns share one subject variable (a "star" over a single
    logical tuple), the OID index answers the whole star at once: every
    peer's slice of the OID subtree holds *complete* tuples (all postings of
    one OID hash to the same key), so each peer evaluates the star locally
    and the combined bindings stay distributed — exactly what the ranking
    operators need for local pruning (paper: "efficient reproduction of
    origin data, as well as access to parts of special interest").
    """

    patterns: tuple[TriplePattern, ...] = ()
    filters: tuple[Expression, ...] = ()
    subject_variable: str = ""

    strategy = "oid-cluster"

    def key_range(self) -> KeyRange:
        return KeyRange.subtree(INDEX_TAG[IndexKind.OID])

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if not self.patterns:
            raise PlanningError("OidClusterScan needs at least one pattern")
        for pattern in self.patterns:
            subject = pattern.subject
            if not isinstance(subject, Var) or subject.name != self.subject_variable:
                raise PlanningError("OidClusterScan patterns must share the subject variable")
        groups, trace, complete = range_query_shower_groups(
            ctx.pnet, self.key_range(), start=ctx.coordinator, rng=ctx.rng
        )
        # With every predicate a literal, a triple can only match the patterns
        # naming its attribute: others are dropped before the dedup, and each
        # pattern sees only its own attribute's triples.  A variable predicate
        # files every triple of a tuple under the single attribute key None.
        predicates = [pattern.predicate for pattern in self.patterns]
        by_attribute = all(isinstance(term, Literal) for term in predicates)
        wanted = {term.value for term in predicates} if by_attribute else None
        steps = self._star_steps(by_attribute)
        result_groups: list[tuple[str, list[Binding]]] = []
        for peer_id, entries in groups:
            by_oid: dict[str, dict[Value | None, list[Triple]]] = {}
            seen: set[tuple[str, str, Value]] = set()
            for entry in entries:
                posting = entry.value
                if not isinstance(posting, Posting) or posting.kind is not IndexKind.OID:
                    continue
                triple = posting.triple
                if by_attribute and triple.attribute not in wanted:
                    continue
                identity = triple.as_tuple()
                if identity in seen:
                    continue
                seen.add(identity)
                attribute = triple.attribute if by_attribute else None
                by_oid.setdefault(triple.oid, {}).setdefault(attribute, []).append(triple)
            bindings: list[Binding] = []
            for triples in by_oid.values():
                bindings.extend(self._evaluate_star(triples, steps))
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(groups=result_groups, trace=trace, complete=complete)

    def _star_steps(self, by_attribute: bool) -> list[_StarStep]:
        """Per pattern: its attribute key, compiled matcher, and the variables
        it shares with the earlier patterns.  The subject variable is left
        out: every triple of one tuple carries the same OID."""
        steps = []
        bound: set[str] = set()
        for pattern in self.patterns:
            variables = pattern.variables()
            shared = tuple(sorted((variables & bound) - {self.subject_variable}))
            predicate = pattern.predicate
            attribute = predicate.value if by_attribute and isinstance(predicate, Literal) else None
            steps.append((attribute, pattern_matcher(pattern), shared))
            bound |= variables
        return steps

    def _evaluate_star(
        self, triples: dict[Value | None, list[Triple]], steps: list[_StarStep]
    ) -> list[Binding]:
        """Local BGP evaluation over one tuple's triples, keyed by attribute."""
        partial: list[Binding] = [{}]
        for attribute, match, shared in steps:
            matches = [b for t in triples.get(attribute, ()) if (b := match(t)) is not None]
            if not matches:
                return []
            partial = [
                {**base, **binding}
                for base in partial
                for binding in matches
                if not shared or all(base[name] == binding[name] for name in shared)
            ]
            if not partial:
                return []
        return [b for b in partial if all(satisfies(f, b) for f in self.filters)]

    def _label(self) -> str:
        star = " ".join(str(p) for p in self.patterns)
        return f"OidClusterScan ?{self.subject_variable} [{star}]"
