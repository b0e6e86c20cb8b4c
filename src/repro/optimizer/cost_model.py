"""The cost model (paper §2, ref. [5]).

    "For each physical operator, and thus, for each query plan, we can
     determine worst-case guarantees (almost all are logarithmic) and predict
     exact costs.  We base these calculations on the characteristics of the
     used overlay system and the actual data distribution."

Costs carry two dimensions — total **messages** and critical-path **latency**
— the two things the paper's evaluation talks about (traffic and answer
time).  Plan comparison minimizes ``latency_weight·latency +
message_weight·messages`` (latency-dominant by default, as the demo's
headline metric is answer time).  A message is one send, whatever it
carries: payload size shows up in the byte ledger
(``StatsFrame.bytes``), not in the objective.

Range scans are priced by the trie leaves their key range covers
(:meth:`CatalogStatistics.leaves_covered`, read off the overlay's actual
leaf layout), so an A#v range on one leaf and the whole OID subtree cost
what they actually cost.  With G leaf groups and L leaves covered:

* key lookup:         log₂(G) + 1 messages (route plus reply), all sequential
* shower range scan:  log₂(G) + L messages, log₂(G) + 1 + log₂(L) critical path
* sequential scan:    log₂(G) + L messages, log₂(G) + L critical path
* shipping rows:      one message per sending peer, one parallel wave
* index-NL join:      one parallel lookup per distinct left value
* re-hash join:       one routed transfer per join-value batch, in parallel,
                      plus one result message per rendezvous peer
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.optimizer.statistics import CatalogStatistics
from repro.pgrid.keys import KeyRange


@dataclass(frozen=True)
class Cost:
    """Estimated messages (total) and latency (critical path, seconds)."""

    messages: float = 0.0
    latency: float = 0.0

    def then(self, other: "Cost") -> "Cost":
        """Sequential composition: both traffic and latency add."""
        return Cost(self.messages + other.messages, self.latency + other.latency)

    def alongside(self, other: "Cost") -> "Cost":
        """Parallel composition: traffic adds, latency takes the slower arm."""
        return Cost(self.messages + other.messages, max(self.latency, other.latency))

    def scaled(self, factor: float) -> "Cost":
        """Multiply both dimensions (N independent repetitions)."""
        return Cost(self.messages * factor, self.latency * factor)


class CostModel:
    """Turns statistics into per-operator cost estimates."""

    def __init__(
        self,
        stats: CatalogStatistics,
        latency_weight: float = 1.0,
        message_weight: float = 0.001,
    ):
        self.stats = stats
        self.latency_weight = latency_weight
        self.message_weight = message_weight

    # -- plan comparison -------------------------------------------------------

    def value(self, cost: Cost) -> float:
        """Scalarized cost used to rank plans."""
        return self.latency_weight * cost.latency + self.message_weight * cost.messages

    # -- primitives -------------------------------------------------------------

    @property
    def hop_latency(self) -> float:
        """Expected one-way latency of a single overlay hop."""
        return self.stats.avg_link_latency

    def lookup(self) -> Cost:
        """One exact-key lookup: log2(G) routing hops plus the reply."""
        hops = self.stats.expected_hops()
        return Cost(messages=hops + 1, latency=(hops + 1) * self.hop_latency)

    def parallel_lookups(self, count: float) -> Cost:
        """``count`` concurrent lookups: traffic scales, latency does not."""
        one = self.lookup()
        return Cost(messages=one.messages * max(0.0, count), latency=one.latency)

    def range_scan(self, key_range: KeyRange, algorithm: str) -> Cost:
        """Scan of ``key_range``, priced by the trie leaves it covers.

        A range on one leaf costs exactly a :meth:`lookup`.  Every further
        leaf costs one message, and one hop of latency per leaf for the
        sequential walk or per level of fan-out for the shower.
        """
        leaves = max(1, self.stats.leaves_covered(key_range))
        if algorithm == "sequential":
            extra_hops = leaves - 1
        else:  # shower
            extra_hops = math.log2(leaves)
        one_leaf = self.lookup()
        return Cost(
            messages=one_leaf.messages + leaves - 1,
            latency=one_leaf.latency + extra_hops * self.hop_latency,
        )

    def ship_rows(self, rows: float, senders: float = 1.0) -> Cost:
        """One parallel wave delivering ``rows`` from ``senders`` peers.

        One message per sender that has rows to send, however many rows it
        carries; latency is a single parallel hop.  No senders means the
        rows are already where they are needed.
        """
        if rows <= 0 or senders <= 0:
            return Cost()
        return Cost(messages=max(1.0, min(senders, rows)), latency=self.hop_latency)

    # -- joins ---------------------------------------------------------------------

    def ship_join(
        self, left_rows: float, left_senders: float, right_rows: float, right_senders: float
    ) -> Cost:
        """Ship both inputs to the coordinator in one parallel wave."""
        return self.ship_rows(left_rows, left_senders).alongside(
            self.ship_rows(right_rows, right_senders)
        )

    def index_nl_join(self, distinct_probe_values: float) -> Cost:
        """One parallel index lookup per distinct join value of the left side."""
        return self.parallel_lookups(distinct_probe_values)

    def rehash_join(self, left_rows: float, right_rows: float, result_rows: float) -> Cost:
        """Symmetric re-hash: both inputs route to rendezvous peers in parallel,
        then every rendezvous peer with matches sends them in one message."""
        hops = self.stats.expected_hops()
        transfers = (left_rows + right_rows) * 0.5 + 1  # batched by join value
        senders = min(max(1.0, result_rows), self.stats.num_groups)
        messages = transfers * hops + senders
        latency = hops * self.hop_latency + self.hop_latency  # parallel waves
        return Cost(messages=messages, latency=latency)

    # -- similarity -------------------------------------------------------------------

    def qgram_probe(self, gram_count: float) -> Cost:
        """Parallel posting-list fetches for the probe grams of one string."""
        return self.parallel_lookups(gram_count)
