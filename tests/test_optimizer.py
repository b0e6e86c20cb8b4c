"""Statistics, cost model, and the cost-based planner's strategy choices."""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import UniStore
from repro.algebra import build_plan, rewrite
from repro.bench import ConferenceWorkload
from repro.errors import PlanningError
from repro.optimizer import CatalogStatistics, Cost, CostModel, Planner, PlannerConfig
from repro.pgrid import PGridNetwork, build_network
from repro.pgrid.keys import KeyRange, key_fraction, path_interval
from repro.physical import (
    AttributeScan,
    AvLookupScan,
    AvPrefixScan,
    AvRangeScan,
    BroadcastScan,
    IndexNestedLoopJoin,
    OidLookupScan,
    QGramScan,
    RehashJoin,
    ShipJoin,
    VLookupScan,
)
from repro.triples import DistributedTripleStore
from repro.vql import parse
from repro.vql.ast import Literal, TriplePattern, Var


@pytest.fixture(scope="module")
def stats_env():
    pnet = build_network(32, replication=2, seed=55, split_by="population")
    store = DistributedTripleStore(pnet, enable_qgram_index=True)
    workload = ConferenceWorkload(num_authors=30, num_publications=60, num_conferences=12, seed=55)
    store.bulk_insert(workload.all_triples())
    stats = CatalogStatistics.from_store(store)
    return store, stats


class TestStatistics:
    def test_counts(self, stats_env):
        store, stats = stats_env
        assert stats.num_peers == 32
        assert stats.num_groups == 16
        assert stats.replication == pytest.approx(2.0)
        assert stats.total_triples > 0
        assert stats.attribute_count("age") == 30

    def test_numeric_min_max(self, stats_env):
        _store, stats = stats_env
        age = stats.attributes["age"]
        assert 24 <= age.numeric_min <= age.numeric_max <= 65

    def test_eq_selectivity(self, stats_env):
        _store, stats = stats_env
        sel = stats.eq_selectivity("age")
        assert 0 < sel <= 1
        assert sel == pytest.approx(1 / stats.attribute_distinct("age"))

    def test_range_selectivity_interpolates(self, stats_env):
        _store, stats = stats_env
        full = stats.range_selectivity("age", None, None)
        half = stats.range_selectivity("age", None, 44)
        assert full == pytest.approx(1.0)
        assert 0 < half < 1

    def test_unknown_attribute(self, stats_env):
        _store, stats = stats_env
        assert stats.attribute_count("nope") == 0
        assert stats.eq_selectivity("nope") == 0.0

    def test_pattern_estimates_ordered_by_boundness(self, stats_env):
        _store, stats = stats_env
        bound_both = TriplePattern(Var("s"), Literal("age"), Literal(30))
        bound_attr = TriplePattern(Var("s"), Literal("age"), Var("v"))
        unbound = TriplePattern(Var("s"), Var("p"), Var("o"))
        assert (
            stats.estimate_pattern(bound_both)
            <= stats.estimate_pattern(bound_attr)
            <= stats.estimate_pattern(unbound)
        )

    def test_expected_hops_logarithmic(self, stats_env):
        _store, stats = stats_env
        assert stats.expected_hops() == pytest.approx(4.0)  # log2(16 groups)

    def test_leaves_covered_by_the_index_subtrees(self, stats_env):
        _store, stats = stats_env
        assert stats.leaves_covered(KeyRange.everything()) == 16
        # The balanced 16-leaf trie gives each 2-bit index tag a quarter.
        assert stats.leaves_covered(KeyRange.subtree("00")) == 4
        assert stats.leaves_covered(KeyRange("0101", "0101")) == 0


def _split_trie(choices: list[int]) -> list[str]:
    """A complete trie: split the chosen leaf once per choice (depth <= 10)."""
    leaves = [""]
    for choice in choices:
        leaf = leaves[choice % len(leaves)]
        if len(leaf) < 10:
            leaves.remove(leaf)
            leaves += [leaf + "0", leaf + "1"]
    return leaves


_KEYS = st.text(alphabet="01", max_size=12)
_RANGES = st.one_of(
    st.builds(KeyRange, _KEYS, _KEYS),  # includes empty ranges (lo >= hi)
    st.builds(KeyRange.at_least, _KEYS),  # open-ended
    st.builds(KeyRange.subtree, _KEYS),  # the whole space for ""
    st.just(KeyRange.everything()),
)


class TestLeavesCovered:
    @given(st.lists(st.integers(0, 1000), max_size=40), _RANGES)
    def test_matches_brute_force_count(self, choices, key_range):
        """The bisection count equals the number of trie paths whose subtree
        shares a point with the range (exact binary fractions)."""
        paths = _split_trie(choices)
        pnet = PGridNetwork()
        for index, path in enumerate(paths):
            pnet.add_peer(f"peer-{index}", path)
        stats = CatalogStatistics.from_store(DistributedTripleStore(pnet))
        lo = key_fraction(key_range.lo)
        hi = 1 if key_range.hi is None else key_fraction(key_range.hi)
        expected = sum(
            max(lo, start) < min(hi, end) for start, end in map(path_interval, paths)
        )
        assert stats.leaves_covered(key_range) == expected


class TestCostModel:
    def test_cost_composition(self):
        a = Cost(10, 0.5)
        b = Cost(5, 0.2)
        assert a.then(b) == Cost(15, 0.7)
        assert a.alongside(b) == Cost(15, 0.5)

    def test_one_leaf_range_costs_a_lookup(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        one_leaf = KeyRange.subtree("0101")  # inside one of the 16 leaves
        assert stats.leaves_covered(one_leaf) == 1
        for algorithm in ("shower", "sequential"):
            assert model.range_scan(one_leaf, algorithm) == model.lookup()

    def test_messages_count_senders_not_rows(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        assert model.ship_rows(500, senders=3) == model.ship_rows(3, senders=3)
        assert model.ship_rows(500, senders=3).messages == 3
        assert model.ship_rows(500, senders=0) == Cost()

    def test_lookup_cheaper_than_broadcast(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        lookup = model.lookup()
        broadcast = model.range_scan(KeyRange.everything(), "shower")
        assert model.value(lookup) < model.value(broadcast)

    def test_shower_faster_sequential_cheaper_messages(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        shower = model.range_scan(KeyRange.subtree("0"), "shower")
        sequential = model.range_scan(KeyRange.subtree("0"), "sequential")
        assert shower.latency < sequential.latency

    def test_value_weights(self, stats_env):
        _store, stats = stats_env
        latency_first = CostModel(stats, latency_weight=1.0, message_weight=0.0)
        message_first = CostModel(stats, latency_weight=0.0, message_weight=1.0)
        cost = Cost(messages=100, latency=0.1)
        assert latency_first.value(cost) == pytest.approx(0.1)
        assert message_first.value(cost) == pytest.approx(100)


class TestScanSelection:
    def _scan_for(self, stats_env, vql):
        store, stats = stats_env
        planner = Planner(stats, qgram_available=True)
        logical = rewrite(build_plan(parse(vql)))
        physical = planner.plan(logical)
        return physical

    def _find(self, physical, klass):
        stack = [physical]
        while stack:
            node = stack.pop()
            if isinstance(node, klass):
                return node
            stack.extend(node.children())
        return None

    def test_bound_subject_uses_oid_index(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?p WHERE {('person:000001',?p,?o)}")
        assert self._find(plan, OidLookupScan)

    def test_bound_pred_obj_uses_av_lookup(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,'age',30)}")
        assert self._find(plan, AvLookupScan)

    def test_equality_filter_becomes_point_range(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v = 30}")
        scan = self._find(plan, AvRangeScan)
        assert scan is not None and scan.low == 30 and scan.high == 30

    def test_range_filter_becomes_range_scan(self, stats_env):
        plan = self._scan_for(
            stats_env, "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v >= 30 AND ?v < 40}"
        )
        scan = self._find(plan, AvRangeScan)
        assert scan.low == 30 and scan.high == 40 and not scan.high_inclusive

    def test_prefix_filter_becomes_prefix_scan(self, stats_env):
        plan = self._scan_for(
            stats_env,
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER prefix(?v,'ICDE')}",
        )
        scan = self._find(plan, AvPrefixScan)
        assert scan is not None and scan.prefix == "ICDE"

    def test_edist_filter_uses_qgram_index(self, stats_env):
        plan = self._scan_for(
            stats_env,
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER edist(?v,'ICDE 2003')<2}",
        )
        assert self._find(plan, QGramScan)

    def test_edist_without_qgram_index_scans_attribute(self, stats_env):
        store, stats = stats_env
        planner = Planner(stats, qgram_available=False)
        logical = rewrite(build_plan(parse(
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER edist(?v,'ICDE 2003')<2}"
        )))
        physical = planner.plan(logical)
        assert self._find(physical, AttributeScan)
        assert not self._find(physical, QGramScan)

    def test_bound_object_uses_v_index(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s,?p WHERE {(?s,?p,'ICDE')}")
        assert self._find(plan, VLookupScan)

    def test_nothing_bound_broadcasts(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,?p,?o)}")
        assert self._find(plan, BroadcastScan)


class TestJoinSelection:
    JOIN_QUERY = ("SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g = 30}")

    def test_forced_strategies_apply(self, stats_env):
        store, stats = stats_env
        logical = rewrite(build_plan(parse(self.JOIN_QUERY)))
        for forced, klass in [
            ("ship", ShipJoin),
            ("index-nl", IndexNestedLoopJoin),
            ("rehash", RehashJoin),
        ]:
            planner = Planner(stats, PlannerConfig(join_strategy=forced))
            physical = planner.plan(logical)
            found = TestScanSelection._find(self, physical, klass)
            assert found is not None, forced

    def test_cost_weights_change_join_choice(self, stats_env):
        """Latency-dominant costing tolerates shipping (parallel waves);
        message-dominant costing prefers probing a selective left side —
        the optimizer's answer depends on what the cost model optimizes,
        exactly the "beneficial in special situations" story of §3."""
        store, stats = stats_env
        vql = "SELECT ?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?n = 'x'}"
        logical = rewrite(build_plan(parse(vql)))
        by_messages = Planner(
            stats, PlannerConfig(latency_weight=0.0, message_weight=1.0)
        ).plan(logical)
        assert TestScanSelection._find(self, by_messages, IndexNestedLoopJoin)
        by_latency = Planner(
            stats, PlannerConfig(latency_weight=1.0, message_weight=0.0)
        ).plan(logical)
        # Latency-optimal plans avoid the sequential probe wave: either ship
        # both sides in parallel or answer the star in one OID-index pass.
        from repro.physical import OidClusterScan

        assert TestScanSelection._find(self, by_latency, ShipJoin) or (
            TestScanSelection._find(self, by_latency, OidClusterScan)
        )
        assert not TestScanSelection._find(self, by_latency, IndexNestedLoopJoin)

    def test_invalid_forced_strategy_raises(self, stats_env):
        store, stats = stats_env
        # Cartesian product: rehash/index-nl are inapplicable.
        vql = "SELECT ?x WHERE {(?a,'series',?x) (?b,'areaname',?y)}"
        planner = Planner(stats, PlannerConfig(join_strategy="index-nl"))
        with pytest.raises(PlanningError):
            planner.plan(rewrite(build_plan(parse(vql))))

    def test_forced_range_algorithm_propagates(self, stats_env):
        store, stats = stats_env
        planner = Planner(stats, PlannerConfig(range_algorithm="sequential"))
        physical = planner.plan(rewrite(build_plan(parse(
            "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v > 30}"
        ))))
        scan = TestScanSelection._find(self, physical, AvRangeScan)
        assert scan.algorithm == "sequential"


class TestPlanExecution:
    """Planned physical plans must execute correctly end to end."""

    def test_all_forced_join_strategies_same_answer(self, stats_env):
        import random

        from repro.physical.base import ExecutionContext

        store, stats = stats_env
        ctx = ExecutionContext(store, store.pnet.peers[0], random.Random(1))
        logical = rewrite(build_plan(parse(TestJoinSelection.JOIN_QUERY)))
        answers = []
        for forced in ("ship", "index-nl", "rehash"):
            planner = Planner(stats, PlannerConfig(join_strategy=forced))
            physical = planner.plan(logical)
            result = physical.execute(ctx)
            answers.append(
                sorted(
                    tuple(sorted((k, repr(v)) for k, v in row.items()))
                    for row in result.all_bindings()
                )
            )
        assert answers[0] == answers[1] == answers[2]


class TestPlanRegret:
    """The unforced plan must measure (nearly) as well as the best plan
    forcing one join strategy, on the planner's own objective.

    Every strategy runs from the same 4 coordinators.  A warm-up pass runs
    each strategy from each coordinator first, so route caches are warm for
    all of them, and every measured run starts from the same random state
    (store, overlay and link RNGs reseeded per coordinator), so two
    strategies that choose the same physical plan measure the same.
    """

    CLASSES = ("range", "join", "skyline", "topn")
    FORCED = ("oid-cluster", "ship", "index-nl", "rehash")
    #: Allowed regret.  Under this protocol two strategies with the same
    #: plan measured exactly equal on 6 store seeds at both sizes; with one
    #: warm-up run instead of a pass they differed by up to 13.5 %.  Pricing
    #: the star at a fixed 40 % of the leaves (the OidClusterScan choice)
    #: measured 1.69-1.86x the best here at 1000 peers.
    EPSILON = 0.10

    @pytest.fixture(scope="class", params=[128, 1000])
    def store(self, request):
        store = UniStore.build(request.param, replication=2, seed=7)
        workload = ConferenceWorkload(seed=7)
        workload.load_into(store)
        return store, workload.query_mix()

    @staticmethod
    def _objective(store, vql, strategy, coordinators) -> float | None:
        config = PlannerConfig(join_strategy=strategy)
        values = []
        for index, coordinator in enumerate(coordinators):
            for rng in (store.rng, store.pnet.rng, store.pnet.net.rng):
                rng.seed(index)
            result = store.execute(vql, config=config, coordinator=coordinator)
            values.append(
                config.latency_weight * result.answer_time
                + config.message_weight * result.messages
            )
        return statistics.fmean(values)

    @pytest.mark.parametrize("kind", CLASSES)
    def test_unforced_plan_is_near_the_best_forced_strategy(self, store, kind):
        store, mix = store
        vql = mix[kind]
        peers = store.pnet.peers
        coordinators = [peers[i * len(peers) // 4] for i in range(4)]
        applicable = []
        for strategy in (None, *self.FORCED):
            try:
                for coordinator in coordinators:  # warm-up pass
                    store.execute(
                        vql, config=PlannerConfig(join_strategy=strategy), coordinator=coordinator
                    )
            except PlanningError:
                continue
            applicable.append(strategy)
        measured = {s: self._objective(store, vql, s, coordinators) for s in applicable}
        chosen = measured.pop(None)
        best = min(measured.values())
        assert chosen <= (1 + self.EPSILON) * best, (kind, chosen, measured)
