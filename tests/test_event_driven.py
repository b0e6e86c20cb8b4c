"""Routed operations on the event scheduler (simulated time).

Covers the scheduler layer end to end:

* a fan-out over k regions with known per-hop latencies completes at the
  *max*, not the sum, of its chain latencies;
* deterministic replay — the same seed yields the identical delivery log and
  ``completion_time``;
* with pinned links the measured completion of ``lookup_many``,
  ``insert_many``, the shower and whole VQL queries equals the analytic max
  of the per-chain hop sums, and an attached scheduler and the implicit
  per-call one agree on messages and results;
* without an attached scheduler every top-level call runs on its own fresh
  clock and log.
"""

import math
import random

import pytest

from repro import UniStore
from repro.bench import ConferenceWorkload
from repro.errors import NodeUnreachableError
from repro.net import ConstantLatency, EventScheduler, Network, PlanetLabLatency, ZeroLatency
from repro.net.trace import Trace
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid import network as network_module
from repro.pgrid.datastore import Entry
from repro.pgrid.network import PGridNetwork
from repro.pgrid.range_query import _expand_shower, range_query_shower
from repro.pgrid.keys import KeyRange

WORDS = [f"word{i:03d}" for i in range(40)]
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


def _overlay(seed, latency_model=None, replication=2):
    pnet = build_network(
        32, replication=replication, seed=seed, split_by="population", latency_model=latency_model
    )
    return pnet


def _loaded(seed, latency_model=None):
    pnet = _overlay(seed, latency_model=latency_model)
    bulk_load(pnet, ITEMS)
    return pnet


def _entry_sets(results):
    return {key: {(e.item_id, e.value) for e in entries} for key, entries in results.items()}


def _pinned(seed, load=True):
    """A twin-able overlay whose every directed link has a fixed lognormal
    latency and no jitter (the E11 idiom), so hop sums are exact."""
    pnet = _overlay(seed, latency_model=ZeroLatency())
    rng = random.Random(1911)
    ids = [peer.node_id for peer in pnet.peers]
    for src in ids:
        for dst in ids:
            if src != dst:
                pnet.net.set_link_latency(
                    src, dst, rng.lognormvariate(math.log(0.04), 0.95), symmetric=False
                )
    if load:
        bulk_load(pnet, ITEMS)
    return pnet


def _hop_sum(pnet, hops):
    return sum(pnet.net.link_latency(src, dst) for src, dst in hops)


def _region_chains(pnet, keys, start):
    """``(destination, hops)`` per region, as the bulk operations discover them."""
    with pnet.clock() as scheduler:
        regions = pnet._route_regions(scheduler, keys, start, "probe")
    return [(destination, hops) for destination, _keys, hops in regions]


def _lookup_analytic(pnet, keys, start):
    """Max over regions of the chain's hop sum plus its reply hop."""
    finish = []
    for destination, hops in _region_chains(pnet, keys, start):
        if destination is not start:
            hops = [*hops, (destination.node_id, start.node_id)]
        finish.append(_hop_sum(pnet, hops))
    return max(finish)


def _insert_analytic(pnet, keys, start):
    """Max over regions of the chain's hop sum plus its slowest replica push."""
    finish = []
    for destination, hops in _region_chains(pnet, keys, start):
        pushes = [_hop_sum(pnet, [(destination.node_id, r)]) for r in destination.online_replicas()]
        finish.append(_hop_sum(pnet, hops) + max(pushes, default=0.0))
    return max(finish)


def _shower_analytic(pnet, node):
    """Critical path of a collect-mode shower tree: out, subtree, back."""
    branches = [0.0]
    for child in node.children:
        edge = [(node.peer.node_id, child.peer.node_id), (child.peer.node_id, node.peer.node_id)]
        branches.append(_hop_sum(pnet, edge) + _shower_analytic(pnet, child))
    return max(branches)


class TestKnownLatencyFanout:
    """A hand-built 3-peer trie with pinned link latencies."""

    def _tiny_overlay(self):
        pnet = PGridNetwork(Network(latency_model=ZeroLatency(), seed=0))
        a = pnet.add_peer("a", "00")
        b = pnet.add_peer("b", "01")
        c = pnet.add_peer("c", "1")
        a.routing.add(0, "c")
        a.routing.add(1, "b")
        b.routing.add(0, "c")
        b.routing.add(1, "a")
        c.routing.add(0, "a")
        pnet.net.set_link_latency("a", "b", 0.2)
        pnet.net.set_link_latency("a", "c", 0.5)
        b.store.put(Entry(key="011", item_id="x", value="vb", version=1))
        c.store.put(Entry(key="10", item_id="y", value="vc", version=1))
        return pnet, a

    def test_two_region_lookup_completes_at_max_of_chains(self):
        pnet, a = self._tiny_overlay()
        with pnet.event_driven() as sched:
            results, trace = pnet.lookup_many(["011", "10"], start=a)
        # Chains: a->b + reply (0.2 + 0.2) and a->c + reply (0.5 + 0.5).
        # Overlapped completion is the max (1.0), not the sum (1.4).
        assert trace.latency == pytest.approx(1.0)
        assert trace.completion_time == pytest.approx(1.0)
        assert trace.messages == 4 and trace.hops == 2
        assert {(e.item_id, e.value) for e in results["011"]} == {("x", "vb")}
        assert {(e.item_id, e.value) for e in results["10"]} == {("y", "vc")}
        # The delivery log shows the chains genuinely interleaved in time.
        assert [(d.src, d.dst, d.time) for d in sched.log] == [
            ("a", "b", pytest.approx(0.2)),
            ("b", "a", pytest.approx(0.4)),
            ("a", "c", pytest.approx(0.5)),
            ("c", "a", pytest.approx(1.0)),
        ]
        assert sched.pending() == 0

    def test_implicit_scheduler_agrees_on_the_max(self):
        pnet, a = self._tiny_overlay()
        _results, trace = pnet.lookup_many(["011", "10"], start=a)
        assert trace.latency == pytest.approx(1.0)  # max of 0.4 and 1.0
        # A fresh clock for the call: it starts at 0 and is gone afterwards.
        assert trace.completion_time == pytest.approx(1.0)
        assert pnet.scheduler is None

    def test_scheduler_refuses_offline_destination(self):
        pnet, a = self._tiny_overlay()
        pnet.peer("c").fail()
        scheduler = EventScheduler(pnet.net)
        with pytest.raises(NodeUnreachableError):
            scheduler.send_at(0.0, "a", "c", "test")


class TestDeterministicReplay:
    def _run(self, seed=404):
        pnet = _loaded(seed, latency_model=PlanetLabLatency())
        with pnet.event_driven() as sched:
            _results, lookup_trace = pnet.lookup_many(KEYS, start=pnet.peers[0])
            insert_trace = pnet.insert_many(
                [(encode_string(f"new{i}"), f"nid{i}", i) for i in range(10)],
                start=pnet.peers[1],
            )
        return list(sched.log), lookup_trace, insert_trace

    def test_same_seed_same_event_order_and_completion(self):
        log_a, lookup_a, insert_a = self._run()
        log_b, lookup_b, insert_b = self._run()
        assert log_a == log_b  # identical deliveries, identical instants
        assert lookup_a == lookup_b
        assert insert_a == insert_b
        assert insert_a.completion_time >= lookup_a.completion_time  # monotone clock

    def test_different_seed_differs(self):
        log_a, _lookup_a, _insert_a = self._run(404)
        log_b, _lookup_b, _insert_b = self._run(405)
        assert log_a != log_b


class TestModeAgreement:
    """Twin overlays: the implicit per-call scheduler vs an attached one.

    Both run the one execution path, so they agree on messages and results;
    with pinned links each measured completion equals the analytic max of
    the per-chain hop sums.
    """

    def test_lookup_many_messages_results_and_max_latency(self):
        oracle_net, implicit_net, attached_net = _pinned(77), _pinned(77), _pinned(77)
        analytic = _lookup_analytic(oracle_net, KEYS, oracle_net.peers[0])
        results_i, trace_i = implicit_net.lookup_many(KEYS, start=implicit_net.peers[0])
        with attached_net.net.frame() as frame, attached_net.event_driven():
            results_a, trace_a = attached_net.lookup_many(KEYS, start=attached_net.peers[0])
        assert _entry_sets(results_i) == _entry_sets(results_a)
        assert trace_i.messages == trace_a.messages == frame.messages
        assert trace_i.latency == pytest.approx(analytic, rel=1e-9)
        assert trace_a.latency == pytest.approx(analytic, rel=1e-9)
        assert frame.completion_time == pytest.approx(trace_a.completion_time)

    def test_insert_many_messages_and_replica_placement(self):
        oracle_net = _pinned(78, load=False)
        implicit_net, attached_net = _pinned(78, load=False), _pinned(78, load=False)
        analytic = _insert_analytic(oracle_net, KEYS, oracle_net.peers[0])
        trace_i = implicit_net.insert_many(ITEMS, start=implicit_net.peers[0])
        with attached_net.event_driven():
            trace_a = attached_net.insert_many(ITEMS, start=attached_net.peers[0])
        assert trace_i.messages == trace_a.messages
        assert trace_i.hops == trace_a.hops
        assert trace_i.latency == pytest.approx(analytic, rel=1e-9)
        assert trace_a.latency == pytest.approx(analytic, rel=1e-9)

        def stored(pnet):
            return {(e.key, e.item_id, e.value) for e in pnet.all_entries()}

        assert stored(implicit_net) == stored(attached_net)
        for key, item_id, value in ITEMS:
            for peer in attached_net.responsible_group(key):
                entry = peer.store.get_entry(key, item_id)
                assert entry is not None and entry.value == value

    def test_shower_fanout_same_tree_measured_max(self):
        oracle_net, implicit_net, attached_net = _pinned(79), _pinned(79), _pinned(79)
        key_range = KeyRange(encode_string("word000"), encode_string("word030"))
        tree = _expand_shower(oracle_net, oracle_net.peers[0], key_range, "", oracle_net.rng)
        assert tree.children
        analytic = _shower_analytic(oracle_net, tree)
        entries_i, trace_i, complete_i = range_query_shower(
            implicit_net, key_range, start=implicit_net.peers[0]
        )
        with attached_net.event_driven():
            entries_a, trace_a, complete_a = range_query_shower(
                attached_net, key_range, start=attached_net.peers[0]
            )
        assert complete_i and complete_a
        assert {(e.key, e.item_id) for e in entries_i} == {(e.key, e.item_id) for e in entries_a}
        assert trace_i.messages == trace_a.messages
        assert trace_i.hops == trace_a.hops
        assert trace_i.latency == pytest.approx(analytic, rel=1e-9)
        assert trace_a.latency == pytest.approx(analytic, rel=1e-9)

    @staticmethod
    def _conference_store(seed, qgrams=False):
        store = UniStore.build(
            num_peers=32,
            replication=2,
            seed=seed,
            latency_model=ConstantLatency(0.05),
            enable_qgram_index=qgrams,
        )
        workload = ConferenceWorkload(
            num_authors=20, num_publications=40, num_conferences=8, seed=seed
        )
        workload.load_into(store)
        return store, workload

    def test_full_queries_agree_end_to_end(self):
        # Every link costs 0.05 s with no jitter, so the analytic max of the
        # per-chain hop sums is 0.05 s per hop on the critical path.
        implicit_store, workload = self._conference_store(4242, qgrams=True)
        attached_store, _workload = self._conference_store(4242, qgrams=True)
        for name, vql in workload.query_mix().items():
            result_i = implicit_store.execute(vql)
            with attached_store.event_driven():
                result_a = attached_store.execute(vql)
            assert result_i.sorted_rows() == result_a.sorted_rows(), name
            assert result_i.messages == result_a.messages, name
            assert result_i.trace.hops == result_a.trace.hops, name
            for result in (result_i, result_a):
                assert result.answer_time == pytest.approx(0.05 * result.trace.hops), name
                assert result.trace.completion_time > 0.0, name

    def test_mqp_mode_runs_in_simulated_time(self):
        implicit_store, workload = self._conference_store(4243)
        attached_store, _workload = self._conference_store(4243)
        join_query = workload.query_mix()["join"]
        result_i = implicit_store.execute(join_query, mode="mqp")
        with attached_store.event_driven():
            result_a = attached_store.execute(join_query, mode="mqp")
        assert result_i.sorted_rows() == result_a.sorted_rows()
        assert result_i.messages == result_a.messages
        for result in (result_i, result_a):
            assert result.answer_time == pytest.approx(0.05 * result.trace.hops)
            assert result.trace.completion_time > 0.0


class TestSingleOps:
    def test_single_lookup_and_insert_round_trip(self):
        pnet = _loaded(91, latency_model=ConstantLatency(0.05))
        with pnet.event_driven() as sched:
            entries, lookup_trace = pnet.lookup(KEYS[3], start=pnet.peers[2])
            insert_trace = pnet.insert(
                encode_string("fresh"), "fv", item_id="fid", start=pnet.peers[2]
            )
            removed, delete_trace = pnet.delete(encode_string("fresh"), "fid")
        assert entries and lookup_trace.completion_time > 0.0
        assert insert_trace.completion_time >= lookup_trace.completion_time
        assert removed and delete_trace.completion_time >= insert_trace.completion_time
        assert sched.pending() == 0

    def test_detach_restores_per_call_clocks(self):
        pnet = _loaded(92)
        with pnet.event_driven():
            _entries, shared = pnet.lookup(KEYS[0], start=pnet.peers[0])
            _entries, later = pnet.lookup(KEYS[1], start=pnet.peers[0])
        assert later.completion_time == pytest.approx(shared.completion_time + later.latency)
        assert pnet.scheduler is None
        _entries, trace = pnet.lookup(KEYS[0], start=pnet.peers[0])
        assert trace.completion_time == pytest.approx(trace.latency)  # clock restarted at 0

    def test_back_to_back_calls_share_no_log_or_clock(self, monkeypatch):
        pnet = _loaded(93, latency_model=PlanetLabLatency())
        created = []

        class Recording(EventScheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(network_module, "EventScheduler", Recording)
        _results, first = pnet.lookup_many(KEYS[:20], start=pnet.peers[0])
        second = pnet.insert_many(ITEMS[20:], start=pnet.peers[1])
        assert len(created) == 2  # one implicit scheduler per top-level call
        for scheduler, trace in zip(created, (first, second)):
            assert len(scheduler.log) == trace.messages  # only its own deliveries
            assert scheduler.now == pytest.approx(trace.completion_time)
            assert trace.completion_time == pytest.approx(trace.latency)  # started at 0
            assert scheduler.pending() == 0
        assert pnet.scheduler is None and pnet._implicit is None


class TestTraceCompletionTime:
    def test_composition_takes_latest_instant(self):
        a = Trace(1, 1, 0.1, completion_time=0.4)
        b = Trace(1, 1, 0.2, completion_time=0.3)
        assert a.then(b).completion_time == 0.4
        assert Trace.parallel([a, b]).completion_time == 0.4
        assert a.then(Trace.ZERO) == a
        assert Trace.hop(0.1, at=1.5).completion_time == 1.5
        assert Trace(2, 2, 0.5).finished_at(9.0) == Trace(2, 2, 0.5, 9.0)
