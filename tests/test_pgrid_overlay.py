"""P-Grid overlay: construction, routing, inserts/lookups, fault tolerance."""

import hashlib
import heapq
import math
import random
import string
from bisect import bisect_left

import pytest

from repro.errors import RoutingError
from repro.net.network import Network
from repro.pgrid import (
    PGridNetwork,
    balanced_paths,
    bootstrap_exchange,
    build_network,
    bulk_load,
    data_split_paths,
    encode_string,
    is_complete_partition,
    route,
    wire_routing_tables,
)
from repro.pgrid.peer import RoutingTable


def _random_words(count, seed, length=6):
    rng = random.Random(seed)
    return ["".join(rng.choice(string.ascii_lowercase) for _ in range(length))
            for _ in range(count)]


class TestPathLayouts:
    @staticmethod
    def _split_shallowest_leftmost(max_groups):
        """Oracle: split the shallowest, leftmost leaf until the count is exact.

        Yields the sorted leaves at every count.  The victim is the smallest
        ``(depth, path)``; its children take its place in the sorted list.
        """
        heap = [(0, "")]
        leaves = [""]
        yield leaves
        while len(leaves) < max_groups:
            _, victim = heapq.heappop(heap)
            children = [victim + "0", victim + "1"]
            index = bisect_left(leaves, victim)
            leaves[index : index + 1] = children
            for child in children:
                heapq.heappush(heap, (len(child), child))
            yield leaves

    def test_balanced_paths_matches_split_loop_oracle(self):
        for count, leaves in enumerate(self._split_shallowest_leftmost(4096), start=1):
            assert balanced_paths(count) == leaves, count

    def test_balanced_paths_power_of_two(self):
        paths = balanced_paths(8)
        assert len(paths) == 8
        assert all(len(p) == 3 for p in paths)
        assert is_complete_partition(paths)

    def test_balanced_paths_odd_count(self):
        paths = balanced_paths(5)
        assert len(paths) == 5
        assert is_complete_partition(paths)
        # The leftmost depth-2 leaf is split; the other three stay.
        assert paths == ["000", "001", "01", "10", "11"]

    def test_balanced_paths_single(self):
        assert balanced_paths(1) == [""]

    def test_balanced_paths_rejects_zero(self):
        with pytest.raises(ValueError):
            balanced_paths(0)

    def test_data_split_follows_density(self):
        # All keys start with '0' -> the '0' side must be split deeper.
        keys = [encode_string(w) for w in _random_words(200, 3)]
        keys = ["0" + k[1:] for k in keys]
        paths = data_split_paths(keys, 8)
        assert is_complete_partition(paths)
        zero_side = [p for p in paths if p.startswith("0")]
        one_side = [p for p in paths if p.startswith("1")]
        assert len(zero_side) > len(one_side)

    def test_data_split_no_keys_falls_back(self):
        assert data_split_paths([], 4) == balanced_paths(4)


class TestOracleConstruction:
    def test_complete_partition(self):
        pnet = build_network(24, replication=2, seed=5)
        assert pnet.is_complete()

    def test_replication_target(self):
        pnet = build_network(32, replication=4, seed=5, split_by="population")
        groups = pnet.leaf_groups()
        assert len(groups) == 8
        assert all(len(peers) == 4 for peers in groups.values())

    def test_routing_tables_have_required_prefixes(self):
        pnet = build_network(32, replication=2, seed=6, split_by="population")
        for peer in pnet.peers:
            for level in range(len(peer.path)):
                refs = peer.valid_refs(level)
                assert refs, f"{peer.node_id} missing level {level}"
                prefix = peer.required_prefix(level)
                for ref_id in refs:
                    assert pnet.peer(ref_id).path.startswith(prefix)

    def test_overlapping_partition_gets_only_prefix_matching_refs(self):
        # "0" overlaps "00": the level-1 slice of "00" (prefix "01") is empty.
        pnet = PGridNetwork(Network(seed=8), seed=8)
        for node_id, path in (("a", "0"), ("b", "00"), ("c", "1")):
            pnet.add_peer(node_id, path=path)
        wire_routing_tables(pnet)
        for peer in pnet.peers:
            for level in peer.routing.levels():
                prefix = peer.required_prefix(level)
                for ref_id in peer.routing.refs(level):
                    assert pnet.peer(ref_id).path.startswith(prefix), (peer.path, level)
        assert pnet.peer("b").routing.refs(1) == []

    def test_replica_lists_symmetric(self):
        pnet = build_network(16, replication=2, seed=7, split_by="population")
        for peer in pnet.peers:
            for replica_id in peer.replicas:
                replica = pnet.peer(replica_id)
                assert replica.path == peer.path
                assert peer.node_id in replica.replicas

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_network(0)
        with pytest.raises(ValueError):
            build_network(4, replication=0)
        with pytest.raises(ValueError):
            build_network(4, split_by="magic")


def _overlay_digest(pnet):
    """Hash of every peer's id, path, per-level references and replicas."""
    digest = hashlib.sha256()
    for peer in pnet.peers:
        refs = tuple((level, tuple(peer.routing.refs(level))) for level in peer.routing.levels())
        digest.update(repr((peer.node_id, peer.path, refs, tuple(peer.replicas))).encode())
    return digest.hexdigest()[:16]


class TestOverlayFingerprints:
    """Pinned overlays: any change to construction's layout or RNG order fails here.

    ``data_words`` shapes the trie by a data sample (``split_by="data"``).
    """

    @pytest.mark.parametrize(
        "config, expected",
        [
            (dict(num_peers=1), "f6b257f96bfea425"),
            (dict(num_peers=2, seed=5), "8656fc648c225eff"),
            (dict(num_peers=7, seed=1, split_by="population"), "37cfdd73a40e2804"),
            (dict(num_peers=256, replication=2, seed=3), "f43332cd1e77908a"),
            (
                dict(num_peers=999, replication=3, seed=11, split_by="population"),
                "0e52c7768e8501e0",
            ),
            (dict(num_peers=4097, seed=7, fanout=3, split_by="population"), "92714149350b96e3"),
            (dict(num_peers=300, replication=2, seed=2, data_words=2000), "b34bc8111d3c531b"),
            (dict(num_peers=777, seed=9, data_words=5000), "803dbb2ecca0a309"),
        ],
    )
    def test_build_network_fingerprint(self, config, expected):
        config = dict(config)
        words = config.pop("data_words", None)
        keys = [encode_string(w) for w in _random_words(words, 4)] if words else None
        assert _overlay_digest(build_network(data_keys=keys, **config)) == expected


class TestOnlineSet:
    def test_random_online_peer_draws_as_from_a_fresh_online_list(self):
        """The cached online list follows fail/recover and keeps membership
        order, so a seeded draw picks what ``rng.choice(online_peers())``
        picks."""
        pnet = build_network(40, replication=2, seed=9)
        cached, fresh = random.Random(5), random.Random(5)
        churn = random.Random(6)
        for _round in range(30):
            peer = churn.choice(pnet.peers)
            toggle = peer.fail if peer.online else peer.recover
            toggle()
            for _draw in range(3):
                drawn = pnet.random_online_peer(cached)
                assert drawn is fresh.choice(pnet.online_peers())
                assert drawn.online

    def test_no_online_peer_raises(self):
        pnet = build_network(4, replication=1, seed=1)
        pnet.random_online_peer()
        for peer in pnet.peers:
            peer.fail()
        with pytest.raises(RoutingError):
            pnet.random_online_peer()
        pnet.peers[2].recover()
        assert pnet.random_online_peer() is pnet.peers[2]


class TestRoutingAndLookup:
    def test_every_key_reaches_owner(self):
        words = _random_words(100, seed=11)
        keys = [encode_string(w) for w in words]
        pnet = build_network(64, data_keys=keys, replication=2, seed=11)
        items = [(k, f"i{i}", w) for i, (k, w) in enumerate(zip(keys, words))]
        bulk_load(pnet, items)
        for word, key in zip(words, keys):
            entries, _trace = pnet.lookup(key)
            assert any(e.value == word for e in entries)

    def test_hops_are_logarithmic(self):
        words = _random_words(50, seed=13)
        keys = [encode_string(w) for w in words]
        pnet = build_network(128, replication=1, seed=13, split_by="population")
        hop_counts = []
        for key in keys:
            _entries, trace = pnet.lookup(key)
            hop_counts.append(trace.hops)
        # 128 groups -> log2 = 7; allow detours and reply hop.
        assert max(hop_counts) <= 2 * math.log2(128) + 2

    def test_route_from_every_peer(self):
        pnet = build_network(16, replication=1, seed=15, split_by="population")
        key = encode_string("hello")
        owners = {p.node_id for p in pnet.responsible_group(key)}
        for start in pnet.peers:
            destination, _trace = route(start, key)
            assert destination.node_id in owners

    def test_insert_reaches_all_replicas(self):
        pnet = build_network(16, replication=2, seed=17, split_by="population")
        key = encode_string("item")
        pnet.insert(key, "payload", item_id="a")
        group = pnet.responsible_group(key)
        assert len(group) == 2
        for peer in group:
            assert any(e.value == "payload" for e in peer.store.get(key))

    def test_lookup_fails_when_whole_group_dead(self):
        pnet = build_network(16, replication=2, seed=19, split_by="population")
        key = encode_string("doomed")
        pnet.insert(key, "x", item_id="a")
        for peer in pnet.responsible_group(key):
            peer.fail()
        alive = [p for p in pnet.peers if p.online]
        with pytest.raises(RoutingError):
            # Enough retries to rule out lucky detours.
            for start in alive:
                pnet.lookup(key, start=start)

    def test_lookup_survives_partial_group_failure(self):
        pnet = build_network(32, replication=4, seed=21, split_by="population")
        key = encode_string("resilient")
        pnet.insert(key, "x", item_id="a")
        group = pnet.responsible_group(key)
        for peer in group[:2]:  # kill half the replicas
            peer.fail()
        entries, _trace = pnet.lookup(key)
        assert any(e.value == "x" for e in entries)

    def test_stale_refs_pruned_on_use(self):
        pnet = build_network(8, replication=1, seed=23, split_by="population")
        peer = pnet.peers[0]
        level = 0
        refs_before = peer.routing.refs(level)
        assert refs_before
        # Corrupt one ref by pointing it at a peer from the wrong subtree.
        wrong = next(
            p for p in pnet.peers
            if not p.path.startswith(peer.required_prefix(level))
        )
        peer.routing.add(level, wrong.node_id)
        valid = peer.valid_refs(level)
        assert wrong.node_id not in valid
        assert wrong.node_id not in peer.routing.refs(level)  # pruned


class TestRoutingTable:
    def test_fanout_cap(self):
        table = RoutingTable(fanout=2)
        for index in range(5):
            table.add(0, f"p{index}")
        assert len(table.refs(0)) == 2

    def test_no_duplicates(self):
        table = RoutingTable()
        table.add(0, "p")
        table.add(0, "p")
        assert table.refs(0) == ["p"]

    def test_truncate(self):
        table = RoutingTable()
        table.add(0, "a")
        table.add(1, "b")
        table.add(2, "c")
        table.truncate(1)
        assert table.levels() == [0]

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RoutingTable(fanout=0)


class TestDecentralizedBootstrap:
    def test_exchange_converges_to_partition(self):
        pnet = PGridNetwork(seed=31)
        for index in range(16):
            pnet.add_peer(f"boot-{index:02d}")
        # Give every peer some data so splits are justified.
        words = _random_words(96, seed=31)
        rng = random.Random(31)
        for word in words:
            peer = rng.choice(pnet.peers)
            from repro.pgrid.datastore import Entry

            peer.store.put(Entry(encode_string(word), word, word, 0))
        bootstrap_exchange(pnet, rounds=60, capacity=12, rng=rng)
        paths = set(pnet.trie_paths())
        assert len(paths) > 1, "network never specialized"
        assert is_complete_partition(list(paths))

    def test_exchange_preserves_all_data(self):
        pnet = PGridNetwork(seed=37)
        for index in range(8):
            pnet.add_peer(f"boot-{index}")
        words = _random_words(40, seed=37)
        rng = random.Random(37)
        from repro.pgrid.datastore import Entry

        for word in words:
            rng.choice(pnet.peers).store.put(
                Entry(encode_string(word), word, word, 0)
            )
        bootstrap_exchange(pnet, rounds=40, capacity=8, rng=rng)
        stored = {e.item_id for e in pnet.all_entries()}
        assert stored == set(words)

    def test_peers_end_up_responsible_for_their_data(self):
        from repro.pgrid.keys import responsible

        pnet = PGridNetwork(seed=41)
        for index in range(8):
            pnet.add_peer(f"boot-{index}")
        words = _random_words(48, seed=41)
        rng = random.Random(41)
        from repro.pgrid.datastore import Entry

        for word in words:
            rng.choice(pnet.peers).store.put(
                Entry(encode_string(word), word, word, 0)
            )
        bootstrap_exchange(pnet, rounds=80, capacity=8, rng=rng)
        misplaced = 0
        for peer in pnet.peers:
            for entry in peer.store:
                if not responsible(peer.path, entry.key):
                    misplaced += 1
        total = sum(p.load for p in pnet.peers)
        assert misplaced / max(1, total) < 0.25  # most data homed correctly
