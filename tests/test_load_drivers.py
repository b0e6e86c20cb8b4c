"""Concurrent workload drivers, replica diffusion, churn under load.

* open-loop and closed-loop drivers keep many operations in flight on one
  clock and are deterministic per seed (identical delivery log, utilization
  snapshot and latency percentiles across runs);
* replica-based query-load diffusion spreads a hot key's work over its
  replica group (lower peak busy time, same answers);
* a peer failing mid-queue has its in-flight work re-routed: every issued
  operation ends completed or failed, the heap drains, and the outcome is
  deterministic (the churn regression of this PR);
* the delivery log and every ``OpRecord`` of eight small driver runs are
  pinned by sha256 digest.
"""

import hashlib
import random
from dataclasses import astuple

import pytest

from repro.bench import percentile
from repro.load import (
    ClosedLoopDriver,
    LoadModel,
    OpenLoopDriver,
    ServiceProfile,
    ThresholdAdmission,
    choose_replica,
    completed_latencies,
    summarize,
)
from repro.net import ConstantLatency
from repro.net.churn import ChurnEvent, generate_session_trace
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.load_balancing import query_load_imbalance

_WORD_RNG = random.Random(4096)
WORDS = sorted(
    {
        "".join(_WORD_RNG.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        for _ in range(40)
    }
)
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]
PROFILE = {"lookup": 0.002, "result": 0.0002}


def _overlay(seed=31, replication=3, num_peers=48):
    pnet = build_network(
        num_peers,
        replication=replication,
        seed=seed,
        split_by="population",
        latency_model=ConstantLatency(0.01),
    )
    bulk_load(pnet, ITEMS)
    return pnet


class TestOpenLoopDriver:
    def _run(self, seed=5, diffusion="none"):
        pnet = _overlay()
        model = LoadModel(ServiceProfile(PROFILE))
        with pnet.event_driven(load=model) as sched:
            driver = OpenLoopDriver(
                pnet, KEYS, rate=150, horizon=1.0, key_skew=0.9, seed=seed, diffusion=diffusion
            )
            records = driver.run()
            pending = sched.pending()
        return records, model, list(sched.log), pending

    def test_all_ops_complete_and_heap_drains(self):
        records, model, log, pending = self._run()
        assert pending == 0
        assert records and all(r.completed is not None for r in records)
        assert all(r.ok for r in records)
        # Every lookup found its bulk-loaded entry.
        assert all(r.entries == 1 for r in records if r.kind == "lookup")
        stats = summarize(records)
        assert stats["ok"] == stats["ops"] and stats["failed"] == 0
        assert stats["p95"] >= stats["p50"] > 0.0

    def test_same_seed_identical_log_utilization_and_percentiles(self):
        a_records, a_model, a_log, _ = self._run(seed=5)
        b_records, b_model, b_log, _ = self._run(seed=5)
        assert a_log == b_log
        assert a_model.snapshot(horizon=1.0) == b_model.snapshot(horizon=1.0)
        a_lat, b_lat = completed_latencies(a_records), completed_latencies(b_records)
        for p in (50.0, 90.0, 95.0, 99.0):
            assert percentile(a_lat, p) == percentile(b_lat, p)

    def test_different_seed_differs(self):
        _, _, a_log, _ = self._run(seed=5)
        _, _, b_log, _ = self._run(seed=6)
        assert a_log != b_log

    def test_offered_load_raises_latency(self):
        """More offered load on the same overlay => worse tail latency."""

        def p95_at(rate):
            pnet = _overlay()
            model = LoadModel(ServiceProfile({"lookup": 0.004, "result": 0.0005}))
            with pnet.event_driven(load=model):
                driver = OpenLoopDriver(
                    pnet,
                    KEYS,
                    rate=rate,
                    horizon=1.0,
                    key_skew=1.2,
                    gateways=[pnet.peers[0]],
                    seed=7,
                )
                records = driver.run()
            return summarize(records)["p95"], max(model.utilization(1.0).values())

        low, low_util = p95_at(50)
        high, high_util = p95_at(800)
        assert high_util > low_util
        assert high > low

    def test_mixed_inserts_apply_to_all_replicas(self):
        pnet = _overlay()
        model = LoadModel(ServiceProfile(PROFILE))
        with pnet.event_driven(load=model):
            driver = OpenLoopDriver(pnet, KEYS, rate=100, horizon=0.5, insert_fraction=0.5, seed=11)
            records = driver.run()
        inserts = [r for r in records if r.kind == "insert"]
        assert inserts and all(r.ok for r in inserts)
        for record in inserts:
            group = pnet.responsible_group(record.key)
            stored = [p for p in group if p.store.get_entry(record.key, f"drv-{record.index}")]
            assert stored, record.index
            # Replication: every online member of the group got the push.
            assert len(stored) == len([p for p in group if p.online])


class TestDriverConfig:
    @pytest.mark.parametrize("insert_fraction", [0.0, 1.0])
    def test_unknown_diffusion_policy_is_rejected_up_front(self, insert_fraction):
        pnet = _overlay()
        with pytest.raises(ValueError, match="unknown diffusion policy 'least_busy'"):
            OpenLoopDriver(
                pnet,
                KEYS,
                rate=50,
                horizon=0.2,
                insert_fraction=insert_fraction,
                diffusion="least_busy",
            )
        with pytest.raises(ValueError, match="unknown diffusion policy"):
            ClosedLoopDriver(pnet, KEYS, diffusion="oracle")


class TestClosedLoopDriver:
    def test_every_client_completes_its_ops(self):
        pnet = _overlay()
        model = LoadModel(ServiceProfile(PROFILE))
        with pnet.event_driven(load=model) as sched:
            driver = ClosedLoopDriver(
                pnet, KEYS, clients=5, ops_per_client=8, think_time=0.005, seed=3
            )
            records = driver.run()
            assert sched.pending() == 0
        assert len(records) == 5 * 8
        assert all(r.ok for r in records)

    def test_closed_loop_is_deterministic(self):
        def run():
            pnet = _overlay()
            model = LoadModel(ServiceProfile(PROFILE))
            with pnet.event_driven(load=model) as sched:
                ClosedLoopDriver(pnet, KEYS, clients=4, ops_per_client=6, seed=9).run()
                return list(sched.log)

        assert run() == run()


class TestReplicaDiffusion:
    def _hot_run(self, diffusion):
        """One gateway hammering one hot key: the diffusion stress case."""
        pnet = _overlay(seed=77, replication=4, num_peers=48)
        model = LoadModel(ServiceProfile({"lookup": 0.004, "result": 0.0001}))
        with pnet.event_driven(load=model):
            driver = OpenLoopDriver(
                pnet,
                [KEYS[8]],
                rate=300,
                horizon=1.0,
                gateways=[pnet.peers[0]],
                diffusion=diffusion,
                seed=13,
            )
            records = driver.run()
        return records, model, pnet

    @pytest.mark.parametrize("policy", ["random", "least-busy"])
    def test_diffusion_spreads_hot_key_load(self, policy):
        plain_records, plain_model, plain_net = self._hot_run("none")
        spread_records, spread_model, pnet = self._hot_run(policy)
        assert all(r.ok for r in plain_records) and all(r.ok for r in spread_records)
        population = [p.node_id for p in plain_net.peers]
        plain_imbalance = query_load_imbalance(plain_model.busy_by_peer(), population)
        spread_imbalance = query_load_imbalance(spread_model.busy_by_peer(), population)
        # Same total work, far less of it concentrated on the hottest peer.
        assert spread_imbalance["max"] < plain_imbalance["max"] / 1.5
        group = [p for p in pnet.responsible_group(KEYS[8]) if p.online]
        served = [p for p in group if spread_model.busy_by_peer().get(p.node_id, 0.0) > 0]
        assert len(served) > 1, "diffusion should hit more than one replica"
        # And the latency tail improves because queueing delay shrinks.
        assert summarize(spread_records)["p95"] < summarize(plain_records)["p95"]

    def test_least_busy_picks_the_idle_member(self):
        pnet = _overlay(seed=77, replication=3)
        model = LoadModel(ServiceProfile({"lookup": 1.0}))
        destination = pnet.responsible_group(KEYS[0])[0]
        members = sorted(
            [destination] + [pnet.net.nodes[r] for r in destination.online_replicas()],
            key=lambda p: p.node_id,
        )
        assert len(members) >= 2
        # Pile synthetic backlog on everyone except one member.
        idle = members[-1]
        for peer in members:
            if peer is not idle:
                model.queue(peer.node_id).admit(0.0, 5.0)
        chosen = choose_replica(
            destination, policy="least-busy", rng=random.Random(0), load=model, now=0.0
        )
        assert chosen is idle

    def test_pnet_lookup_diffusion_returns_same_entries(self):
        pnet = _overlay(seed=31, replication=3)
        pnet.replica_diffusion = "random"
        destinations = set()
        for _ in range(12):
            entries, _trace, destination = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
            assert {(e.item_id, e.value) for e in entries} == {
                (f"id-{WORDS[3]}", f"val-{WORDS[3]}")
            }
            destinations.add(destination.node_id)
        assert len(destinations) > 1  # reads actually spread over the group
        pnet.replica_diffusion = "none"
        _entries, _trace, pinned = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
        _entries, _trace, again = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
        assert pinned is again  # route cache pins without diffusion

    def test_lookup_many_diffuses_the_batched_read_path(self):
        """The bulk read path (joins, MQP probes) must spread reads too."""

        def serving_peers(policy):
            pnet = _overlay(seed=31, replication=3)
            pnet.replica_diffusion = policy
            group_ids = {p.node_id for p in pnet.responsible_group(KEYS[3])}
            served = set()
            with pnet.event_driven() as sched:
                for _ in range(12):
                    results, _trace = pnet.lookup_many([KEYS[3]], start=pnet.peers[0])
                    assert {(e.item_id, e.value) for e in results[KEYS[3]]} == {
                        (f"id-{WORDS[3]}", f"val-{WORDS[3]}")
                    }
                served = {d.dst for d in sched.log if d.dst in group_ids}
            return served

        assert len(serving_peers("random")) > 1
        assert len(serving_peers("none")) == 1  # pinned without diffusion

    def test_load_model_backlog_read_does_not_create_queues(self):
        model = LoadModel(ServiceProfile({"op": 1.0}))
        assert model.backlog("ghost", now=0.0) == 0.0
        assert model.busy_by_peer() == {}  # the read left no phantom peer
        model.admit("real", 0.0, "op")
        assert model.backlog("real", now=0.5) == pytest.approx(0.5)
        assert set(model.busy_by_peer()) == {"real"}


class TestChurnUnderLoad:
    def test_partial_route_accounting_survives_dead_hops(self):
        """A failed route's partial-hop replay must stop at a dead hop, not
        raise NodeUnreachableError inside the simulator (driver-crash bug)."""
        pnet = _overlay(seed=31, replication=3)
        with pnet.event_driven() as sched:
            a, b, c = pnet.peers[0], pnet.peers[1], pnet.peers[2]
            c.fail()  # the chain's second hop destination is already dead
            stopped = []
            sched.chain(
                [(a.node_id, b.node_id), (b.node_id, c.node_id)],
                "lookup",
                on_dead=lambda index, _t: stopped.append(index),
            )
            sched.run()  # must not raise
            assert [(d.src, d.dst) for d in sched.log] == [(a.node_id, b.node_id)]
            assert stopped == [1]
            assert sched.pending() == 0

    def test_mid_queue_failure_redirects_queued_work(self):
        """A destination dies while requests are queued on it: the affected
        operations re-route to a replica and still answer."""
        pnet = _overlay(seed=31, replication=3)
        hot_key = KEYS[5]
        gateway = next(p for p in pnet.peers if p not in pnet.responsible_group(hot_key))
        # Discover the peer the gateway's lookups will pin to.
        entries, _trace, victim = pnet.lookup_at(hot_key, start=gateway)
        assert entries
        model = LoadModel(ServiceProfile({"lookup": 0.05, "result": 0.0}))
        churn = [ChurnEvent(time=0.08, node_id=victim.node_id, online=False)]
        with pnet.event_driven(load=model) as sched:
            driver = OpenLoopDriver(
                pnet, [hot_key], rate=120, horizon=0.3, gateways=[gateway], seed=17
            )
            records = driver.run(churn_trace=churn)
            assert sched.pending() == 0
        assert records
        assert all(r.completed is not None for r in records)  # nothing lost
        rerouted = [r for r in records if r.reroutes > 0]
        assert rerouted, "the mid-queue failure must force re-routes"
        assert all(r.ok and r.entries == 1 for r in rerouted)
        assert all(r.ok for r in records)

    def test_session_trace_churn_is_deterministic_and_lossless(self):
        def run():
            pnet = _overlay(seed=31, replication=3)
            model = LoadModel(ServiceProfile(PROFILE))
            trace = generate_session_trace(
                [p.node_id for p in pnet.peers],
                horizon=1.5,
                mean_session=0.8,
                mean_downtime=0.2,
                rng=random.Random(42),
            )
            with pnet.event_driven(load=model) as sched:
                driver = OpenLoopDriver(pnet, KEYS, rate=150, horizon=1.5, key_skew=0.8, seed=23)
                records = driver.run(churn_trace=trace)
                pending = sched.pending()
            outcome = [
                (r.index, r.kind, r.ok, r.reroutes, round(r.completed, 9)) for r in records
            ]
            return outcome, list(sched.log), model.snapshot(), pending

        a = run()
        b = run()
        assert a == b  # identical outcomes, event log, utilization
        outcome, _log, _snap, pending = a
        assert pending == 0, "no scheduler deadlock"
        assert outcome and all(completed is not None for *_rest, completed in outcome)
        assert any(ok for _i, _k, ok, _r, _c in outcome)


#: Driver runs pinned by digest: ``(loop, shed depth, hints, gateways, churn,
#: driver kwargs)``.  Together they exercise reroutes, reject retries on
#: transit and final hops, "no route" dead ends and "initiator offline".
FINGERPRINT_RUNS = {
    "open-none": (
        "open", None, False, 0, False,
        dict(rate=150, horizon=0.5, key_skew=0.9, insert_fraction=0.2, seed=5),
    ),
    "open-least-busy": (
        "open", None, False, 0, False,
        dict(rate=400, horizon=0.4, key_skew=1.1, insert_fraction=0.1, diffusion="least-busy",
             seed=6),
    ),
    "open-oracle-shed-hints": (
        "open", 3, True, 0, False,
        dict(rate=1200, horizon=0.3, key_skew=1.2, insert_fraction=0.1,
             diffusion="least-busy-oracle", seed=7),
    ),
    "open-busy-shed-hints": (
        "open", 2, True, 2, False,
        dict(rate=1500, horizon=0.3, key_skew=1.2, insert_fraction=0.2, diffusion="least-busy",
             seed=8),
    ),
    "open-churn": (
        "open", None, False, 0, True,
        dict(rate=150, horizon=1.5, key_skew=0.8, insert_fraction=0.2, seed=23),
    ),
    "closed-none": (
        "closed", None, False, 0, False,
        dict(clients=6, ops_per_client=12, think_time=0.002, insert_fraction=0.2, seed=3),
    ),
    "closed-oracle-shed-hints": (
        "closed", 2, True, 1, False,
        dict(clients=24, ops_per_client=8, key_skew=1.2, diffusion="least-busy-oracle", seed=9),
    ),
    "closed-least-busy-churn": (
        "closed", None, False, 0, True,
        dict(clients=8, ops_per_client=25, think_time=0.01, insert_fraction=0.2,
             diffusion="least-busy", seed=4),
    ),
}  # fmt: skip

DRIVER_DIGESTS = {
    "open-none": "d43f233aca3736e4c1cffa99cb2615dea16c29ea981b8f51d0e38122fd63eb14",
    "open-least-busy": "f1205d70e86ffeb653b852fd5e5139d412c8bba45f3e480b2c470c2e8f0c5e0a",
    "open-oracle-shed-hints": "e7ac7e92318b08d229b540ec52e1ebefa98573e931792af978bd6e55f6542ed7",
    "open-busy-shed-hints": "d7621ca41ed0174968490ff8e87216fd750facc41f642581e3087e6537f99509",
    "open-churn": "69655a5536b74e673586b31006e683159a5b28dd9e7e7e453f13e6bc460a4042",
    "closed-none": "a8db7d52d2b73766d29c14a9b5224dedead321c518241214ca04d14efa9d23d4",
    "closed-oracle-shed-hints": "698750acc55fe9a91312bacaa90a80fd0fe4d62230e602c0e366e1269922a840",
    "closed-least-busy-churn": "763575e2261faca40c94cf1640cdb35227fbe0661b8aff36f9e23daf5f84bc43",
}


class TestDriverFingerprints:
    """Byte-identity of driver runs: sha256 over the delivery log and every
    ``OpRecord`` field.  A change to hop walking, retry order or RNG draw
    order moves a digest."""

    @pytest.mark.parametrize("name", sorted(FINGERPRINT_RUNS))
    def test_run_matches_pinned_digest(self, name):
        loop, shed, hints, gateways, churn, kwargs = FINGERPRINT_RUNS[name]
        pnet = _overlay()
        model = LoadModel(
            ServiceProfile(PROFILE), admission=ThresholdAdmission(shed) if shed else None
        )
        if gateways:
            kwargs = dict(kwargs, gateways=pnet.peers[:gateways])
        trace = None
        if churn:
            trace = generate_session_trace(
                [p.node_id for p in pnet.peers],
                horizon=1.5,
                mean_session=0.6,
                mean_downtime=0.4,
                rng=random.Random(42),
            )
        driver_class = OpenLoopDriver if loop == "open" else ClosedLoopDriver
        with pnet.event_driven(load=model, hints=hints) as sched:
            records = driver_class(pnet, KEYS, **kwargs).run(churn_trace=trace)
            assert sched.pending() == 0
        payload = repr(([astuple(d) for d in sched.log], [astuple(r) for r in records]))
        assert hashlib.sha256(payload.encode()).hexdigest() == DRIVER_DIGESTS[name]
