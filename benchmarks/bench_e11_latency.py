"""E11 — overlapped fan-out latency on the event scheduler.

The paper's answer-time argument assumes a parallel region fan-out completes
in the *max*, not the sum, of its per-destination hop chains.  This
experiment verifies it mechanically: the same batched ``lookup_many`` is
(a) run as a sequence of single lookups composed one after another, (b)
composed analytically from its per-region hop chains (sum of pinned link
latencies per chain, max over chains), and (c) run on the event
scheduler, where the chains are real interleaved events on a simulated
clock.

Link latencies are *pinned* up front from a seeded lognormal (PlanetLab-like
median 40 ms, heavy tail, no jitter), so twin overlays share identical links
regardless of first-touch order and (b) and (c) must agree exactly — any
drift would mean the scheduler mis-measures.  The reported speedup is
(a) / (c): what overlapping the fan-out buys over sequential composition.

E11b repeats the comparison for range queries (shower fan-out vs sequential
min-max traversal), and E11c runs the full conference query mix on a fresh
clock per query and on one shared clock.  Set ``UNISTORE_QUICK=1`` for the
CI smoke configuration.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro import UniStore
from repro.bench import ConferenceWorkload, ResultTable, mean, median
from repro.net.latency import ZeroLatency
from repro.net.trace import Trace
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.keys import KeyRange
from repro.pgrid.network import PGridNetwork
from repro.pgrid.range_query import _expand_shower, range_query_sequential, range_query_shower

from conftest import emit

QUICK = bool(os.environ.get("UNISTORE_QUICK"))

OVERLAY_SIZES = [64] if QUICK else [64, 128, 256]
NUM_KEYS = 32
LINK_SEED = 1911
MEDIAN_LATENCY = 0.040
SIGMA = 0.95


def _words(count: int, seed: int = 2718) -> list[str]:
    """Random tokens — spread across the key space so fan-outs hit many regions."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return sorted({"".join(rng.choice(alphabet) for _ in range(7)) for _ in range(count)})


WORDS = _words(NUM_KEYS)
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


def _pin_links(pnet: PGridNetwork, seed: int = LINK_SEED) -> None:
    """Assign every directed link a fixed lognormal latency.

    Pinning decouples link latencies from the order in which the execution
    models first touch them, so twin overlays are comparable link-for-link.
    """
    rng = random.Random(seed)
    mu = math.log(MEDIAN_LATENCY)
    ids = [peer.node_id for peer in pnet.peers]
    for src in ids:
        for dst in ids:
            if src != dst:
                pnet.net.set_link_latency(src, dst, rng.lognormvariate(mu, SIGMA), symmetric=False)


def _analytic_fanout(pnet: PGridNetwork, keys: list[str], start) -> Trace:
    """``lookup_many``'s region chains composed analytically: per chain the
    pinned hop latencies plus the reply add up; the fan-out takes the max."""
    link = pnet.net.link_latency
    with pnet.clock() as scheduler:
        # Route discovery only: no message is sent.
        regions = pnet._route_regions(scheduler, keys, start, "lookup")
    branches = []
    for destination, _region_keys, hops in regions:
        if destination is not start:
            hops = [*hops, (destination.node_id, start.node_id)]
        branches.append(sum((Trace.hop(link(src, dst)) for src, dst in hops), Trace.ZERO))
    return Trace.parallel(branches)


def _analytic_shower(pnet: PGridNetwork, node) -> float:
    """Critical path of a shower fan-out tree: forward edge, subtree,
    funnel-back edge, max over children."""
    link = pnet.net.link_latency
    branches = [0.0]
    for child in node.children:
        there, back = node.peer.node_id, child.peer.node_id
        branches.append(link(there, back) + _analytic_shower(pnet, child) + link(back, there))
    return max(branches)


def _overlay(num_peers: int, seed: int) -> PGridNetwork:
    pnet = build_network(
        num_peers,
        replication=2,
        seed=seed,
        split_by="population",
        latency_model=ZeroLatency(),  # every real link is pinned below
    )
    _pin_links(pnet)
    bulk_load(pnet, ITEMS)
    return pnet


def test_e11_fanout_max_vs_sum(benchmark):
    table = ResultTable(
        "E11: parallel fan-out latency — sequential composition vs overlapped "
        f"({NUM_KEYS} probe keys; pinned PlanetLab-like links)",
        ["peers", "seq s", "analytic max s", "event-driven s", "msgs", "speedup"],
    )
    last_event_net = None
    for num_peers in OVERLAY_SIZES:
        seed = 3000 + num_peers
        seq_net = _overlay(num_peers, seed)
        trace_net = _overlay(num_peers, seed)
        event_net = _overlay(num_peers, seed)

        sequential = Trace.ZERO
        for key in KEYS:
            _entries, one = seq_net.lookup(key, start=seq_net.peers[0])
            sequential = sequential.then(one)

        analytic = _analytic_fanout(trace_net, KEYS, trace_net.peers[0])
        with event_net.event_driven():
            _results, overlapped = event_net.lookup_many(KEYS, start=event_net.peers[0])

        # The scheduler must *measure* what the analytic composition
        # asserts: the fan-out completes at the max of its per-region chains.
        assert overlapped.latency == pytest.approx(analytic.latency, rel=1e-9)
        assert overlapped.messages == analytic.messages
        assert overlapped.latency < sequential.latency
        speedup = sequential.latency / overlapped.latency
        assert speedup > 1.5, f"overlap buys too little at {num_peers} peers"
        table.add_row(
            num_peers,
            sequential.latency,
            analytic.latency,
            overlapped.latency,
            overlapped.messages,
            speedup,
        )
        last_event_net = event_net
    emit(table)

    def probe():
        with last_event_net.event_driven():
            last_event_net.lookup_many(KEYS, start=last_event_net.peers[0])

    benchmark.pedantic(probe, rounds=3, iterations=1)


def test_e11b_range_query_shower_overlap(benchmark):
    table = ResultTable(
        "E11b: range query latency — shower fan-out overlapped vs sequential walk",
        ["peers", "algorithm", "clock", "latency s", "msgs", "rows"],
    )
    key_range = KeyRange(encode_string(WORDS[2]), encode_string(WORDS[-3]))
    for num_peers in OVERLAY_SIZES:
        seed = 5000 + num_peers
        rows = []
        for algorithm, runner in (
            ("shower", range_query_shower),
            ("sequential", range_query_sequential),
        ):
            trace_net = _overlay(num_peers, seed)
            entries_t, trace_t, complete_t = runner(trace_net, key_range, start=trace_net.peers[0])
            event_net = _overlay(num_peers, seed)
            with event_net.event_driven():
                entries_e, trace_e, complete_e = runner(
                    event_net, key_range, start=event_net.peers[0]
                )
            assert complete_t and complete_e
            assert len(entries_t) == len(entries_e)
            assert trace_t.messages == trace_e.messages
            rows.append((algorithm, trace_t, trace_e, len(entries_e)))
            table.add_row(
                num_peers, algorithm, "per-call", trace_t.latency, trace_t.messages, len(entries_t)
            )
            table.add_row(
                num_peers, algorithm, "shared", trace_e.latency, trace_e.messages, len(entries_e)
            )
        # The shower's measured overlap must agree with its analytic max.
        # (Whether it beats the serial walk depends on range width — the
        # paper's trade-off — so that column is reported, not asserted.)
        twin = _overlay(num_peers, seed)
        tree = _expand_shower(twin, twin.peers[0], key_range, "", twin.rng)
        shower_t = Trace(latency=_analytic_shower(twin, tree))
        shower_e = rows[0][2]
        assert shower_e.latency == pytest.approx(shower_t.latency, rel=1e-9)
    emit(table)

    final_net = _overlay(OVERLAY_SIZES[-1], 5000 + OVERLAY_SIZES[-1])

    def shower():
        with final_net.event_driven():
            range_query_shower(final_net, key_range, start=final_net.peers[0])

    benchmark.pedantic(shower, rounds=3, iterations=1)


def test_e11c_query_mix_event_vs_trace():
    num_peers = 64
    seed = 7100

    def build():
        store = UniStore.build(
            num_peers=num_peers,
            replication=2,
            seed=seed,
            latency_model=ZeroLatency(),
            enable_qgram_index=True,
        )
        _pin_links(store.pnet)
        workload = ConferenceWorkload(
            num_authors=40, num_publications=80, num_conferences=12, seed=seed
        )
        workload.load_into(store)
        return store, workload

    trace_store, workload = build()
    event_store, _workload = build()
    runs = 2 if QUICK else 6
    table = ResultTable(
        f"E11c: query answer times, {num_peers} peers — fresh clock per query vs shared clock",
        ["query class", "per-call median s", "shared median s", "mean msgs"],
    )
    for name, vql in workload.query_mix().items():
        trace_latencies, event_latencies, messages = [], [], []
        for _ in range(runs):
            result_t = trace_store.execute(vql)
            with event_store.event_driven():
                result_e = event_store.execute(vql)
            assert result_t.sorted_rows() == result_e.sorted_rows(), name
            trace_latencies.append(result_t.answer_time)
            event_latencies.append(result_e.answer_time)
            messages.append(float(result_e.messages))
        table.add_row(name, median(trace_latencies), median(event_latencies), mean(messages))
        # Both must stay in the paper's "couple of seconds" band.
        assert median(event_latencies) < 3.0, name
    emit(table)
