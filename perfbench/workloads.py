"""The three workloads, driven through the program's public API only.

Each workload builds its testbed at least ``SETUP_REPEATS`` times and for
at least ``SETUP_MIN_S`` seconds (``setup_s`` is the median build),
then runs a fixed, seed-determined *sample* of operations followed by more
operations until ``seconds`` of wall time have been spent inside the
program's API calls.  Wall-clock metrics use every timed operation;
simulated (``sim_*``) metrics use the sample only, so they repeat exactly
for a seed no matter how fast the program runs.  Checks run between the
timed calls and are not timed.  A traced run executes setup and the sample
only, each under a root span.

Wall times are host-normalised: a fixed pure-Python probe runs just before
every timed call, and each call's time is scaled by ``PROBE_REFERENCE_S``
over the mean probe time around it.  On a shared 2-vCPU virtual machine
the CPU speed was measured to swing by up to 1.6x over seconds to minutes;
the probe slows down with it, so the ratio stays put while a change to the
program still moves it in full.  Raw times are reported next to them.

Warm-up policy: ``query_mix`` runs one untimed pass of the mix before
timing (imports, statistics cache, lazy set-up); ``ingest`` and
``open_loop`` time from the freshly built overlay, because every user run
pays that cost.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import inputs
from repro import UniStore
from repro.load import LoadModel, OpenLoopDriver, ServiceProfile, ThresholdAdmission, goodput
from repro.net.latency import ConstantLatency, UniformLatency
from repro.pgrid import build_network, bulk_load, encode_string
from repro.triples.triple import Triple

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: Seed of the testbed: every overlay, the stored data of query_mix and
#: open_loop, and the peer speeds.  The workload seed draws the operations
#: run against it, so the spread between seeds measures the operations,
#: not a reshuffled overlay or a different plan-shaping data set.
TESTBED_SEED = 0
#: Link latencies of the query_mix and ingest overlays: uniform around the
#: default 50 ms, so simulated answer times are not a staircase of hop counts.
LINKS = UniformLatency(0.025, 0.075)

WARMUP_POLICY = {
    "query_mix": "one untimed pass of the 12-query mix after setup (imports, statistics cache, "
    "lazy set-up); its time is reported as warmup_s",
    "ingest": "none: timed from the freshly built overlay, as every user run is",
    "open_loop": "none: timed from the freshly built overlay, as every user run is",
}


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Metrics under the issue's workload-specific names.
    named: dict[str, float] = field(default_factory=dict)
    #: The generic end-to-end metric -> its workload-specific name.
    generic: dict[str, str] = field(default_factory=dict)
    #: Simulated / counted per-layer values measured on the sample.
    layers: dict[str, float] = field(default_factory=dict)
    #: Wall seconds spent in the sample's API calls (traced-run overhead base).
    sample_wall_s: float = 0.0
    sample_ops: int = 0
    builds: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


#: Seconds one host-speed probe takes on the reference host; a fixed scale.
PROBE_REFERENCE_S = 0.0005


def _probe_work() -> int:
    """Fixed pure-Python work — dicts, strings, sorting, big-integer fractions."""
    table: dict[str, tuple[int, str]] = {}
    total = 0
    for i in range(300):
        key = format(i * 2654435761 % 4096, "012b")
        table[key] = (i, key[:5])
        total += len(table.get(key[::-1], ()))
    value = Fraction(0)
    for key in sorted(table)[:30]:
        value += Fraction(int(key, 2), 4096)
    return total + value.denominator


def probe(repeats: int) -> float:
    """Mean seconds of one probe, with the garbage collector paused so the
    program's heap cannot leak into the yardstick."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        for _ in range(repeats):
            _probe_work()
        return (time.perf_counter() - begin) / repeats
    finally:
        if enabled:
            gc.enable()


class HostTimer:
    """Raw wall times of timed calls, each preceded by a host-speed probe."""

    def __init__(self, repeats: int, window: int):
        self.repeats = repeats
        self.window = window
        self.walls: list[float] = []
        self.probes: list[float] = []
        self.busy = 0.0

    def probe(self) -> None:
        self.probes.append(probe(self.repeats))

    def add(self, elapsed: float) -> None:
        self.walls.append(elapsed)
        self.busy += elapsed

    def normalized(self) -> list[float]:
        """Each call's time scaled by the mean probe over its +-window neighbours."""
        out = []
        for i, wall in enumerate(self.walls):
            near = self.probes[max(0, i - self.window) : i + self.window + 1]
            out.append(wall * PROBE_REFERENCE_S * len(near) / sum(near))
        return out

    def host_speed(self) -> float:
        """Reference probe time over the mean measured one (>1: faster host)."""
        return PROBE_REFERENCE_S * len(self.probes) / sum(self.probes)


def _setup(build, tracer) -> tuple[object, float, float, int]:
    """Build at least SETUP_REPEATS times and for SETUP_MIN_S seconds.

    Keeps the last result; returns it with the median host-normalised and
    raw build times and the number of builds.
    """
    times: list[float] = []
    normalized: list[float] = []
    result = None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 50):
        result = None
        gc.collect()
        before = probe(20)
        with _root(tracer, f"setup:{len(times)}"):
            begin = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - begin)
        normalized.append(times[-1] * PROBE_REFERENCE_S * 2 / (before + probe(20)))
    return result, statistics.median(normalized), statistics.median(times), len(times)


def _root(tracer, label: str):
    return tracer.root(label) if tracer else nullcontext()


def _cache_totals(peers) -> tuple[int, int]:
    return (sum(p.route_cache.hits for p in peers), sum(p.route_cache.misses for p in peers))


def _hit_ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# -- query_mix ------------------------------------------------------------------

QM_PEERS = 1000
QM_PASSES = 8  # sample: 8 passes x 12 queries


def _canonical(rows) -> list[str]:
    return sorted(map(repr, rows))


def _rows_match(kind: str, rows, reference) -> bool:
    if _canonical(rows) == _canonical(reference):
        return True
    # E10's top-N tie rule: any valid top-N (same multiset of the sort key).
    return kind == "topn" and sorted(r["cnt"] for r in rows) == sorted(r["cnt"] for r in reference)


def query_mix(seed: int, seconds: float, tracer=None) -> Outcome:
    domain = inputs.Domain(TESTBED_SEED)

    def build():
        store = UniStore.build(
            QM_PEERS, LINKS, replication=2, seed=TESTBED_SEED, enable_qgram_index=True
        )
        oids = store.bulk_load_tuples(domain.people, "person")
        edges = zip(oids, domain.authored)
        store.store.bulk_insert(
            [Triple(oid, "has_published", title) for oid, titles in edges for title in titles]
        )
        store.bulk_load_tuples(domain.publications, "pub")
        store.bulk_load_tuples(domain.conferences, "conf")
        store.refresh_statistics()
        return store

    store, setup_s, raw_setup_s, builds = _setup(build, tracer)
    out = Outcome(setup_s=setup_s, builds=builds)
    out.named["raw_setup_s"] = raw_setup_s
    peers = store.pnet.peers
    sample = inputs.query_passes(domain, f"sample-{seed}", QM_PASSES)
    coord_rng = random.Random(f"coordinators-{seed}")
    sample_coords = [coord_rng.randrange(len(peers)) for _ in sample]

    # Reference answers: once per distinct query, outside setup and timing.
    # An explicit coordinator keeps the store's own RNG untouched.
    references = {}
    for _kind, _mode, vql in sample:
        if vql not in references:
            references[vql] = store.execute(vql, mode="reference", coordinator=peers[0]).rows

    begin = time.perf_counter()
    for _kind, mode, vql in inputs.query_passes(domain, f"warmup-{seed}", 1):
        store.execute(vql, mode=mode, coordinator=peers[coord_rng.randrange(len(peers))])
    out.named["warmup_s"] = time.perf_counter() - begin

    if tracer:
        tracer.counts.clear()
    timer = HostTimer(repeats=2, window=6)
    classes: list[str] = []
    answer: list[float] = []
    messages: list[int] = []
    cycle = 0
    cache_before = _cache_totals(peers)
    while True:
        with store.pnet.net.frame() if cycle == 0 else nullcontext() as frame:
            for index, (kind, mode, vql) in enumerate(sample):
                pick = sample_coords[index] if cycle == 0 else coord_rng.randrange(len(peers))
                coordinator = peers[pick]
                result, error = None, None
                timer.probe()
                with _root(tracer, f"op:{kind}/{mode}"):
                    start = time.perf_counter()
                    try:
                        result = store.execute(vql, mode=mode, coordinator=coordinator)
                    except Exception as exc:  # an escaping exception is a failed operation
                        error = _error(exc)
                    timer.add(time.perf_counter() - start)
                classes.append(f"{kind}/{mode}")
                out.attempted += 1
                if error is not None:
                    out.fail(f"{kind}/{mode} raised {error}: {vql}")
                elif not _rows_match(kind, result.rows, references[vql]):
                    out.fail(f"{kind}/{mode} rows differ from reference: {vql}")
                if cycle == 0:
                    if result is not None:
                        answer.append(result.answer_time)
                        messages.append(result.messages)
                elif timer.busy >= seconds:
                    break
        if cycle == 0:
            out.sample_wall_s, out.sample_ops = timer.busy, len(sample)
            out.layers["net.messages.total"] = frame.messages
            out.layers["net.bytes.total"] = frame.bytes
            out.layers["pgrid.routing.cache_hit_ratio"] = _hit_ratio(
                cache_before, _cache_totals(peers)
            )
        cycle += 1
        if tracer or timer.busy >= seconds:
            break

    wall = timer.normalized()
    out.named.update(
        queries_per_s=len(wall) / sum(wall),
        query_wall_p50_ms=percentile(wall, 50) * 1e3,
        query_wall_p90_ms=percentile(wall, 90) * 1e3,
        raw_queries_per_s=len(wall) / timer.busy,
        raw_query_wall_p50_ms=percentile(timer.walls, 50) * 1e3,
        raw_query_wall_p90_ms=percentile(timer.walls, 90) * 1e3,
        host_speed=timer.host_speed(),
        sim_messages_per_query=statistics.fmean(messages) if messages else 0.0,
        sim_answer_p50_ms=percentile(answer, 50) * 1e3,
        sim_answer_p90_ms=percentile(answer, 90) * 1e3,
        queries=len(wall),
        distinct_queries=len(references),
    )
    for name in sorted(set(classes)):
        times = [w for w, c in zip(wall, classes) if c == name]
        out.named[f"wall_p50_ms[{name}]"] = percentile(times, 50) * 1e3
    out.generic = {
        "throughput_per_s": "queries_per_s",
        "wall_p50_ms": "query_wall_p50_ms",
        "wall_p90_ms": "query_wall_p90_ms",
        "sim_msgs_per_op": "sim_messages_per_query",
        "sim_p50_ms": "sim_answer_p50_ms",
        "sim_tail_ms": "sim_answer_p90_ms",
    }
    return out


# -- ingest -----------------------------------------------------------------------

INGEST_PEERS = 10_000
BATCH = 100
ROUND_BATCHES = 100  # 10,000 tuples per round; the first round is the sample


def ingest(seed: int, seconds: float, tracer=None) -> Outcome:
    store, setup_s, raw_setup_s, builds = _setup(
        lambda: UniStore.build(INGEST_PEERS, LINKS, replication=2, seed=TESTBED_SEED), tracer
    )
    out = Outcome(setup_s=setup_s, builds=builds)
    out.named["raw_setup_s"] = raw_setup_s
    # One client, pinned to a seed-drawn gateway for the whole run (E9b pins
    # peers[0]): its route cache warms up, and each seed sees other links.
    gateway = store.pnet.peers[random.Random(f"gateway-{seed}").randrange(INGEST_PEERS)]
    batches = inputs.ingest_batches(seed, BATCH)
    if tracer:
        tracer.counts.clear()
    timer = HostTimer(repeats=1, window=10)
    latency: list[float] = []
    sample_messages = 0
    rounds = 0
    tuples = 0
    cache_before = _cache_totals(store.pnet.peers)
    while True:
        written: list[tuple[str, dict]] = []
        with store.pnet.net.frame() if rounds == 0 else nullcontext() as frame:
            for _ in range(ROUND_BATCHES):
                batch = next(batches)
                error = None
                timer.probe()
                with _root(tracer, "op:batch"):
                    start = time.perf_counter()
                    try:
                        oids, trace = store.insert_tuples(batch, start=gateway)
                    except Exception as exc:  # an escaping exception fails the whole batch
                        error = _error(exc)
                    timer.add(time.perf_counter() - start)
                out.attempted += len(batch)
                if error is not None:
                    for values in batch:
                        out.fail(f"insert_tuples raised {error}: {values['title']}")
                    continue
                tuples += len(batch)
                written.extend(zip(oids, batch))
                if rounds == 0:
                    latency.append(trace.latency)
                    sample_messages += trace.messages
                elif timer.busy >= seconds:
                    break
        if rounds == 0:
            out.sample_wall_s, out.sample_ops = timer.busy, len(written)
            out.layers["net.messages.total"] = frame.messages
            out.layers["net.bytes.total"] = frame.bytes
            out.layers["pgrid.routing.cache_hit_ratio"] = _hit_ratio(
                cache_before, _cache_totals(store.pnet.peers)
            )
            out.named["gateway_cache_prefixes"] = len(gateway.route_cache)
            sample_tuples = len(written)
        # Read-back, untimed: every acknowledged tuple must be found by its title.
        for oid, values in written:
            found, _trace = store.store.by_attribute_value("title", values["title"], start=gateway)
            if not any(t.oid == oid for t in found):
                out.fail(f"tuple {oid} not readable by title {values['title']!r}")
        # Empty the overlay between rounds so memory stays bounded however
        # fast ingest gets; route caches stay warm.
        for peer in store.pnet.peers:
            peer.store.clear()
        rounds += 1
        if tracer or timer.busy >= seconds:
            break

    wall = timer.normalized()
    out.named.update(
        ingest_tuples_per_s=tuples / sum(wall),
        batch_wall_p50_ms=percentile(wall, 50) * 1e3,
        batch_wall_p90_ms=percentile(wall, 90) * 1e3,
        raw_ingest_tuples_per_s=tuples / timer.busy,
        raw_batch_wall_p50_ms=percentile(timer.walls, 50) * 1e3,
        raw_batch_wall_p90_ms=percentile(timer.walls, 90) * 1e3,
        host_speed=timer.host_speed(),
        sim_messages_per_tuple=sample_messages / sample_tuples if sample_tuples else 0.0,
        sim_batch_p50_ms=percentile(latency, 50) * 1e3,
        sim_batch_p90_ms=percentile(latency, 90) * 1e3,
        tuples=tuples,
        batches=len(wall),
        rounds=rounds,
        gateway_cache_hits=gateway.route_cache.hits,
        gateway_cache_misses=gateway.route_cache.misses,
    )
    out.generic = {
        "throughput_per_s": "ingest_tuples_per_s",
        "wall_p50_ms": "batch_wall_p50_ms",
        "wall_p90_ms": "batch_wall_p90_ms",
        "sim_msgs_per_op": "sim_messages_per_tuple",
        "sim_p50_ms": "sim_batch_p50_ms",
        "sim_tail_ms": "sim_batch_p90_ms",
    }
    return out


# -- open_loop ----------------------------------------------------------------------

OL_PEERS = 256
OL_REPLICATION = 3
OL_KEYS = 4096
OL_SIGMA = 0.6
OL_LINK = 0.01
#: Service seconds per message kind on a speed-1.0 peer.
OL_PROFILE = {"lookup": 0.010, "result": 0.0005}
OL_SHED_DEPTH = 6
OL_HORIZON = 4.0
OL_RUNGS = (("low", 250), ("knee", 1000), ("over", 2000))
SLO = 0.25


def _verify_rung(pnet, records, out: Outcome, rung: str) -> int:
    """Check one rung's records; returns the number of shed operations."""
    shed = 0
    for r in records:
        if r.completed is None:
            out.fail(f"{rung}: op #{r.index} ({r.kind}) never completed")
        elif not r.ok:
            if (r.error or "").startswith("rejected"):
                shed += 1  # a simulated shed, reported, is not a failure
            else:
                out.fail(f"{rung}: op #{r.index} ({r.kind}) failed: {r.error}")
        elif r.kind == "insert":
            item = f"drv-{r.index}"
            group = pnet.responsible_group(r.key)
            if not group or any(p.store.get_entry(r.key, item) is None for p in group):
                out.fail(f"{rung}: acknowledged insert #{r.index} missing from its group")
    return shed


def open_loop(seed: int, seconds: float, tracer=None) -> Outcome:
    words = inputs.open_loop_words(TESTBED_SEED, OL_KEYS)
    items = [(encode_string(w), f"id-{w}", f"val-{w}") for w in words]
    keys = [key for key, _id, _value in items]

    def build():
        pnet = build_network(
            OL_PEERS,
            replication=OL_REPLICATION,
            seed=TESTBED_SEED,
            split_by="population",
            latency_model=ConstantLatency(OL_LINK),
        )
        bulk_load(pnet, items)
        return pnet

    pnet, setup_s, raw_setup_s, builds = _setup(build, tracer)
    out = Outcome(setup_s=setup_s, builds=builds)
    out.named["raw_setup_s"] = raw_setup_s
    speeds = inputs.peer_speeds(TESTBED_SEED, [p.node_id for p in pnet.peers], OL_SIGMA)
    if tracer:
        tracer.counts.clear()
    timer = HostTimer(repeats=20, window=1)
    deliveries = 0
    ladder = 0
    sample = dict.fromkeys(
        ("ops", "deliveries", "messages", "bytes", "rejects", "deferrals", "reroutes",
         "rejections", "ok"),
        0,
    )  # fmt: skip
    out.named["sim_max_rate_per_s"] = 0
    cache_before = _cache_totals(pnet.peers)
    done = False
    while not done:
        for rung_index, (rung, rate) in enumerate(OL_RUNGS):
            admission = ThresholdAdmission(OL_SHED_DEPTH)
            model = LoadModel(ServiceProfile(OL_PROFILE), speeds=speeds, admission=admission)
            with pnet.event_driven(load=model, hints=True) as sched, pnet.net.frame() as frame:
                driver = OpenLoopDriver(
                    pnet,
                    keys,
                    rate=rate,
                    horizon=OL_HORIZON,
                    key_skew=0.8,
                    insert_fraction=0.1,
                    diffusion="least-busy",
                    seed=seed * 1000 + ladder * 10 + rung_index,
                )
                timer.probe()
                with _root(tracer, f"op:{rung}"):
                    start = time.perf_counter()
                    records = driver.run()
                    timer.add(time.perf_counter() - start)
            deliveries += len(sched.log)
            out.attempted += len(records)
            shed = _verify_rung(pnet, records, out, rung)
            if ladder == 0:
                sample["ops"] += len(records)
                sample["deliveries"] += len(sched.log)
                sample["messages"] += frame.messages
                sample["bytes"] += frame.bytes
                sample["rejects"] += frame.total_rejects
                sample["deferrals"] += frame.total_deferrals
                sample["reroutes"] += sum(r.reroutes for r in records)
                sample["rejections"] += sum(r.rejections for r in records)
                sample["ok"] += sum(1 for r in records if r.ok)
                lat = sorted(r.latency for r in records if r.ok)
                p99 = percentile(lat, 99)
                out.named[f"sim_{rung}_p99_ms"] = p99 * 1e3
                out.named[f"sim_{rung}_shed_frac"] = shed / len(records)
                if p99 <= SLO and shed <= 0.01 * len(records):
                    out.named["sim_max_rate_per_s"] = rate  # rungs climb in rate
                if rung == "knee":
                    out.named["sim_op_p50_ms"] = percentile(lat, 50) * 1e3
                    out.named["sim_op_p99_ms"] = p99 * 1e3
                    snap = model.snapshot(horizon=OL_HORIZON)
                    jobs = sum(s["jobs"] for s in snap.values())
                    out.layers["load.model.queue_wait_s"] = (
                        sum(s["wait"] for s in snap.values()) / jobs if jobs else 0.0
                    )
                    out.layers["load.model.hot_util"] = max(s["utilization"] for s in snap.values())
                if rung == "over":
                    out.named["sim_goodput_per_s"] = goodput(records, SLO, OL_HORIZON)
            elif timer.busy >= seconds:
                done = True
                break
        if ladder == 0:
            out.sample_wall_s, out.sample_ops = timer.busy, sample["ops"]
            out.layers["pgrid.routing.cache_hit_ratio"] = _hit_ratio(
                cache_before, _cache_totals(pnet.peers)
            )
        ladder += 1
        done = done or tracer is not None or timer.busy >= seconds

    wall = timer.normalized()
    out.named.update(
        kernel_deliveries_per_s=deliveries / sum(wall),
        rung_wall_p50_ms=percentile(wall, 50) * 1e3,
        rung_wall_p90_ms=percentile(wall, 90) * 1e3,
        raw_kernel_deliveries_per_s=deliveries / timer.busy,
        raw_rung_wall_p50_ms=percentile(timer.walls, 50) * 1e3,
        raw_rung_wall_p90_ms=percentile(timer.walls, 90) * 1e3,
        host_speed=timer.host_speed(),
        sim_messages_per_op=sample["messages"] / sample["ops"],
        sim_deliveries=sample["deliveries"],
        driver_runs=len(wall),
        ladders=ladder,
    )
    out.layers.update(
        {
            "net.scheduler.deliveries": sample["deliveries"],
            "net.messages.total": sample["messages"],
            "net.bytes.total": sample["bytes"],
            "load.shedding.rejects": sample["rejects"],
            "load.shedding.deferrals": sample["deferrals"],
            "load.drivers.reroutes": sample["reroutes"],
            "load.drivers.reject_retries": sample["rejections"],
            "load.drivers.useful_ratio": sample["ok"]
            / (sample["ops"] + sample["reroutes"] + sample["rejections"]),
        }
    )
    out.generic = {
        "throughput_per_s": "kernel_deliveries_per_s",
        "wall_p50_ms": "rung_wall_p50_ms",
        "wall_p90_ms": "rung_wall_p90_ms",
        "sim_msgs_per_op": "sim_messages_per_op",
        "sim_p50_ms": "sim_op_p50_ms",
        "sim_tail_ms": "sim_op_p99_ms",
    }
    return out


WORKLOADS = {"query_mix": query_mix, "ingest": ingest, "open_loop": open_loop}
