"""Layer-boundary spans recorded from outside the program.

:func:`install` wraps the public functions listed in :data:`SPANS` (and
every physical operator's ``execute``).  Each wrapper records a span —
name, start, end, parent span and the benchmark-level root operation that
caused it — passes the return value or exception through unchanged and
draws no randomness, so a traced run simulates exactly what an untraced
run does.  Spans are recorded only while the benchmark holds a root open
(:meth:`Tracer.root`), kept in flat in-memory arrays, and written out once
by :meth:`Tracer.dump`.

A wrapper must replace the name the caller looks up: modules such as
``repro.core.unistore`` import ``parse`` and ``build_plan`` by name, so
every module attribute bound to the original function is rebound.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

#: ``(module, attribute or Class.method, span name)``.  The layer of a span
#: is its name up to the metric suffix (see :func:`layer_of`).
SPANS = [
    ("repro.vql.parser", "parse", "vql.parse"),
    ("repro.algebra.plan_builder", "build_plan", "algebra.plan"),
    ("repro.algebra.rewrite", "rewrite", "algebra.plan"),
    ("repro.optimizer.planner", "Planner.plan", "optimizer.plan"),
    ("repro.optimizer.planner", "Planner.plan_scan", "optimizer.plan"),
    ("repro.optimizer.statistics", "CatalogStatistics.from_store", "optimizer.statistics"),
    ("repro.mqp.executor", "execute_mutant_plan", "mqp.execute"),
    ("repro.strings.edit_distance", "edit_distance", "strings"),
    ("repro.strings.edit_distance", "edit_distance_within", "strings"),
    ("repro.strings.qgrams", "qgrams", "strings"),
    ("repro.strings.qgrams", "positional_qgrams", "strings"),
    ("repro.strings.qgrams", "qgram_overlap", "strings"),
    ("repro.strings.qgrams", "count_filter_threshold", "strings"),
    ("repro.strings.qgrams", "distinct_count_filter_threshold", "strings"),
    ("repro.core.unistore", "UniStore.execute", "core.execute"),
    ("repro.core.unistore", "UniStore.insert_tuples", "core.insert_tuples"),
    ("repro.core.unistore", "UniStore.bulk_load_tuples", "core.bulk_load"),
    *(
        ("repro.triples.store", f"DistributedTripleStore.{method}", "triples.store")
        for method in (
            "insert insert_tuple insert_tuples_batch bulk_insert delete update_value by_oid "
            "by_oids by_attribute_value by_value attribute_range attribute_all "
            "attribute_prefix value_range value_prefix qgram_postings"
        ).split()
    ),
    *(
        ("repro.pgrid.hashing", name, "pgrid.hashing.encode")
        for name in (
            "encode_string encode_number encode_value after_key string_prefix_key".split()
        )
    ),
    *(
        ("repro.pgrid.keys", name, "pgrid.keys")
        for name in (
            "common_prefix_length compare_keys key_le responsible path_interval key_fraction "
            "intervals_intersect increment_path KeyRange.contains KeyRange.intersects_path"
        ).split()
    ),
    ("repro.pgrid.datastore", "DataStore.scan", "pgrid.datastore.scan"),
    ("repro.pgrid.datastore", "DataStore.put", "pgrid.datastore.put"),
    ("repro.pgrid.datastore", "DataStore.get", "pgrid.datastore.get"),
    *(
        ("repro.pgrid.range_query", name, "pgrid.range_query")
        for name in (
            "range_query_shower",
            "range_query_shower_groups",
            "range_query_sequential",
            "range_query_sequential_groups",
        )
    ),
    ("repro.pgrid.routing", "route_hops", "pgrid.routing.route"),
    ("repro.pgrid.network", "PGridNetwork.insert_many", "pgrid.network.insert_many"),
    ("repro.pgrid.network", "PGridNetwork.lookup_many", "pgrid.network.lookup_many"),
    ("repro.pgrid.network", "PGridNetwork.online_peers", "pgrid.network.online_peers"),
    *(
        ("repro.pgrid.network", f"PGridNetwork.{method}", "pgrid.network.other")
        for method in ("insert", "lookup", "lookup_at", "delete", "update", "random_online_peer")
    ),
    ("repro.pgrid.construction", "build_network", "pgrid.construction.build"),
    ("repro.pgrid.construction", "balanced_paths", "pgrid.construction.balanced_paths"),
    ("repro.pgrid.construction", "wire_routing_tables", "pgrid.construction.wire_routing"),
    ("repro.pgrid.construction", "bulk_load", "pgrid.construction.bulk_load"),
    ("repro.net.scheduler", "EventScheduler.send_at", "net.scheduler.send_at"),
    ("repro.net.scheduler", "EventScheduler.run", "net.scheduler.run"),
    ("repro.load.model", "LoadModel.offer", "load.model.offer"),
    ("repro.load.shedding", "ThresholdAdmission.decide", "load.shedding.decide"),
    ("repro.load.diffusion", "diffuse_route", "load.diffusion"),
    ("repro.load.diffusion", "pick_member", "load.diffusion"),
    ("repro.load.diffusion", "choose_replica", "load.diffusion"),
    ("repro.load.drivers", "OpenLoopDriver.run", "load.drivers"),
]

#: Span names whose metric suffix is part of the name, not the layer.
_SUFFIXES = (
    ".parse", ".plan", ".statistics", ".execute", ".insert_tuples", ".bulk_load", ".store",
    ".encode", ".scan", ".put", ".get", ".route", ".insert_many", ".lookup_many",
    ".online_peers", ".other", ".build", ".balanced_paths", ".wire_routing", ".send_at",
    ".run", ".offer", ".decide",
)  # fmt: skip


def layer_of(span: str) -> str:
    """``pgrid.datastore.scan`` -> ``pgrid.datastore``; ``strings`` -> ``strings``."""
    for suffix in _SUFFIXES:
        if span.endswith(suffix):
            return span[: -len(suffix)]
    return span


class Tracer:
    """In-memory span store with boundary counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root_of = array("i")
        self.root_labels: dict[int, str] = {}
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.root_of.append(self.stack[0] if self.stack else index)
        self.end.append(0.0)
        self.stack.append(index)
        self.active[name] += 1
        self.start.append(time.perf_counter())
        return index

    def _finish(self, index: int, name: str) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()
        self.active[name] -= 1

    @contextmanager
    def root(self, label: str):
        """One benchmark-level operation (a query, an ingest batch, a rung, a setup)."""
        index = self._begin("root")
        self.root_labels[index] = label
        try:
            yield
        finally:
            self._finish(index, "root")

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(index, name)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every entry of :data:`SPANS` plus the physical operators."""
        import repro.physical.base as physical_base

        for module in ("joins", "misc", "ranking", "scans", "simops"):
            importlib.import_module(f"repro.physical.{module}")
        targets = [(m, attr, span) for m, attr, span in SPANS]
        pending = [physical_base.PhysicalOperator]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            abstract = getattr(cls.__dict__.get("execute"), "__isabstractmethod__", True)
            if not abstract:
                targets.append((cls.__module__, f"{cls.__name__}.execute", "physical.execute"))
        scope = [m for n, m in sys.modules.items() if n.startswith("repro")] + list(extra_modules)
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            count = COUNTERS.get(span)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, span, count))
                else:
                    wrapped = self.wrap(raw, span, count)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, span, count)
            for mod in scope:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, self and inclusive seconds, split by root kind.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly (one thread), so children never
        overlap and the self times under a root sum to the root's duration.
        """
        count = len(self.name)
        child = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        by_kind: dict[str, dict[str, dict[str, float]]] = {}
        for index in range(count):
            kind = self.root_labels[self.root_of[index]].split(":")[0]
            name = self.names[self.name[index]]
            duration = self.end[index] - self.start[index]
            rows = by_kind.setdefault(kind, {})
            row = rows.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += duration - child[index]
            row["total_s"] += duration
        return by_kind

    def dump(self, path) -> None:
        """Write every span once, columnar and gzip-compressed, at the end of the run.

        Times are integer microseconds from the first span's start.
        """
        origin = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "roots": {str(k): v for k, v in self.root_labels.items()},
            "name": self.name.tolist(),
            "start_us": [round((t - origin) * 1e6) for t in self.start],
            "end_us": [round((t - origin) * 1e6) for t in self.end],
            "parent": self.parent.tolist(),
            "root": self.root_of.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap(noop, "probe")
    with probe.root("probe"):
        begin = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - begin
        begin = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - begin
    return max(0.0, (traced - plain) / samples)


# -- boundary counters ---------------------------------------------------------


def _count_scan(tracer: Tracer, args, result) -> None:
    tracer.counts["scan.entries"] += len(result)
    if tracer.active["physical.execute"]:
        tracer.counts["physical.entries"] += len(result)


def _count_get(tracer: Tracer, args, result) -> None:
    if tracer.active["physical.execute"]:
        tracer.counts["physical.entries"] += len(result)


def _count_physical(tracer: Tracer, args, result) -> None:
    if not tracer.active["physical.execute"]:  # outermost operator: the query's rows
        tracer.counts["physical.rows"] += result.total_rows()


def _count_route(tracer: Tracer, args, result) -> None:
    tracer.counts["route.hops"] += len(result[1])


def _count_insert_many(tracer: Tracer, args, result) -> None:
    if tracer.active["core.insert_tuples"]:
        tracer.counts["triples.postings"] += len(args[1])


def _count_insert_tuples(tracer: Tracer, args, result) -> None:
    tracer.counts["triples.tuples"] += len(args[1])


COUNTERS = {
    "pgrid.datastore.scan": _count_scan,
    "pgrid.datastore.get": _count_get,
    "physical.execute": _count_physical,
    "pgrid.routing.route": _count_route,
    "pgrid.network.insert_many": _count_insert_many,
    "core.insert_tuples": _count_insert_tuples,
}


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, layers: dict, builds: int) -> tuple[dict, dict]:
    """The per-layer metrics of one traced run, plus a breakdown for the report.

    Calls and self times come from the spans under operation roots (the
    sample); ``pgrid.construction.*`` are inclusive seconds per overlay
    build, from the setup roots.  ``layers`` holds the simulated and counted
    values the workload measured on the sample itself.
    """
    summary = tracer.summary()
    ops, setup = summary.get("op", {}), summary.get("setup", {})

    def calls(*names: str) -> int:
        return sum(ops.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(ops.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = tracer.counts
    per_build = max(builds, 1)
    metrics = {
        "vql.parse.calls": calls("vql.parse"),
        "vql.parse.self_s": self_s("vql.parse"),
        "algebra.plan.calls": calls("algebra.plan"),
        "algebra.plan.self_s": self_s("algebra.plan"),
        "optimizer.plan.calls": calls("optimizer.plan"),
        "optimizer.plan.self_s": self_s("optimizer.plan"),
        "optimizer.statistics.self_s": self_s("optimizer.statistics"),
        "physical.execute.calls": calls("physical.execute"),
        "physical.execute.self_s": self_s("physical.execute"),
        "physical.entries_per_row": ratio(counts["physical.entries"], counts["physical.rows"]),
        "mqp.execute.calls": calls("mqp.execute"),
        "mqp.execute.self_s": self_s("mqp.execute"),
        "strings.calls": calls("strings"),
        "strings.self_s": self_s("strings"),
        "core.execute.self_s": self_s("core.execute"),
        "core.insert_tuples.self_s": self_s("core.insert_tuples"),
        "triples.store.calls": calls("triples.store"),
        "triples.store.self_s": self_s("triples.store"),
        "triples.postings_per_tuple": ratio(counts["triples.postings"], counts["triples.tuples"]),
        "pgrid.hashing.encode.calls": calls("pgrid.hashing.encode"),
        "pgrid.hashing.encode.self_s": self_s("pgrid.hashing.encode"),
        "pgrid.keys.calls": calls("pgrid.keys"),
        "pgrid.keys.self_s": self_s("pgrid.keys"),
        "pgrid.datastore.scan.calls": calls("pgrid.datastore.scan"),
        "pgrid.datastore.scan.self_s": self_s("pgrid.datastore.scan"),
        "pgrid.datastore.scan.entries_per_call": ratio(
            counts["scan.entries"], calls("pgrid.datastore.scan")
        ),
        "pgrid.datastore.put.calls": calls("pgrid.datastore.put"),
        "pgrid.datastore.put.self_s": self_s("pgrid.datastore.put"),
        "pgrid.range_query.calls": calls("pgrid.range_query"),
        "pgrid.range_query.self_s": self_s("pgrid.range_query"),
        "pgrid.routing.route.calls": calls("pgrid.routing.route"),
        "pgrid.routing.route.self_s": self_s("pgrid.routing.route"),
        "pgrid.routing.hops_per_route": ratio(counts["route.hops"], calls("pgrid.routing.route")),
        "pgrid.network.insert_many.self_s": self_s("pgrid.network.insert_many"),
        "pgrid.network.lookup_many.self_s": self_s("pgrid.network.lookup_many"),
        "pgrid.network.online_peers.calls": calls("pgrid.network.online_peers"),
        "pgrid.network.online_peers.self_s": self_s("pgrid.network.online_peers"),
        "net.scheduler.send_at.self_s": self_s("net.scheduler.send_at"),
        "net.scheduler.run.self_s": self_s("net.scheduler.run"),
        "load.model.offer.calls": calls("load.model.offer"),
        "load.model.offer.self_s": self_s("load.model.offer"),
        "load.diffusion.calls": calls("load.diffusion"),
        "load.diffusion.self_s": self_s("load.diffusion"),
        "load.drivers.self_s": self_s("load.drivers"),
    }
    for stage in ("build", "balanced_paths", "wire_routing", "bulk_load"):
        total = setup.get(f"pgrid.construction.{stage}", {}).get("total_s", 0.0)
        metrics[f"pgrid.construction.{stage}_s"] = total / per_build

    by_layer: dict[str, float] = defaultdict(float)
    for name, row in ops.items():
        by_layer[layer_of(name)] += row["self_s"]
    root_s = ops.get("root", {}).get("total_s", 0.0)
    unattributed = by_layer.pop("root", 0.0)
    spans = sum(row["calls"] for row in ops.values())
    overhead_s = spans * span_cost()
    metrics.update(
        {
            "trace.root_s": root_s,
            "trace.unattributed_s": unattributed,
            "trace.spans": spans,
            "trace.overhead_frac": overhead_s / max(root_s - overhead_s, 1e-9),
        }
    )
    breakdown = {
        "root_s": root_s,
        "unattributed_s": unattributed,
        "layers_self_s": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "sum_check_s": sum(by_layer.values()) + unattributed,
    }
    metrics.update(layers)
    return metrics, breakdown
