"""Interactive shell — the paper's demonstration interface (§4).

    "the user can formulate VQL queries in a separate tabbed window, results
     will be displayed in the next tab.  The basic interface is completed by
     the opportunities to inspect the local data and the locally built
     routing tables."

This is the headless equivalent of the Figure-4 GUI: a line-oriented REPL
over a :class:`~repro.core.unistore.UniStore`.  It is fully scriptable (feed
lines, capture output), which is how the tests drive it, and installable as
the ``unistore-demo`` console command.

Commands::

    query <VQL...>;          run a query (may span lines; ends with ';')
    explain <VQL...>;        show logical + physical plan without executing
    explain analyze <VQL>;   also run it: estimated cost next to measured cost
    insert k=v [k=v ...]     insert one logical tuple
    map <src> <dst> [conf]   add a schema mapping
    peers                    list peers with path / load / online state
    peer <id>                inspect one peer: local data + routing table
    stats                    catalog statistics summary
    log                      the query log (traceability, §3)
    demo                     load the Figure-3 conference workload
    help                     this text
    quit                     leave
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Iterable, TextIO

from repro.core.unistore import UniStore
from repro.errors import UniStoreError
from repro.net.latency import ConstantLatency, PlanetLabLatency
from repro.triples.triple import Value

PROMPT = "unistore> "
CONTINUATION = "      ... "


def _parse_value(text: str) -> Value:
    """Interpret a command-line value: int, then float, then string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class UniStoreShell:
    """A scriptable REPL over one UniStore instance."""

    def __init__(self, store: UniStore, out: TextIO | None = None):
        self.store = store
        self.out = out or sys.stdout
        self.running = True

    # -- plumbing ------------------------------------------------------------

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def run(self, lines: Iterable[str], interactive: bool = False) -> None:
        """Process command lines until exhausted or ``quit``."""
        buffer: list[str] = []
        for raw in lines:
            line = raw.rstrip("\n")
            if buffer:  # inside a multi-line query/explain
                buffer.append(line)
                if line.rstrip().endswith(";"):
                    self.dispatch(" ".join(buffer))
                    buffer = []
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            head = stripped.split(None, 1)[0].lower()
            if head in ("query", "explain") and not stripped.rstrip().endswith(";"):
                buffer = [stripped]
                continue
            self.dispatch(stripped)
            if not self.running:
                break
        if buffer:
            self.dispatch(" ".join(buffer))

    def dispatch(self, line: str) -> None:
        command, _space, rest = line.strip().partition(" ")
        handler = getattr(self, f"cmd_{command.lower()}", None)
        if handler is None:
            self.write(f"unknown command {command!r} — try 'help'")
            return
        try:
            handler(rest.strip())
        except UniStoreError as error:
            self.write(f"error: {error}")

    # -- commands --------------------------------------------------------------

    def cmd_help(self, _rest: str) -> None:
        self.write(__doc__.split("Commands::", 1)[1].rstrip())

    def cmd_quit(self, _rest: str) -> None:
        self.running = False
        self.write("bye")

    cmd_exit = cmd_quit

    def cmd_query(self, rest: str) -> None:
        vql = rest.rstrip(";").strip()
        if not vql:
            self.write("usage: query <VQL...>;")
            return
        result = self.store.execute(vql)
        self.write(result.as_table())
        self.write(
            f"[{len(result.rows)} rows, {result.messages} msgs, "
            f"{result.trace.hops} hops, {result.answer_time * 1000:.0f} ms simulated"
            + ("" if result.complete else ", INCOMPLETE")
            + "]"
        )

    def cmd_explain(self, rest: str) -> None:
        vql = rest.rstrip(";").strip()
        analyze = vql.split(maxsplit=1)[:1] == ["analyze"]
        if analyze:
            vql = vql[len("analyze") :].strip()
        if not vql:
            self.write("usage: explain [analyze] <VQL...>;")
            return
        self.write(self.store.explain(vql, analyze=analyze))

    def cmd_insert(self, rest: str) -> None:
        if not rest:
            self.write("usage: insert key=value [key=value ...]")
            return
        values: dict[str, Value] = {}
        for token in shlex.split(rest):
            key, eq, value = token.partition("=")
            if not eq or not key:
                self.write(f"bad field {token!r} (expected key=value)")
                return
            values[key] = _parse_value(value)
        oid, trace = self.store.insert_tuple(values)
        self.write(f"inserted {oid} ({len(values)} attributes, {trace.messages} msgs)")

    def cmd_map(self, rest: str) -> None:
        parts = rest.split()
        if len(parts) not in (2, 3):
            self.write("usage: map <source-attr> <target-attr> [confidence]")
            return
        confidence = float(parts[2]) if len(parts) == 3 else 1.0
        self.store.add_mapping(parts[0], parts[1], confidence)
        self.write(f"mapping {parts[0]} = {parts[1]} (confidence {confidence})")

    def cmd_peers(self, _rest: str) -> None:
        self.write(f"{'peer':<12} {'path':<16} {'load':>6}  state")
        for peer in sorted(self.store.pnet.peers, key=lambda p: (p.path, p.node_id)):
            state = "up" if peer.online else "DOWN"
            self.write(f"{peer.node_id:<12} {peer.path or '(root)':<16} {peer.load:>6}  {state}")

    def cmd_peer(self, rest: str) -> None:
        if not rest:
            self.write("usage: peer <peer-id>")
            return
        try:
            peer = self.store.pnet.peer(rest)
        except Exception:
            self.write(f"no such peer {rest!r}")
            return
        self.write(f"peer {peer.node_id}: path={peer.path!r} load={peer.load} "
                   f"{'online' if peer.online else 'OFFLINE'}")
        self.write(f"replicas: {', '.join(peer.replicas) or '(none)'}")
        self.write("routing table:")
        for level in range(len(peer.path)):
            refs = peer.routing.refs(level)
            self.write(f"  level {level} (prefix {peer.required_prefix(level)}): "
                       f"{', '.join(refs) or '(empty)'}")
        self.write("local data (first 10 entries):")
        for entry in list(peer.store)[:10]:
            self.write(f"  {entry.key[:24]}...  {entry.item_id[:40]!r} v{entry.version}")

    def cmd_stats(self, _rest: str) -> None:
        stats = self.store.statistics
        self.write(f"peers: {stats.num_peers}  groups: {stats.num_groups}  "
                   f"replication: {stats.replication:.2f}")
        self.write(f"triples: {stats.total_triples}  distinct OIDs: {stats.distinct_oids}")
        self.write(f"{'attribute':<20} {'count':>7} {'distinct':>9}")
        for name in sorted(stats.attributes):
            attribute = stats.attributes[name]
            self.write(f"{name:<20} {attribute.count:>7} {attribute.distinct:>9}")

    def cmd_log(self, _rest: str) -> None:
        if not self.store.log.records:
            self.write("(no queries yet)")
            return
        for record in self.store.log.records:
            self.write(
                f"#{record.sequence} [{record.mode}] {record.rows} rows, "
                f"{record.messages} msgs, {record.latency * 1000:.0f} ms :: "
                f"{record.text.strip()[:60]}"
            )

    def cmd_demo(self, _rest: str) -> None:
        from repro.bench.workloads import ConferenceWorkload

        workload = ConferenceWorkload(
            num_authors=40, num_publications=80, num_conferences=12, seed=7
        )
        workload.load_into(self.store)
        self.write(
            "loaded the Figure-3 conference domain: "
            f"{self.store.statistics.total_triples} triples"
        )


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``unistore-demo`` console command."""
    parser = argparse.ArgumentParser(description="UniStore demonstration shell")
    parser.add_argument("--peers", type=int, default=32)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--latency", choices=["constant", "planetlab"], default="constant"
    )
    parser.add_argument("--demo", action="store_true", help="preload the demo domain")
    args = parser.parse_args(argv)

    latency = PlanetLabLatency() if args.latency == "planetlab" else ConstantLatency(0.05)
    store = UniStore.build(
        num_peers=args.peers,
        replication=args.replication,
        seed=args.seed,
        latency_model=latency,
        enable_qgram_index=True,
    )
    shell = UniStoreShell(store)
    shell.write(f"UniStore: {args.peers} peers, replication {args.replication}. "
                "Type 'help' for commands.")
    if args.demo:
        shell.cmd_demo("")

    def prompt_lines():
        while shell.running:
            try:
                yield input(PROMPT)
            except EOFError:
                break

    shell.run(prompt_lines(), interactive=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
