"""The demonstration shell (paper §4's interface, headless)."""

import io

import pytest

from repro import UniStore
from repro.cli import UniStoreShell, _parse_value, main


@pytest.fixture()
def shell():
    store = UniStore.build(num_peers=8, replication=2, seed=5)
    out = io.StringIO()
    return UniStoreShell(store, out=out), out


def run(shell_pair, *lines):
    shell, out = shell_pair
    shell.run(list(lines))
    return out.getvalue()


class TestValueParsing:
    def test_int(self):
        assert _parse_value("42") == 42

    def test_float(self):
        assert _parse_value("2.5") == 2.5

    def test_string(self):
        assert _parse_value("ICDE 2006") == "ICDE 2006"


class TestCommands:
    def test_insert_and_query(self, shell):
        output = run(
            shell,
            "insert name=Alice age=30",
            "query SELECT ?n WHERE {(?p,'name',?n)};",
        )
        assert "inserted oid:" in output
        assert "Alice" in output
        assert "msgs" in output

    def test_multiline_query(self, shell):
        run(shell, "insert name=Bob age=25")
        output = run(
            shell,
            "query SELECT ?n, ?a",
            "WHERE {(?p,'name',?n) (?p,'age',?a)};",
        )
        assert "Bob" in output and "25" in output

    def test_quoted_insert_values(self, shell):
        output = run(
            shell,
            'insert title="ICDE 2006 - WS" year=2006',
            "query SELECT ?t WHERE {(?p,'title',?t)};",
        )
        assert "ICDE 2006 - WS" in output

    def test_explain(self, shell):
        run(shell, "insert name=Cara")
        output = run(shell, "explain SELECT ?n WHERE {(?p,'name',?n)};")
        assert "-- logical --" in output and "-- physical --" in output

    def test_explain_analyze(self, shell):
        run(shell, "insert name=Cara")
        output = run(shell, "explain analyze SELECT ?n WHERE {(?p,'name',?n)};")
        assert "-- physical --" in output and "-- analyze --" in output
        assert "actual:    messages=" in output and "rows=1 " in output

    def test_peers_listing(self, shell):
        output = run(shell, "peers")
        assert "peer-0000" in output
        assert "up" in output

    def test_peer_inspection(self, shell):
        run(shell, "insert name=Dora")
        output = run(shell, "peer peer-0000")
        assert "routing table:" in output
        assert "level 0" in output
        assert "local data" in output

    def test_peer_unknown(self, shell):
        output = run(shell, "peer nope-999")
        assert "no such peer" in output

    def test_stats(self, shell):
        run(shell, "insert name=Erin age=41")
        output = run(shell, "stats")
        assert "triples: 2" in output
        assert "name" in output and "age" in output

    def test_log(self, shell):
        run(shell, "insert k=1", "query SELECT ?x WHERE {(?x,'k',1)};")
        output = run(shell, "log")
        assert "#0" in output and "1 rows" in output

    def test_log_empty(self, shell):
        output = run(shell, "log")
        assert "no queries yet" in output

    def test_mapping_command(self, shell):
        run(shell, "insert dblp:title=X", "insert ilm:papertitle=Y")
        output = run(shell, "map dblp:title ilm:papertitle 0.9")
        assert "confidence 0.9" in output

    def test_demo_load(self, shell):
        output = run(shell, "demo")
        assert "conference domain" in output

    def test_help(self, shell):
        output = run(shell, "help")
        assert "query <VQL...>" in output

    def test_unknown_command(self, shell):
        output = run(shell, "frobnicate")
        assert "unknown command" in output

    def test_quit_stops_processing(self, shell):
        output = run(shell, "quit", "peers")
        assert "bye" in output
        assert "peer-0000" not in output

    def test_error_reported_not_raised(self, shell):
        output = run(shell, "query SELECT ?x WHERE {(?x,'a')};")
        assert "error:" in output

    def test_comments_and_blanks_skipped(self, shell):
        output = run(shell, "", "# a comment", "help")
        assert "query <VQL...>" in output

    def test_bad_insert_syntax(self, shell):
        output = run(shell, "insert not-a-pair")
        assert "bad field" in output

    def test_usage_messages(self, shell):
        output = run(shell, "query ;", "explain ;", "peer", "map onlyone")
        assert output.count("usage:") == 4


class TestMain:
    def test_main_runs_script(self, monkeypatch, capsys):
        inputs = iter(["insert name=Zed", "query SELECT ?n WHERE {(?p,'name',?n)};", "quit"])
        monkeypatch.setattr("builtins.input", lambda *_: next(inputs))
        assert main(["--peers", "8", "--seed", "3"]) == 0
        captured = capsys.readouterr().out
        assert "Zed" in captured and "bye" in captured

    def test_main_demo_flag(self, monkeypatch, capsys):
        monkeypatch.setattr("builtins.input", lambda *_: "quit")
        assert main(["--peers", "8", "--demo"]) == 0
        assert "conference domain" in capsys.readouterr().out
