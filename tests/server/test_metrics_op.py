"""The wire ``metrics`` op and the ``repro.shell stats`` subcommand."""

import io

from repro import Database
from repro.server import BackgroundServer, QueryClient
from repro.shell import main as shell_main
from tests.oracles import lint_prometheus


def _seeded_db():
    db = Database()
    db.sql("create table pts (id number, geom sdo_geometry)")
    for i in range(4):
        db.sql(
            f"insert into pts values ({i}, sdo_geometry('POINT ({i} {i})'))"
        )
    return db


class TestMetricsOp:
    def test_metrics_exposition_is_lint_clean(self):
        with BackgroundServer(_seeded_db()) as server:
            with QueryClient(port=server.port) as client:
                session = client.start("sql", {"statement": "select id from pts"})
                session.all()
                text = client.metrics()
        assert lint_prometheus(text) == []
        assert 'repro_query_rows_total{kind="sql"} 4' in text
        assert "repro_sessions_active 0" in text
        assert "# TYPE repro_kernel_calls_total counter" in text

    def test_metrics_counts_itself(self):
        with BackgroundServer(_seeded_db()) as server:
            with QueryClient(port=server.port) as client:
                client.metrics()
                text = client.metrics()
        assert 'repro_requests_total{op="metrics"} 2' in text

    def test_stats_op_still_reports_dict(self):
        with BackgroundServer(_seeded_db()) as server:
            with QueryClient(port=server.port) as client:
                stats = client.stats()
        assert "storage" in stats
        assert stats["storage"]["durability"] == "memory"


class TestShellStats:
    def test_stats_subcommand_prints_prometheus(self, capsys):
        with BackgroundServer(_seeded_db()) as server:
            rc = shell_main(["stats", "--port", str(server.port)])
        out = capsys.readouterr().out
        assert rc == 0
        assert lint_prometheus(out) == []
        assert "repro_sessions_active" in out

    def test_stats_subcommand_json(self, capsys):
        import json

        with BackgroundServer(_seeded_db()) as server:
            rc = shell_main(["stats", "--port", str(server.port), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert "sessions" in payload and "storage" in payload

    def test_stats_subcommand_connection_refused(self, capsys):
        rc = shell_main(["stats", "--port", "1"])  # nothing listens there
        assert rc == 1
        assert "cannot connect" in capsys.readouterr().out
