"""Sessions that outlive the drain window must die *typed*.

The graceful path (drain lets live sessions finish) is covered in
``test_server.py``; this file pins the other half of the contract: a
session still paging when ``drain_timeout`` expires gets a
``SHUTTING_DOWN`` cancel on its next fetch instead of a socket reset or
a timeout — the router's retry layer keys on that code to re-scatter
the slice elsewhere.
"""

import random
import time

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.server import BackgroundServer, QueryClient, RemoteError
from repro.server.protocol import ERR_SHUTTING_DOWN


def rects(n, seed, extent=100.0, size=4.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0, extent - size)
        y = rng.uniform(0, extent - size)
        out.append(
            Geometry.rectangle(
                x, y,
                x + rng.uniform(size * 0.2, size),
                y + rng.uniform(size * 0.2, size),
            )
        )
    return out


JOIN_PARAMS = {
    "table_a": "a_tab", "column_a": "geom",
    "table_b": "b_tab", "column_b": "geom",
}


class TestDrainDeadlineCancelsTyped:
    def test_straggler_fetch_answers_shutting_down(self):
        db = Database()
        load_geometries(db, "a_tab", rects(180, seed=71))
        load_geometries(db, "b_tab", rects(200, seed=72))
        db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE")
        db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE")
        handle = BackgroundServer(db, drain_timeout=1.0).start()
        try:
            with QueryClient(port=handle.port) as client:
                session = client.start("spatial_join", JOIN_PARAMS, n=1)
                rows, eof = session.fetch(2)
                assert rows and not eof
                handle.server.request_shutdown()
                # Keep paging one row at a time: the session deliberately
                # refuses to finish inside the drain window, so the
                # server's deadline cancel must cut it off — typed.
                deadline = time.monotonic() + 10.0
                with pytest.raises(RemoteError) as info:
                    while time.monotonic() < deadline:
                        session.fetch(1)
                        time.sleep(0.02)
                assert info.value.code == ERR_SHUTTING_DOWN
        finally:
            handle.stop()
        assert not handle._thread.is_alive()
