"""Seed → inputs.  ``--seed`` is the only input to generation.

Every workload's rows come from a ``repro.datasets`` generator called
with the seed (no disk cache); query windows, k-NN probes and the rows a
writer puts come from ``random.Random`` streams derived from the same
seed.  The program under test only ever sees the generated rows.

Sizes are fixed per profile.  ``full`` is what ``BENCHMARK.json``
describes; it is sized so that one run — set-up repeated, ``--seconds``
of timed work, the correctness gate — ends well inside 25 s on the
2-core reference host, because the driver makes 136 runs under one
57-minute cap.  ``quick`` is the smoke test's.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.datasets import blockgroups, counties, stars
from repro.geometry.geometry import Geometry
from repro.geometry.wkt import to_wkt

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 2003  # pinned in golden.json, as is the second documented seed, 7

CONUS = (0.0, 0.0, 57.5, 25.0)
SERVE_EXTENT = (0.0, 0.0, 32.0, 14.0)
WINDOW_SIZE = (3.0, 2.0)  # served / routed query windows, in extent units
JOIN_DISTANCE = 0.25  # Table 1's middle within-distance row
ORACLE_ROWS = 400  # the fixed subsample the nested loop checks

SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "join_counties": 1600,
        "join_stars": 4000,
        "index_build": 600,
        "local_query": 12000,
        "serve_window": 1000,
        "cluster_mixed": 1000,
    },
    "quick": {
        "join_counties": 100,
        "join_stars": 300,
        "index_build": 60,
        "local_query": 800,
        "serve_window": 120,
        "cluster_mixed": 120,
    },
}


def rows_for(workload: str, n: int, seed: int) -> List[Geometry]:
    """The geometries a workload loads, from its generator and the seed."""
    if workload == "join_counties":
        return counties(n, seed, refine=6, extent=CONUS)
    if workload == "join_stars":
        # Default star shapes, but many light clusters instead of a few
        # heavy ones: result size is quadratic in cluster population, and
        # with the default 40 stars per cluster it swings +-25% from seed
        # to seed, which would drown any timing bound.
        return stars(n, seed, stars_per_cluster=4.0, star_radius_fraction=0.003)
    if workload == "index_build":
        return blockgroups(n, seed)
    if workload == "local_query":
        return stars(n, seed)
    if workload in ("serve_window", "cluster_mixed"):
        return counties(n, seed, refine=6, extent=SERVE_EXTENT)
    raise KeyError(workload)


def wkt_sha256(geoms: Sequence[Geometry]) -> str:
    """Fingerprint of a workload's WKT inputs (the drift guard's key)."""
    digest = hashlib.sha256()
    for geom in geoms:
        digest.update(to_wkt(geom).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def stream(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible random stream per purpose."""
    return random.Random(f"wallclock/{seed}/{purpose}")


def windows(
    rng: random.Random,
    n: int,
    extent: Tuple[float, float, float, float],
    size: Tuple[float, float],
) -> List[Geometry]:
    """``n`` axis-parallel query rectangles placed uniformly inside ``extent``."""
    min_x, min_y, max_x, max_y = extent
    w, h = size
    out = []
    for _ in range(n):
        x = rng.uniform(min_x, max_x - w)
        y = rng.uniform(min_y, max_y - h)
        out.append(Geometry.rectangle(x, y, x + w, y + h))
    return out


def area_windows(
    rng: random.Random, n: int, extent: Tuple[float, float, float, float], share: float
) -> List[Geometry]:
    """Windows covering ``share`` of the extent's area, same aspect ratio."""
    scale = share ** 0.5
    size = ((extent[2] - extent[0]) * scale, (extent[3] - extent[1]) * scale)
    return windows(rng, n, extent, size)


def windows_on(
    rng: random.Random, n: int, geoms: Sequence[Geometry],
    extent: Tuple[float, float, float, float], share: float,
) -> List[Geometry]:
    """``share``-of-the-extent windows centred on randomly chosen rows.

    Clustered data leaves most uniformly placed small windows empty, which
    makes their latency bimodal (empty / inside a cluster) and its median
    a coin toss; a window over a row always has work to do.
    """
    scale = share ** 0.5
    w, h = (extent[2] - extent[0]) * scale, (extent[3] - extent[1]) * scale
    out = []
    for _ in range(n):
        cx, cy = geoms[rng.randrange(len(geoms))].mbr.center
        out.append(Geometry.rectangle(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return out


def put_batches(
    rng: random.Random, n_batches: int, batch_rows: int, first_id: int
) -> List[Tuple[Geometry, List[List[Any]]]]:
    """Writer input: ``(region, [[id, wkt], ...])`` per batch.

    A batch's rows are small rectangles inside one window-sized region,
    so one window over the region must return every acknowledged id.
    """
    out = []
    next_id = first_id
    w, h = WINDOW_SIZE
    for region in windows(rng, n_batches, SERVE_EXTENT, WINDOW_SIZE):
        x0, y0 = region.mbr.min_x, region.mbr.min_y
        rows = []
        for _ in range(batch_rows):
            x = x0 + rng.uniform(0.05, w - 0.35)
            y = y0 + rng.uniform(0.05, h - 0.35)
            rect = Geometry.rectangle(x, y, x + rng.uniform(0.05, 0.3), y + rng.uniform(0.05, 0.3))
            rows.append([next_id, to_wkt(rect)])
            next_id += 1
        out.append((region, rows))
    return out


def golden(profile: str, seed: int, workload: str) -> Dict[str, Any]:
    """Pinned hash and counts for a documented seed ({} for any other)."""
    with GOLDEN_PATH.open() as fh:
        pins = json.load(fh)
    return pins.get(profile, {}).get(str(seed), {}).get(workload, {})
