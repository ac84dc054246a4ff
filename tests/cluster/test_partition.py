"""Unit tests for the shard partitioners (no processes, no sockets)."""

import pytest

from repro.cluster.partition import ClusterError, GridPartitioner
from repro.geometry.mbr import MBR

BOX = MBR(0.0, 0.0, 100.0, 100.0)


def build(nshards, halo=0.0, n_entries=1000):
    return GridPartitioner.build(BOX, nshards, n_entries, halo)


class TestTileOwnership:
    @pytest.mark.parametrize("nshards", [1, 2, 3, 4, 7])
    def test_owned_tiles_partition_the_grid(self, nshards):
        part = build(nshards)
        union = set()
        for shard in range(nshards):
            owned = part.owned_tiles(shard)
            assert owned, f"shard {shard} owns no tiles"
            assert not (union & owned), "overlapping ownership"
            union |= owned
        assert union == set(range(part.spec.tiles))

    @pytest.mark.parametrize("nshards", [1, 2, 3, 4, 7])
    def test_ownership_matches_shard_of_tile(self, nshards):
        part = build(nshards)
        for tile in range(part.spec.tiles):
            shard = part.shard_of_tile(tile)
            assert 0 <= shard < nshards
            assert tile in part.owned_tiles(shard)

    def test_grid_wide_enough_for_many_shards(self):
        # build() must widen the grid until every shard owns >= 1 tile,
        # even when the entry-count heuristic would pick a tiny grid.
        part = GridPartitioner.build(BOX, 8, 4, 0.0)
        assert part.spec.tiles >= 8


class TestPlacement:
    def test_primary_shard_owns_low_corner_tile(self):
        part = build(4)
        mbr = MBR(12.0, 34.0, 13.0, 35.0)
        primary = part.primary_shard(mbr)
        assert part.primary_tile(mbr) in part.owned_tiles(primary)

    def test_primary_shard_always_in_shards_for_mbr(self):
        part = build(4, halo=2.0)
        import random

        rng = random.Random(99)
        for _ in range(100):
            x, y = rng.uniform(0, 95), rng.uniform(0, 95)
            mbr = MBR(x, y, x + rng.uniform(0.1, 4.0), y + rng.uniform(0.1, 4.0))
            assert part.primary_shard(mbr) in part.shards_for_mbr(mbr)

    def test_shards_for_mbr_matches_brute_force(self):
        from repro.core.grid_partition import tile_range_of

        part = build(3, halo=2.0)
        import random

        rng = random.Random(7)
        for _ in range(100):
            x, y = rng.uniform(0, 95), rng.uniform(0, 95)
            mbr = MBR(x, y, x + rng.uniform(0.1, 4.0), y + rng.uniform(0.1, 4.0))
            ix0, ix1, iy0, iy1 = tile_range_of(part.spec, mbr, part.halo)
            want = {
                part.shard_of_tile(part.spec.tile_id(ix, iy))
                for ix in range(ix0, ix1 + 1)
                for iy in range(iy0, iy1 + 1)
            }
            assert set(part.shards_for_mbr(mbr)) == want

    def test_halo_zero_single_tile_point(self):
        part = build(4, halo=0.0)
        mbr = MBR(50.0, 50.0, 50.0, 50.0)
        shards = part.shards_for_mbr(mbr)
        assert part.primary_shard(mbr) in shards


class TestWire:
    def test_round_trip(self):
        part = build(4, halo=1.5)
        clone = GridPartitioner.from_wire(part.to_wire())
        assert clone.nshards == part.nshards
        assert clone.halo == part.halo
        assert clone.spec == part.spec
        assert clone.owned_tiles(2) == part.owned_tiles(2)

    def test_for_shard_carries_identity(self):
        part = build(3)
        local = GridPartitioner.from_wire(part.for_shard(1).to_wire())
        assert local.shard == 1
        assert local.owned_tiles() == part.owned_tiles(1)

    def test_bad_wire_rejected(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            GridPartitioner.from_wire({"shards": 2})


class TestBuildValidation:
    def test_zero_shards_rejected(self):
        with pytest.raises((ClusterError, ValueError)):
            GridPartitioner.build(BOX, 0, 100, 0.0)


# ----------------------------------------------------------------------
# Batched binning: one tile_ranges_batch call agrees with one-row calls,
# including coordinates exactly on tile edges.
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.grid_partition import tile_range_of  # noqa: E402

EDGE_PART = build(3, halo=1.5, n_entries=400)


def _coord(axis_origin, tile, tiles):
    """A coordinate that is often exactly on a tile edge of one axis."""
    edges = st.integers(-1, tiles + 1).map(lambda k: axis_origin + k * tile)
    return st.one_of(edges, st.floats(-10.0, 110.0, allow_nan=False))


def _mbrs(part, max_size=12):
    spec = part.spec
    xs = _coord(spec.min_x, spec.tile_w, spec.nx)
    ys = _coord(spec.min_y, spec.tile_h, spec.ny)

    def mbr(x0, y0, x1, y1):
        return MBR(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    one = st.builds(mbr, xs, ys, xs, ys)
    return st.lists(one, min_size=1, max_size=max_size)


def _window_owner_reference(part, mbr, window, expand):
    """The per-row rule: clamp the low corner into the search region and
    take the owner of its tile (the scalar form window_owners batches)."""
    cx = max(mbr.min_x, window.min_x - expand)
    cy = max(mbr.min_y, window.min_y - expand)
    ix, _ix1, iy, _iy1 = tile_range_of(part.spec, MBR(cx, cy, cx, cy))
    return part.shard_of_tile(part.spec.tile_id(ix, iy))


class TestBatchBinning:
    @settings(max_examples=150, deadline=None)
    @given(
        mbrs=_mbrs(EDGE_PART),
        window=_mbrs(EDGE_PART, max_size=1),
        expand=st.one_of(st.just(0.0), st.just(EDGE_PART.spec.tile_w),
                         st.floats(0.0, 20.0)),
    )
    def test_window_owners_match_window_owner(self, mbrs, window, expand):
        part = EDGE_PART
        (window,) = window
        owners = part.window_owners(mbrs, window, expand)
        assert len(owners) == len(mbrs)
        for mbr, owner in zip(mbrs, owners):
            assert owner == part.window_owner(mbr, window, expand)
            assert owner == _window_owner_reference(part, mbr, window, expand)

    @settings(max_examples=150, deadline=None)
    @given(mbrs=_mbrs(EDGE_PART), expand=st.sampled_from([None, 0.0, 4.0]))
    def test_shards_for_mbrs_match_shards_for_mbr(self, mbrs, expand):
        part = EDGE_PART
        batch = part.shards_for_mbrs(mbrs, expand)
        for mbr, shards in zip(mbrs, batch):
            assert shards == part.shards_for_mbr(mbr, expand)
            ix0, ix1, iy0, iy1 = tile_range_of(
                part.spec, mbr, part.halo if expand is None else expand
            )
            assert shards == {
                part.shard_of_tile(part.spec.tile_id(ix, iy))
                for ix in range(ix0, ix1 + 1)
                for iy in range(iy0, iy1 + 1)
            }

    def test_empty_batch(self):
        assert len(EDGE_PART.window_owners([], MBR(0, 0, 1, 1))) == 0
        assert EDGE_PART.shards_for_mbrs([]) == []
