"""R-tree maintenance against the ``MBR``-object Guttman reference.

``RTree._choose_subtree`` and ``RTree._split`` work on plain floats and
one numpy pass for the split seeds; ``tests/oracles.py::
rtree_insert_reference`` is the insert and quadratic split written on
``MBR`` objects.  The same insert/delete sequence must leave both trees
identical — every node's level and entry order, every entry's bounds bit
for bit — and charge identical ``WorkMeter`` counts.
"""

import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel import WorkerContext
from repro.geometry.mbr import MBR
from repro.index.rtree.rtree import RTree
from repro.storage.heap import RowId
from tests.oracles import rtree_insert_reference


def tree_digest(tree: RTree) -> str:
    """sha256 over the tree in entry order: levels, bounds (as IEEE bytes,
    so -0.0 and 0.0 differ) and rowids."""
    h = hashlib.sha256()

    def walk(node):
        h.update(struct.pack("<ii", node.level, len(node.entries)))
        for entry in node.entries:
            h.update(struct.pack("<4d", *entry.mbr.as_tuple()))
            if entry.child is None:
                h.update(struct.pack("<ii", entry.rowid.page, entry.rowid.slot))
            else:
                walk(entry.child)

    walk(tree.root)
    h.update(struct.pack("<i", len(tree)))
    return h.hexdigest()


def replay(fanout, ops):
    """Apply ``ops`` to a fresh tree; returns (digest, meter counts, the
    delete outcomes)."""
    tree = RTree(fanout=fanout)
    ctx = WorkerContext(0)
    live = []
    outcomes = []
    for n, (kind, mbr, pick) in enumerate(ops):
        if kind == "insert" or not live:
            rowid = RowId(n // 7, n % 7)
            tree.insert(mbr, rowid, ctx)
            live.append((mbr, rowid))
        elif kind == "delete":
            victim = live.pop(pick % len(live))
            outcomes.append(tree.delete(*victim, ctx))
        else:  # delete, then put the same entry back
            victim = live[pick % len(live)]
            outcomes.append(tree.delete(*victim, ctx))
            tree.insert(*victim, ctx)
    tree.check_invariants()
    return tree_digest(tree), dict(ctx.meter.counts), outcomes


#: integer corners make exact ties in enlargement, area and waste;
#: zero extents make points and segments
integer_boxes = st.builds(
    lambda x, y, w, h: MBR(x, y, x + w, y + h),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(0, 4),
    st.integers(0, 4),
)
float_boxes = st.builds(
    lambda x, y, w, h: MBR(x, y, x + w, y + h),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
)


@st.composite
def sequences(draw):
    boxes = draw(st.lists(st.one_of(integer_boxes, float_boxes), min_size=1, max_size=12))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert"] * 4 + ["delete", "reinsert"]),
                st.sampled_from(boxes),  # duplicates: one box many times
                st.integers(0, 10_000),
            ),
            max_size=260,
        )
    )
    return ops


class TestMaintenanceMatchesReference:
    @given(st.sampled_from([4, 8, 32]), sequences())
    @settings(max_examples=60, deadline=None)
    def test_trees_and_charges_identical(self, fanout, ops):
        got = replay(fanout, ops)
        with rtree_insert_reference():
            want = replay(fanout, ops)
        assert got == want

    def test_bulk_random_sequence(self):
        """Thousands of inserts and deletes (many splits and condenses at
        every level) leave the same tree and charges."""
        import random

        rng = random.Random(7)
        ops = []
        for _ in range(3000):
            x, y = rng.randrange(0, 400), rng.uniform(0, 400)
            box = MBR(x, y, x + rng.choice([0, 1, 2.5]), y + rng.uniform(0, 8))
            ops.append(("insert", box, 0))
        ops += [("delete", None, rng.randrange(10_000)) for _ in range(1000)]
        for fanout in (4, 32):
            got = replay(fanout, ops)
            with rtree_insert_reference():
                assert got == replay(fanout, ops)

    def test_no_waste_above_minus_one_keeps_the_default_seeds(self):
        """Nested boxes waste minus the smaller area per pair.  When no
        pair wastes more than -1.0 the seeds stay ``(0, 1)``, not the
        pair with the largest (here -16) waste; equal boxes tie everywhere."""
        nested = [MBR(0, 0, 10, 10), MBR(0, 0, 10, 10), MBR(0, 0, 5, 5),
                  MBR(0, 0, 5, 5), MBR(0, 0, 4, 4)]
        for boxes in (nested, [MBR(0.0, 0.0, 3.0, 3.0)] * 40):
            ops = [("insert", box, 0) for box in boxes]
            got = replay(4, ops)
            with rtree_insert_reference():
                assert got == replay(4, ops)
