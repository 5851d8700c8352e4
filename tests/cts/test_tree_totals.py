"""The revision-memoized tree totals against a fresh walk of the node table.

``ClockTree.total_capacitance`` and ``total_wirelength`` keep every node's
terms by journal revision and the totals until the next content change.
After every mutator, checkpoint rollback, release, clone and state copy they
must equal -- bit for bit -- the whole-tree walk they replaced, which is
kept below as the reference.
"""

import random
from typing import Callable, List

import pytest

from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point
from repro.testing import make_zst_tree

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()


def reference_capacitance(tree: ClockTree) -> float:
    wire = 0.0
    buffers = 0.0
    sinks = 0.0
    for node in tree.nodes():
        if node.parent is not None and node.wire_type is not None:
            wire += node.wire_type.capacitance(node.route_length() + node.snake_length)
        if node.buffer is not None:
            buffers += node.buffer.total_cap
        if node.sink is not None and node.is_sink:
            sinks += node.sink.capacitance
    return wire + buffers + sinks


def reference_wirelength(tree: ClockTree) -> float:
    return sum(n.edge_length() for n in tree.nodes() if n.parent is not None)


def assert_totals_fresh(tree: ClockTree) -> None:
    # Twice: the second call is served from the memo.
    for _ in range(2):
        assert tree.total_capacitance() == reference_capacitance(tree)
        assert tree.total_wirelength() == reference_wirelength(tree)


def buffered_tree() -> ClockTree:
    tree = make_zst_tree(sink_count=16, seed=3)
    for node in list(tree.nodes()):
        if node.parent is not None and not node.is_sink and len(node.children) == 2:
            tree.place_buffer(node.node_id, BUFS.by_name("INV_S").parallel(4))
            break
    assert_totals_fresh(tree)
    return tree


def internal_edges(tree: ClockTree) -> List[int]:
    return [n.node_id for n in tree.nodes() if n.parent is not None and not n.is_sink]


def sink_ids(tree: ClockTree) -> List[int]:
    return [n.node_id for n in tree.sinks()]


MUTATORS: List[Callable[[ClockTree, random.Random], None]] = [
    lambda tree, rng: tree.place_buffer(
        rng.choice(internal_edges(tree)), BUFS.by_name("INV_S").parallel(rng.choice([2, 8]))
    ),
    lambda tree, rng: tree.remove_buffer(rng.choice([n.node_id for n in tree.buffers()] or [0])),
    lambda tree, rng: tree.set_wire_type(rng.choice(sink_ids(tree)), WIRES.narrowest),
    lambda tree, rng: tree.add_snake(rng.choice(sink_ids(tree)), rng.uniform(1.0, 50.0)),
    lambda tree, rng: tree.set_route(
        rng.choice(sink_ids(tree)), []
    ),
    lambda tree, rng: tree.move_node(
        rng.choice(internal_edges(tree)), Point(rng.uniform(0, 3000), rng.uniform(0, 3000))
    ),
    lambda tree, rng: tree.split_edge(rng.choice(sink_ids(tree)), rng.uniform(0.1, 0.9)),
    lambda tree, rng: tree.add_sink(
        rng.choice(internal_edges(tree)), Point(rng.uniform(0, 3000), 5.0), Sink("x", 7.5)
    ),
    lambda tree, rng: tree.add_internal(rng.choice(internal_edges(tree)), Point(10.0, 10.0)),
]


@pytest.mark.parametrize("index", range(len(MUTATORS)))
def test_every_mutator_refreshes_totals(index):
    tree = buffered_tree()
    rng = random.Random(index)
    for _ in range(3):
        MUTATORS[index](tree, rng)
        assert_totals_fresh(tree)


def test_detach_attach_and_remove_subtree():
    tree = buffered_tree()
    sink = sink_ids(tree)[0]
    tree.detach_subtree(sink)
    assert_totals_fresh(tree)
    tree.attach_subtree(sink, internal_edges(tree)[-1])
    assert_totals_fresh(tree)
    removed = tree.remove_subtree(internal_edges(tree)[-1])
    assert removed
    assert_totals_fresh(tree)


def test_direct_edit_with_journal_and_touch():
    tree = buffered_tree()
    node_id = sink_ids(tree)[1]
    tree.journal_node(node_id)
    tree.node(node_id).snake_length += 25.0
    tree.touch(node_id)
    assert_totals_fresh(tree)


def test_checkpoint_rollback_and_release():
    tree = buffered_tree()
    before = (tree.total_capacitance(), tree.total_wirelength())
    rng = random.Random(7)
    token = tree.checkpoint()
    for mutator in MUTATORS:
        mutator(tree, rng)
        assert_totals_fresh(tree)
    tree.remove_subtree(internal_edges(tree)[-1])
    assert_totals_fresh(tree)
    tree.rollback_to(token)
    assert_totals_fresh(tree)
    assert (tree.total_capacitance(), tree.total_wirelength()) == before
    token = tree.checkpoint()
    tree.add_snake(sink_ids(tree)[0], 12.0)
    tree.release(token)
    assert_totals_fresh(tree)


def test_clones_and_state_copies_stay_independent():
    tree = buffered_tree()
    twin = tree.clone()
    assert_totals_fresh(twin)
    twin.add_snake(sink_ids(twin)[0], 40.0)
    twin.place_buffer(internal_edges(twin)[0], BUFS.by_name("INV_S").parallel(2))
    assert_totals_fresh(twin)
    assert_totals_fresh(tree)
    assert twin.total_wirelength() != tree.total_wirelength()
    tree.copy_state_from(twin)
    assert_totals_fresh(tree)
    assert tree.total_capacitance() == twin.total_capacitance()


def test_memo_is_pruned_to_live_revisions():
    tree = buffered_tree()
    sink = sink_ids(tree)[0]
    for _ in range(5 * len(tree)):
        tree.add_snake(sink, 0.5)
        assert tree.total_wirelength() == reference_wirelength(tree)
    assert len(tree._terms) <= 2 * len(tree) + 1
