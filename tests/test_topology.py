from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hierfed.topology import (
    EmptyServer,
    OrphanNode,
    TooDeep,
    TopologyError,
    build_topology,
    reduce_depth,
)

FIG1_SIZES = [11, 4, 2, 1]
FIG1_PARENTS = [[0, 0, 0, 1, 2, 2, 3, 3, 3, 3, 3], [0, 0, 1, 1], [0, 0]]


def fig1():
    return build_topology(FIG1_SIZES, parents=FIG1_PARENTS)


def baseline_6layer():
    return build_topology([96, 32, 16, 8, 4, 2, 1], fanouts=[3, 2, 2, 2, 2, 2])


class TestBuild:
    def test_fig1_subtree_counts(self):
        t = fig1()
        assert t.subtree_devices[1] == (3, 1, 2, 5)
        assert t.subtree_devices[2] == (4, 7)
        assert t.subtree_devices[3] == (11,)

    def test_single_device_chain(self):
        t = build_topology([1, 1], parents=[[0]])
        assert t.num_layers == 1
        assert t.subtree_devices[1] == (1,)

    def test_six_layer_setup(self):
        t = baseline_6layer()
        assert all(c == 3 for c in t.subtree_devices[1])
        assert all(c == 48 for c in t.subtree_devices[5])
        assert sum(t.subtree_devices[5]) == 96

    def test_orphan_out_of_range(self):
        with pytest.raises(OrphanNode):
            build_topology([2, 1, 1], parents=[[0, 5], [0]])

    def test_orphan_short_list(self):
        with pytest.raises(OrphanNode):
            build_topology([3, 2, 1], parents=[[0, 1], [0, 0]])

    def test_empty_server(self):
        with pytest.raises(EmptyServer):
            build_topology([2, 2, 1], parents=[[0, 0], [0, 0]])

    def test_top_layer_must_be_cloud(self):
        with pytest.raises(TopologyError):
            build_topology([4, 2], parents=[[0, 0, 1, 1]])

    @pytest.mark.parametrize(
        "sizes, fanouts",
        [
            ([4, 2, 1], [2.9, 2]),  # was built as fan-out 2
            ([4.7, 2, 1], [2, 2]),  # was built with 4 devices
            ([4, 2, 1], [2.0, 2]),
            ([2, 1, 1], [2, True]),  # was read as fan-out 1
            ([True, 1], [1]),
        ],
    )
    def test_fractional_or_boolean_counts_rejected(self, sizes, fanouts):
        # the rule the parents path already applies to its entries
        with pytest.raises(TopologyError, match="must be integers"):
            build_topology(sizes, fanouts=fanouts)


class TestReduceDepth:
    def test_vi_reduction_examples(self):
        t6 = baseline_6layer()
        t4 = reduce_depth(t6, 2)
        assert t4.layer_sizes == (96, 8, 4, 2, 1)
        assert all(c == 12 for c in t4.subtree_devices[1])
        t1 = reduce_depth(t6, 5)
        assert t1.layer_sizes == (96, 1)
        assert t1.subtree_devices[1] == (96,)

    def test_identity(self):
        t6 = baseline_6layer()
        assert reduce_depth(t6, 0) is t6

    def test_too_deep(self):
        with pytest.raises(TooDeep):
            reduce_depth(baseline_6layer(), 6)

    def test_composition(self):
        t6 = baseline_6layer()
        for a, b in [(1, 1), (2, 1), (1, 3)]:
            left = reduce_depth(t6, a + b)
            right = reduce_depth(reduce_depth(t6, a), b)
            assert left.layer_sizes == right.layer_sizes
            assert left.parents == right.parents

    def test_arbitrary_tree_rejected(self):
        with pytest.raises(TopologyError):
            reduce_depth(fig1(), 1)


@st.composite
def ragged_trees(draw):
    """layer_sizes and parents of a depth 1-4 tree: every upper node gets one
    child, up to four more land anywhere, and each layer is shuffled."""
    sizes, parents = [1], []
    for _ in range(draw(st.integers(1, 4))):
        up = sizes[0]
        extra = draw(st.lists(st.integers(0, up - 1), max_size=4))
        parents.insert(0, draw(st.permutations(list(range(up)) + extra)))
        sizes.insert(0, len(parents[0]))
    return sizes, parents


@st.composite
def fanout_trees(draw):
    """layer_sizes and fanouts of a depth 1-5 uniform tree with fan-outs 1-4."""
    fanouts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    sizes = [1]
    for f in reversed(fanouts):
        sizes.insert(0, sizes[0] * f)
    return sizes, fanouts


class TestFanoutTrees:
    @settings(max_examples=200, deadline=None)
    @given(fanout_trees())
    def test_equals_tree_built_from_its_parents(self, tree):
        # a fan-out tree skips the per-entry parent checks: it must be the
        # tree those checks accept from the same parents
        sizes, fanouts = tree
        t = build_topology(sizes, fanouts=fanouts)
        assert t.parents == tuple(tuple(i // f for i in range(sizes[n])) for n, f in enumerate(fanouts))
        assert replace(build_topology(sizes, parents=[list(p) for p in t.parents]), fanouts=t.fanouts) == t
        assert all(type(p) is int for layer in t.parents for p in layer)


class TestCountsAndInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ragged_trees())
    def test_conservation_randomized(self, tree):
        sizes, parents = tree
        t = build_topology(sizes, parents=parents)
        assert t.subtree_devices[0] == (1,) * t.n_devices
        for layer in range(1, t.num_layers + 1):
            below = t.parents[layer - 1]
            assert len(below) == sizes[layer - 1]
            for node in range(t.layer_sizes[layer]):
                kids = [c for c, p in enumerate(below) if p == node]
                assert kids, "every upper node has a child"
                assert t.subtree_count(layer, node) == sum(t.subtree_count(layer - 1, c) for c in kids)
            assert sum(t.subtree_devices[layer]) == t.n_devices

