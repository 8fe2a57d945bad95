"""Multi-layer aggregation trees: devices at layer 0, edge layers above, cloud on top.

A tree with N aggregation layers has N+1 node layers: layer 0 holds the
devices, layers 1..N-1 hold edge servers, and layer N holds the single cloud
node. Node ids are dense integers per layer, assigned in construction order,
so every map is index-based and iteration order is reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


class TopologyError(ValueError):
    """Base class for malformed hierarchy descriptions."""


class OrphanNode(TopologyError):
    """A non-cloud node has no (valid) parent."""


class EmptyServer(TopologyError):
    """An internal node has zero children."""


class TooDeep(TopologyError):
    """Depth reduction asked to remove more edge layers than exist."""


@dataclass(frozen=True)
class Topology:
    """Validated N-layer hierarchy.

    Attributes:
        layer_sizes: node counts per layer, ``layer_sizes[0]`` devices up to
            ``layer_sizes[N] == 1`` (cloud).
        parents: ``parents[n][i]`` is the parent index (in layer n+1) of node
            i at layer n, for n = 0..N-1.
        subtree_devices: ``subtree_devices[n][i]`` is the number of layer-0
            descendants of node i at layer n (1 for devices themselves).
        fanouts: per-layer uniform fan-out rule when the tree was built from
            one (devices per layer-1 node first), else None. Required by
            reduce_depth.
    """

    layer_sizes: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    subtree_devices: tuple[tuple[int, ...], ...] = field(repr=False)
    fanouts: tuple[int, ...] | None = None

    @property
    def num_layers(self) -> int:
        """Number of aggregation layers N."""
        return len(self.layer_sizes) - 1

    @property
    def n_devices(self) -> int:
        return self.layer_sizes[0]

    def subtree_count(self, layer: int, index: int) -> int:
        """Number of devices in the subtree rooted at (layer, index)."""
        return self.subtree_devices[layer][index]


def _whole(values, what: str) -> tuple[int, ...]:
    """The entries as ints; a fractional or boolean entry is rejected, not truncated."""
    values = tuple(values)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
        raise TopologyError(f"{what} must be integers, got {list(values)}")
    return tuple(int(v) for v in values)


def build_topology(
    layer_sizes: list[int] | tuple[int, ...],
    parents: list[list[int]] | None = None,
    fanouts: list[int] | tuple[int, ...] | None = None,
) -> Topology:
    """Construct and validate a hierarchy.

    Exactly one of `parents` / `fanouts` must be given. `parents[n][i]` names
    the parent (index in layer n+1) of node i at layer n. `fanouts[n]` is the
    uniform number of layer-n children per layer-(n+1) node; children are
    assigned in contiguous index blocks.

    Raises OrphanNode, EmptyServer, or TopologyError on malformed input.
    """
    sizes = _whole(layer_sizes, "layer sizes")
    if len(sizes) < 2:
        raise TopologyError("need at least devices and a cloud layer")
    if any(s < 1 for s in sizes):
        raise TopologyError(f"layer sizes must be positive, got {sizes}")
    if sizes[-1] != 1:
        raise TopologyError(f"top layer must hold exactly the cloud, got {sizes[-1]}")

    if (parents is None) == (fanouts is None):
        raise TopologyError("give exactly one of parents= or fanouts=")

    kept_fanouts: tuple[int, ...] | None = None
    if fanouts is not None:
        # a fan-out rule that fits the sizes gives in-range parents and no
        # empty server, so its parents need no per-entry check
        kept_fanouts = _whole(fanouts, "fanouts")
        if len(kept_fanouts) != len(sizes) - 1:
            raise TopologyError("fanouts must have one entry per aggregation layer")
        for n, f in enumerate(kept_fanouts):
            if f < 1 or sizes[n] != f * sizes[n + 1]:
                raise TopologyError(
                    f"fan-out {f} at layer {n} inconsistent with sizes "
                    f"{sizes[n]} -> {sizes[n + 1]}"
                )
        parent_tuples = [tuple(i // f for i in range(sizes[n])) for n, f in enumerate(kept_fanouts)]
    else:
        if len(parents) != len(sizes) - 1:
            raise TopologyError("parents must cover every non-cloud layer")
        parent_tuples = []
        for n, layer_parents in enumerate(parents):
            if len(layer_parents) != sizes[n]:
                raise OrphanNode(
                    f"layer {n}: {len(layer_parents)} parent entries for {sizes[n]} nodes"
                )
            for i, p in enumerate(layer_parents):
                if not isinstance(p, numbers.Integral) or isinstance(p, bool):
                    raise OrphanNode(f"node {i} at layer {n} has non-integer parent {p!r}")
                if not 0 <= p < sizes[n + 1]:
                    raise OrphanNode(
                        f"node {i} at layer {n} names parent {p} outside layer {n + 1}"
                    )
            parent_tuples.append(tuple(int(p) for p in layer_parents))

    subtree: list[tuple[int, ...]] = [(1,) * sizes[0]]
    for n, layer_parents in enumerate(parent_tuples, start=1):
        up = [0] * sizes[n]
        for count, p in zip(subtree[-1], layer_parents):
            up[p] += count
        if 0 in up:
            raise EmptyServer(f"node {up.index(0)} at layer {n} has no children")
        subtree.append(tuple(up))
    assert subtree[-1][0] == sizes[0]

    return Topology(
        layer_sizes=sizes,
        parents=tuple(parent_tuples),
        subtree_devices=tuple(subtree),
        fanouts=kept_fanouts,
    )


def reduce_depth(t: Topology, removed_lower_layers: int) -> Topology:
    """Drop the lowest k edge layers, reattaching devices to the survivors.

    Only defined for trees built from a uniform fan-out rule; the merged
    device fan-out is the product of the removed levels' fan-outs.
    """
    k = int(removed_lower_layers)
    if k < 0:
        raise TopologyError("removed_lower_layers must be >= 0")
    if k == 0:
        return t
    if k >= t.num_layers:
        raise TooDeep(f"cannot remove {k} of {t.num_layers} aggregation layers")
    if t.fanouts is None:
        raise TopologyError("reduce_depth needs a uniform fan-out topology")
    merged = math.prod(t.fanouts[: k + 1])
    new_fanouts = (merged,) + t.fanouts[k + 1 :]
    new_sizes = (t.layer_sizes[0],) + t.layer_sizes[k + 1 :]
    return build_topology(new_sizes, fanouts=new_fanouts)

