"""Immutable segment-tree node records.

A node is identified by ``(blob_id, version, offset, size)`` — the version
component is what makes snapshots immutable and caching trivially coherent.
Internal nodes store, for each child interval, the *version whose tree
contains that child* (the weaving links of paper Figure 2(b)); leaves store
where the page lives: the providers holding it and the ``write_uid`` needed
to reconstruct the page key.

A child version of ``0`` denotes the initial all-zero string: readers
zero-fill that subrange without fetching anything (the system "allocates on
write", paper §V.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.net.message import NODE_WIRE_BYTES, estimate_size
from repro.util.intervals import Interval


class NodeKey(NamedTuple):
    """Globally unique tree-node address (hashes onto the DHT)."""

    blob_id: str
    version: int
    offset: int
    size: int

    @property
    def interval(self) -> Interval:
        return Interval(self.offset, self.size)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One tree node; either internal (child links) or leaf (page ref)."""

    key: NodeKey
    # internal nodes: version of the tree containing each child (0 = zeros)
    left_version: int | None = None
    right_version: int | None = None
    # leaves: where the page lives
    providers: tuple[int, ...] = ()
    write_uid: str | None = None

    def __post_init__(self) -> None:
        if self.is_leaf:
            if not self.providers or self.write_uid is None:
                raise ValueError(f"leaf {self.key} must carry a page reference")
        else:
            if self.left_version is None or self.right_version is None:
                raise ValueError(f"internal node {self.key} must link both children")
            if self.providers or self.write_uid is not None:
                raise ValueError(f"internal node {self.key} cannot carry a page ref")

    def __reduce__(self):
        # Flat and positional: the generated slots state would walk
        # dataclasses.fields() on every pickle and unpickle. Decoding goes
        # through the constructor, so __post_init__ still validates.
        key = self.key
        return _make_node, (
            key.blob_id, key.version, key.offset, key.size,
            self.left_version, self.right_version,
            self.providers, self.write_uid,
        )

    @property
    def is_leaf(self) -> bool:
        return self.left_version is None and self.right_version is None

    @property
    def interval(self) -> Interval:
        return self.key.interval

    def child_keys(self) -> tuple[NodeKey, NodeKey]:
        """Keys of both children (only meaningful for internal nodes)."""
        if self.is_leaf:
            raise ValueError(f"leaf {self.key} has no children")
        iv = self.interval
        left, right = iv.left_half(), iv.right_half()
        assert self.left_version is not None and self.right_version is not None
        return (
            NodeKey(self.key.blob_id, self.left_version, left.offset, left.size),
            NodeKey(self.key.blob_id, self.right_version, right.offset, right.size),
        )


def _make_node(
    blob_id: str,
    version: int,
    offset: int,
    size: int,
    left_version: int | None,
    right_version: int | None,
    providers: tuple[int, ...],
    write_uid: str | None,
) -> TreeNode:
    """Unpickle target of :meth:`TreeNode.__reduce__`."""
    return TreeNode(
        NodeKey(blob_id, version, offset, size),
        left_version, right_version, providers, write_uid,
    )


@estimate_size.register
def _(obj: TreeNode) -> int:
    return NODE_WIRE_BYTES


@estimate_size.register
def _(obj: NodeKey) -> int:
    return 40
