"""Tree-node records."""

import pickle

import pytest

from repro.metadata.node import NodeKey, TreeNode
from repro.net.message import NODE_WIRE_BYTES, estimate_size
from repro.util.intervals import Interval


def leaf(version=1, offset=0, size=4096):
    return TreeNode(
        key=NodeKey("b", version, offset, size), providers=(3,), write_uid="w1"
    )


def internal(version=1, offset=0, size=8192, lv=1, rv=0):
    return TreeNode(
        key=NodeKey("b", version, offset, size), left_version=lv, right_version=rv
    )


class TestNodeKey:
    def test_interval_view(self):
        assert NodeKey("b", 3, 8, 16).interval == Interval(8, 16)

    def test_hashable_and_ordered_fields(self):
        a = NodeKey("b", 1, 0, 8)
        b = NodeKey("b", 1, 0, 8)
        assert a == b and hash(a) == hash(b)


class TestTreeNode:
    def test_leaf_classification(self):
        assert leaf().is_leaf
        assert not internal().is_leaf

    def test_leaf_requires_page_reference(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 4096))

    def test_leaf_requires_write_uid(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 4096), providers=(1,))

    def test_internal_requires_both_children(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 8192), left_version=1)

    def test_internal_cannot_carry_page_ref(self):
        with pytest.raises(ValueError):
            TreeNode(
                key=NodeKey("b", 1, 0, 8192),
                left_version=1,
                right_version=1,
                providers=(1,),
                write_uid="w",
            )

    def test_child_keys(self):
        node = internal(version=5, offset=0, size=8192, lv=5, rv=2)
        lkey, rkey = node.child_keys()
        assert lkey == NodeKey("b", 5, 0, 4096)
        assert rkey == NodeKey("b", 2, 4096, 4096)

    def test_child_keys_on_leaf_rejected(self):
        with pytest.raises(ValueError):
            leaf().child_keys()

    def test_immutability(self):
        node = leaf()
        with pytest.raises(Exception):
            node.providers = (9,)  # type: ignore[misc]

    def test_wire_size_registered(self):
        assert estimate_size(leaf()) == NODE_WIRE_BYTES
        assert estimate_size(internal()) == NODE_WIRE_BYTES

    def test_replicated_leaf(self):
        node = TreeNode(
            key=NodeKey("b", 1, 0, 4096), providers=(1, 2, 3), write_uid="w"
        )
        assert node.providers == (1, 2, 3)

    @pytest.mark.parametrize("make", [leaf, internal], ids=["leaf", "internal"])
    def test_pickle_roundtrip(self, make):
        node = make(version=7)
        back = pickle.loads(pickle.dumps(node, protocol=5))
        assert back == node
        assert type(back.key) is NodeKey
        assert back.is_leaf == node.is_leaf

    def test_invalid_node_raises_on_decode(self):
        # build a leaf without a page reference behind the constructor's
        # back: decoding must re-run the validation and refuse it
        forged = object.__new__(TreeNode)
        for name, value in [
            ("key", NodeKey("b", 1, 0, 4096)), ("left_version", None),
            ("right_version", None), ("providers", ()), ("write_uid", None),
        ]:
            object.__setattr__(forged, name, value)
        blob = pickle.dumps(forged)
        with pytest.raises(ValueError, match="page reference"):
            pickle.loads(blob)
