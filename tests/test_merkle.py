"""Tree construction, proofs, verification and the proof wire format."""

import hashlib
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from medledger.errors import EmptyLeafSet, IndexOutOfRange
from medledger.merkle import (
    MerkleProof,
    build_tree,
    deserialize_proof,
    prove,
    serialize_proof,
    verify,
)

GOLDEN = Path(__file__).parent / "golden"


def H(data: bytes) -> bytes:
    """Independent of the module under test."""
    return hashlib.sha256(data).digest()


def replay(leaf_payload: bytes, proof: MerkleProof) -> bytes:
    """Oracle fold, written separately from merkle.verify."""
    running = H(leaf_payload)
    for sibling, side in proof.path:
        running = H(running + sibling) if side == "right" else H(sibling + running)
    return running


FOUR = [b"L1", b"L2", b"L3", b"L4"]
FIVE = FOUR + [b"L5"]


def test_four_leaf_root_is_nested_concatenation():
    h = [H(x) for x in FOUR]
    expected = H(H(h[0] + h[1]) + H(h[2] + h[3]))
    assert build_tree(FOUR).root == expected


def test_single_leaf_pairs_with_itself():
    assert build_tree([b"L1"]).root == H(H(b"L1") + H(b"L1"))


def test_five_leaf_level_sizes_and_duplicated_tail():
    tree = build_tree(FIVE)
    assert [len(level) for level in tree.levels] == [5, 3, 2, 1]
    assert tree.levels[1][2] == H(H(b"L5") + H(b"L5"))


def test_proof_structure_four_leaves_index_zero():
    tree = build_tree(FOUR)
    h = [H(x) for x in FOUR]
    hash1 = H(h[2] + h[3])
    assert prove(tree, 0).path == ((h[1], "right"), (hash1, "right"))


def test_proof_single_leaf_is_self_sibling():
    tree = build_tree([b"L1"])
    proof = prove(tree, 0)
    assert proof.path == ((H(b"L1"), "right"),)
    assert verify(b"L1", proof, tree.root)


def test_five_leaf_proof_replays_to_root():
    tree = build_tree(FIVE)
    proof = prove(tree, 4)
    assert len(proof.path) == 3
    assert replay(b"L5", proof) == tree.root


def test_empty_leaves_rejected():
    with pytest.raises(EmptyLeafSet):
        build_tree([])


def test_out_of_range_index_rejected():
    tree = build_tree(FOUR)
    with pytest.raises(IndexOutOfRange):
        prove(tree, 4)
    with pytest.raises(IndexOutOfRange):
        prove(tree, -1)


def test_golden_wire_vectors():
    lines = (GOLDEN / "proof_5leaf.txt").read_text().splitlines()
    root = bytes.fromhex(lines[0].split()[1])
    tree = build_tree(FIVE)
    assert tree.root == root
    for line in lines[1:]:
        _, idx, wire_hex = line.split()
        proof = prove(tree, int(idx))
        assert serialize_proof(proof).hex() == wire_hex
        restored = deserialize_proof(bytes.fromhex(wire_hex))
        assert restored == proof
        assert verify(FIVE[int(idx)], restored, root)


def test_deserialize_rejects_bad_framing():
    tree = build_tree(FIVE)
    wire = serialize_proof(prove(tree, 2))
    with pytest.raises(ValueError):
        deserialize_proof(wire[:-1])
    bad_side = wire[:-1] + b"\x02"
    with pytest.raises(ValueError):
        deserialize_proof(bad_side)


def test_relabelled_proof_does_not_verify():
    """A proof is bound to its leaf index: the 5-leaf proof for leaf 2
    relabelled as leaf 4 is refused, and so is an index the path cannot
    use up."""
    tree = build_tree(FIVE)
    proof = prove(tree, 2)
    assert replay(FIVE[2], proof) == tree.root
    assert not verify(FIVE[2], MerkleProof(4, proof.path), tree.root)
    assert not verify(FIVE[2], MerkleProof(2 + 8, proof.path), tree.root)
    assert not verify(FIVE[2], MerkleProof(-1, proof.path), tree.root)


def test_verify_malformed_path_is_false_not_error():
    tree = build_tree(FOUR)
    root = tree.root
    assert not verify(b"L1", MerkleProof(0, ((b"short", "right"),)), root)
    assert not verify(b"L1", MerkleProof(0, ((H(b"L2"), "up"),)), root)
    assert not verify(b"L1", MerkleProof(0, (H(b"L2"),)), root)  # a step that is not a pair
    assert not verify(b"L1", MerkleProof(0, ((H(b"L2"), "right", "right"),)), root)
    assert not verify(b"L1", prove(tree, 0), b"not-a-digest")


leaves_strategy = st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=64)


@given(leaves_strategy, st.data())
def test_round_trip_property(leaves, data):
    tree = build_tree(leaves)
    i = data.draw(st.integers(0, len(leaves) - 1))
    assert verify(leaves[i], prove(tree, i), tree.root)


@given(leaves_strategy, st.data())
def test_proof_verifies_only_for_the_leaf_it_names(leaves, data):
    tree = build_tree(leaves)
    i = data.draw(st.integers(0, len(leaves) - 1))
    other = data.draw(st.integers(0, 2 * len(leaves)).filter(lambda j: j != i))
    proof = prove(tree, i)
    assert not verify(leaves[i], MerkleProof(other, proof.path), tree.root)


@given(leaves_strategy)
def test_level_size_law(leaves):
    tree = build_tree(leaves)
    for below, above in zip(tree.levels, tree.levels[1:]):
        assert len(above) == math.ceil(len(below) / 2)
    assert len(tree.levels[-1]) == 1


@given(leaves_strategy)
def test_determinism(leaves):
    assert build_tree(leaves).root == build_tree(list(leaves)).root


@given(leaves_strategy, st.data())
def test_single_bit_flip_soundness(leaves, data):
    tree = build_tree(leaves)
    i = data.draw(st.integers(0, len(leaves) - 1))
    proof = prove(tree, i)
    target = data.draw(st.sampled_from(["payload", "path", "root"]))
    if target == "payload":
        payload = leaves[i] if leaves[i] else b"\x00"
        bit = data.draw(st.integers(0, len(payload) * 8 - 1))
        mutated = bytearray(payload)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(bytes(mutated), proof, tree.root)
    elif target == "path":
        step = data.draw(st.integers(0, len(proof.path) - 1))
        bit = data.draw(st.integers(0, 255))
        sibling, side = proof.path[step]
        mutated = bytearray(sibling)
        mutated[bit // 8] ^= 1 << (bit % 8)
        path = list(proof.path)
        path[step] = (bytes(mutated), side)
        assert not verify(leaves[i], MerkleProof(i, tuple(path)), tree.root)
    else:
        bit = data.draw(st.integers(0, 255))
        mutated = bytearray(tree.root)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(leaves[i], proof, bytes(mutated))


@given(leaves_strategy, st.data())
def test_wire_size_bound(leaves, data):
    tree = build_tree(leaves)
    i = data.draw(st.integers(0, len(leaves) - 1))
    wire = serialize_proof(prove(tree, i))
    padded = 1 << max(1, math.ceil(math.log2(len(leaves)))) if len(leaves) > 1 else 2
    assert len(wire) <= 4 + math.ceil(math.log2(padded)) * 33
