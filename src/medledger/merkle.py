"""Binary SHA-256 hash tree with inclusion proofs.

Level 0 holds the hashes of the caller's payloads, in order. Each parent
is the hash of its left child concatenated with its right child; a level
with an odd number of digests pairs its last digest with itself, at every
level, so even a single-leaf tree has a distinct root hash(d + d).

Proofs travel in a fixed wire format: a 4-byte big-endian leaf index
followed by one 33-byte element per path step, the sibling digest plus a
side byte (0x00 when the sibling sits to the left of the running hash,
0x01 when it sits to the right).

Two weaknesses are frozen by the wire format and the golden vectors, and
change only with a versioned format: the odd-tail duplication gives the
leaf lists [a, b, c] and [a, b, c, c] the same root (the CVE-2012-2459
pattern), and leaves and inner nodes hash without domain separation (no
RFC 6962 0x00/0x01 prefixes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import EmptyLeafSet, IndexOutOfRange

DIGEST_SIZE = 32
ZERO_DIGEST = bytes(DIGEST_SIZE)

Side = Literal["left", "right"]

_SIDE_TO_BYTE = {"left": b"\x00", "right": b"\x01"}
_BYTE_TO_SIDE = {0x00: "left", 0x01: "right"}


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class MerkleTree:
    """All levels of the tree, leaves first, root level last."""

    levels: tuple[tuple[bytes, ...], ...]

    @property
    def leaves(self) -> tuple[bytes, ...]:
        return self.levels[0]

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]


@dataclass(frozen=True)
class MerkleProof:
    """Bottom-up sibling path for one leaf."""

    leaf_index: int
    path: tuple[tuple[bytes, Side], ...]


def build_tree(leaf_payloads: Sequence[bytes]) -> MerkleTree:
    """Hash every payload and fold pairs upward until a single root remains."""
    if not leaf_payloads:
        raise EmptyLeafSet("cannot build a tree over zero leaves")
    levels = [tuple(sha256(p) for p in leaf_payloads)]
    while len(levels[-1]) > 1 or len(levels) == 1:
        below = levels[-1]
        parents = []
        for i in range(0, len(below), 2):
            left = below[i]
            right = below[i + 1] if i + 1 < len(below) else below[i]
            parents.append(sha256(left + right))
        levels.append(tuple(parents))
    return MerkleTree(levels=tuple(levels))


def prove(tree: MerkleTree, leaf_index: int) -> MerkleProof:
    """Collect the sibling digest and its side at every non-root level.

    An odd tail has no sibling and pairs with itself, so its own digest is
    emitted as a right-hand sibling.
    """
    if not 0 <= leaf_index < len(tree.leaves):
        raise IndexOutOfRange(
            f"leaf index {leaf_index} outside tree of {len(tree.leaves)} leaves"
        )
    path: list[tuple[bytes, Side]] = []
    idx = leaf_index
    for level in tree.levels[:-1]:
        if idx % 2 == 0:
            sibling = level[idx + 1] if idx + 1 < len(level) else level[idx]
            path.append((sibling, "right"))
        else:
            path.append((level[idx - 1], "left"))
        idx //= 2
    return MerkleProof(leaf_index=leaf_index, path=tuple(path))


def verify(leaf_payload: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Replay the path over hash(leaf_payload) and compare with the root.

    The proof is bound to its leaf_index: the side of each step must match
    the index bit of its level (bit 0: sibling on the right), and the path
    must use up the index. Malformed proofs are a mismatch, never an
    exception.
    """
    if not isinstance(root, bytes) or len(root) != DIGEST_SIZE:
        return False
    if not isinstance(proof.leaf_index, int) or proof.leaf_index >> len(proof.path) != 0:
        return False
    running = sha256(leaf_payload)
    for level, step in enumerate(proof.path):
        if not isinstance(step, tuple) or len(step) != 2:
            return False
        sibling, side = step
        if not isinstance(sibling, bytes) or len(sibling) != DIGEST_SIZE:
            return False
        if side != ("left" if proof.leaf_index >> level & 1 else "right"):
            return False
        if side == "right":
            running = sha256(running + sibling)
        else:
            running = sha256(sibling + running)
    return running == root


def serialize_proof(proof: MerkleProof) -> bytes:
    """4-byte big-endian leaf index, then 33 bytes per path element."""
    out = bytearray(proof.leaf_index.to_bytes(4, "big"))
    for sibling, side in proof.path:
        out += sibling
        out += _SIDE_TO_BYTE[side]
    return bytes(out)


def deserialize_proof(data: bytes) -> MerkleProof:
    """Inverse of serialize_proof; raises ValueError on bad framing."""
    if len(data) < 4 or (len(data) - 4) % 33 != 0:
        raise ValueError(f"proof wire length {len(data)} is not 4 + k*33")
    leaf_index = int.from_bytes(data[:4], "big")
    path: list[tuple[bytes, Side]] = []
    for off in range(4, len(data), 33):
        sibling = data[off : off + DIGEST_SIZE]
        side_byte = data[off + DIGEST_SIZE]
        if side_byte not in _BYTE_TO_SIDE:
            raise ValueError(f"invalid side byte {side_byte:#x} at offset {off + DIGEST_SIZE}")
        path.append((sibling, _BYTE_TO_SIDE[side_byte]))
    return MerkleProof(leaf_index=leaf_index, path=tuple(path))
