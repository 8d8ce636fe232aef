"""Canonical encoding, block hashing, record decoding and field edits."""

import hashlib
from dataclasses import replace

import pytest

from medledger.blocks import (
    AccessEvent,
    BlockCoord,
    CatalogUpdate,
    FiscalChange,
    GlobalAuditNote,
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    RecordEntry,
    block_hash,
    decode_record,
    encode_record,
    field_groups,
    mutate_block,
    sealed,
)
from medledger.merkle import ZERO_DIGEST, build_tree

from helpers import CATALOG, block_mutations, criterion7_ledger, every_block

D1 = hashlib.sha256(b"one").digest()
D2 = hashlib.sha256(b"two").digest()
D3 = hashlib.sha256(b"three").digest()


def make_identity(**overrides) -> IdentityBlock:
    base = dict(
        coord=BlockCoord(1),
        fiscal_code="FC001",
        personal_info={"name": "Mario", "surname": "Rossi"},
        prev_main=D1,
        variant=IdentityVariant.PATIENT,
    )
    base.update(overrides)
    return sealed(IdentityBlock(**base))


def make_medical(**overrides) -> MedicalBlock:
    base = dict(
        coord=BlockCoord(1, 1),
        entries=(RecordEntry("blood_test", b"hb 13.9", None),),
        prev_yellow=D1,
    )
    base.update(overrides)
    return sealed(MedicalBlock(**base))


def make_log(**overrides) -> LogBlock:
    base = dict(
        coord=BlockCoord(2, 3, 4),
        event=AccessEvent.READ,
        actor="drbianchi",
        timestamp=9,
        place="n1",
        viewed="READ:xray",
        h_main=D1,
        h_yellow=D2,
        h_prev_red=D3,
    )
    base.update(overrides)
    return sealed(LogBlock(**base))


def test_canonical_bytes_deterministic():
    a = make_identity()
    b = make_identity()
    assert encode_record(a) == encode_record(b)
    assert a == b


def test_canonical_bytes_differ_when_a_field_differs():
    a = make_identity()
    b = make_identity(personal_info={"name": "Maria", "surname": "Rossi"})
    assert encode_record(a)[:-32] != encode_record(b)[:-32]  # the bytes before the stored self_hash


def test_block_hash_is_merkle_root_over_hand_built_groups():
    """Oracle: assemble the three field groups by hand, independent of the
    encoder, and compare the Merkle root."""
    log = make_log()

    def u32(x):
        return x.to_bytes(4, "big")

    def s(text):
        raw = text.encode()
        return u32(len(raw)) + raw

    g1 = bytes([3]) + u32(2) + b"\x01" + u32(3) + b"\x01" + u32(4)
    g2 = bytes([2]) + s("drbianchi") + (9).to_bytes(8, "big") + s("n1") + s("READ:xray")
    g3 = D1 + D2 + D3
    assert field_groups(log) == (g1, g2, g3)
    assert block_hash(log) == build_tree([g1, g2, g3]).root
    with pytest.raises(TypeError, match="not a block: GlobalAuditNote"):
        field_groups(GlobalAuditNote("a", 1, "n1", "x", ZERO_DIGEST))


def test_block_hash_stable_and_sensitive():
    medical = make_medical()
    assert block_hash(medical) == block_hash(medical)
    mutated = replace(
        medical,
        entries=(replace(medical.entries[0], payload=b"hb 14.0"),),
    )
    assert block_hash(mutated) != block_hash(medical)


def test_every_field_mutation_changes_block_hash():
    for block in (
        make_identity(),
        make_identity(
            variant=IdentityVariant.FISCAL_CHANGE,
            fiscal_change=FiscalChange("N1", "O1", D2),
        ),
        make_identity(
            variant=IdentityVariant.CATALOG,
            catalog=CatalogUpdate((("a", "A"), ("b", "B")), D3),
        ),
        make_medical(),
        make_medical(entries=(), is_final=True),
        make_log(),
    ):
        for name, mutated in block_mutations(block):
            if name == "self_hash":
                assert block_hash(mutated) == block_hash(block)
            else:
                assert block_hash(mutated) != block_hash(block), name


def test_zero_digest_never_matches_a_real_parent():
    ledger = criterion7_ledger()
    assert all(block_hash(blk) != ZERO_DIGEST for blk in every_block(ledger))


@pytest.mark.parametrize(
    "block",
    [
        make_identity(),
        make_identity(
            variant=IdentityVariant.FISCAL_CHANGE, fiscal_change=FiscalChange("N", "O", D2)
        ),
        make_identity(variant=IdentityVariant.CATALOG, catalog=CatalogUpdate((("a", "A"),), None)),
        make_identity(
            variant=IdentityVariant.SYSTEM_GENESIS,
            fiscal_code="",
            personal_info={},
            catalog=CatalogUpdate(CATALOG, None),
            prev_main=ZERO_DIGEST,
            coord=BlockCoord(0),
        ),
        make_medical(),
        make_medical(entries=(RecordEntry("xray", b"", D1), RecordEntry("ecg", b"x", None))),
        make_medical(entries=(), is_final=True),
        make_log(),
        make_log(event=AccessEvent.WRITE, coord=BlockCoord(1, 1, 1)),
        make_log(event=AccessEvent.FAILED_ATTEMPT, coord=BlockCoord(1, None, 2)),
    ],
)
def test_record_round_trip(block):
    assert decode_record(encode_record(block)) == block


def test_decode_rejects_truncation_and_trailing_bytes():
    record = encode_record(make_log())
    with pytest.raises(ValueError):
        decode_record(record[:-1])
    with pytest.raises(ValueError):
        decode_record(record + b"\x00")
    with pytest.raises(ValueError):
        decode_record(b"\x09" + record[1:])


def test_mutate_block_parses_string_values():
    medical = make_medical()
    flipped = mutate_block(medical, "is_final", "true")
    assert flipped.is_final is True
    assert flipped.self_hash == medical.self_hash  # stale on purpose
    edited = mutate_block(medical, "entry.0.payload", "evil")
    assert edited.entries[0].payload == b"evil"
    log = make_log()
    moved = mutate_block(log, "timestamp", "77")
    assert moved.timestamp == 77
    relinked = mutate_block(log, "h_main", D2.hex())
    assert relinked.h_main == D2
    for field, value in (("timestamp", "-1"), ("timestamp", str(1 << 64)), ("actor", "\udcff")):
        with pytest.raises(ValueError):  # the block encoding cannot hold it
            mutate_block(log, field, value)
    with pytest.raises(ValueError, match="'1_0' is not an integer"):
        mutate_block(log, "timestamp", "1_0")
    with pytest.raises(ValueError, match=r"'\+0' is not an integer"):
        mutate_block(medical, "entry.+0.payload", "evil")
