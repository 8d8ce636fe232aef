"""Block types for the three chains, canonical encoding and hashing.

Every block encodes as three byte groups: kind tag + coordinates, payload
fields, link digests. The block hash is the Merkle root over those three
groups, and their concatenation is the canonical record used for hashing,
persistence and golden vectors (a stored record appends the 32-byte
self_hash after the canonical bytes).

Encoding primitives, fixed for all platforms:
    u8 / u32 / u64      unsigned big-endian integers
    string              u32 byte length + UTF-8
    bytes payload       u32 length + raw bytes
    digest              exactly 32 raw bytes
    optional value      u8 presence flag (0 or 1) + value
    list                u32 element count + elements
    string map          u32 count + key/value pairs, keys strictly ascending

Each kind, and the audit note, has one encoder that writes its bytes in
one pass, with precompiled structs for the fixed runs: the coordinate
header (four layouts, as the record and the log index are each present
or absent) and an access attempt's tag, timestamp and string lengths.
Everything that encodes uses them: field_groups, encode_record,
block_hash, the store's framing and `meta`, and Ledger.snapshot_bytes. A
value the encoding cannot hold raises what int.to_bytes, str.encode and
bytes concatenation raise, never struct.error, or ValueError for a digest
that is not 32 bytes (pinned by tests/golden/encode_outcomes.txt). The
encoders read the fields in a fixed order, a kind's payload before its
coordinates, so of two bad fields the first in that order raises.

Decoding is strict: flags and enum bytes must be canonical values, map
keys must be sorted and unique, and a record must be consumed exactly.
Any deviation raises ValueError, which the store maps to CorruptChain.
The store's framing and `meta` read with the same field readers.

Each kind has one reader that reads its record in one pass: the medical
and log readers check each bound inline, the identity reader (maps,
optional parts) and the audit note's use field readers that return a
checked value and the offset after it, and precompiled structs unpack
the fixed runs (the coordinate header, and the digests at fixed offsets
from the record's end). Values are built without the dataclass __init__,
but an identity block still gets a read-only personal_info of its own.

Blocks are frozen values (an identity block's personal_info is a
read-only mapping), so a block's hash is a pure function of its fields.
cached_hash computes it once per block object and keeps it in the
block's hash_memo field. A seal hashes once and fills the memo with that
hash too: every block a ledger keeps is built once, with __init__, and
sealed seals it in place, since nothing else holds it yet. While the
network applies a commit, a replica builds no block of its own where the
first replica sealed an equal one: Ledger._seal checks the first
replica's block against a copy built with _built, which it then drops,
and takes that block. The ledger's operations and its derived indexes
use cached_hash. block_hash always recomputes from the fields;
verify_tree uses it by default, and repair_replicas on the one candidate
version at a position where replicas differ.

Equal blocks are exactly the blocks with equal records: decoding is
canonical, and a raw tamper (mutate_block) returns what its record
decodes to, so a list given for a tuple or 2 for True compares as the
bytes do. repair_replicas therefore compares blocks by value. Operator
text names an integer only as str writes it (canonical_int): the CLI,
the sim scripts and the tamper tooling read every integer with it.

A verified store load hashes the bytes it read instead, in the same
pass: decode_record(record, hashed=True) has the reader hash the three
field groups as slices of the record, at the offsets it has just read,
and keep that hash as the block's memo. The slices are exactly
field_groups of the decoded block because decoding is strict and
canonical: a record decodes only if it is the encoding of its block.
block_hash and the reader both hash through three_leaf_root, so both
make the same six SHA-256 calls per block. verify_tree checks those
memos; an unhashed decode leaves the memo empty, and no hash is ever
taken from a stored self_hash. The memo is not a field of the
dataclass's __init__, so dataclasses.replace, and with it every raw
tamper, makes a block with an empty memo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from types import MappingProxyType
from typing import Mapping

from .errors import NoSuchBlock
from .merkle import DIGEST_SIZE, ZERO_DIGEST, sha256

Digest = bytes


class BlockKind(IntEnum):
    IDENTITY = 1
    MEDICAL = 2
    LOG = 3
    AUDIT_NOTE = 4


class IdentityVariant(IntEnum):
    SYSTEM_GENESIS = 0
    PATIENT = 1
    FISCAL_CHANGE = 2
    CATALOG = 3


class AccessEvent(IntEnum):
    WRITE = 1
    READ = 2
    FAILED_ATTEMPT = 3


@dataclass(frozen=True)
class BlockCoord:
    """Position of a block: main-chain index, medical index, log index.

    patient 0 is reserved for the system genesis block.
    """

    patient: int
    record: int | None = None
    log: int | None = None

    def label(self) -> str:
        if self.log is not None:
            rec = "-" if self.record is None else str(self.record)
            return f"{self.patient}.{rec}.{self.log}"
        if self.record is not None:
            return f"{self.patient}.{self.record}"
        return str(self.patient)


@dataclass(frozen=True)
class FiscalChange:
    new_code: str
    old_code: str
    prev_identity: Digest


@dataclass(frozen=True)
class CatalogUpdate:
    entries: tuple[tuple[str, str], ...]  # (code, label) pairs, order preserved
    prev_catalog: Digest | None


@dataclass(frozen=True)
class IdentityBlock:
    coord: BlockCoord
    fiscal_code: str
    personal_info: Mapping[str, str]
    prev_main: Digest
    variant: IdentityVariant
    fiscal_change: FiscalChange | None = None
    catalog: CatalogUpdate | None = None
    self_hash: Digest = ZERO_DIGEST
    hash_memo: Digest | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a read-only copy: nothing the caller keeps can change the block
        object.__setattr__(self, "personal_info", MappingProxyType(dict(self.personal_info)))


@dataclass(frozen=True)
class RecordEntry:
    record_type: str
    payload: bytes
    prev_same_type: Digest | None = None


@dataclass(frozen=True)
class MedicalBlock:
    coord: BlockCoord
    entries: tuple[RecordEntry, ...]
    prev_yellow: Digest
    is_final: bool = False
    self_hash: Digest = ZERO_DIGEST
    hash_memo: Digest | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LogBlock:
    coord: BlockCoord
    event: AccessEvent
    actor: str
    timestamp: int
    place: str
    viewed: str
    h_main: Digest
    h_yellow: Digest
    h_prev_red: Digest
    self_hash: Digest = ZERO_DIGEST
    hash_memo: Digest | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class GlobalAuditNote:
    """Failed attempt with no patient anchor; notes form their own hash chain."""

    actor: str
    timestamp: int
    place: str
    detail: str
    prev_hash: Digest
    self_hash: Digest = ZERO_DIGEST


Block = IdentityBlock | MedicalBlock | LogBlock


# --- encoding ----------------------------------------------------------------

_U8_PACK = struct.Struct(">B").pack
_U32_PACK = struct.Struct(">I").pack
_U64_PACK = struct.Struct(">Q").pack
# the coordinate header: kind, patient, then the record and the log index,
# each a presence flag and, if present, the index
_HEAD_PLAIN = struct.Struct(">BIBB").pack
_HEAD_RECORD = struct.Struct(">BIBIB").pack
_HEAD_LOG = struct.Struct(">BIBBI").pack
_HEAD_BOTH = struct.Struct(">BIBIBI").pack


def _int_error(value) -> Exception:
    """What int.to_bytes raises for the first integer field of value, in
    encoding order, that its width cannot hold: OverflowError for an
    integer out of range, AttributeError for a value that is not one. The
    structs raise struct.error for both; the encoders raise this instead,
    outside the handler, so that it is exactly that error. Every kind
    encodes its payload's integers before its coordinates."""
    ints = [(getattr(value, name), width) for name, width in (("variant", 1), ("event", 1), ("timestamp", 8))
            if hasattr(value, name)]  # fmt: skip
    if hasattr(value, "coord"):
        c = value.coord
        ints += [(c.patient, 4)] + [(i, 4) for i in (c.record, c.log) if i is not None]
    for i, width in ints:
        try:
            i.to_bytes(width, "big")
        except (AttributeError, OverflowError) as exc:
            return exc
    return OverflowError(f"an integer field of {value!r} does not fit its width")


def _digest(d: Digest) -> Digest:
    if len(d) != DIGEST_SIZE:
        raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(d)}")
    return d


def _put_texts(out: list, *texts: str) -> None:
    """Append each text as a u32 byte length and its UTF-8 bytes."""
    for text in texts:
        raw = text.encode()
        out += (_U32_PACK(len(raw)), raw)


def _framed(records) -> bytes:
    """Each record as a u32 byte length and its bytes, concatenated."""
    out: list[bytes] = []
    for record in records:
        out += (_U32_PACK(len(record)), record)
    return b"".join(out)


# --- decoding ----------------------------------------------------------------

_U32 = struct.Struct(">I").unpack_from
_U64 = struct.Struct(">Q").unpack_from
_HEAD = struct.Struct(">BIB").unpack_from  # kind, patient, record-index flag
_TWO_DIGESTS = struct.Struct(f">{DIGEST_SIZE}s{DIGEST_SIZE}s")
_FOUR_DIGESTS = struct.Struct(f">{DIGEST_SIZE}s{DIGEST_SIZE}s{DIGEST_SIZE}s{DIGEST_SIZE}s")


def _truncated(pos: int, n: int) -> ValueError:
    return ValueError(f"truncated record at offset {pos} (need {n} bytes)")


# Strict readers of one field at an offset: each returns the value and the
# offset after it, and raises the ValueError of the first byte it refuses.


def _u32_at(data: bytes, pos: int) -> tuple[int, int]:
    if pos + 4 > len(data):
        raise _truncated(pos, 4)
    return _U32(data, pos)[0], pos + 4


def _u64_at(data: bytes, pos: int) -> tuple[int, int]:
    if pos + 8 > len(data):
        raise _truncated(pos, 8)
    return _U64(data, pos)[0], pos + 8


def _blob_at(data: bytes, pos: int) -> tuple[bytes, int]:
    start = pos + 4
    if start > len(data):
        raise _truncated(pos, 4)
    end = start + _U32(data, pos)[0]
    if end > len(data):
        raise _truncated(start, end - start)
    return data[start:end], end


def _text(data: bytes, pos: int) -> tuple[str, int]:
    raw, end = _blob_at(data, pos)
    try:
        return raw.decode(), end
    except UnicodeDecodeError as exc:
        raise ValueError(f"string at offset {pos + 4} is not UTF-8: {exc}") from None


def _digest_at(data: bytes, pos: int) -> tuple[Digest, int]:
    end = pos + DIGEST_SIZE
    if end > len(data):
        raise _truncated(pos, DIGEST_SIZE)
    return data[pos:end], end


def _flag(data: bytes, pos: int) -> tuple[bool, int]:
    if pos >= len(data):
        raise _truncated(pos, 1)
    if data[pos] > 1:
        raise ValueError(f"non-canonical flag byte {data[pos]:#x} at offset {pos}")
    return data[pos] == 1, pos + 1


def _member(data: bytes, pos: int, members: dict, what: str):
    """The value the byte at pos maps to in members."""
    if pos >= len(data):
        raise _truncated(pos, 1)
    try:
        return members[data[pos]], pos + 1
    except KeyError:
        raise ValueError(f"unknown {what} {data[pos]:#x}") from None


def _expect_end(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after offset {pos}")


def _digests(data: bytes, pos: int, run: struct.Struct) -> tuple[Digest, ...]:
    """The digests of run, which must end the record exactly: their offsets
    are fixed from the record's end."""
    end = pos + run.size
    if end > len(data):
        raise _truncated(pos + (len(data) - pos) // DIGEST_SIZE * DIGEST_SIZE, DIGEST_SIZE)
    _expect_end(data, end)
    return run.unpack_from(data, pos)


# --- field groups and hashing ----------------------------------------------


def _coord_bytes(kind: int, coord: BlockCoord) -> bytes:
    patient, record, log = coord.patient, coord.record, coord.log
    if record is None:
        return _HEAD_PLAIN(kind, patient, 0, 0) if log is None else _HEAD_LOG(kind, patient, 0, 1, log)
    return _HEAD_RECORD(kind, patient, 1, record, 0) if log is None else _HEAD_BOTH(kind, patient, 1, record, 1, log)


def _attempt(tag: int, actor: str, timestamp: int, place: str, text: str) -> bytes:
    """The payload of a log block (tag: its event) and the body of an audit
    note (tag: its kind): u8 tag, actor, u64 timestamp, place, text, each
    encoded in that order, so that the first bad field raises."""
    head = _U8_PACK(tag)
    a = actor.encode()
    time = _U64_PACK(timestamp)
    p, t = place.encode(), text.encode()
    return head + _U32_PACK(len(a)) + a + time + _U32_PACK(len(p)) + p + _U32_PACK(len(t)) + t


def _identity_groups(block: IdentityBlock) -> tuple[bytes, bytes, bytes]:
    info = block.personal_info
    out: list[bytes] = []
    _put_texts(out, block.fiscal_code)
    out.append(_U32_PACK(len(info)))
    for key in sorted(info):
        _put_texts(out, key, info[key])
    out.append(_U8_PACK(block.variant))
    fc = block.fiscal_change
    if fc is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        _put_texts(out, fc.new_code, fc.old_code)
        out.append(_digest(fc.prev_identity))
    cat = block.catalog
    if cat is None:
        out.append(b"\x00")
    else:
        out += (b"\x01", _U32_PACK(len(cat.entries)))
        for code, label in cat.entries:
            _put_texts(out, code, label)
        out.append(b"\x00" if cat.prev_catalog is None else b"\x01" + _digest(cat.prev_catalog))
    return _coord_bytes(BlockKind.IDENTITY, block.coord), b"".join(out), _digest(block.prev_main)


def _medical_groups(block: MedicalBlock) -> tuple[bytes, bytes, bytes]:
    out = [_U32_PACK(len(block.entries))]
    for e in block.entries:
        t, payload, prev = e.record_type.encode(), e.payload, e.prev_same_type
        out.append(
            _U32_PACK(len(t)) + t + _U32_PACK(len(payload)) + payload
            + (b"\x00" if prev is None else b"\x01" + _digest(prev))
        )  # fmt: skip
    out.append(b"\x01" if block.is_final else b"\x00")
    return _coord_bytes(BlockKind.MEDICAL, block.coord), b"".join(out), _digest(block.prev_yellow)


def _log_groups(block: LogBlock) -> tuple[bytes, bytes, bytes]:
    payload = _attempt(block.event, block.actor, block.timestamp, block.place, block.viewed)
    links = _digest(block.h_main) + _digest(block.h_yellow) + _digest(block.h_prev_red)
    return _coord_bytes(BlockKind.LOG, block.coord), payload, links


# the one encoder of each block kind
_FIELD_GROUPS = {IdentityBlock: _identity_groups, MedicalBlock: _medical_groups, LogBlock: _log_groups}


def field_groups(block: Block) -> tuple[bytes, bytes, bytes]:
    """The three Merkle leaves: kind+coordinates, payload fields, link digests."""
    encode = _FIELD_GROUPS.get(type(block))
    if encode is None:
        raise TypeError(f"not a block: {type(block).__name__}")
    try:
        return encode(block)
    except struct.error:
        pass
    raise _int_error(block)


def three_leaf_root(a: bytes, b: bytes, c: bytes) -> Digest:
    """merkle.build_tree([a, b, c]).root, by the same six sha256 calls: the
    three leaves, the pair (a, b), the odd tail c paired with itself, and
    the root."""
    ha, hb, hc = sha256(a), sha256(b), sha256(c)
    return sha256(sha256(ha + hb) + sha256(hc + hc))


def block_hash(block: Block) -> Digest:
    """Merkle root over the block's three field groups, recomputed."""
    return three_leaf_root(*field_groups(block))


def cached_hash(block: Block) -> Digest:
    """The block's hash, computed at most once per block object."""
    h = block.hash_memo
    if h is None:
        h = block_hash(block)
        object.__setattr__(block, "hash_memo", h)
    return h


def sealed(block: Block) -> Block:
    """Seal, in place, a block just built that nothing else holds yet: its
    self_hash and its memo become its hash, computed once. Returns it."""
    h = block_hash(block)
    object.__setattr__(block, "self_hash", h)
    object.__setattr__(block, "hash_memo", h)
    return block


# --- stored records ----------------------------------------------------------


def encode_record(block: Block) -> bytes:
    """Canonical bytes plus the stored self_hash; the unit of persistence."""
    return b"".join(field_groups(block)) + _digest(block.self_hash)


def _built(cls, attrs: dict):
    """A value of the frozen dataclass cls made without its __init__ or
    __post_init__: the decoders pass every field, a block's memo too, and
    Ledger._seal builds with it the comparison copy it checks the first
    replica's block against and drops, with the memo left empty. One update
    is the fastest fill. It gives the value a dict table of its own: faster
    to make than the key-sharing layout that per-field setattr keeps, but
    larger and slower to read, so a block an append keeps is built with
    __init__."""
    value = object.__new__(cls)
    value.__dict__.update(attrs)
    return value


def _coord(data: bytes, n: int) -> tuple[BlockCoord, int]:
    """The coordinates after a block's kind byte, and the offset after them,
    where the record's first field group ends; n is len(data)."""
    if n < 6:
        raise _truncated(1, 4) if n < 5 else _truncated(5, 1)
    _, patient, has_record = _HEAD(data, 0)
    if has_record == 1:
        if n < 10:
            raise _truncated(6, 4)
        record, pos = _U32(data, 6)[0], 10
    elif has_record:
        raise ValueError(f"non-canonical flag byte {has_record:#x} at offset 5")
    else:
        record, pos = None, 6
    if pos >= n:
        raise _truncated(pos, 1)
    has_log = data[pos]
    if has_log == 1:
        if pos + 5 > n:
            raise _truncated(pos + 1, 4)
        log, pos = _U32(data, pos + 1)[0], pos + 5
    elif has_log:
        raise ValueError(f"non-canonical flag byte {has_log:#x} at offset {pos}")
    else:
        log, pos = None, pos + 1
    return _built(BlockCoord, {"patient": patient, "record": record, "log": log}), pos


# The reader of each kind. Each takes a record whose kind byte names its
# kind, and returns the block or raises the ValueError of the first byte it
# refuses. Given hashed, it sets the block's memo to the Merkle root of the
# three field groups, sliced from the record at the offsets it has just read:
# the coordinates end at head, the link digests start at links, and the
# stored self_hash after them is never hashed. These slices are exactly
# field_groups(block), because a record decodes only if it is the encoding
# of its block.


def _decode_identity(data: bytes, hashed: bool) -> IdentityBlock:
    n = len(data)
    coord, head = _coord(data, n)
    fiscal_code, pos = _text(data, head)
    count, pos = _u32_at(data, pos)
    info: dict[str, str] = {}
    prev_key = None
    for _ in range(count):
        key, pos = _text(data, pos)
        if prev_key is not None and key <= prev_key:
            raise ValueError(f"map keys not strictly ascending near offset {pos}")
        prev_key = key
        info[key], pos = _text(data, pos)
    variant, pos = _member(data, pos, _VARIANTS, "identity variant")
    fc = cat = None
    present, pos = _flag(data, pos)
    if present:
        new_code, pos = _text(data, pos)
        old_code, pos = _text(data, pos)
        prev_identity, pos = _digest_at(data, pos)
        fc = FiscalChange(new_code, old_code, prev_identity)
    present, pos = _flag(data, pos)
    if present:
        count, pos = _u32_at(data, pos)
        entries = []
        for _ in range(count):
            code, pos = _text(data, pos)
            label, pos = _text(data, pos)
            entries.append((code, label))
        present, pos = _flag(data, pos)
        prev_catalog, pos = _digest_at(data, pos) if present else (None, pos)
        cat = CatalogUpdate(tuple(entries), prev_catalog)
    prev_main, self_hash = _digests(data, pos, _TWO_DIGESTS)
    memo = three_leaf_root(data[:head], data[head:pos], data[pos : n - DIGEST_SIZE]) if hashed else None
    return _built(IdentityBlock, {"coord": coord, "fiscal_code": fiscal_code, "personal_info": MappingProxyType(info),
                                  "prev_main": prev_main, "variant": variant, "fiscal_change": fc, "catalog": cat,
                                  "self_hash": self_hash, "hash_memo": memo})  # fmt: skip


def _decode_medical(data: bytes, hashed: bool) -> MedicalBlock:
    n = len(data)
    coord, head = _coord(data, n)
    pos = head + 4
    if pos > n:
        raise _truncated(head, 4)
    entries = []
    try:
        for _ in range(_U32(data, head)[0]):
            start = pos + 4  # record_type: u32 length + UTF-8
            if start > n:
                raise _truncated(pos, 4)
            end = start + _U32(data, pos)[0]
            if end > n:
                raise _truncated(start, end - start)
            record_type = data[start:end].decode()
            pos = end + 4  # payload: u32 length + bytes
            if pos > n:
                raise _truncated(end, 4)
            end = pos + _U32(data, end)[0]
            if end > n:
                raise _truncated(pos, end - pos)
            payload = data[pos:end]
            if end >= n:  # prev_same_type: u8 flag + digest
                raise _truncated(end, 1)
            if data[end] == 0:
                prev, pos = None, end + 1
            elif data[end] == 1:
                pos = end + 1 + DIGEST_SIZE
                if pos > n:
                    raise _truncated(end + 1, DIGEST_SIZE)
                prev = data[end + 1 : pos]
            else:
                raise ValueError(f"non-canonical flag byte {data[end]:#x} at offset {end}")
            entry = {"record_type": record_type, "payload": payload, "prev_same_type": prev}
            entries.append(_built(RecordEntry, entry))
    except UnicodeDecodeError as exc:
        raise ValueError(f"string at offset {start} is not UTF-8: {exc}") from None
    if pos >= n:
        raise _truncated(pos, 1)
    if data[pos] > 1:
        raise ValueError(f"non-canonical final flag {data[pos]:#x}")
    links = pos + 1
    prev_yellow, self_hash = _digests(data, links, _TWO_DIGESTS)
    memo = three_leaf_root(data[:head], data[head:links], data[links : n - DIGEST_SIZE]) if hashed else None
    return _built(MedicalBlock, {"coord": coord, "entries": tuple(entries), "prev_yellow": prev_yellow,
                                 "is_final": data[pos] == 1, "self_hash": self_hash, "hash_memo": memo})  # fmt: skip


def _decode_log(data: bytes, hashed: bool) -> LogBlock:
    n = len(data)
    coord, head = _coord(data, n)
    if head >= n:
        raise _truncated(head, 1)
    event = _EVENTS.get(data[head])
    if event is None:
        raise ValueError(f"unknown access event {data[head]:#x}")
    pos = head + 1
    try:
        start = pos + 4  # actor: u32 length + UTF-8
        if start > n:
            raise _truncated(pos, 4)
        pos = start + _U32(data, pos)[0]
        if pos > n:
            raise _truncated(start, pos - start)
        actor = data[start:pos].decode()
        if pos + 8 > n:  # timestamp: u64
            raise _truncated(pos, 8)
        timestamp = _U64(data, pos)[0]
        pos += 8
        start = pos + 4  # place
        if start > n:
            raise _truncated(pos, 4)
        pos = start + _U32(data, pos)[0]
        if pos > n:
            raise _truncated(start, pos - start)
        place = data[start:pos].decode()
        start = pos + 4  # viewed
        if start > n:
            raise _truncated(pos, 4)
        pos = start + _U32(data, pos)[0]
        if pos > n:
            raise _truncated(start, pos - start)
        viewed = data[start:pos].decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"string at offset {start} is not UTF-8: {exc}") from None
    h_main, h_yellow, h_prev_red, self_hash = _digests(data, pos, _FOUR_DIGESTS)
    memo = three_leaf_root(data[:head], data[head:pos], data[pos : n - DIGEST_SIZE]) if hashed else None
    return _built(LogBlock, {"coord": coord, "event": event, "actor": actor, "timestamp": timestamp,
                             "place": place, "viewed": viewed, "h_main": h_main, "h_yellow": h_yellow,
                             "h_prev_red": h_prev_red, "self_hash": self_hash, "hash_memo": memo})  # fmt: skip


# each byte the decoder accepts for an enum or a block kind, mapped to its
# member or to the reader of that kind
_VARIANTS = {int(v): v for v in IdentityVariant}
_EVENTS = {int(e): e for e in AccessEvent}
_BLOCK_DECODERS = {
    int(BlockKind.IDENTITY): _decode_identity,
    int(BlockKind.MEDICAL): _decode_medical,
    int(BlockKind.LOG): _decode_log,
}


def decode_record(data: bytes, hashed: bool = False) -> Block:
    """Inverse of encode_record; ValueError on any non-canonical byte. With
    hashed, the block's memo is its hash, taken from the record's own
    bytes (block_hash of the block, by the same six SHA-256 calls);
    without, the memo is empty."""
    if not data:
        raise _truncated(0, 1)
    decode = _BLOCK_DECODERS.get(data[0])
    if decode is None:
        raise ValueError(f"unknown block kind {data[0]:#x}")
    return decode(data, hashed)


def note_canonical(note: GlobalAuditNote) -> bytes:
    try:
        return _attempt(BlockKind.AUDIT_NOTE, note.actor, note.timestamp, note.place, note.detail) + _digest(note.prev_hash)
    except struct.error:
        pass
    raise _int_error(note)


def note_hash(note: GlobalAuditNote) -> Digest:
    return sha256(note_canonical(note))


def sealed_note(note: GlobalAuditNote) -> GlobalAuditNote:
    """Seal, in place, a note just built that nothing else holds yet, as sealed does."""
    object.__setattr__(note, "self_hash", note_hash(note))
    return note


def encode_note(note: GlobalAuditNote) -> bytes:
    return note_canonical(note) + _digest(note.self_hash)


def decode_note(data: bytes) -> GlobalAuditNote:
    if not data:
        raise _truncated(0, 1)
    if data[0] != BlockKind.AUDIT_NOTE:
        raise ValueError(f"not an audit note record (kind {data[0]:#x})")
    actor, pos = _text(data, 1)
    timestamp, pos = _u64_at(data, pos)
    place, pos = _text(data, pos)
    detail, pos = _text(data, pos)
    prev_hash, self_hash = _digests(data, pos, _TWO_DIGESTS)
    return GlobalAuditNote(actor, timestamp, place, detail, prev_hash, self_hash)


# --- operator text and targeted field edits (tamper tooling) ------------------


def canonical_int(text: str) -> int:
    """The integer text names, or ValueError: only the text str() writes
    for an integer names one, so "1_0", "+1", " 1", "01" and digits of
    other scripts, which int() reads, name none. Every text that names
    none, int() refusing it or not, gets the same refusal."""
    try:
        value = int(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not an integer")


def boolean_word(text: str) -> bool:
    """The truth value text names, or ValueError: "true", "1" and "yes"
    name True, "false", "0" and "no" name False, in any case."""
    word = text.lower()
    if word in ("true", "1", "yes"):
        return True
    if word in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# the fields whose tamper value is a digest in hex
_DIGEST_FIELDS = {"prev_main", "prev_yellow", "prev_same_type", "h_main", "h_yellow", "h_prev_red", "self_hash"}
_ENUM_NAMES = {AccessEvent: "access event", IdentityVariant: "identity variant"}


def _parse_value(name: str, current, text: str):
    """Parse a CLI/script value string for the field name: a digest from hex,
    a payload as UTF-8 text, any other field by the type of its current value."""
    if name in _DIGEST_FIELDS:
        raw = bytes.fromhex(text)
        if len(raw) != DIGEST_SIZE:
            raise ValueError(f"digest value must be {DIGEST_SIZE} hex bytes")
        return raw
    if name == "payload":
        return text.encode("utf-8")
    if isinstance(current, bool):
        return boolean_word(text)
    if isinstance(current, IntEnum):
        try:
            return type(current)[text.upper()]
        except KeyError:
            raise ValueError(f"unknown {_ENUM_NAMES[type(current)]} {text!r}") from None
    if isinstance(current, int):
        return canonical_int(text)
    raise ValueError(f"cannot parse a value for field of type {type(current).__name__}")


def _replaced(target, name: str, value):
    """A copy of the frozen target with its field name set to value; a
    string for a field that holds no string is parsed for that field first."""
    current = getattr(target, name)
    if isinstance(value, str) and not isinstance(current, str):
        value = _parse_value(name, current, value)
    return replace(target, **{name: value})


def _encodable(block: Block) -> Block:
    """The canonical value of the block: what its record decodes to, so
    that equal blocks are exactly the blocks with equal bytes."""
    try:
        return decode_record(encode_record(block))
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"the block encoding cannot hold this value: {exc}") from None


def mutate_block(block: Block, field_path: str, value) -> Block:
    """Return a copy of the block with one field replaced, self_hash untouched.

    This is a raw edit that bypasses sealing, the tool for tamper
    injection. Paths: a top-level field name other than hash_memo,
    ``info.<key>``, ``entry.<i>.payload`` / ``entry.<i>.record_type`` /
    ``entry.<i>.prev_same_type``. String values are parsed for the field
    they replace; already-typed values pass through. The result is what the
    block's record decodes to, so a value the record cannot hold (a
    negative timestamp, a string that is not UTF-8, an unknown event
    number) raises ValueError, and every tampered block still hashes.
    """
    parts = field_path.split(".")
    if parts[0] == "info" and isinstance(block, IdentityBlock) and len(parts) == 2:
        return _encodable(replace(block, personal_info={**block.personal_info, parts[1]: value}))
    entry_path = len(parts) == 3 and parts[0] == "entry" and parts[2] in {f.name for f in fields(RecordEntry)}
    if entry_path and isinstance(block, MedicalBlock):
        idx = canonical_int(parts[1])
        if not 0 <= idx < len(block.entries):
            raise NoSuchBlock(f"no entry {idx} in block {block.coord.label()}")
        entries = list(block.entries)
        entries[idx] = _replaced(entries[idx], parts[2], value)
        return _encodable(replace(block, entries=tuple(entries)))
    if len(parts) == 1 and parts[0] in {f.name for f in fields(block) if f.init}:
        return _encodable(_replaced(block, parts[0], value))
    raise ValueError(f"unknown field path {field_path!r} for {type(block).__name__}")
