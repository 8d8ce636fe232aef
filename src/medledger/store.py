"""Append-only persistence of a ledger directory.

Layout: `main.chain`, `audit.global`, and per patient `p<N>.yellow.chain`
and `p<N>.red.chain`. Each file is a sequence of records framed by a
4-byte big-endian length; a record is the canonical block encoding plus
the stored self_hash. `meta` holds the logical clock and the per-file
record counts, guarded by a SHA-256 checksum, so truncation at a record
boundary is just as detectable as a flipped byte mid-record.

load() refuses to return anything that fails verification.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .blocks import (
    GlobalAuditNote,
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
)
from .errors import CorruptChain, StorageError, TamperedStore
from .ledger import Ledger, verify_tree
from .merkle import sha256

META_NAME = "meta"
MAIN_NAME = "main.chain"
AUDIT_NAME = "audit.global"
_MAGIC = b"MLG1"


def _yellow_name(p: int) -> str:
    return f"p{p}.yellow.chain"


def _red_name(p: int) -> str:
    return f"p{p}.red.chain"


def _frame(records: list[bytes]) -> bytes:
    return b"".join(struct.pack(">I", len(r)) + r for r in records)


def _unframe(filename: str, data: bytes, expected_count: int) -> list[bytes]:
    """Split a chain file into records; any framing surprise is CorruptChain."""
    records: list[bytes] = []
    pos = 0
    while len(records) < expected_count:
        if pos + 4 > len(data):
            raise CorruptChain(filename, pos, f"expected {expected_count} records, found {len(records)}")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if pos + 4 + length > len(data):
            raise CorruptChain(filename, pos, f"record length {length} overruns the file")
        records.append(data[pos + 4 : pos + 4 + length])
        pos += 4 + length
    if pos != len(data):
        raise CorruptChain(filename, pos, f"{len(data) - pos} bytes beyond the last record")
    return records


def _encode_meta(clock: int, manifest: list[tuple[str, int]]) -> bytes:
    body = bytearray(_MAGIC)
    body += struct.pack(">Q", clock)
    body += struct.pack(">I", len(manifest))
    for name, count in manifest:
        raw = name.encode("utf-8")
        body += struct.pack(">I", len(raw)) + raw
        body += struct.pack(">I", count)
    return bytes(body) + sha256(bytes(body))


def _decode_meta(data: bytes) -> tuple[int, list[tuple[str, int]]]:
    if len(data) < len(_MAGIC) + 12 + 32:
        raise CorruptChain(META_NAME, 0, "meta file too short")
    body, checksum = data[:-32], data[-32:]
    if sha256(body) != checksum:
        raise CorruptChain(META_NAME, len(body), "meta checksum mismatch")
    if body[:4] != _MAGIC:
        raise CorruptChain(META_NAME, 0, "bad magic")
    (clock,) = struct.unpack(">Q", body[4:12])
    (count,) = struct.unpack(">I", body[12:16])
    manifest: list[tuple[str, int]] = []
    pos = 16
    for _ in range(count):
        if pos + 4 > len(body):
            raise CorruptChain(META_NAME, pos, "manifest truncated")
        (name_len,) = struct.unpack(">I", body[pos : pos + 4])
        pos += 4
        if pos + name_len + 4 > len(body):
            raise CorruptChain(META_NAME, pos, "manifest truncated")
        try:
            name = body[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptChain(META_NAME, pos, "manifest name is not UTF-8") from None
        pos += name_len
        (records,) = struct.unpack(">I", body[pos : pos + 4])
        pos += 4
        manifest.append((name, records))
    if pos != len(body):
        raise CorruptChain(META_NAME, pos, "trailing bytes in meta body")
    return clock, manifest


def persist(ledger: Ledger, directory: str | Path) -> None:
    """Write the whole ledger; byte-identical for identical state."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        files: list[tuple[str, list[bytes]]] = [
            (MAIN_NAME, [encode_record(blk) for blk in ledger.main_chain]),
            (AUDIT_NAME, [encode_note(n) for n in ledger.global_audit]),
        ]
        for p in sorted(ledger.yellow):
            files.append((_yellow_name(p), [encode_record(blk) for blk in ledger.yellow[p]]))
            files.append((_red_name(p), [encode_record(blk) for blk in ledger.red.get(p, [])]))
        manifest = [(name, len(records)) for name, records in files]
        for name, records in files:
            (directory / name).write_bytes(_frame(records))
        (directory / META_NAME).write_bytes(_encode_meta(ledger.clock, manifest))
    except OSError as exc:
        raise StorageError(f"cannot persist to {directory}: {exc}") from exc


def _assemble(directory: Path) -> Ledger:
    try:
        meta_bytes = (directory / META_NAME).read_bytes()
    except OSError:
        raise StorageError(f"no ledger at {directory} ({META_NAME} missing)") from None
    clock, manifest = _decode_meta(meta_bytes)
    names = [name for name, _ in manifest]
    if MAIN_NAME not in names or AUDIT_NAME not in names:
        raise CorruptChain(META_NAME, 0, "manifest lacks the required files")
    raw: dict[str, list[bytes]] = {}
    for name, count in manifest:
        if os.sep in name or name.startswith("."):
            raise CorruptChain(META_NAME, 0, f"suspicious manifest entry {name!r}")
        try:
            data = (directory / name).read_bytes()
        except OSError:
            raise StorageError(f"chain file {name} missing from {directory}") from None
        raw[name] = _unframe(name, data, count)

    def decode_file(name: str, decode, want: type) -> list:
        """Decode every record of one file; a decoder's ValueError or a record
        of another kind is CorruptChain at the record's offset."""
        items = []
        offset = 0
        for rec in raw[name]:
            try:
                item = decode(rec)
            except ValueError as exc:
                raise CorruptChain(name, offset, str(exc)) from None
            if not isinstance(item, want):
                raise CorruptChain(name, offset, f"{type(item).__name__} record in a {want.__name__} file")
            items.append(item)
            offset += 4 + len(rec)
        return items

    main = decode_file(MAIN_NAME, decode_record, IdentityBlock)
    notes = decode_file(AUDIT_NAME, decode_note, GlobalAuditNote)

    patients = [
        blk.coord.patient for blk in main if blk.variant == IdentityVariant.PATIENT
    ]
    yellow: dict[int, list[MedicalBlock]] = {}
    red: dict[int, list[LogBlock]] = {}
    for p in patients:
        for name, want, target in (
            (_yellow_name(p), MedicalBlock, yellow),
            (_red_name(p), LogBlock, red),
        ):
            if name not in raw:
                raise StorageError(f"chain file {name} missing from {directory}")
            target[p] = decode_file(name, decode_record, want)
    expected = {MAIN_NAME, AUDIT_NAME} | {
        n for p in patients for n in (_yellow_name(p), _red_name(p))
    }
    stray = set(names) - expected
    if stray:
        raise CorruptChain(META_NAME, 0, f"manifest names unexpected files: {sorted(stray)}")
    return Ledger(main, yellow, red, notes, clock)


def load(directory: str | Path) -> Ledger:
    """Reconstruct and verify; a state with violations is refused."""
    ledger = _assemble(Path(directory))
    violations = verify_tree(ledger)
    if violations:
        raise TamperedStore(violations)
    return ledger


def load_raw(directory: str | Path) -> Ledger:
    """Reconstruct without verification; for tamper tooling and repair."""
    return _assemble(Path(directory))

