"""Persistence of a ledger directory.

Layout: `main.chain`, `audit.global`, and per patient `p<N>.yellow.chain`
and `p<N>.red.chain`. Each file is a sequence of records, each a blob of
the blocks codec (4-byte big-endian length + bytes); a record is the
canonical block encoding plus the stored self_hash. `meta` holds the
logical clock and the per-file record counts, guarded by a SHA-256
checksum, so truncation at a record boundary is just as detectable as a
flipped byte mid-record.

persist() rewrites every file, then `meta`, on every call; the store is
not append-only. A load opens only the file names it derives from the
main chain and refuses a manifest that lists any other set. A verified
load (load_checked, and load, which refuses any violation) hashes the
bytes it read: each block's hash is recomputed from the slices of its
stored record (blocks.record_hash), never taken from the stored
self_hash, and kept as the block's memo, which verify_tree then checks.
load_raw decodes only.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path

from .blocks import (
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    _blob,
    _Reader,
    _string,
    _u32,
    _u64,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
    record_hash,
)
from .errors import CorruptChain, StorageError, TamperedStore
from .ledger import Ledger, Violation, verify_tree
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
    return b"".join(_blob(r) for r in records)


def _encode_meta(clock: int, manifest: list[tuple[str, int]]) -> bytes:
    entries = b"".join(_string(name) + _u32(count) for name, count in manifest)
    body = _MAGIC + _u64(clock) + _u32(len(manifest)) + entries
    return body + sha256(body)


def _decode_meta(data: bytes) -> tuple[int, dict[str, int]]:
    """The clock and the record count of each file the manifest lists."""
    if len(data) < len(_MAGIC) + 12 + 32:
        raise CorruptChain(META_NAME, 0, "meta file too short")
    body, checksum = data[:-32], data[-32:]
    if sha256(body) != checksum:
        raise CorruptChain(META_NAME, len(body), "meta checksum mismatch")
    r = _Reader(body)
    try:
        if r.take(len(_MAGIC)) != _MAGIC:
            raise ValueError("bad magic")
        clock = r.u64()
        manifest = [(r.string(), r.u32()) for _ in range(r.u32())]
        r.expect_end()
        counts = dict(manifest)
        if len(counts) != len(manifest):
            raise ValueError("manifest lists a file twice")
    except ValueError as exc:
        raise CorruptChain(META_NAME, r.pos, str(exc)) from None
    return clock, counts


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


def _read_chain(directory: Path, name: str, counts: dict[str, int], decode) -> list:
    """Read and unframe one chain file and decode each record, in one pass.
    A framing failure, a ValueError from decode, or bytes beyond the
    manifest's count is CorruptChain at the offset of the record hit."""
    try:
        r = _Reader((directory / name).read_bytes())
    except OSError:
        raise StorageError(f"chain file {name} missing from {directory}") from None
    items = []
    offset = 0
    try:
        for _ in range(counts[name]):
            items.append(decode(r.blob()))
            offset = r.pos
        r.expect_end()
    except ValueError as exc:
        raise CorruptChain(name, offset, str(exc)) from None
    return items


def _read_blocks(directory: Path, name: str, counts: dict[str, int], want: type, hashed: bool) -> list:
    """The blocks of one chain file, each of kind want. With hashed, each
    block's memo is its hash recomputed from the record bytes just read."""

    def decode(record: bytes):
        block = decode_record(record)
        if not isinstance(block, want):
            raise ValueError(f"{type(block).__name__} record in a {want.__name__} file")
        if hashed:
            object.__setattr__(block, "hash_memo", record_hash(record, block))  # as cached_hash keeps it
        return block

    return _read_chain(directory, name, counts, decode)


def _assemble(directory: Path, hashed: bool = False) -> Ledger:
    """Open only the file names derived from the main chain; the manifest
    supplies record counts and must list exactly those names. With hashed,
    every block's memo is its hash recomputed from the bytes read."""
    try:
        meta_bytes = (directory / META_NAME).read_bytes()
    except OSError:
        raise StorageError(f"no ledger at {directory} ({META_NAME} missing)") from None
    clock, counts = _decode_meta(meta_bytes)
    if MAIN_NAME not in counts or AUDIT_NAME not in counts:
        raise CorruptChain(META_NAME, 0, "manifest lacks the required files")
    main = _read_blocks(directory, MAIN_NAME, counts, IdentityBlock, hashed)
    notes = _read_chain(directory, AUDIT_NAME, counts, decode_note)
    patients = [blk.coord.patient for blk in main if blk.variant == IdentityVariant.PATIENT]
    expected = {MAIN_NAME, AUDIT_NAME} | {
        n for p in patients for n in (_yellow_name(p), _red_name(p))
    }
    if counts.keys() != expected:
        odd = sorted(counts.keys() ^ expected)
        raise CorruptChain(META_NAME, 0, f"manifest does not list exactly the chain files: {odd}")
    yellow: dict[int, list[MedicalBlock]] = {}
    red: dict[int, list[LogBlock]] = {}
    for p in patients:
        yellow[p] = _read_blocks(directory, _yellow_name(p), counts, MedicalBlock, hashed)
        red[p] = _read_blocks(directory, _red_name(p), counts, LogBlock, hashed)
    return Ledger(main, yellow, red, notes, clock)


def load_checked(directory: str | Path) -> tuple[Ledger, list[Violation]]:
    """Reconstruct and verify; the ledger and its violations. verify_tree
    checks the memos, which hold the hashes recomputed from the bytes just
    read."""
    ledger = _assemble(Path(directory), hashed=True)
    return ledger, verify_tree(ledger, attrgetter("hash_memo"))


def load(directory: str | Path) -> Ledger:
    """Reconstruct and verify; a state with violations is refused."""
    ledger, violations = load_checked(directory)
    if violations:
        raise TamperedStore(violations)
    return ledger


def load_raw(directory: str | Path) -> Ledger:
    """Reconstruct without verification; for tamper tooling and repair."""
    return _assemble(Path(directory))
