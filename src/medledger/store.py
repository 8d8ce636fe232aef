"""Persistence of a ledger directory.

Layout: `main.chain`, `audit.global`, and per patient `p<N>.yellow.chain`
and `p<N>.red.chain`. Each file is a sequence of records, each a blob of
the blocks codec (4-byte big-endian length + bytes); a record is the
canonical block encoding plus the stored self_hash. `meta` holds the
logical clock and the per-file record counts, guarded by a SHA-256
checksum, so truncation at a record boundary is just as detectable as a
flipped byte mid-record.

Persist writes both files of every patient the ledger holds, and a
ledger holds both subchains of a patient or neither, so a patient that a
repair gives a block always gets both files.

A session (store.session) is the single writer: it holds the directory's
flock, exclusive, from its load through its commits, each of which
appends only what the ledger appended since. load_checked, the load of
`verify`, takes the flock shared, so verifies run together but never
while a command writes. A load opens the directory once and reads `meta`
and every file through that fd: main.chain, audit.global and both files
of each patient the manifest names; it refuses any other listing, and a
ledger that anchors an unlisted patient. A file that is not a regular
one (a FIFO, a directory) is refused by name as soon as it is opened,
without waiting on it; a name that does not exist is reported missing.
Each stored record is decoded once, in one pass (blocks.decode_record:
one strict reader per block kind, blocks built without their dataclass
__init__ but with a read-only personal_info of their own). A verified
load (load_checked, and load, which refuses any violation) also has the
reader hash the bytes it has just read: each block's hash is recomputed
from the slices of its stored record, never taken from the stored
self_hash, and kept as the block's memo, which verify_tree then checks.
The slices are the block's field groups because decoding is strict and
canonical. load_raw decodes, and hashes the same way only the main chain,
whose hashes the ledger's derived indexes need; nothing is re-encoded.

Replicas share blocks on disk as clones do in memory. audit-repair
passes one dict to the raw loads of all its replicas (load_raw's shared):
the first load that reads a file keeps its bytes, manifest count and
decoded blocks there, and a later load whose file has the same bytes and
count takes a fresh list of those blocks, frozen values, without
decoding or hashing it. So each distinct chain file is decoded once, and
repair's identity skip passes over every chain whose files were equal.
load, load_checked and every single-directory command pass no dict.

Every load runs with Python's cyclic garbage collector paused. A load
allocates thousands of blocks, so the collector would otherwise scan them,
and whatever a caller already holds (audit-repair's earlier replicas and
shared), pass after pass. But a load builds no reference cycle: blocks,
lists, dicts and the Ledger only point down, and reference counting frees
them all (a test pins this). The pause is process-wide state: the load
takes whether the collector was enabled on entry and, in a finally,
enables it again only if it was, whether the load returns or raises.
"""

from __future__ import annotations

import fcntl
import gc
import os
import stat
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path

from .blocks import (
    IdentityBlock,
    LogBlock,
    MedicalBlock,
    _U32_PACK,
    _U64_PACK,
    _blob_at,
    _expect_end,
    _framed,
    _put_texts,
    _text,
    _u32_at,
    _u64_at,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
)
from .errors import CorruptChain, StorageError, TamperedStore
from .ledger import Ledger, Violation, verify_tree
from .merkle import sha256

META_NAME = "meta"
MAIN_NAME = "main.chain"
AUDIT_NAME = "audit.global"
_MAGIC = b"MLG1"


def _chain_name(p: int, subchain: str) -> str:
    return f"p{p}.{subchain}.chain"


def _expect_listed(counts: dict[str, int], patients) -> None:
    """Refuse a manifest that does not list exactly main.chain, audit.global and both files of each patient."""
    expected = {MAIN_NAME, AUDIT_NAME} | {_chain_name(p, c) for p in patients for c in ("yellow", "red")}
    if counts.keys() != expected:
        odd = sorted(counts.keys() ^ expected)
        raise CorruptChain(META_NAME, 0, f"manifest does not list exactly the chain files: {odd}")


def _encode_meta(clock: int, manifest: list[tuple[str, int]]) -> bytes:
    out = [_MAGIC, _U64_PACK(clock), _U32_PACK(len(manifest))]
    for name, count in manifest:
        _put_texts(out, name)
        out.append(_U32_PACK(count))
    body = b"".join(out)
    return body + sha256(body)


def _decode_meta(data: bytes) -> tuple[int, dict[str, int]]:
    """The clock and the record count of each file the manifest lists."""
    if len(data) < len(_MAGIC) + 12 + 32:
        raise CorruptChain(META_NAME, 0, "meta file too short")
    body, checksum = data[:-32], data[-32:]
    if sha256(body) != checksum:
        raise CorruptChain(META_NAME, len(body), "meta checksum mismatch")
    pos = len(_MAGIC)  # an error's offset: the field that failed, or the end of a name not UTF-8
    try:
        if body[:pos] != _MAGIC:
            raise ValueError("bad magic")
        clock, pos = _u64_at(body, pos)
        entries, pos = _u32_at(body, pos)
        manifest = []
        for _ in range(entries):
            start, pos = pos, _blob_at(body, pos)[1]
            name = _text(body, start)[0]
            count, pos = _u32_at(body, pos)
            manifest.append((name, count))
        _expect_end(body, pos)
        counts = dict(manifest)
        if len(counts) != len(manifest):
            raise ValueError("manifest lists a file twice")
    except ValueError as exc:
        raise CorruptChain(META_NAME, pos, str(exc)) from None
    return clock, counts


def _files(ledger: Ledger) -> list[tuple[str, list, object]]:
    """(file name, items, encoder) of every file of the ledger's directory."""
    files = [(MAIN_NAME, ledger.main_chain, encode_record), (AUDIT_NAME, ledger.global_audit, encode_note)]
    for p in sorted(ledger.yellow):
        files.append((_chain_name(p, "yellow"), ledger.yellow[p], encode_record))
        files.append((_chain_name(p, "red"), ledger.red[p], encode_record))
    return files


def persist(ledger: Ledger, directory: str | Path, held: dict[str, list] | None = None) -> None:
    """Write what the directory does not hold yet, then `meta`; the bytes
    are those of a whole write, so byte-identical for identical state.

    held is the image a session keeps: the records each file holds. A
    file whose records still begin with those is appended to at its end,
    which is where the load stopped reading; an unchanged file is not
    opened. Every other file, and every file when held is None, is
    written whole.
    """
    directory = Path(directory)
    held = held or {}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        files = _files(ledger)
        for name, items, encode in files:
            old = held.get(name)
            if old is None or items[: len(old)] != old:
                old = []  # written whole: the append of every record
            elif len(items) == len(old):
                continue
            data = _framed([encode(item) for item in items[len(old) :]])
            with open(directory / name, "ab") as f:  # positioned at the file's end
                if not old and f.tell():  # a truncate to the same length still costs an inode update
                    f.truncate(0)
                f.write(data)
        manifest = [(name, len(items)) for name, items, _ in files]
        (directory / META_NAME).write_bytes(_encode_meta(ledger.clock, manifest))
    except OSError as exc:
        raise StorageError(f"cannot persist to {directory}: {exc}") from exc


def _read_file(fd: int, directory: Path, name: str, missing: str) -> bytes:
    """Every byte of the file name in the directory open as fd. A name that
    does not exist is StorageError(missing). A file that is not a regular
    one (a FIFO, a directory, a device) is refused once opened: the open
    does not wait for a FIFO's writer, and nothing is read from it."""
    try:
        f = os.open(name, os.O_RDONLY | os.O_NONBLOCK, dir_fd=fd)
    except FileNotFoundError:
        raise StorageError(missing) from None
    except OSError as exc:
        raise StorageError(f"cannot open {name} in {directory}: {exc.strerror}") from None
    try:
        info = os.fstat(f)
        if not stat.S_ISREG(info.st_mode):
            raise StorageError(f"{name} in {directory} is not a regular file")
        data = b""  # one read of a regular file, unless it is over 2 GiB
        while len(data) < info.st_size and (chunk := os.read(f, info.st_size - len(data))):
            data += chunk
        return data
    except OSError as exc:
        raise StorageError(f"cannot read {name} in {directory}: {exc.strerror}") from None
    finally:
        os.close(f)


def _read_chain(fd: int, directory: Path, name: str, counts: dict[str, int], decode, shared: dict | None) -> list:
    """Read and unframe one chain file and decode each record, in one pass.
    A framing failure, a ValueError from decode, or bytes beyond the
    manifest's count is CorruptChain at the offset of the record hit.

    shared, if given, maps a file name to (bytes, count, items) of the
    first load that decoded that file; a file whose bytes and count equal
    those gets a fresh list of the same items, undecoded."""
    data = _read_file(fd, directory, name, f"chain file {name} missing from {directory}")
    first = None if shared is None else shared.get(name)
    if first is not None and first[0] == data and first[1] == counts[name]:
        return list(first[2])
    items = []
    offset = 0
    try:
        for _ in range(counts[name]):
            record, end = _blob_at(data, offset)
            items.append(decode(record))
            offset = end
        _expect_end(data, offset)
    except ValueError as exc:
        raise CorruptChain(name, offset, str(exc)) from None
    if shared is not None:
        shared.setdefault(name, (data, counts[name], tuple(items)))
    return items


def _read_blocks(fd: int, directory: Path, name: str, counts: dict[str, int], want: type, hashed: bool, shared) -> list:
    """The blocks of one chain file, each of kind want. With hashed, each
    block's memo is its hash, which decode_record takes from the record
    bytes just read. shared is _read_chain's."""

    def decode(record: bytes):
        block = decode_record(record, hashed)
        if not isinstance(block, want):
            raise ValueError(f"{type(block).__name__} record in a {want.__name__} file")
        return block

    return _read_chain(fd, directory, name, counts, decode, shared)


def _assemble(directory: Path, hashed: bool = False, shared: dict | None = None, how: int = 0) -> Ledger:
    """Open the files persist wrote, as its manifest lists them, each
    through one fd of the directory, flocked by how (_locked's) while they
    are read; a patient listed but not anchored is verify_tree's to
    report. The memo of each main-chain block, and with hashed of every
    block, is its hash recomputed from the bytes read, so that building the
    Ledger re-encodes nothing. shared is _read_chain's. The cyclic
    collector is paused throughout, and enabled again only if it was."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with _locked(directory, how) as fd:
            meta = _read_file(fd, directory, META_NAME, f"no ledger at {directory} ({META_NAME} missing)")
            clock, counts = _decode_meta(meta)
            numbers = {name[1:].partition(".")[0] for name in counts}  # p<N>.yellow.chain gives N
            patients = sorted(int(n) for n in numbers if n.isdecimal() and len(n) <= 10)  # at most a u32's 10 digits
            _expect_listed(counts, patients)  # so each name is the _chain_name of its number
            main = _read_blocks(fd, directory, MAIN_NAME, counts, IdentityBlock, hashed=True, shared=shared)
            notes = _read_chain(fd, directory, AUDIT_NAME, counts, decode_note, shared)
            yellow: dict[int, list[MedicalBlock]] = {}
            red: dict[int, list[LogBlock]] = {}
            for p in patients:
                yellow[p] = _read_blocks(fd, directory, _chain_name(p, "yellow"), counts, MedicalBlock, hashed, shared)
                red[p] = _read_blocks(fd, directory, _chain_name(p, "red"), counts, LogBlock, hashed, shared)
        ledger = Ledger(main, yellow, red, notes, clock)
        _expect_listed(counts, ledger.yellow)  # the lineage rule may anchor a patient the manifest does not name
        return ledger
    finally:
        if collecting:
            gc.enable()


def _verified(directory: Path, how: int) -> tuple[Ledger, list[Violation]]:
    """The hashed load, flocked by how, and verify_tree over its memos."""
    ledger = _assemble(directory, hashed=True, how=how)
    return ledger, verify_tree(ledger, attrgetter("hash_memo"))


def load_checked(directory: str | Path) -> tuple[Ledger, list[Violation]]:
    """Reconstruct and verify; the ledger and its violations. verify_tree
    checks the memos, which hold the hashes recomputed from the bytes just
    read. The files are read under the directory's lock, shared, so that
    verifies run together but never beside a command that writes."""
    return _verified(Path(directory), fcntl.LOCK_SH)


def load(directory: str | Path) -> Ledger:
    """Reconstruct and verify; a state with violations is refused. It takes
    no lock: a session holds the directory's lock around it."""
    ledger, violations = _verified(Path(directory), 0)
    if violations:
        raise TamperedStore(violations)
    return ledger


def load_raw(directory: str | Path, shared: dict | None = None) -> Ledger:
    """Reconstruct without verification or lock; for tamper tooling and
    repair, in a session. Only the main chain is hashed, from its record
    bytes. Loads of several replicas that pass one shared dict, empty at
    the first, decode each distinct chain file once: a file equal in bytes
    and manifest count to the one a previous load decoded gets a fresh
    list of its blocks."""
    return _assemble(Path(directory), shared=shared)


@contextmanager
def _locked(directory: Path, how: int = fcntl.LOCK_EX):
    """The directory's fd, open for the with block and flocked by how:
    LOCK_EX, one command at a time, by default; LOCK_SH for a verify,
    which other verifies share; 0 for a load in a session, which holds the
    lock already. The lock is dropped when the fd closes or the process
    exits."""
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except (FileNotFoundError, NotADirectoryError):
        raise StorageError(f"no ledger at {directory} (no such directory)") from None
    try:
        if how:
            try:
                fcntl.flock(fd, how | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StorageError(f"ledger directory {directory} is locked by another command") from None
        yield fd
    finally:
        os.close(fd)


@contextmanager
def session(directory: str | Path, raw: bool = False, shared: dict | None = None):
    """Yield (ledger, commit) under the directory's lock: the ledger loaded
    verified (raw: not, for tamper tooling and repair, with load_raw's
    shared), and a commit that appends to the image of what each file
    holds, as the load read it or the last commit wrote it. A failed
    commit leaves no image: the next one writes whole."""
    directory = Path(directory)
    with _locked(directory):
        ledger = load_raw(directory, shared) if raw else load(directory)
        held = [{name: list(items) for name, items, _ in _files(ledger)}]

        def commit() -> None:
            image, held[0] = held[0], {}
            persist(ledger, directory, image)
            held[0] = {name: list(items) for name, items, _ in _files(ledger)}

        yield ledger, commit


def create(ledger: Ledger, directory: str | Path) -> None:
    """Persist a new ledger under the directory's lock, refusing a directory that holds one."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _locked(directory):
        if (directory / META_NAME).exists():
            raise StorageError(f"{directory} already holds a ledger")
        persist(ledger, directory)
