"""Persistence round trips, framing fuzz, corruption refusal."""

import gc
import hashlib
import operator
import os
import random
import signal
import struct
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import pytest

from medledger.blocks import IdentityBlock, block_hash
from medledger.errors import CorruptChain, StorageError, TamperedStore
from medledger.cli import main
from medledger import blocks, merkle, store
from medledger.ledger import Ledger, verify_tree
from medledger.store import load, load_checked, load_raw, persist

from helpers import (
    AUTHORITY,
    DOCTOR,
    build_store,
    count_calls,
    criterion7_ledger,
    criterion7_ledger_with_note,
    drive,
    every_block,
    fresh_ledger,
    store_image,
)


def small_fixture():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    return ledger


def test_round_trip_preserves_every_block_hash(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    restored = load(tmp_path)
    assert list(map(block_hash, every_block(restored))) == list(map(block_hash, every_block(ledger)))
    assert restored.snapshot_bytes() == ledger.snapshot_bytes()
    assert restored.clock == ledger.clock


def test_round_trip_after_random_operations(tmp_path):
    ledger = fresh_ledger()
    drive(ledger, random.Random(99), 25)
    persist(ledger, tmp_path)
    assert load(tmp_path).snapshot_bytes() == ledger.snapshot_bytes()


def test_persist_twice_is_byte_identical(tmp_path):
    ledger = small_fixture()
    a = tmp_path / "a"
    b = tmp_path / "b"
    persist(ledger, a)
    persist(ledger, b)
    for path in a.iterdir():
        assert path.read_bytes() == (b / path.name).read_bytes()


FIXTURE_FILES = ["audit.global", "main.chain", "meta", "p1.red.chain", "p1.yellow.chain"]


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_truncated_store_file_fails_at_every_offset(tmp_path, name):
    """Truncate-at-every-offset fuzz, record boundaries included."""
    ledger = small_fixture()
    persist(ledger, tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == FIXTURE_FILES
    target = tmp_path / name
    original = target.read_bytes()
    for cut in range(len(original)):
        target.write_bytes(original[:cut])
        with pytest.raises((CorruptChain, StorageError)):
            load(tmp_path)
    target.write_bytes(original)
    load(tmp_path)


def test_load_of_empty_directory_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        load(tmp_path / "nothing_here")
    (tmp_path / "empty").mkdir()
    with pytest.raises(StorageError):
        load(tmp_path / "empty")


def test_missing_chain_file_is_storage_error(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    (tmp_path / "p1.red.chain").unlink()
    with pytest.raises(StorageError):
        load(tmp_path)


# a file of another kind than a regular one, made in the place of a store file
NOT_REGULAR = {"fifo": os.mkfifo, "directory": os.mkdir}


@pytest.mark.parametrize("kind", NOT_REGULAR)
@pytest.mark.parametrize("name", ["meta", "main.chain", "p1.red.chain"])
def test_a_file_that_is_not_regular_is_refused_at_once_and_verify_exits_2(tmp_path, name, kind):
    """A FIFO is not waited on, and a directory is not reported missing:
    every load refuses either by name, and the CLI exits 2 well within the
    time bound."""
    persist(small_fixture(), tmp_path)
    (tmp_path / name).unlink()
    NOT_REGULAR[kind](tmp_path / name)
    env = {**os.environ, "PYTHONPATH": str(Path(store.__file__).resolve().parents[1])}
    verify = [sys.executable, "-m", "medledger", "verify", "--dir", str(tmp_path)]
    done = subprocess.run(verify, env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert f"{name} in {tmp_path} is not a regular file" in done.stderr
    for loader in (load, load_checked, load_raw):
        with _within(5), pytest.raises(StorageError, match=f"^{name} in .* is not a regular file$"):
            loader(tmp_path)


class Overran(Exception):
    """Not an OSError, so that no handler of the store maps it to a refusal."""


@contextmanager
def _within(seconds: float):
    """Fail the block with Overran if it runs longer than seconds, a
    blocked open or read included."""

    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _break_record(d: Path) -> None:
    data = bytearray((d / "p1.yellow.chain").read_bytes())
    data[4] = 0x7F  # the kind byte of the first record
    (d / "p1.yellow.chain").write_bytes(bytes(data))


def _break_meta(d: Path) -> None:
    data = bytearray((d / "meta").read_bytes())
    data[-1] ^= 1
    (d / "meta").write_bytes(bytes(data))


# how each case breaks a persisted store, and what its loads raise (None: nothing)
LOAD_OUTCOMES = {
    "intact": (lambda d: None, None),
    "missing": (lambda d: (d / "p1.red.chain").unlink(), StorageError),
    "bad_record": (_break_record, CorruptChain),
    "fifo": (lambda d: ((d / "p1.red.chain").unlink(), os.mkfifo(d / "p1.red.chain")), StorageError),
    "bad_meta": (_break_meta, CorruptChain),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the entries of /proc/self/fd")
@pytest.mark.parametrize("case", LOAD_OUTCOMES)
def test_a_load_closes_every_fd_it_opened(tmp_path, case):
    """On success and on each refusal: the directory's fd and each file's.
    ResourceWarning cannot see a raw os.open, so the open fds are counted."""
    persist(small_fixture(), tmp_path)
    breaks, raises = LOAD_OUTCOMES[case]
    breaks(tmp_path)
    before = _open_fds()
    for loader in (load, load_checked, load_raw):
        with _within(5):
            if raises is None:
                loader(tmp_path)
            else:
                with pytest.raises(raises):
                    loader(tmp_path)
        assert _open_fds() == before, loader.__name__


def _shared_raw(directory: Path):
    """load_raw of the directory after a load of an intact store of the
    same ledger into the same shared dict, as audit-repair loads its
    second replica."""
    twin = directory.parent / "twin"
    persist(small_fixture(), twin)
    shared = {}
    load_raw(twin, shared)
    return load_raw(directory, shared)


LOADERS = {"load": load, "load_checked": load_checked, "load_raw": load_raw, "load_raw_shared": _shared_raw}


def _truncated(d: Path) -> Path:
    data = (d / "p1.yellow.chain").read_bytes()
    (d / "p1.yellow.chain").write_bytes(data[:-1])
    return d


# what each case loads, given a persisted store, and what its load raises (None: nothing)
COLLECTOR_CASES = {
    "loads": (lambda d: d, None),
    "truncated": (_truncated, CorruptChain),
    "no_directory": (lambda d: d / "absent", StorageError),
}


@contextmanager
def _collector(enabled: bool):
    """The cyclic collector enabled or disabled for the with block, and as
    it was afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", COLLECTOR_CASES)
@pytest.mark.parametrize("loader", LOADERS)
def test_a_load_leaves_the_collector_as_it_found_it(tmp_path, loader, case, enabled):
    """A load pauses the collector; whether it returns or raises, the
    collector is enabled afterwards exactly if it was before."""
    persist(small_fixture(), tmp_path / "store")
    locate, raises = COLLECTOR_CASES[case]
    directory = locate(tmp_path / "store")
    with _collector(enabled):
        with pytest.raises(raises) if raises else nullcontext():
            LOADERS[loader](directory)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("hashed", [False, True], ids=["raw", "hashed"])
def test_no_collection_runs_while_a_load_reads_and_builds(tmp_path, hashed):
    """The collector is paused from the first read of a load to its Ledger
    (store._assemble, the whole of load_raw; load and load_checked then run
    verify_tree with it as it was): reading 40 patients, thousands of
    objects, starts no collection."""
    persist(build_store(40), tmp_path / "store")
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        with _collector(True):
            store._assemble(tmp_path / "store", hashed)
    finally:
        gc.callbacks.remove(record)
    assert started == []


@pytest.mark.parametrize("loader", LOADERS)
def test_a_load_builds_no_reference_cycle(tmp_path, loader):
    """What the pause rests on: once its result is dropped, a load leaves
    nothing that only the cyclic collector could free. A change that puts
    a cycle into loaded objects fails here instead of leaking under the
    pause."""
    persist(criterion7_ledger_with_note(42), tmp_path / "store")
    with _collector(False):
        gc.collect()
        loaded = LOADERS[loader](tmp_path / "store")
        del loaded
        assert gc.collect() == 0


def test_load_raw_accepts_what_load_refuses(tmp_path):
    from dataclasses import replace

    ledger = small_fixture()
    target = ledger.yellow[1][0]
    ledger.yellow[1][0] = replace(target, is_final=True)
    persist(ledger, tmp_path)
    with pytest.raises(TamperedStore):
        load(tmp_path)
    raw = load_raw(tmp_path)
    assert raw.yellow[1][0].is_final


def test_tampered_store_lists_violations(tmp_path):
    from dataclasses import replace

    ledger = small_fixture()
    target = ledger.red[1][0]
    ledger.red[1][0] = replace(target, actor="impostor")
    persist(ledger, tmp_path)
    with pytest.raises(TamperedStore) as excinfo:
        load(tmp_path)
    assert any(v.chain == "RED" for v in excinfo.value.violations)


def test_meta_corruption_detected(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    meta = tmp_path / "meta"
    data = bytearray(meta.read_bytes())
    data[5] ^= 0x01  # inside the clock field
    meta.write_bytes(bytes(data))
    with pytest.raises(CorruptChain):
        load(tmp_path)


def test_clock_survives_round_trip_and_resume(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    resumed = load(tmp_path)
    twin = ledger.clone()
    resumed.read_record(DOCTOR, 1, "latest")
    twin.read_record(DOCTOR, 1, "latest")
    assert resumed.snapshot_bytes() == twin.snapshot_bytes()


def test_meta_with_non_utf8_manifest_name_is_corrupt_chain(tmp_path, capsys):
    """A checksum-valid meta whose manifest names a non-UTF-8 file is
    refused as CorruptChain, and verify exits 2 instead of a traceback."""
    body = b"MLG1" + struct.pack(">QI", 1, 1) + struct.pack(">I", 1) + b"\xff" + struct.pack(">I", 0)
    (tmp_path / "meta").write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CorruptChain, match="not UTF-8"):
        load_raw(tmp_path)
    assert main(["verify", "--dir", str(tmp_path)]) == 2
    assert "CorruptChain" in capsys.readouterr().err


def _recount(manifest, name, delta):
    return [(n, count + delta if n == name else count) for n, count in manifest]


def _info_pairs(*pairs: str) -> bytes:
    """personal_info key/value strings as a stored map lists them, count omitted."""
    return b"".join(struct.pack(">I", len(text)) + text.encode() for text in pairs)


@pytest.mark.parametrize("stored", [("kb", "vb", "ka", "va"), ("ka", "va", "ka", "vb")], ids=["unsorted", "repeated"])
def test_an_identity_record_with_unordered_info_keys_is_refused_and_verify_exits_2(tmp_path, capsys, stored):
    """The stored map of personal_info lists its keys strictly ascending, so
    an identity record has one encoding; any other order is corruption."""
    ledger = fresh_ledger()
    ledger.onboard_patient(AUTHORITY, "FC001", {"ka": "va", "kb": "vb"})
    persist(ledger, tmp_path)
    main_chain = tmp_path / "main.chain"
    data = main_chain.read_bytes()
    assert data.count(_info_pairs("ka", "va", "kb", "vb")) == 1
    main_chain.write_bytes(data.replace(_info_pairs("ka", "va", "kb", "vb"), _info_pairs(*stored)))
    with pytest.raises(CorruptChain, match="map keys not strictly ascending"):
        load_raw(tmp_path)
    assert main(["verify", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ERROR CorruptChain: main.chain @ ")


CRAFTED_MANIFESTS = {
    "no-main-chain": lambda m: [(n, c) for n, c in m if n != "main.chain"],
    "stray-patient-file": lambda m: m + [("p99.red.chain", 0)],
    "parent-directory": lambda m: m + [("../meta", 0)],
    "lock-file": lambda m: m + [(".lock", 0)],
    "nul-in-name": lambda m: m + [("a\x00b", 0)],
    "count-one-above": lambda m: _recount(m, "p1.red.chain", +1),
    "count-one-below": lambda m: _recount(m, "p1.red.chain", -1),
    "listed-twice": lambda m: [("p1.red.chain", 0)] + m,
    "zero-padded-pair": lambda m: m + [("p01.yellow.chain", 0), ("p01.red.chain", 0)],
    "number-past-u32-digits": lambda m: m + [(f"p{'9' * 5000}.{c}.chain", 0) for c in ("yellow", "red")],
    "pair-without-files": lambda m: m + [("p2.yellow.chain", 0), ("p2.red.chain", 0)],
}


@pytest.mark.parametrize("case", sorted(CRAFTED_MANIFESTS))
def test_crafted_manifest_is_refused_and_verify_exits_2(tmp_path, case):
    """A checksum-valid meta whose manifest does not match the chain files
    is a declared store error: the store opens main.chain, audit.global and
    both files of each patient listed, under the names persist writes."""
    ledger = small_fixture()
    persist(ledger, tmp_path)
    manifest = [
        ("main.chain", len(ledger.main_chain)),
        ("audit.global", len(ledger.global_audit)),
        ("p1.yellow.chain", len(ledger.yellow[1])),
        ("p1.red.chain", len(ledger.red[1])),
    ]
    assert store._encode_meta(ledger.clock, manifest) == (tmp_path / "meta").read_bytes()
    crafted = CRAFTED_MANIFESTS[case](manifest)
    (tmp_path / "meta").write_bytes(store._encode_meta(ledger.clock, crafted))
    with pytest.raises((CorruptChain, StorageError)):
        load_raw(tmp_path)
    assert main(["verify", "--dir", str(tmp_path)]) == 2


def test_a_log_file_copied_over_a_medical_file_is_refused_and_verify_exits_2(tmp_path, capsys):
    """Each record must decode to the block kind of its file: a red chain
    under a yellow name, with a meta whose counts match, is CorruptChain
    at the first record."""
    ledger = small_fixture()
    persist(ledger, tmp_path)
    (tmp_path / "p1.yellow.chain").write_bytes((tmp_path / "p1.red.chain").read_bytes())
    manifest = [
        ("main.chain", len(ledger.main_chain)),
        ("audit.global", len(ledger.global_audit)),
        ("p1.yellow.chain", len(ledger.red[1])),
        ("p1.red.chain", len(ledger.red[1])),
    ]
    (tmp_path / "meta").write_bytes(store._encode_meta(ledger.clock, manifest))
    with pytest.raises(CorruptChain) as refused:
        load_raw(tmp_path)
    assert str(refused.value) == "p1.yellow.chain @ 0: LogBlock record in a MedicalBlock file"
    assert main(["verify", "--dir", str(tmp_path)]) == 2
    assert "LogBlock record in a MedicalBlock file" in capsys.readouterr().err


# --- a verified load hashes each block once, from the bytes it read ------------------


def test_load_and_verify_hash_each_stored_block_once(tmp_path, monkeypatch, capsys):
    """Six SHA-256 calls per block (a three-leaf Merkle root), one per
    audit note and one for the meta checksum, no block_hash call, and one
    decode_record call per block record: every hash comes from the record
    bytes."""
    ledger = criterion7_ledger_with_note(42)
    persist(ledger, tmp_path)
    n_blocks, n_notes = len(every_block(ledger)), len(ledger.global_audit)
    assert n_notes > 0
    block_hashes = count_calls(monkeypatch, blocks.block_hash)
    sha256_calls = count_calls(monkeypatch, merkle.sha256)
    decoded = count_calls(monkeypatch, blocks.decode_record)
    for run in (lambda: load(tmp_path), lambda: main(["verify", "--dir", str(tmp_path)])):
        block_hashes[0] = sha256_calls[0] = decoded[0] = 0
        run()
        assert (block_hashes[0], sha256_calls[0]) == (0, 6 * n_blocks + n_notes + 1)
        assert decoded[0] == n_blocks  # one decode per stored block record
    assert capsys.readouterr().out == "OK 0 violations\n"


def _driven_ledger():
    ledger = fresh_ledger()
    drive(ledger, random.Random(5), 60)
    return ledger


def _typed_vars(value) -> dict:
    """The value's attributes, memo aside, each with its exact type."""
    return {k: (type(v), v) for k, v in vars(value).items() if k != "hash_memo"}


@pytest.mark.parametrize("build", [lambda: criterion7_ledger(42), _driven_ledger], ids=["criterion7", "driven"])
def test_decoded_blocks_are_full_values(tmp_path, build):
    """A loaded block has the attributes, the equality and the repr of the
    block it was encoded from; an identity block's personal_info is its own
    read-only mapping; decoding leaves the memo empty and a verified load
    fills it with the block's hash."""
    ledger = build()
    persist(ledger, tmp_path)
    raw = every_block(load_raw(tmp_path))
    checked, violations = load_checked(tmp_path)
    assert violations == []
    checked = every_block(checked)
    infos = []
    for original, *loaded in zip(every_block(ledger), raw, checked, strict=True):
        for blk in loaded:
            assert _typed_vars(blk) == _typed_vars(original)
            assert _typed_vars(blk.coord) == _typed_vars(original.coord)
            for entry, honest in zip(getattr(blk, "entries", ()), getattr(original, "entries", ()), strict=True):
                assert _typed_vars(entry) == _typed_vars(honest)
            assert blk == original and repr(blk) == repr(original)
            assert replace(blk) == blk and replace(blk, self_hash=bytes(32)) != blk
            if isinstance(blk, IdentityBlock):
                assert type(blk.personal_info) is MappingProxyType
                infos.append(blk.personal_info)
        assert blocks.decode_record(blocks.encode_record(original)).hash_memo is None
        # a raw load hashes only its main chain, which the Ledger's derived
        # indexes need, so it leaves a memo on identity blocks only
        raw_memo = block_hash(original) if isinstance(original, IdentityBlock) else None
        assert (loaded[0].hash_memo, loaded[1].hash_memo) == (raw_memo, block_hash(original))
    assert len({id(info) for info in infos}) == len(infos)


def test_load_raw_hashes_the_main_chain_from_its_record_bytes(tmp_path, monkeypatch):
    """A raw load makes no block_hash call: each main-chain memo, which the
    Ledger's derived indexes read, is recomputed from the record bytes, with
    six SHA-256 calls per identity block, and equals block_hash of its block."""
    ledger = criterion7_ledger_with_note(42)
    persist(ledger, tmp_path)
    block_hashes = count_calls(monkeypatch, blocks.block_hash)
    sha256_calls = count_calls(monkeypatch, merkle.sha256)
    raw = load_raw(tmp_path)
    assert (block_hashes[0], sha256_calls[0]) == (0, 6 * len(ledger.main_chain) + 1)
    assert [blk.hash_memo for blk in raw.main_chain] == [block_hash(blk) for blk in raw.main_chain]
    assert raw.snapshot_bytes() == ledger.snapshot_bytes()


def test_raw_loads_that_share_decode_an_equal_file_once_into_lists_of_their_own(tmp_path, monkeypatch):
    """A second load_raw passing the first's shared dict decodes and hashes
    only the file that differs; every other chain holds the first load's
    block objects, each in a list of its own, so ops on one replica leave
    the other as it was loaded."""
    ledger = criterion7_ledger_with_note(42)
    persist(ledger, tmp_path / "a")
    ledger.tamper("yellow", 1, 1, "entry.0.payload", "forged")
    persist(ledger, tmp_path / "b")
    decoded = count_calls(monkeypatch, blocks.decode_record)
    sha256_calls = count_calls(monkeypatch, merkle.sha256)
    shared = {}
    first = load_raw(tmp_path / "a", shared)
    decoded[0] = sha256_calls[0] = 0
    second = load_raw(tmp_path / "b", shared)
    assert (decoded[0], sha256_calls[0]) == (len(ledger.yellow[1]), 1)  # the differing file; the meta checksum
    assert second.snapshot_bytes() == load_raw(tmp_path / "b").snapshot_bytes() == ledger.snapshot_bytes()
    for (name, chain, _), (_, held, _) in zip(store._files(first), store._files(second), strict=True):
        assert held is not chain, name
        assert all(map(operator.is_, held, chain)) == (name != "p1.yellow.chain"), name
    loaded = first.snapshot_bytes()
    second.onboard_patient(AUTHORITY, "FC999", {"name": "new"})
    for p in second.patients():
        second.read_record(DOCTOR, p, "latest")
    assert first.snapshot_bytes() == loaded


def test_load_checked_reports_what_verify_tree_finds(tmp_path):
    ledger = criterion7_ledger(42)
    ledger.tamper("yellow", 1, 1, "entry.0.payload", "forged")
    ledger.tamper("red", 2, 1, "actor", "mallory")
    persist(ledger, tmp_path)
    loaded, violations = load_checked(tmp_path)
    assert violations and violations == verify_tree(load_raw(tmp_path))
    assert loaded.snapshot_bytes() == ledger.snapshot_bytes()


# --- persist appends: an op writes only the records it appended ----------------

AUTH_FLAGS = ["--actor", "reg", "--role", "authority"]
DOC_FLAGS = ["--actor", "drb", "--role", "doctor"]
# every ledger verb on a persisted criterion7_ledger(42), whose patients 1-3
# are closed and 7, 8 and 10 open; with the exit code each must give
APPEND_OPS = [
    (["onboard", *AUTH_FLAGS, "--code", "FC-NEW", "--info", "name=new"], 0),
    (["write", *DOC_FLAGS, "--patient", "7", "--entry", "blood_test:a", "--entry", "xray:b"], 0),
    (["read", *DOC_FLAGS, "--patient", "8", "--query", "latest"], 0),
    (["report", *DOC_FLAGS, "--patient", "8", "--type", "blood_test"], 0),
    (["change-code", *AUTH_FLAGS, "--patient", "10", "--new-code", "FC-Z"], 0),
    (["catalog-add", *AUTH_FLAGS, "--entry", "ct:CT scan"], 0),
    (["write", *DOC_FLAGS, "--patient", "1", "--entry", "blood_test:late"], 1),  # closed
    (["read", *DOC_FLAGS, "--no-valid", "--patient", "8", "--query", "latest"], 1),
    (["onboard", *AUTH_FLAGS, "--no-valid", "--code", "FC-BAD"], 1),  # a global audit note
    (["close", *DOC_FLAGS, "--patient", "7"], 1),  # a doctor may not close
    (["close", *AUTH_FLAGS, "--patient", "7"], 0),
]


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _counts(files: dict[str, bytes]) -> dict[str, int]:
    return store._decode_meta(files["meta"])[1]


def test_each_cli_op_appends_its_records_and_rewrites_only_meta(tmp_path, monkeypatch):
    """The files whose bytes change are meta and the files of the chains
    that grew (created, for a new patient); a grown file's old bytes are
    a prefix of its new bytes; each appended record is encoded once."""
    d = tmp_path / "live"
    persist(criterion7_ledger(42), d)
    encoded = count_calls(monkeypatch, blocks.encode_record)
    noted = count_calls(monkeypatch, blocks.encode_note)
    for argv, exit_code in APPEND_OPS:
        before = _files(d)
        encoded[0] = noted[0] = 0
        assert main([argv[0], "--dir", str(d), *argv[1:]]) == exit_code, argv
        after = _files(d)
        old, new = _counts(before), _counts(after)
        grown = {name for name in new if new[name] > old.get(name, 0)} | (new.keys() - old.keys())
        assert {name for name in after if after[name] != before.get(name)} == {"meta"} | grown, argv
        assert all(after[name].startswith(before[name]) for name in grown & old.keys()), argv
        appended = {name: new[name] - old.get(name, 0) for name in new}
        assert noted[0] == appended.pop("audit.global"), argv
        assert encoded[0] == sum(appended.values()), argv
    persist(load(d), tmp_path / "fresh")
    assert store_image(tmp_path / "fresh") == store_image(d)


class StoredLedger:
    """A ledger that lives in a directory: each method call opens a store
    session, runs the method on its ledger and commits, domain errors
    included, as the CLI does."""

    def __init__(self, directory: Path):
        self.directory = directory

    def __getattr__(self, name):
        if not callable(getattr(Ledger, name, None)):
            return getattr(load(self.directory), name)

        def call(*args, **kwargs):
            with store.session(self.directory) as (ledger, commit):
                try:
                    return getattr(ledger, name)(*args, **kwargs)
                finally:
                    commit()

        return call


@pytest.mark.parametrize("seed", [3, 17])
def test_op_by_op_persist_matches_a_fresh_persist(tmp_path, seed):
    """A seeded op sequence run load -> op -> persist on one directory
    leaves the bytes that one persist of the final ledger writes, and the
    state that the same sequence reaches in memory."""
    live, fresh, memory = tmp_path / "live", tmp_path / "fresh", tmp_path / "memory"
    persist(fresh_ledger(), live)
    drive(StoredLedger(live), random.Random(seed), 40)
    persist(load(live), fresh)
    in_memory = fresh_ledger()
    drive(in_memory, random.Random(seed), 40)
    persist(in_memory, memory)
    assert store_image(live) == store_image(fresh) == store_image(memory)


def test_a_tamper_rewrites_the_tampered_file(tmp_path):
    d, fresh = tmp_path / "live", tmp_path / "fresh"
    persist(criterion7_ledger(42), d)
    expected = load(d)
    expected.tamper("red", 8, 1, "actor", "mallory")
    assert main(["tamper", "--dir", str(d), "--chain", "red", "--patient", "8",
                 "--index", "1", "--field", "actor", "--value", "mallory"]) == 0
    assert load_raw(d).snapshot_bytes() == expected.snapshot_bytes()
    persist(expected, fresh)
    assert store_image(d) == store_image(fresh)


def test_audit_repair_of_a_tampered_replica_rewrites_what_it_replaced(tmp_path, capsys):
    dirs = [tmp_path / f"r{i}" for i in range(3)]
    for d in dirs:
        persist(criterion7_ledger(42), d)
    main(["tamper", "--dir", str(dirs[1]), "--chain", "yellow", "--patient", "1",
          "--index", "1", "--field", "entry.0.payload", "--value", "forged"])
    assert main(["audit-repair", "--dirs", *map(str, dirs)]) == 0
    assert main(["verify", "--dir", str(dirs[1])]) == 0
    assert capsys.readouterr().out.endswith("1 repair entries\nOK 0 violations\n")
    assert store_image(dirs[1]) == store_image(dirs[0])


def test_a_ledger_persisted_to_another_directory_is_written_whole(tmp_path):
    """A persist with no session's image writes whole, even when B holds
    an older state of the same files."""
    a, b, fresh = tmp_path / "a", tmp_path / "b", tmp_path / "fresh"
    ledger = criterion7_ledger(42)
    persist(ledger, b)
    ledger.write_record(DOCTOR, 7, [("xray", b"only in a")])
    persist(ledger, a)
    moved = load(a)
    moved.write_record(DOCTOR, 8, [("ecg", b"after the move")])
    persist(moved, b)
    persist(moved, fresh)
    assert store_image(b) == store_image(fresh)


def test_a_clone_persisted_to_its_source_is_written_whole(tmp_path):
    d, fresh = tmp_path / "live", tmp_path / "fresh"
    persist(criterion7_ledger(42), d)
    twin = load(d).clone()
    twin.write_record(DOCTOR, 7, [("xray", b"by the clone")])
    twin.red[8][0] = blocks.mutate_block(twin.red[8][0], "place", "elsewhere")
    persist(twin, d)
    persist(twin, fresh)
    assert store_image(d) == store_image(fresh)
    assert load_raw(d).snapshot_bytes() == twin.snapshot_bytes()


def test_a_persist_that_fails_before_meta_is_retried_without_a_double_append(tmp_path, monkeypatch):
    """The failed commit appended its records but not meta; the session's
    next commit must not append them again."""
    d, fresh = tmp_path / "live", tmp_path / "fresh"
    persist(criterion7_ledger(42), d)
    encode_meta = store._encode_meta

    def full_disk(*args):
        monkeypatch.setattr(store, "_encode_meta", encode_meta)
        raise OSError("no space left on device")

    with store.session(d) as (ledger, commit):
        ledger.write_record(DOCTOR, 7, [("xray", b"retried")])
        monkeypatch.setattr(store, "_encode_meta", full_disk)
        with pytest.raises(StorageError):
            commit()
        commit()
    persist(ledger, fresh)
    assert store_image(d) == store_image(fresh)


def test_a_session_commits_twice_by_appending_to_what_it_last_wrote(tmp_path, monkeypatch):
    d, fresh = tmp_path / "live", tmp_path / "fresh"
    persist(criterion7_ledger(42), d)
    encoded = count_calls(monkeypatch, blocks.encode_record)
    with store.session(d) as (ledger, commit):
        for payload in (b"first", b"second"):
            before = _files(d)
            encoded[0] = 0
            ledger.write_record(DOCTOR, 7, [("xray", payload)])
            commit()
            after = _files(d)
            assert encoded[0] == 2  # the medical block and its log block
            assert {name for name in after if after[name] != before[name]} == {"meta", "p7.yellow.chain", "p7.red.chain"}
    with store._locked(d):  # released: it can be taken again
        pass
    persist(ledger, fresh)
    assert store_image(d) == store_image(fresh)
