"""Persistence round trips, framing fuzz, corruption refusal."""

import hashlib
import random
import struct
from pathlib import Path

import pytest

from medledger.blocks import block_hash
from medledger.errors import AccessDenied, CorruptChain, StorageError, TamperedStore
from medledger.cli import main
from medledger import blocks, merkle, store
from medledger.ledger import verify_tree
from medledger.store import load, load_checked, load_raw, persist

from helpers import AUTHORITY, DOCTOR, INVALID, count_calls, criterion7_ledger, drive, fresh_ledger, store_image

GOLDEN = Path(__file__).parent / "golden"


def small_fixture():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    return ledger


def all_block_hashes(ledger):
    hashes = [block_hash(blk) for blk in ledger.main_chain]
    for p in sorted(ledger.yellow):
        hashes += [block_hash(blk) for blk in ledger.yellow[p]]
        hashes += [block_hash(blk) for blk in ledger.red[p]]
    return hashes


def test_round_trip_preserves_every_block_hash(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    restored = load(tmp_path)
    assert all_block_hashes(restored) == all_block_hashes(ledger)
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


def test_single_byte_edit_is_tamper_or_corruption(tmp_path):
    ledger = small_fixture()
    persist(ledger, tmp_path)
    target = tmp_path / "p1.yellow.chain"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0xFF
    target.write_bytes(bytes(data))
    with pytest.raises((TamperedStore, CorruptChain)):
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


CRAFTED_MANIFESTS = {
    "no-main-chain": lambda m: [(n, c) for n, c in m if n != "main.chain"],
    "stray-patient-file": lambda m: m + [("p99.red.chain", 0)],
    "parent-directory": lambda m: m + [("../meta", 0)],
    "lock-file": lambda m: m + [(".lock", 0)],
    "nul-in-name": lambda m: m + [("a\x00b", 0)],
    "count-one-above": lambda m: _recount(m, "p1.red.chain", +1),
    "count-one-below": lambda m: _recount(m, "p1.red.chain", -1),
    "listed-twice": lambda m: [("p1.red.chain", 0)] + m,
}


@pytest.mark.parametrize("case", sorted(CRAFTED_MANIFESTS))
def test_crafted_manifest_is_refused_and_verify_exits_2(tmp_path, case):
    """A checksum-valid meta whose manifest does not match the chain files
    is a declared store error: the store opens only the names it derives."""
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


def test_store_image_matches_golden(tmp_path):
    """The directory format, meta included, is pinned file by file."""
    persist(criterion7_ledger(42), tmp_path)
    assert store_image(tmp_path) == (GOLDEN / "store_image.txt").read_text().splitlines()


# --- a verified load hashes each block once, from the bytes it read ------------------


def test_load_and_verify_hash_each_stored_block_once(tmp_path, monkeypatch, capsys):
    """Six SHA-256 calls per block (a three-leaf Merkle root) plus one for
    the meta checksum, and no block_hash call: every hash comes from the
    record bytes. Audit notes hash with hashlib directly, via note_hash."""
    ledger = criterion7_ledger(42)
    with pytest.raises(AccessDenied):
        ledger.onboard_patient(INVALID, "FC-X", {})  # one global audit note
    persist(ledger, tmp_path)
    n_blocks = len(ledger.main_chain) + sum(len(ledger.yellow[p]) + len(ledger.red[p]) for p in ledger.patients())
    block_hashes = count_calls(monkeypatch, blocks.block_hash)
    sha256_calls = count_calls(monkeypatch, merkle.sha256)
    for run in (lambda: load(tmp_path), lambda: main(["verify", "--dir", str(tmp_path)])):
        block_hashes[0] = sha256_calls[0] = 0
        run()
        assert (block_hashes[0], sha256_calls[0]) == (0, 6 * n_blocks + 1)
    assert capsys.readouterr().out == "OK 0 violations\n"


def test_load_checked_reports_what_verify_tree_finds(tmp_path):
    ledger = criterion7_ledger(42)
    ledger.tamper("yellow", 1, 1, "entry.0.payload", "forged")
    ledger.tamper("red", 2, 1, "actor", "mallory")
    persist(ledger, tmp_path)
    loaded, violations = load_checked(tmp_path)
    assert violations and violations == verify_tree(load_raw(tmp_path))
    assert loaded.snapshot_bytes() == ledger.snapshot_bytes()
