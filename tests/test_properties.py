"""Invariants over randomized operation sequences and generated blocks."""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from medledger.blocks import (
    AccessEvent,
    IdentityVariant,
    block_hash,
    cached_hash,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
    three_leaf_root,
)
from medledger.errors import CorruptChain, LedgerError, ScriptError, SubchainClosed
from medledger.ledger import verify_tree
from medledger.merkle import build_tree, deserialize_proof, prove, serialize_proof, sha256
from medledger.network import parse_script, repair_replicas
from medledger.store import _decode_meta, _encode_meta

from helpers import (
    AUTHORITY,
    DOCTOR,
    HISTORY_TYPES,
    block_mutations,
    criterion7_ledger,
    criterion7_ledger_with_note,
    drive,
    every_block,
    fresh_ledger,
    newest_with_type,
    per_block_read_oracle,
    scan_report_oracle,
    stale_type_indexes,
    tampered_history,
)

KNOWN_TYPES = ["blood_test", "xray", "ecg"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 18))
def test_tree_stays_verified_under_random_operations(seed, n_ops):
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), n_ops)
    assert verify_tree(ledger) == []
    assert stale_type_indexes(ledger) == []


class AuditProbe:
    """Forwards to a ledger and records, for each public operation call,
    its name, patient, whether it succeeded, and the audit record count of
    every red chain and of the global notes before and after the call."""

    OPS = {
        "onboard_patient", "update_catalog", "write_record", "read_record",
        "assemble_report", "close_subchain", "change_fiscal_code",
    }

    def __init__(self, ledger):
        self.ledger = ledger
        self.calls: list[tuple[str, int | None, bool, dict, dict]] = []

    def audit_counts(self) -> dict:
        counts = {("red", p): len(chain) for p, chain in self.ledger.red.items()}
        counts["notes"] = len(self.ledger.global_audit)
        return counts

    def __getattr__(self, name):
        method = getattr(self.ledger, name)
        if name not in self.OPS:
            return method

        def probed(cred, *args):
            patient = None if name in ("onboard_patient", "update_catalog") else args[0]
            before = self.audit_counts()
            ok = False
            try:
                result = method(cred, *args)
                ok = True
                return result
            finally:
                self.calls.append((name, patient, ok, before, self.audit_counts()))

        return probed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_access_attempt_leaves_exactly_one_audit_record(seed):
    """Every public operation grows exactly one of {the red chain of its
    patient, the global notes} by exactly one record; only a successful
    onboarding or catalog update leaves none."""
    probe = AuditProbe(fresh_ledger())
    drive(probe, random.Random(seed), 25)
    assert probe.calls
    for name, patient, ok, before, after in probe.calls:
        grown = {key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key, 0)}
        if ok and name in ("onboard_patient", "update_catalog"):
            assert grown == {}, name
        else:
            assert len(grown) == 1 and set(grown.values()) == {1}, (name, grown)
            assert set(grown) <= {("red", patient), "notes"}, (name, patient, grown)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_write_coupling_and_event_partition(seed):
    """Every red block is exactly one of write/read/failed; write events
    count one per yellow block (final included, its close is logged as a
    write) plus one per fiscal-code change of that patient."""
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), 20)
    lineage_count: dict[int, int] = {}
    owner = {}
    for blk in ledger.main_chain:
        if blk.variant == IdentityVariant.PATIENT:
            owner[blk.self_hash] = blk.coord.patient
        elif blk.variant == IdentityVariant.FISCAL_CHANGE:
            p = owner[blk.fiscal_change.prev_identity]
            owner[blk.self_hash] = p
            lineage_count[p] = lineage_count.get(p, 0) + 1
    for p in ledger.patients():
        red = ledger.red[p]
        writes = sum(1 for log in red if log.event == AccessEvent.WRITE)
        reads = sum(1 for log in red if log.event == AccessEvent.READ)
        failed = sum(1 for log in red if log.event == AccessEvent.FAILED_ATTEMPT)
        assert writes + reads + failed == len(red)
        assert writes == len(ledger.yellow[p]) + lineage_count.get(p, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_audit_monotonicity(seed):
    """The red chain never shrinks and grows on every anchored attempt."""
    rng = random.Random(seed)
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC-MONO", {"name": "m"})
    for _ in range(12):
        before = len(ledger.red[p])
        attempted = rng.choice(["read", "write", "close", "bad"])
        try:
            if attempted == "read":
                ledger.read_record(DOCTOR, p, rng.choice(KNOWN_TYPES + ["latest"]))
            elif attempted == "write":
                ledger.write_record(DOCTOR, p, [(rng.choice(KNOWN_TYPES), b"v")])
            elif attempted == "close":
                ledger.close_subchain(AUTHORITY, p)
            else:
                ledger.write_record(DOCTOR, p, [("bogus_type", b"v")])
        except LedgerError:
            pass
        assert len(ledger.red[p]) == before + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_chain_law(seed):
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), 15)
    for p in ledger.patients():
        yellow = ledger.yellow[p]
        closed = p in ledger.closed
        assert closed == (bool(yellow) and yellow[-1].is_final)
        if closed:
            yellow_len = len(yellow)
            try:
                ledger.write_record(DOCTOR, p, [("blood_test", b"x")])
                raise AssertionError("write on closed subchain must fail")
            except SubchainClosed:
                pass
            assert len(ledger.yellow[p]) == yellow_len


def test_reads_and_reports_equal_the_per_block_and_scan_oracles_on_tampered_chains():
    """Exactness law: a read returns what one comprehension per block
    returned, and a report every entry of its type, newest first, as a
    linear scan of the chain finds them, on seeded chains with tampered
    links, types and payloads. A tampered typed backlink hides no entry:
    the law counts a chain as broken when verify_tree reports a bad typed
    backlink in it, and runs on at least 50 broken and 50 intact chains.
    """
    seen: Counter[str] = Counter()
    for seed in range(1500):
        ledger, p = tampered_history(random.Random(seed))
        for query in HISTORY_TYPES + ("latest", "never_recorded"):
            expected = per_block_read_oracle(ledger, p, query)
            assert ledger.read_record(DOCTOR, p, query)[0] == expected, (seed, query)
        for record_type in HISTORY_TYPES + ("never_recorded",):
            expected = scan_report_oracle(ledger, p, record_type)
            assert ledger.assemble_report(DOCTOR, p, record_type) == expected, (seed, record_type)
        seen["broken" if any(v.check == "entry_backlink" for v in verify_tree(ledger)) else "intact"] += 1
    assert min(seen["intact"], seen["broken"]) >= 50, seen


def test_a_write_links_each_entry_to_the_newest_earlier_holder_of_its_type():
    """Every entry a write appends links to the hash of the block the
    newest-first oracle finds in the chain as it stood before the write,
    or to None when it finds none. The histories mix writes of 1-3
    entries that often repeat a type, types with no earlier entry, raw
    tampers of an earlier entry's record_type or payload, and closes: a
    write after a close appends nothing, and a close whose final marker
    is tampered open and rebuilt by a clone leaves an entry-less block
    for later scans to pass over."""
    seen: Counter[str] = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        ledger = fresh_ledger()
        p = ledger.onboard_patient(AUTHORITY, "FC000001", {"name": "n"})
        for _ in range(rng.randint(1, 12)):
            filled = [k for k, blk in enumerate(ledger.yellow[p]) if blk.entries]
            action = rng.choices(["write", "tamper", "close"], weights=[8, 3, 1])[0]
            if action == "tamper" and filled:
                k = rng.choice(filled)
                i = rng.randrange(len(ledger.yellow[p][k].entries))
                value = rng.choice(HISTORY_TYPES) if rng.random() < 0.5 else f"w{rng.randrange(9)}".encode()
                field = "record_type" if isinstance(value, str) else "payload"
                ledger.tamper("yellow", p, k + 1, f"entry.{i}.{field}", value)
                seen["tamper"] += 1
                continue
            if action == "close" and p not in ledger.closed:
                ledger.close_subchain(AUTHORITY, p)
                seen["close"] += 1
                if rng.random() < 0.5:  # reopen: tamper the marker, rebuild the closed set
                    ledger.tamper("yellow", p, len(ledger.yellow[p]), "is_final", "false")
                    ledger = ledger.clone()
                    seen["reopened"] += 1
                continue
            entries = [(rng.choice(HISTORY_TYPES), b"v") for _ in range(rng.randint(1, 3))]
            before = list(ledger.yellow[p])
            if p in ledger.closed:
                with pytest.raises(SubchainClosed):
                    ledger.write_record(DOCTOR, p, entries)
                assert ledger.yellow[p] == before
                seen["refused"] += 1
                continue
            holders = [newest_with_type(before, t) for t, _ in entries]
            medical, _ = ledger.write_record(DOCTOR, p, entries)
            expected = [None if holder is None else cached_hash(holder) for holder in holders]
            assert [e.prev_same_type for e in medical.entries] == expected, seed
            seen.update("no_earlier_entry" if holder is None else "linked" for holder in holders)
            seen["repeated_type"] += len({t for t, _ in entries}) < len(entries)
            seen["past_an_empty_block"] += any(not blk.entries for blk in before)
    assert min(seen.values()) >= 30 and len(seen) == 8, seen


def _random_write(ledger, p: int, rng: random.Random, seen: Counter) -> None:
    """A write of 1-3 entries that often repeat a type, each checked to
    link to the newest earlier holder the newest-first oracle finds."""
    entries = [(rng.choice(HISTORY_TYPES), f"v{rng.randrange(100)}".encode()) for _ in range(rng.randint(1, 3))]
    before = list(ledger.yellow[p])
    try:
        medical, _ = ledger.write_record(DOCTOR, p, entries)
    except SubchainClosed:
        seen["refused"] += 1
        return
    holders = [newest_with_type(before, t) for t, _ in entries]
    assert [e.prev_same_type for e in medical.entries] == [h and cached_hash(h) for h in holders]
    seen["repeated_type"] += len({t for t, _ in entries}) < len(entries)
    seen["no_earlier_entry"] += None in holders


def _random_tamper(ledger, p: int, rng: random.Random, seen: Counter) -> None:
    """A raw tamper of one entry's record_type, payload or prev_same_type,
    the link set to None or the hash of any block of the chain."""
    chain = ledger.yellow[p]
    filled = [k for k, blk in enumerate(chain) if blk.entries]
    if not filled:
        return
    k = rng.choice(filled)
    i = rng.randrange(len(chain[k].entries))
    field = rng.choice(["record_type", "payload", "prev_same_type"])
    if field == "record_type":
        value = rng.choice(HISTORY_TYPES)
    elif field == "payload":
        value = f"w{rng.randrange(100)}".encode()
    else:
        value = rng.choice([None] + [cached_hash(blk) for blk in chain])
    ledger.tamper("yellow", p, k + 1, f"entry.{i}.{field}", value)
    seen["tamper." + field] += 1


def _typed_op(ledger, p: int, query: str, seen: Counter) -> None:
    """A read of query, or for a record type also a report, checked
    against the per-block read and the scan report. The caller owns each
    result: emptied and refilled, it changes no later read or report."""
    matches = ledger.read_record(DOCTOR, p, query)[0]
    assert matches == per_block_read_oracle(ledger, p, query)
    matches.clear()
    matches.append(("owned", query))
    assert ledger.read_record(DOCTOR, p, query)[0] == per_block_read_oracle(ledger, p, query)
    if query != "latest":
        report = ledger.assemble_report(DOCTOR, p, query)
        assert report == scan_report_oracle(ledger, p, query)
        report.clear()
        report.append(("owned", query))
        assert ledger.assemble_report(DOCTOR, p, query) == scan_report_oracle(ledger, p, query)
        seen["report"] += 1


def test_the_type_index_equals_a_fresh_scan_and_reads_and_reports_their_oracles_after_every_op():
    """Exactness law for the type index: after every op of seeded
    sequences that mix writes, typed and latest reads, reports, closes,
    raw tampers, clones and a majority repair over three clones, every
    built type index equals a fresh grouping scan of its chain, and every
    read and report equals the per-block and scan oracles."""
    seen: Counter[str] = Counter()
    for seed in range(250):
        rng = random.Random(seed)
        ledger = fresh_ledger()
        patients = [ledger.onboard_patient(AUTHORITY, f"FC{n:03d}", {"name": "n"}) for n in range(2)]
        ledgers = [ledger]
        for _ in range(rng.randint(5, 25)):
            ledger = rng.choice(ledgers)
            p = rng.choice(patients)
            action = rng.choices(["write", "read", "tamper", "close", "clone", "repair"], weights=[10, 8, 3, 1, 2, 1])[0]
            if action == "write":
                _random_write(ledger, p, rng, seen)
            elif action == "read":
                _typed_op(ledger, p, rng.choice(HISTORY_TYPES + ("latest", "never_recorded")), seen)
            elif action == "tamper":
                _random_tamper(ledger, p, rng, seen)
            elif action == "close" and p not in ledger.closed:
                ledger.close_subchain(AUTHORITY, p)
            elif action == "clone":
                seen["clone.shared_index"] += bool(ledger._typed)
                ledgers = (ledgers + [ledger.clone()])[-3:]
            elif action == "repair":
                replicas = {f"r{j}": ledger.clone() for j in range(3)}
                tampered = replicas[rng.choice(sorted(replicas))]
                _random_tamper(tampered, p, rng, seen)
                _typed_op(tampered, p, rng.choice(HISTORY_TYPES), seen)  # builds the index repair must drop
                repaired = [e for e in repair_replicas(replicas) if e.action == "replaced"]
                seen["repair.replaced"] += bool(repaired)
                ledgers = list(replicas.values())
            for each in ledgers:
                assert stale_type_indexes(each) == [], (seed, action)
            seen[action] += 1
        for each in ledgers:
            for p in patients:
                for query in HISTORY_TYPES + ("latest",):
                    _typed_op(each, p, query, seen)
            assert stale_type_indexes(each) == [], seed
    assert min(seen.values()) >= 20 and len(seen) == 15, seen


def _typed_view(ledger, patients: list[int]) -> list:
    """Every typed read and report of the patients."""
    return [
        (ledger.read_record(DOCTOR, p, t)[0], ledger.assemble_report(DOCTOR, p, t))
        for p in patients
        for t in HISTORY_TYPES
    ]


def test_a_clone_and_its_source_never_see_each_others_writes_closes_or_tampers():
    """Isolation law: a clone shares its source's type indexes, yet writes,
    closes and tampers on either one leave the other's typed reads and
    reports as they were."""
    seen: Counter[str] = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        source = fresh_ledger()
        patients = [source.onboard_patient(AUTHORITY, f"FC{n:03d}", {"name": "n"}) for n in range(2)]
        for _ in range(rng.randint(2, 10)):
            _random_write(source, rng.choice(patients), rng, seen)
        twin = source.clone()
        pair = [(twin, source), (source, twin)]
        for changed, other in pair if rng.random() < 0.5 else pair[::-1]:
            before = _typed_view(other, patients)
            for _ in range(rng.randint(1, 6)):
                p = rng.choice(patients)
                action = rng.choices(["write", "close", "tamper"], weights=[6, 1, 3])[0]
                if action == "write":
                    _random_write(changed, p, rng, seen)
                elif action == "close" and p not in changed.closed:
                    changed.close_subchain(AUTHORITY, p)
                    seen["close"] += 1
                elif action == "tamper":
                    _random_tamper(changed, p, rng, seen)
            assert _typed_view(other, patients) == before, seed
            assert stale_type_indexes(changed) == stale_type_indexes(other) == [], seed
    assert seen["close"] >= 20 and min(seen[f"tamper.{f}"] for f in ("record_type", "payload", "prev_same_type")) >= 20


def _corrupted_type_indexes(ledger, how: str) -> None:
    """Replace every patient's type index with a wrong one: empty, each
    type's read and report pairs reversed, or each type given another
    type's newest holder and pairs."""
    for p in ledger.patients():
        index = ledger._types(p)
        if how == "empty":
            ledger._typed[p] = {}
        elif how == "reversed":
            ledger._typed[p] = {t: (newest, reads[::-1], report[::-1]) for t, (newest, reads, report) in index.items()}
        else:
            types = sorted(index)
            ledger._typed[p] = {t: index[types[n - 1]] for n, t in enumerate(types)}


def test_verify_tree_and_repair_read_no_type_index():
    """Evidence law: the type index is never evidence. verify_tree and
    repair_replicas return the same violations and repair entries when
    every type index has been replaced by a wrong one, on honest trees and
    on trees with tampered entries. Repair reads only the chains;
    verify_tree also reads two derived facts, the catalog head and the
    closed set, and only to compare them with the chains (its catalog_head
    and closed_flag checks)."""
    seen: Counter[str] = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        ledger = fresh_ledger()
        drive(ledger, rng, 25)
        for _ in range(rng.randint(0, 3)):
            _random_tamper(ledger, rng.choice(ledger.patients()), rng, seen)
        replicas = {f"r{j}": ledger.clone() for j in range(3)}
        _random_tamper(replicas["r0"], rng.choice(ledger.patients()), rng, seen)
        violations = verify_tree(ledger)
        repaired = repair_replicas({nid: r.clone() for nid, r in replicas.items()})
        seen["violations" if violations else "intact"] += 1
        for how in ("empty", "reversed", "rotated"):
            corrupted = ledger.clone()
            _corrupted_type_indexes(corrupted, how)
            assert verify_tree(corrupted) == violations, (seed, how)
            others = {nid: r.clone() for nid, r in replicas.items()}
            for r in others.values():
                _corrupted_type_indexes(r, how)
            assert repair_replicas(others) == repaired, (seed, how)
    assert min(seen["violations"], seen["intact"]) >= 10, seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_block_record_round_trips(seed):
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), 12)
    for blk in every_block(ledger):
        assert decode_record(encode_record(blk)) == blk


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_snapshot_bytes_identify_state(seed):
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), 8)
    twin = fresh_ledger()
    drive(twin, random.Random(seed), 8)
    assert ledger.snapshot_bytes() == twin.snapshot_bytes()
    if ledger.patients():
        ledger.read_record(DOCTOR, ledger.patients()[0], "latest")
        assert ledger.snapshot_bytes() != twin.snapshot_bytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 30))
def test_a_clone_rebuilds_the_derived_state_its_source_kept_op_by_op(seed, n_ops):
    """clone() rebuilds the anchors, active codes, catalog head and closed
    set from the chains it copies; they equal what the source's ops kept
    up, and ops on the clone leave the source as it was."""
    ledger = fresh_ledger()
    drive(ledger, random.Random(seed), n_ops)
    twin = ledger.clone()
    assert (twin._anchor, twin._active_codes) == (ledger._anchor, ledger._active_codes)
    assert (twin.catalog_head, twin.closed) == (ledger.catalog_head, ledger.closed)
    assert twin.active_catalog() == ledger.active_catalog()
    before = ledger.snapshot_bytes()
    assert twin.snapshot_bytes() == before
    drive(twin, random.Random(seed + 1), 5)
    assert ledger.snapshot_bytes() == before


# --- decoders are total and canonical ----------------------------------------
#
# On any input each decoder returns or raises its declared error, and every
# input a binary decoder accepts re-encodes to exactly the same bytes.


def _criterion7_records() -> list[bytes]:
    ledger = criterion7_ledger_with_note(42)
    blocks = list(ledger.main_chain)
    for p in ledger.patients():
        blocks += ledger.yellow[p] + ledger.red[p]
    return [encode_record(blk) for blk in blocks] + [encode_note(n) for n in ledger.global_audit]


RECORDS = _criterion7_records()
META_BODY = _encode_meta(7, [("main.chain", 3), ("audit.global", 0), ("p1.red.chain", 2)])[:-32]
_TREE = build_tree([b"L1", b"L2", b"L3", b"L4", b"L5"])
PROOFS = [serialize_proof(prove(_TREE, i)) for i in range(5)]
SCRIPT = (Path(__file__).parent / "golden" / "lifecycle.script").read_text()

BYTE = st.sampled_from([0, 1, 2, 0x80, 0xFF]) | st.integers(0, 255)
EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 2**16), BYTE),
    min_size=1,
    max_size=3,
)


def _edited(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, value in edits:
        if kind == "insert":
            out.insert(pos % (len(out) + 1), value)
        elif out and kind == "set":
            out[pos % len(out)] = value
        elif out:
            del out[pos % len(out)]
    return bytes(out)


def _outcome(data: bytes, hashed: bool):
    try:
        return decode_record(data, hashed)
    except ValueError as exc:
        return str(exc)


def _check_record_decoders(data: bytes) -> None:
    """Each decoder returns a value that encodes back to data, or raises
    ValueError. A block record decodes hashed exactly as it decodes plain
    (the same block, or a ValueError with the same text); the hashed
    memo, taken from the record's byte slices, is block_hash, and the
    plain memo is empty."""
    try:
        note = decode_note(data)
    except ValueError:
        pass
    else:
        assert encode_note(note) == data
    block, plain = _outcome(data, True), _outcome(data, False)
    assert block == plain
    if not isinstance(block, str):
        assert encode_record(block) == data
        assert plain.hash_memo is None
        assert block.hash_memo == block_hash(block)


def _check_meta_decoder(body: bytes) -> None:
    data = body + sha256(body)
    try:
        clock, counts = _decode_meta(data)
    except CorruptChain:
        return
    assert _encode_meta(clock, list(counts.items())) == data


def _check_proof_decoder(data: bytes) -> None:
    try:
        proof = deserialize_proof(data)
    except ValueError:
        return
    assert serialize_proof(proof) == data


def _check_script_parser(text: str) -> None:
    try:
        parse_script(text)
    except ScriptError:
        pass


def test_the_decoders_accept_their_own_encodings():
    for record in RECORDS:
        _check_record_decoders(record)
    _check_meta_decoder(META_BODY)
    for proof in PROOFS:
        _check_proof_decoder(proof)
    parse_script(SCRIPT)


def test_record_decoders_are_canonical_under_every_single_byte_substitution():
    for record in RECORDS:
        for i, old in enumerate(record):
            for value in {0, 1, 2, 0xFF, old ^ 1} - {old}:
                _check_record_decoders(record[:i] + bytes([value]) + record[i + 1 :])


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_decoders_are_total_and_canonical_on_raw_bytes(data):
    _check_record_decoders(data)
    _check_meta_decoder(data)
    _check_proof_decoder(data)
    _check_script_parser(data.decode("latin-1"))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(RECORDS), EDITS)
def test_record_decoders_are_total_and_canonical_on_edited_records(record, edits):
    _check_record_decoders(_edited(record, edits))


@settings(max_examples=300, deadline=None)
@given(EDITS, st.sampled_from(PROOFS), EDITS)
def test_meta_and_proof_decoders_are_total_and_canonical_on_edits(meta_edits, proof, proof_edits):
    _check_meta_decoder(_edited(META_BODY, meta_edits))
    _check_proof_decoder(_edited(proof, proof_edits))


@settings(max_examples=300, deadline=None)
@given(EDITS)
def test_parse_script_raises_only_script_error_on_edited_scripts(edits):
    _check_script_parser(_edited(SCRIPT.encode(), edits).decode("utf-8", "replace"))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80), st.binary(max_size=80), st.binary(max_size=80))
def test_three_leaf_root_is_the_merkle_root_of_three_leaves(a, b, c):
    assert three_leaf_root(a, b, c) == build_tree([a, b, c]).root


# --- equal blocks are exactly the blocks with equal bytes ---------------------------
#
# repair_replicas votes on block values; this law makes that the same vote
# as one over stored bytes, for every block a ledger can hold.


def _canonical(block) -> bool:
    return decode_record(encode_record(block)) == block


def test_every_block_and_every_mutation_compares_as_its_bytes_do():
    ledger = criterion7_ledger(42)
    checked = 0
    for blk in every_block(ledger):
        assert _canonical(blk), blk.coord
        for field_name, mutated in block_mutations(blk):
            assert _canonical(mutated), field_name
            assert (mutated == blk) == (encode_record(mutated) == encode_record(blk)), field_name
            checked += 1
    assert checked == 384  # the lines of tests/golden/tree_checks.txt


@pytest.mark.parametrize(
    "field_path, value",
    [("is_final", 2), ("entries", "list")],
    ids=["is_final=2", "entries-as-list"],
)
def test_a_typed_tamper_leaves_a_canonical_block(field_path, value):
    ledger = criterion7_ledger(42)
    honest = ledger.yellow[1][0]
    if value == "list":
        value = list(honest.entries)
    ledger.tamper("yellow", 1, 1, field_path, value)
    tampered = ledger.yellow[1][0]
    assert _canonical(tampered)
    assert (tampered == honest) == (encode_record(tampered) == encode_record(honest))
