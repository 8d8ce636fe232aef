"""State-machine behavior: onboarding, writes, audited reads, closing,
fiscal-code changes, catalog maintenance, reports, whole-tree verification."""

from dataclasses import replace

import pytest

from medledger.blocks import AccessEvent, CatalogUpdate, IdentityVariant, block_hash, sealed
from medledger.errors import (
    AccessDenied,
    DuplicateCatalogCode,
    DuplicateIdentity,
    NoChange,
    SubchainClosed,
    UnknownPatient,
    UnknownRecordType,
)
from medledger import ledger as ledger_mod
from medledger import store
from medledger.ledger import Credential, Ledger, Role, verify_tree
from medledger.merkle import ZERO_DIGEST

from helpers import (
    AUTHORITY,
    DOCTOR,
    INVALID,
    count_calls,
    criterion7_ledger,
    empty_code_ledger,
    fresh_ledger,
    patient_cred,
    scan_report_oracle,
    tree_check_cases,
)


def test_first_onboarding_gets_index_one():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    assert p == 1
    assert len(ledger.main_chain) == 2
    assert ledger.main_chain[1].variant == IdentityVariant.PATIENT


def test_second_patients_third_medical_block_is_2_3():
    ledger = fresh_ledger()
    ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    p2 = ledger.onboard_patient(AUTHORITY, "FC002", {"name": "Luisa"})
    for n in range(3):
        medical, _ = ledger.write_record(DOCTOR, p2, [("blood_test", f"v{n}".encode())])
    assert medical.coord.label() == "2.3"


# each refusal: (call on patient p of two, error, which audit record grows, its detail);
# the admission cells cover every op the access policy refuses, in its order:
# an unknown patient, then an invalid credential, then a role not granted
REFUSALS = {
    "onboard-by-doctor": (
        lambda led, p: led.onboard_patient(DOCTOR, "FC009", {}),
        AccessDenied,
        "notes",
        "DENIED:onboard:role_doctor",
    ),
    "onboard-by-patient": (
        lambda led, p: led.onboard_patient(patient_cred(led, p), "FC009", {}),
        AccessDenied,
        "notes",
        "DENIED:onboard:role_patient",
    ),
    "catalog-by-doctor": (
        lambda led, p: led.update_catalog(DOCTOR, [("mri", "MRI")]),
        AccessDenied,
        "notes",
        "DENIED:catalog:role_doctor",
    ),
    "catalog-by-patient": (
        lambda led, p: led.update_catalog(patient_cred(led, p), [("mri", "MRI")]),
        AccessDenied,
        "notes",
        "DENIED:catalog:role_patient",
    ),
    "write-by-authority": (
        lambda led, p: led.write_record(AUTHORITY, p, [("xray", b"x")]),
        AccessDenied,
        "red",
        "DENIED:write:role_authority",
    ),
    "write-by-own-patient": (
        lambda led, p: led.write_record(patient_cred(led, p), p, [("xray", b"x")]),
        AccessDenied,
        "red",
        "DENIED:write:role_patient",
    ),
    "read-by-other-patient": (
        lambda led, p: led.read_record(patient_cred(led, p + 1), p, "latest"),
        AccessDenied,
        "red",
        "DENIED:read:role_patient",
    ),
    "report-by-other-patient": (
        lambda led, p: led.assemble_report(patient_cred(led, p + 1), p, "xray"),
        AccessDenied,
        "red",
        "DENIED:report:role_patient",
    ),
    "close-by-doctor": (
        lambda led, p: led.close_subchain(DOCTOR, p), AccessDenied, "red", "DENIED:close:role_doctor"
    ),
    "close-by-own-patient": (
        lambda led, p: led.close_subchain(patient_cred(led, p), p),
        AccessDenied,
        "red",
        "DENIED:close:role_patient",
    ),
    "change-code-by-doctor": (
        lambda led, p: led.change_fiscal_code(DOCTOR, p, "FC-X"),
        AccessDenied,
        "red",
        "DENIED:change_code:role_doctor",
    ),
    "change-code-by-own-patient": (
        lambda led, p: led.change_fiscal_code(patient_cred(led, p), p, "FC-X"),
        AccessDenied,
        "red",
        "DENIED:change_code:role_patient",
    ),
    "onboard-invalid": (
        lambda led, p: led.onboard_patient(INVALID, "FC009", {}),
        AccessDenied,
        "notes",
        "DENIED:onboard:invalid_credential",
    ),
    "catalog-invalid": (
        lambda led, p: led.update_catalog(INVALID, [("mri", "MRI")]),
        AccessDenied,
        "notes",
        "DENIED:catalog:invalid_credential",
    ),
    "write-invalid": (
        lambda led, p: led.write_record(INVALID, p, [("xray", b"x")]),
        AccessDenied,
        "red",
        "DENIED:write:invalid_credential",
    ),
    "read-invalid": (
        lambda led, p: led.read_record(INVALID, p, "latest"),
        AccessDenied,
        "red",
        "DENIED:read:invalid_credential",
    ),
    "report-invalid": (
        lambda led, p: led.assemble_report(INVALID, p, "xray"),
        AccessDenied,
        "red",
        "DENIED:report:invalid_credential",
    ),
    "close-invalid": (
        lambda led, p: led.close_subchain(INVALID, p), AccessDenied, "red", "DENIED:close:invalid_credential"
    ),
    "change-code-invalid": (
        lambda led, p: led.change_fiscal_code(INVALID, p, "FC-X"),
        AccessDenied,
        "red",
        "DENIED:change_code:invalid_credential",
    ),
    "write-unknown-patient": (
        lambda led, p: led.write_record(DOCTOR, 9, [("xray", b"x")]),
        UnknownPatient,
        "notes",
        "UNKNOWN_PATIENT:write:9",
    ),
    "read-unknown-patient": (
        lambda led, p: led.read_record(DOCTOR, 9, "latest"), UnknownPatient, "notes", "UNKNOWN_PATIENT:read:9"
    ),
    "read-unknown-patient-invalid": (
        lambda led, p: led.read_record(INVALID, 9, "latest"),
        UnknownPatient,
        "notes",
        "UNKNOWN_PATIENT:read:9",
    ),
    "report-unknown-patient": (
        lambda led, p: led.assemble_report(DOCTOR, 9, "xray"),
        UnknownPatient,
        "notes",
        "UNKNOWN_PATIENT:report:9",
    ),
    "close-unknown-patient": (
        lambda led, p: led.close_subchain(AUTHORITY, 9), UnknownPatient, "notes", "UNKNOWN_PATIENT:close:9"
    ),
    "change-code-unknown-patient": (
        lambda led, p: led.change_fiscal_code(AUTHORITY, 9, "FC-X"),
        UnknownPatient,
        "notes",
        "UNKNOWN_PATIENT:change_code:9",
    ),
    "onboard-duplicate": (
        lambda led, p: led.onboard_patient(AUTHORITY, "FC002", {}),
        DuplicateIdentity,
        "notes",
        "DUPLICATE_IDENTITY:onboard",
    ),
    "change-code-no-change": (
        lambda led, p: led.change_fiscal_code(AUTHORITY, p, "FC001"), NoChange, "red", "NO_CHANGE:change_code"
    ),
    "change-code-duplicate": (
        lambda led, p: led.change_fiscal_code(AUTHORITY, p, "FC002"),
        DuplicateIdentity,
        "red",
        "DUPLICATE_IDENTITY:change_code",
    ),
    "catalog-duplicate": (
        lambda led, p: led.update_catalog(AUTHORITY, [("mri", "MRI"), ("xray", "again")]),
        DuplicateCatalogCode,
        "notes",
        "DUPLICATE_CODE:catalog:xray",
    ),
}


@pytest.mark.parametrize("refuse, error, grows, detail", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_leaves_exactly_one_audit_record(refuse, error, grows, detail):
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.onboard_patient(AUTHORITY, "FC002", {"name": "Luisa"})

    def sizes():
        return {
            "main": len(ledger.main_chain),
            "red": len(ledger.red[p]),
            "other_red": len(ledger.red[p + 1]),
            "notes": len(ledger.global_audit),
        }

    before = sizes()
    with pytest.raises(error):
        refuse(ledger, p)
    assert sizes() == {**before, grows: before[grows] + 1}
    if grows == "notes":
        assert ledger.global_audit[-1].detail == detail
    else:
        assert (ledger.red[p][-1].event, ledger.red[p][-1].viewed) == (AccessEvent.FAILED_ATTEMPT, detail)
    assert verify_tree(ledger) == []


# calls refused for their arguments alone, before the clock ticks
MALFORMED_CALLS = {
    "genesis-empty": (lambda led, p: Ledger.genesis([]), ValueError),
    "genesis-duplicate-code": (
        lambda led, p: Ledger.genesis([("a", "A"), ("b", "B"), ("a", "C")]), DuplicateCatalogCode
    ),
    "write-no-entries": (lambda led, p: led.write_record(DOCTOR, p, []), ValueError),
    "catalog-no-entries": (lambda led, p: led.update_catalog(AUTHORITY, []), ValueError),
    # the codes the ledger already uses for something else
    "genesis-empty-code": (lambda led, p: Ledger.genesis([("", "")]), ValueError),
    "genesis-latest-code": (lambda led, p: Ledger.genesis([("latest", "L"), ("xray", "X")]), ValueError),
    "onboard-empty-code": (lambda led, p: led.onboard_patient(AUTHORITY, "", {}), ValueError),
    "change-to-empty-code": (lambda led, p: led.change_fiscal_code(AUTHORITY, p, ""), ValueError),
    "catalog-empty-code": (lambda led, p: led.update_catalog(AUTHORITY, [("", "Empty")]), ValueError),
    "catalog-latest-code": (lambda led, p: led.update_catalog(AUTHORITY, [("latest", "Latest")]), ValueError),
    "unknown-chain": (lambda led, p: led.chain("blue", p), ValueError),
}


@pytest.mark.parametrize("call, error", MALFORMED_CALLS.values(), ids=list(MALFORMED_CALLS))
def test_a_call_malformed_in_its_arguments_changes_nothing(call, error):
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    before = ledger.snapshot_bytes()
    with pytest.raises(error):
        call(ledger, p)
    assert ledger.snapshot_bytes() == before


def test_identity_block_is_genesis_of_both_subchains():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    medical, log = ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    anchor = block_hash(ledger.main_chain[p])
    assert medical.prev_yellow == anchor
    assert log.h_prev_red == anchor
    assert log.h_main == anchor


def test_read_log_coordinate_tracks_latest_medical_index():
    ledger = fresh_ledger()
    ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    p2 = ledger.onboard_patient(AUTHORITY, "FC002", {"name": "Luisa"})
    for n in range(3):
        ledger.write_record(DOCTOR, p2, [("blood_test", f"v{n}".encode())])
    _, log = ledger.read_record(DOCTOR, p2, "latest")
    assert log.coord.patient == 2
    assert log.coord.record == 3
    assert log.coord.log == 4  # three write logs came first


def test_write_to_closed_patient_raises_and_still_grows_red():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.close_subchain(AUTHORITY, p)
    red_before = len(ledger.red[p])
    yellow_before = len(ledger.yellow[p])
    with pytest.raises(SubchainClosed):
        ledger.write_record(DOCTOR, p, [("blood_test", b"late")])
    assert len(ledger.red[p]) == red_before + 1
    assert len(ledger.yellow[p]) == yellow_before
    assert ledger.red[p][-1].event == AccessEvent.FAILED_ATTEMPT


def test_same_type_writes_backlink_to_previous_block():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    first, _ = ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    second, _ = ledger.write_record(DOCTOR, p, [("blood_test", b"v2")])
    assert first.entries[0].prev_same_type is None
    assert second.entries[0].prev_same_type == block_hash(first)


def test_read_on_closed_patient_returns_entries_and_logs():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.close_subchain(AUTHORITY, p)
    red_before = len(ledger.red[p])
    matches, _ = ledger.read_record(DOCTOR, p, "blood_test")
    assert [e.payload for _, e in matches] == [b"v1"]
    assert len(ledger.red[p]) == red_before + 1
    assert ledger.yellow[p][-1].is_final


def test_patient_may_read_own_record_only():
    ledger = fresh_ledger()
    p1 = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    p2 = ledger.onboard_patient(AUTHORITY, "FC002", {"name": "Luisa"})
    own = patient_cred(ledger, p1)
    matches, _ = ledger.read_record(own, p1, "latest")
    assert matches == []
    with pytest.raises(AccessDenied):
        ledger.read_record(own, p2, "latest")
    assert ledger.red[p2][-1].event == AccessEvent.FAILED_ATTEMPT


def test_the_empty_actor_never_acts_on_a_record_kept_under_the_empty_code():
    """The reserved empty code identifies no patient: a patient credential
    with the empty actor is refused on a record that a ledger kept under
    that code, with one failed-attempt log and no global note each."""
    ledger = empty_code_ledger()
    assert verify_tree(ledger) == []
    nobody = Credential("", Role.PATIENT)
    for op in ("read", "report"):
        red, notes = list(ledger.red[1]), len(ledger.global_audit)
        with pytest.raises(AccessDenied):
            if op == "read":
                ledger.read_record(nobody, 1, "latest")
            else:
                ledger.assemble_report(nobody, 1, "xray")
        assert ledger.red[1][:-1] == red and len(ledger.global_audit) == notes
        assert ledger.red[1][-1].event == AccessEvent.FAILED_ATTEMPT
        assert ledger.red[1][-1].viewed == f"DENIED:{op}:role_patient"
    assert ledger.read_record(DOCTOR, 1, "xray")[0][0][1].payload == b"secret"


def test_consecutive_reads_get_consecutive_log_indices():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    _, log1 = ledger.read_record(DOCTOR, p, "latest")
    _, log2 = ledger.read_record(DOCTOR, p, "latest")
    assert (log1.coord.log, log2.coord.log) == (1, 2)


def test_close_then_write_rejected_then_read_allowed():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    final = ledger.close_subchain(AUTHORITY, p)
    assert final.is_final and final.entries == ()
    with pytest.raises(SubchainClosed):
        ledger.write_record(DOCTOR, p, [("blood_test", b"x")])
    matches, _ = ledger.read_record(DOCTOR, p, "latest")
    assert matches == []


def test_double_close_rejected_exactly_one_final_block():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.close_subchain(AUTHORITY, p)
    with pytest.raises(SubchainClosed):
        ledger.close_subchain(AUTHORITY, p)
    assert sum(1 for blk in ledger.yellow[p] if blk.is_final) == 1
    assert ledger.red[p][-1].event == AccessEvent.FAILED_ATTEMPT


def test_fiscal_change_moves_the_anchor_for_new_logs():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    changed = ledger.change_fiscal_code(AUTHORITY, p, "FC001-NEW")
    _, log = ledger.write_record(DOCTOR, p, [("blood_test", b"v2")])
    assert log.h_main == block_hash(changed)
    assert verify_tree(ledger) == []


def test_two_fiscal_changes_chain_prev_identity():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.read_record(DOCTOR, p, "latest")
    first = ledger.change_fiscal_code(AUTHORITY, p, "FC-2")
    second = ledger.change_fiscal_code(AUTHORITY, p, "FC-3")
    assert second.fiscal_change.prev_identity == block_hash(first)
    assert second.fiscal_change.old_code == "FC-2"
    assert verify_tree(ledger) == []


def test_catalog_union_and_gating():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    with pytest.raises(UnknownRecordType):
        ledger.write_record(DOCTOR, p, [("mri", b"x")])
    ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    assert set(ledger.active_catalog()) >= {"blood_test", "xray", "ecg", "mri"}
    medical, _ = ledger.write_record(DOCTOR, p, [("mri", b"scan-1")])
    assert medical.entries[0].record_type == "mri"


def test_catalog_walk_runs_once_per_catalog_head(monkeypatch):
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    walks = count_calls(monkeypatch, ledger_mod._catalog_walk)
    for _ in range(3):
        ledger.write_record(DOCTOR, p, [("xray", b"x")])
    assert walks[0] == 1
    ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])  # moves the head
    ledger.write_record(DOCTOR, p, [("mri", b"scan")])
    ledger.clone().write_record(DOCTOR, p, [("mri", b"scan")])  # a clone keeps the cache
    assert walks[0] == 2
    ledger.active_catalog()["bogus"] = "x"  # a copy: the cache is never handed out
    assert "bogus" not in ledger.active_catalog()


def test_a_raw_tamper_of_a_catalog_block_changes_what_the_replica_accepts():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    block = ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    ledger.write_record(DOCTOR, p, [("mri", b"scan-1")])  # the catalog is cached now
    honest = ledger.clone()
    ledger.tamper("main", 0, block.coord.patient, "fiscal_code", "forged")
    # the head no longer names a block of the chain: the walk finds nothing
    assert ledger.active_catalog() == {}
    with pytest.raises(UnknownRecordType):
        ledger.write_record(DOCTOR, p, [("mri", b"scan-2")])
    honest.write_record(DOCTOR, p, [("mri", b"scan-2")])


def test_a_clone_of_a_tampered_ledger_takes_the_catalog_head_of_its_chain():
    """A clone rebuilds the catalog head from the chain it copies, so after
    a raw tamper of a catalog block it resolves the catalog afresh, not
    from the walk its source cached at the stale head."""
    ledger = fresh_ledger()
    block = ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    ledger.tamper("main", 0, block.coord.patient, "fiscal_code", "forged")
    assert ledger.active_catalog() == {}  # cached at the stale head
    twin = ledger.clone()
    rebuilt = ledger_mod.Ledger(ledger.main_chain, ledger.yellow, ledger.red, ledger.global_audit, ledger.clock)
    assert twin.catalog_head == rebuilt.catalog_head != ledger.catalog_head
    assert twin.active_catalog() == rebuilt.active_catalog() != {}


def test_catalog_chain_traverses_to_genesis():
    ledger = fresh_ledger()
    ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    ledger.update_catalog(AUTHORITY, [("ct", "CT scan")])
    # oracle: walk prev_catalog links by hand back to the genesis block
    by_hash = {block_hash(blk): blk for blk in ledger.main_chain if blk.catalog}
    cursor = ledger.catalog_head
    seen = []
    while True:
        blk = by_hash[cursor]
        seen.append(blk)
        if blk.catalog.prev_catalog is None:
            break
        cursor = blk.catalog.prev_catalog
    assert seen[-1].variant == IdentityVariant.SYSTEM_GENESIS
    assert [blk.catalog.entries[0][0] for blk in seen] == ["ct", "mri", "blood_test"]


def test_report_matches_linear_scan_oracle():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"b1")])
    ledger.write_record(DOCTOR, p, [("xray", b"x1")])
    ledger.write_record(DOCTOR, p, [("blood_test", b"b2"), ("ecg", b"e1")])
    ledger.write_record(DOCTOR, p, [("xray", b"x2")])
    ledger.write_record(DOCTOR, p, [("blood_test", b"b3")])
    expected = scan_report_oracle(ledger, p, "blood_test")
    report = ledger.assemble_report(DOCTOR, p, "blood_test")
    assert report == expected
    assert [payload for _, payload in report] == [b"b3", b"b2", b"b1"]


def test_report_of_unrecorded_type_is_empty_but_logged():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    before = len(ledger.red[p])
    assert ledger.assemble_report(DOCTOR, p, "ecg") == []
    assert len(ledger.red[p]) == before + 1
    assert ledger.red[p][-1].viewed == "REPORT:ecg"


def test_report_on_closed_patient_returns_full_history():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"b1")])
    ledger.write_record(DOCTOR, p, [("blood_test", b"b2")])
    ledger.close_subchain(AUTHORITY, p)
    report = ledger.assemble_report(DOCTOR, p, "blood_test")
    assert [payload for _, payload in report] == [b"b2", b"b1"]


def test_a_report_lists_every_holder_after_a_broken_link_also_after_a_write_and_in_a_clone():
    """A tampered typed backlink hides no entry: verify_tree locates it
    (and the next holder's link to the block whose hash it changed), and a
    report lists every holder of the type, newest first, on the tampered
    ledger, after a later write and in a clone of it."""
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    for v in range(4):
        ledger.write_record(DOCTOR, p, [("xray", b"x%d" % v)])
    ledger.tamper("yellow", p, 2, "entry.0.prev_same_type", None)
    assert [v.coord for v in verify_tree(ledger) if v.check == "entry_backlink"] == ["1.2", "1.3"]

    def reported(led) -> list[bytes]:
        report = led.assemble_report(DOCTOR, p, "xray")
        assert report == scan_report_oracle(led, p, "xray")
        return [payload for _, payload in report]

    assert reported(ledger) == [b"x3", b"x2", b"x1", b"x0"]
    ledger.write_record(DOCTOR, p, [("xray", b"x4")])
    twin = ledger.clone()
    assert reported(ledger) == reported(twin) == [b"x4", b"x3", b"x2", b"x1", b"x0"]
    twin.write_record(DOCTOR, p, [("xray", b"x5")])
    assert reported(twin) == [b"x5", b"x4", b"x3", b"x2", b"x1", b"x0"]
    assert reported(ledger) == [b"x4", b"x3", b"x2", b"x1", b"x0"]


def test_multiple_entries_of_same_type_in_one_block_share_backlink():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    first, _ = ledger.write_record(DOCTOR, p, [("ecg", b"e1")])
    both, _ = ledger.write_record(DOCTOR, p, [("ecg", b"e2"), ("ecg", b"e3")])
    assert both.entries[0].prev_same_type == block_hash(first)
    assert both.entries[1].prev_same_type == block_hash(first)
    report = ledger.assemble_report(DOCTOR, p, "ecg")
    assert [payload for _, payload in report] == [b"e3", b"e2", b"e1"]


def test_verify_tree_walks_the_catalog_chain_from_its_newest_catalog_block():
    """verify_tree walks the catalog links from the newest catalog block
    the chain holds, not from the ledger's catalog head. After a raw tamper
    of the newest catalog block in memory, the stale head is reported once,
    as catalog_head, and not again as a dangling link that no block holds;
    a dangling link the chain holds is still reported."""
    ledger = fresh_ledger()
    block = ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    ledger.tamper("main", 0, block.coord.patient, "fiscal_code", "forged")
    stale = [
        "MAIN 1 self_hash stored hash does not recompute",
        "MAIN - catalog_head head does not match last catalog block",
    ]
    assert [str(v) for v in verify_tree(ledger)] == stale
    dangling = bytes(32)[:-1] + b"\x01"
    ledger.main_chain[1] = replace(block, catalog=replace(block.catalog, prev_catalog=dangling))
    held = f"MAIN - catalog_chain dangling catalog link {dangling.hex()[:12]}"
    assert [str(v) for v in verify_tree(ledger)] == stale + [held]


def test_verify_tree_clean_after_mixed_operations():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    ledger.change_fiscal_code(AUTHORITY, p, "FC-9")
    ledger.update_catalog(AUTHORITY, [("mri", "MRI")])
    ledger.write_record(DOCTOR, p, [("mri", b"m1")])
    ledger.close_subchain(AUTHORITY, p)
    ledger.read_record(DOCTOR, p, "mri")
    assert verify_tree(ledger) == []


def test_mutated_medical_payload_yields_self_hash_and_cross_violations():
    """Inject-and-count oracle: one payload edit must break the yellow block
    itself and the cross-hash of its write log."""
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.write_record(DOCTOR, p, [("xray", b"v2")])
    target = ledger.yellow[p][0]
    ledger.yellow[p][0] = replace(
        target, entries=(replace(target.entries[0], payload=b"forged"),)
    )
    violations = verify_tree(ledger)
    assert len(violations) >= 2
    kinds = {(v.chain, v.check) for v in violations}
    assert ("YELLOW", "self_hash") in kinds
    assert any(chain == "RED" and check == "cross_yellow" for chain, check in kinds)


def test_mutated_log_block_isolates_violations_to_red_suffix():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    ledger.read_record(DOCTOR, p, "latest")
    target = ledger.red[p][1]
    ledger.red[p][1] = replace(target, actor="impostor")
    violations = verify_tree(ledger)
    assert violations
    assert all(v.chain == "RED" for v in violations)
    tampered_log = 2
    assert all(int(v.coord.split(".")[-1]) >= tampered_log for v in violations)


@pytest.mark.parametrize("field, check", [("h_yellow", "cross_yellow"), ("h_main", "cross_main")])
def test_log_swapped_to_another_patients_block_breaks_its_cross_hash(field, check):
    ledger = fresh_ledger()
    p1 = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    p2 = ledger.onboard_patient(AUTHORITY, "FC002", {"name": "Luisa"})
    ledger.write_record(DOCTOR, p2, [("blood_test", b"v2")])
    _, log = ledger.write_record(DOCTOR, p1, [("blood_test", b"v1")])
    assert verify_tree(ledger) == []
    other = {"h_yellow": ledger.yellow[p2][0], "h_main": ledger.main_chain[p2]}[field]
    # resealed, so the swap itself is the only thing that breaks
    ledger.red[p1][-1] = sealed(replace(log, **{field: block_hash(other)}))
    violations = verify_tree(ledger)
    assert [(v.chain, v.coord, v.check) for v in violations] == [("RED", log.coord.label(), check)]


def test_log_before_any_medical_block_has_zero_h_yellow_and_verifies():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    _, log = ledger.read_record(DOCTOR, p, "latest")
    assert log.coord.record is None and log.h_yellow == ZERO_DIGEST
    assert verify_tree(ledger) == []


def test_tree_checks_match_golden(tmp_path):
    """The ledger rebuilt from each single-field mutation of every block of
    the criterion-7 ledger, whose violations and indexes tree_checks.txt
    pins, loads back persisted with exactly those violations: a load reads
    the files persist wrote, whatever a tamper did to the main chain's
    lineage."""
    for i, (line, violations, rebuilt) in enumerate(tree_check_cases(criterion7_ledger(42))):
        store.persist(rebuilt, tmp_path / str(i))
        assert store.load_checked(tmp_path / str(i))[1] == violations, line


@pytest.mark.parametrize(
    "main, violation",
    [
        ([], "MAIN - structure empty main chain"),
        ([sealed(replace(fresh_ledger().main_chain[0], catalog=None))], "MAIN 0 genesis genesis carries no catalog"),
        (
            [sealed(replace(fresh_ledger().main_chain[0], catalog=CatalogUpdate((), None)))],
            "MAIN 0 genesis genesis carries no catalog",
        ),
    ],
    ids=["empty", "no-catalog", "empty-catalog"],
)
def test_a_tree_without_a_genesis_catalog_is_one_violation(main, violation):
    assert list(map(str, verify_tree(Ledger(main, {}, {}, [], 1)))) == [violation]


def test_a_fiscal_change_block_without_payload_is_reported_once():
    """verify_tree's variant check reports the missing payload; the lineage
    pass gives the block no owner and adds no second line."""
    ledger = fresh_ledger()
    ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.tamper("main", 0, 1, "variant", "fiscal_change")
    payload = [str(v) for v in verify_tree(ledger) if v.check == "variant_payload"]
    assert payload == ["MAIN 1 variant_payload bad fiscal-change payload"]


def test_violation_renders_as_chain_coord_check_detail():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    target = ledger.yellow[p][0]
    ledger.yellow[p][0] = replace(target, is_final=True)
    line = str(verify_tree(ledger)[0])
    chain, coord, check = line.split()[:3]
    assert chain == "YELLOW" and coord == "1.1" and check == "self_hash"


def test_clock_ticks_are_monotone_in_logs():
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    stamps = [log.timestamp for log in ledger.red[p]]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)
