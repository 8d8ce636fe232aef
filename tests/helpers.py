"""Shared test machinery: seeded op-sequence driver and per-field mutation
generators. Kept independent of the assertions that use them."""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from medledger.blocks import (
    BlockCoord,
    CatalogUpdate,
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    RecordEntry,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
)
from medledger.errors import AccessDenied, LedgerError
from medledger.ledger import Credential, Ledger, Role, Violation, verify_tree

CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG"))

AUTHORITY = Credential("registry", Role.AUTHORITY)
DOCTOR = Credential("drbianchi", Role.DOCTOR)
INVALID = Credential("mallory", Role.DOCTOR, valid=False)


def patient_cred(ledger: Ledger, p: int) -> Credential:
    return Credential(ledger._anchor[p].fiscal_code, Role.PATIENT)


def fresh_ledger() -> Ledger:
    return Ledger.genesis(CATALOG)


def drive(ledger: Ledger, rng: random.Random, n_ops: int, place: str = "test") -> list[str]:
    """Apply n_ops weighted random operations; domain errors are expected
    outcomes and are swallowed. Returns the verbs that were attempted."""
    verbs: list[str] = []
    extra_codes = iter(f"FC{n:03d}" for n in range(100, 1000))
    known_types = [c for c, _ in CATALOG]
    next_catalog = iter(f"t{n}" for n in range(1000))
    fiscal_serial = iter(range(10_000, 20_000))
    for _ in range(n_ops):
        patients = ledger.patients()
        verb = rng.choices(
            ["write", "read", "report", "close", "change_code", "catalog", "onboard", "bad_cred", "bad_type"],
            weights=[30, 20, 10, 5, 5, 5, 10, 10, 5],
        )[0]
        verbs.append(verb)
        try:
            if verb == "onboard" or not patients:
                p = ledger.onboard_patient(
                    AUTHORITY, next(extra_codes), {"name": f"p{rng.randrange(99)}"}, place
                )
                # anchor the fresh identity block with one logged access
                ledger.read_record(AUTHORITY, p, "latest", place)
                continue
            p = rng.choice(patients)
            if verb == "write":
                k = rng.randint(1, 2)
                entries = [
                    (rng.choice(known_types), f"v{rng.randrange(1000)}".encode())
                    for _ in range(k)
                ]
                ledger.write_record(DOCTOR, p, entries, place)
            elif verb == "read":
                query = rng.choice(known_types + ["latest"])
                who = rng.choice([DOCTOR, AUTHORITY, patient_cred(ledger, p)])
                ledger.read_record(who, p, query, place)
            elif verb == "report":
                ledger.assemble_report(DOCTOR, p, rng.choice(known_types), place)
            elif verb == "close":
                ledger.close_subchain(AUTHORITY, p, place)
            elif verb == "change_code":
                ledger.change_fiscal_code(AUTHORITY, p, f"FC{next(fiscal_serial)}", place)
            elif verb == "catalog":
                code = next(next_catalog)
                ledger.update_catalog(AUTHORITY, [(code, code.upper())], place)
                known_types.append(code)
            elif verb == "bad_cred":
                ledger.read_record(INVALID, p, "latest", place)
            elif verb == "bad_type":
                ledger.write_record(DOCTOR, p, [("nonexistent", b"x")], place)
        except LedgerError:
            pass
    return verbs


def count_calls(monkeypatch, original) -> list[int]:
    """Count calls to a medledger function through every binding of it in
    the loaded medledger modules; the count is the list's one element."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "medledger" or name.startswith("medledger."):
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, counting)
    return calls


def scan_report_oracle(ledger: Ledger, p: int, record_type: str) -> list[tuple[BlockCoord, bytes]]:
    """Brute force: linear scan of the medical chain, reversed."""
    found: list[tuple[BlockCoord, bytes]] = []
    for blk in ledger.yellow.get(p, []):
        for e in blk.entries:
            if e.record_type == record_type:
                found.append((blk.coord, e.payload))
    return list(reversed(found))


# --- systematic single-field mutations ----------------------------------------


def _flip(d: bytes) -> bytes:
    return d[:-1] + bytes([d[-1] ^ 0xFF])


def _bump_coord(c: BlockCoord) -> BlockCoord:
    return BlockCoord(c.patient + 1, c.record, c.log)


def block_mutations(block) -> list[tuple[str, object]]:
    """Every hash-input field of the block, each mutated once, plus the
    stored self_hash. Mutations keep field types valid."""
    muts: list[tuple[str, object]] = []

    def add(name: str, **kw) -> None:
        muts.append((name, replace(block, **kw)))

    add("coord", coord=_bump_coord(block.coord))
    add("self_hash", self_hash=_flip(block.self_hash))
    if isinstance(block, IdentityBlock):
        add("fiscal_code", fiscal_code=block.fiscal_code + "X")
        info = dict(block.personal_info)
        if info:
            first = sorted(info)[0]
            info[first] = info[first] + "X"
        else:
            info["injected"] = "x"
        add("personal_info", personal_info=info)
        add("prev_main", prev_main=_flip(block.prev_main))
        other = (
            IdentityVariant.CATALOG
            if block.variant != IdentityVariant.CATALOG
            else IdentityVariant.PATIENT
        )
        add("variant", variant=other)
        if block.fiscal_change is not None:
            fc = block.fiscal_change
            add("fiscal_change.new_code", fiscal_change=replace(fc, new_code=fc.new_code + "X"))
            add("fiscal_change.old_code", fiscal_change=replace(fc, old_code=fc.old_code + "X"))
            add(
                "fiscal_change.prev_identity",
                fiscal_change=replace(fc, prev_identity=_flip(fc.prev_identity)),
            )
        if block.catalog is not None:
            cat = block.catalog
            entries = tuple((c, l + "X") for c, l in cat.entries[:1]) + cat.entries[1:]
            add("catalog.entries", catalog=CatalogUpdate(entries, cat.prev_catalog))
            if cat.prev_catalog is not None:
                add("catalog.prev", catalog=replace(cat, prev_catalog=_flip(cat.prev_catalog)))
    elif isinstance(block, MedicalBlock):
        if block.entries:
            e = block.entries[0]
            add(
                "entries.payload",
                entries=(replace(e, payload=e.payload + b"X"),) + block.entries[1:],
            )
            add(
                "entries.record_type",
                entries=(replace(e, record_type=e.record_type + "X"),) + block.entries[1:],
            )
            prev = e.prev_same_type
            add(
                "entries.prev_same_type",
                entries=(replace(e, prev_same_type=_flip(prev) if prev else bytes(31) + b"\x01"),)
                + block.entries[1:],
            )
        else:
            add("entries", entries=(RecordEntry("injected", b"x", None),))
        add("prev_yellow", prev_yellow=_flip(block.prev_yellow))
        add("is_final", is_final=not block.is_final)
    elif isinstance(block, LogBlock):
        from medledger.blocks import AccessEvent

        add("event", event=AccessEvent.READ if block.event != AccessEvent.READ else AccessEvent.WRITE)
        add("actor", actor=block.actor + "X")
        add("timestamp", timestamp=block.timestamp + 1)
        add("place", place=block.place + "X")
        add("viewed", viewed=block.viewed + "X")
        add("h_main", h_main=_flip(block.h_main))
        add("h_yellow", h_yellow=_flip(block.h_yellow))
        add("h_prev_red", h_prev_red=_flip(block.h_prev_red))
    return muts


def criterion7_ledger(seed: int = 42) -> Ledger:
    """Three patients, thirty mixed operations, every patient-lineage
    identity block guaranteed to be cross-referenced by at least one log
    (each onboarding is followed by a write and a read before any fiscal
    change can occur; drive() anchors its own onboards the same way)."""
    rng = random.Random(seed)
    ledger = fresh_ledger()
    for code in ("FC-A", "FC-B", "FC-C"):
        p = ledger.onboard_patient(AUTHORITY, code, {"name": code.lower()})
        ledger.write_record(DOCTOR, p, [("blood_test", f"base-{code}".encode())])
        ledger.read_record(DOCTOR, p, "latest")
    # one guaranteed instance of each structural variant
    ledger.change_fiscal_code(AUTHORITY, 1, "FC-A2")
    ledger.write_record(DOCTOR, 1, [("xray", b"post-change")])
    ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    ledger.close_subchain(AUTHORITY, 2)
    ledger.read_record(DOCTOR, 2, "blood_test")
    drive(ledger, rng, 16)
    return ledger


def criterion7_ledger_with_note(seed: int = 42) -> Ledger:
    """criterion7_ledger plus the one global audit note of a refused onboard."""
    ledger = criterion7_ledger(seed)
    try:
        ledger.onboard_patient(INVALID, "FC-X", {})
    except AccessDenied:
        return ledger
    raise AssertionError("an onboard with an invalid credential was accepted")


def tree_check_cases(ledger: Ledger) -> Iterator[tuple[str, list[Violation]]]:
    """One golden line per single-field mutation of every block of the
    ledger, with the violation list it digests.

    The line reads `chain patient position field sha256`, the position
    being the main-chain index or the 1-based medical/log index. The
    digest covers the verify_tree output and the indexes of a Ledger
    rebuilt from the mutated chains: anchor coordinates, active codes,
    catalog head, closed set and active catalog.
    """
    targets = [("main", 0, i) for i in range(len(ledger.main_chain))]
    for p in ledger.patients():
        targets += [("yellow", p, j) for j in range(1, len(ledger.yellow[p]) + 1)]
        targets += [("red", p, k) for k in range(1, len(ledger.red[p]) + 1)]
    for chain, p, index in targets:
        pos = index if chain == "main" else index - 1
        for field_name, mutated in block_mutations(ledger.chain(chain, p)[pos]):
            main = list(ledger.main_chain)
            yellow = {q: list(c) for q, c in ledger.yellow.items()}
            red = {q: list(c) for q, c in ledger.red.items()}
            {"main": main, "yellow": yellow.get(p), "red": red.get(p)}[chain][pos] = mutated
            rebuilt = Ledger(main, yellow, red, list(ledger.global_audit), ledger.clock)
            violations = verify_tree(rebuilt)
            indexes = (
                sorted((q, blk.coord.label()) for q, blk in rebuilt._anchor.items()),
                sorted(rebuilt._active_codes.items()),
                rebuilt.catalog_head.hex(),
                sorted(rebuilt.closed),
                list(rebuilt.active_catalog().items()),
            )
            text = "\n".join(map(str, violations)) + "\n--\n" + repr(indexes)
            digest = hashlib.sha256(text.encode()).hexdigest()
            yield f"{chain} {p} {index} {field_name} {digest}", violations


def store_image(directory) -> list[str]:
    """One `name sha256` line per file of a store directory, sorted by name."""
    return [
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in sorted(Path(directory).iterdir())
    ]


SUBSTITUTES = (0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF)


def decode_shapes(ledger: Ledger) -> list[tuple[str, bytes, object]]:
    """One stored record of each shape the ledger holds, with its name and
    decoder: the first genesis, patient, fiscal-change and catalog identity
    block, medical block with a prev_same_type entry, final medical block,
    log block and global audit note."""
    yellow = [blk for p in ledger.patients() for blk in ledger.yellow[p]]
    red = [blk for p in ledger.patients() for blk in ledger.red[p]]
    by_variant = {}
    for blk in ledger.main_chain:
        by_variant.setdefault(blk.variant, blk)
    picks = [
        ("genesis", by_variant[IdentityVariant.SYSTEM_GENESIS]),
        ("patient", by_variant[IdentityVariant.PATIENT]),
        ("fiscal_change", by_variant[IdentityVariant.FISCAL_CHANGE]),
        ("catalog", by_variant[IdentityVariant.CATALOG]),
        ("medical_prev_same_type", next(b for b in yellow if any(e.prev_same_type for e in b.entries))),
        ("medical_final", next(b for b in yellow if b.is_final)),
        ("log", red[0]),
    ]
    shapes = [(name, encode_record(blk), decode_record) for name, blk in picks]
    return shapes + [("audit_note", encode_note(ledger.global_audit[0]), decode_note)]


def decode_outcome_lines(record: bytes, decode) -> list[str]:
    """`ok` or the ValueError message of decode on every truncation of the
    record and on each substitution of SUBSTITUTES and of the byte ^ 1 at
    every offset."""
    inputs = [record[:cut] for cut in range(len(record))]
    for i, old in enumerate(record):
        inputs += [record[:i] + bytes([value]) + record[i + 1 :] for value in (*SUBSTITUTES, old ^ 1)]
    lines = []
    for data in inputs:
        try:
            decode(data)
            lines.append("ok")
        except ValueError as exc:
            lines.append(str(exc))
    return lines


def decode_outcome_digests(ledger: Ledger) -> list[str]:
    """One `name sha256` line per record shape: the digest of its outcome lines."""
    lines = []
    for name, record, decode in decode_shapes(ledger):
        outcomes = "\n".join(decode_outcome_lines(record, decode))
        lines.append(f"{name} {hashlib.sha256(outcomes.encode()).hexdigest()}")
    return lines
