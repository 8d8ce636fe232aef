"""Patient-record ledger: one identity chain, plus a medical subchain and an
access-log subchain per patient.

The identity block of a patient is the genesis anchor of both subchains;
no placeholder blocks are materialized. Every access attempt, successful
or not, appends exactly one log block to the patient's red chain, so the
red chain only ever grows. Failed attempts that cannot be anchored to a
patient (unknown index, denied onboarding) land in a ledger-level audit
note chain instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import blocks as b
from .blocks import (
    AccessEvent,
    BlockCoord,
    CatalogUpdate,
    Digest,
    FiscalChange,
    GlobalAuditNote,
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    RecordEntry,
    block_hash,
    sealed,
    sealed_note,
)
from .errors import (
    AccessDenied,
    DuplicateCatalogCode,
    DuplicateIdentity,
    NoChange,
    NoSuchBlock,
    SubchainClosed,
    UnknownPatient,
    UnknownRecordType,
)
from .merkle import ZERO_DIGEST, sha256


class Role(str, Enum):
    PATIENT = "patient"
    DOCTOR = "doctor"
    AUTHORITY = "authority"


@dataclass(frozen=True)
class Credential:
    """Opaque stand-in for an authenticated identity; no real auth here."""

    actor_id: str
    role: Role
    valid: bool = True


@dataclass(frozen=True)
class Violation:
    """One failed integrity check, addressable by chain and coordinate."""

    chain: str
    coord: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.chain} {self.coord} {self.check} {self.detail}"


class Ledger:
    """Single-writer state machine over the block tree.

    Mutating operations must be serialized by the caller (the simulator
    or the CLI lock); blocks themselves are immutable values.
    """

    def __init__(
        self,
        main_chain: list[IdentityBlock],
        yellow: dict[int, list[MedicalBlock]],
        red: dict[int, list[LogBlock]],
        global_audit: list[GlobalAuditNote],
        clock: int,
    ):
        self.main_chain = main_chain
        self.yellow = yellow
        self.red = red
        self.global_audit = global_audit
        self.clock = clock
        self._recompute_derived()

    @classmethod
    def genesis(cls, catalog_entries: Iterable[tuple[str, str]]) -> "Ledger":
        """Fresh ledger whose genesis block carries the initial catalog."""
        entries = tuple(catalog_entries)
        if not entries:
            raise ValueError("genesis catalog must not be empty")
        codes = [c for c, _ in entries]
        if len(set(codes)) != len(codes):
            raise DuplicateCatalogCode("genesis catalog has duplicate codes")
        genesis = sealed(
            IdentityBlock(
                coord=BlockCoord(0),
                fiscal_code="",
                personal_info={},
                prev_main=ZERO_DIGEST,
                variant=IdentityVariant.SYSTEM_GENESIS,
                catalog=CatalogUpdate(entries, None),
            )
        )
        return cls([genesis], {}, {}, [], clock=1)

    # -- derived state ------------------------------------------------------

    def _recompute_derived(self) -> None:
        """Rebuild anchor/code/closed/catalog indexes from the chains.

        Tolerant of inconsistent chains (tampered replicas must still be
        representable); verify_tree reports what is broken.
        """
        self._anchor: dict[int, IdentityBlock] = {}
        self._active_codes: dict[str, int] = {}
        self.catalog_head: Digest = ZERO_DIGEST
        owner_by_hash: dict[Digest, int] = {}
        for block in self.main_chain:
            h = block_hash(block)
            if block.variant == IdentityVariant.PATIENT:
                p = block.coord.patient
                owner_by_hash[h] = p
                self._anchor[p] = block
                self._active_codes[block.fiscal_code] = p
            elif block.variant == IdentityVariant.FISCAL_CHANGE and block.fiscal_change:
                p = owner_by_hash.get(block.fiscal_change.prev_identity)
                if p is not None:
                    owner_by_hash[h] = p
                    old = self._anchor[p]
                    self._active_codes.pop(old.fiscal_code, None)
                    self._anchor[p] = block
                    self._active_codes[block.fiscal_code] = p
            if block.catalog is not None:
                self.catalog_head = h
        self.closed: set[int] = {
            p for p, chain in self.yellow.items() if chain and chain[-1].is_final
        }

    def clone(self) -> "Ledger":
        """Snapshot copy; shares the immutable blocks, copies the containers."""
        dup = Ledger.__new__(Ledger)
        dup.main_chain = list(self.main_chain)
        dup.yellow = {p: list(c) for p, c in self.yellow.items()}
        dup.red = {p: list(c) for p, c in self.red.items()}
        dup.global_audit = list(self.global_audit)
        dup.clock = self.clock
        dup._anchor = dict(self._anchor)
        dup._active_codes = dict(self._active_codes)
        dup.catalog_head = self.catalog_head
        dup.closed = set(self.closed)
        return dup

    def chain(self, name: str, patient: int, create: bool = False) -> list[b.Block]:
        """The main chain, or a patient's yellow or red subchain, by name."""
        if name == "main":
            return self.main_chain
        if name not in ("yellow", "red"):
            raise ValueError(f"unknown chain {name!r}")
        table = self.yellow if name == "yellow" else self.red
        return table.setdefault(patient, []) if create else table.get(patient, [])

    def tamper(self, chain: str, patient: int, index: int, field_path: str, value) -> None:
        """Raw edit of one block, bypassing every check; for fault injection.

        index is the main-chain position for chain="main", else the
        1-based record/log index. The stored self_hash and the derived
        indexes are left stale.
        """
        blocks = self.chain(chain, patient)
        pos = index if chain == "main" else index - 1
        if not 0 <= pos < len(blocks):
            raise NoSuchBlock(f"no {chain} block {index} for patient {patient}")
        blocks[pos] = b.mutate_block(blocks[pos], field_path, value)

    def patients(self) -> list[int]:
        return sorted(self._anchor)

    def active_catalog(self) -> dict[str, str]:
        """Union of all catalog blocks, newest first along the prev links."""
        by_hash = {block_hash(blk): blk for blk in self.main_chain if blk.catalog}
        out: dict[str, str] = {}
        cursor = self.catalog_head
        seen = 0
        while cursor != ZERO_DIGEST and cursor in by_hash and seen <= len(by_hash):
            blk = by_hash[cursor]
            for code, label in blk.catalog.entries:
                out.setdefault(code, label)
            cursor = blk.catalog.prev_catalog or ZERO_DIGEST
            seen += 1
        return out

    def snapshot_bytes(self) -> bytes:
        """Full deterministic serialization; equal bytes means equal state."""
        out = bytearray(struct.pack(">Q", self.clock))
        out += struct.pack(">I", len(self.main_chain))
        for blk in self.main_chain:
            rec = b.encode_record(blk)
            out += struct.pack(">I", len(rec)) + rec
        for p in sorted(self.yellow):
            out += struct.pack(">I", p)
            for chain in (self.yellow[p], self.red[p]):
                out += struct.pack(">I", len(chain))
                for blk in chain:
                    rec = b.encode_record(blk)
                    out += struct.pack(">I", len(rec)) + rec
        out += struct.pack(">I", len(self.global_audit))
        for note in self.global_audit:
            rec = b.encode_note(note)
            out += struct.pack(">I", len(rec)) + rec
        return bytes(out)

    def state_digest(self) -> str:
        return sha256(self.snapshot_bytes()).hex()

    # -- internal helpers ----------------------------------------------------

    def _tick(self) -> int:
        t = self.clock
        self.clock += 1
        return t

    def _latest_yellow(self, p: int) -> MedicalBlock | None:
        chain = self.yellow.get(p)
        return chain[-1] if chain else None

    def _note(self, actor: str, tick: int, place: str, detail: str) -> None:
        prev = self.global_audit[-1].self_hash if self.global_audit else ZERO_DIGEST
        self.global_audit.append(
            sealed_note(GlobalAuditNote(actor, tick, place, detail, prev))
        )

    def _append_log(
        self,
        p: int,
        event: AccessEvent,
        cred: Credential,
        tick: int,
        place: str,
        viewed: str,
    ) -> LogBlock:
        """Append one log block cross-hashing the current anchor and latest
        medical block. coord.record is set iff a medical block is referenced."""
        anchor_hash = block_hash(self._anchor[p])
        latest = self._latest_yellow(p)
        record_index = latest.coord.record if latest is not None else None
        h_yellow = block_hash(latest) if latest is not None else ZERO_DIGEST
        chain = self.red.setdefault(p, [])
        h_prev = block_hash(chain[-1]) if chain else anchor_hash
        log = sealed(
            LogBlock(
                coord=BlockCoord(p, record_index, len(chain) + 1),
                event=event,
                actor=cred.actor_id,
                timestamp=tick,
                place=place,
                viewed=viewed,
                h_main=anchor_hash,
                h_yellow=h_yellow,
                h_prev_red=h_prev,
            )
        )
        chain.append(log)
        return log

    def _fail(
        self, p: int | None, cred: Credential, tick: int, place: str, reason: str
    ) -> None:
        if p is not None and p in self._anchor:
            self._append_log(p, AccessEvent.FAILED_ATTEMPT, cred, tick, place, reason)
        else:
            self._note(cred.actor_id, tick, place, reason)

    def _require_patient(self, p: int, cred: Credential, tick: int, place: str, op: str) -> None:
        if p not in self._anchor:
            self._note(cred.actor_id, tick, place, f"UNKNOWN_PATIENT:{op}:{p}")
            raise UnknownPatient(f"no patient with index {p}")

    def _require_cred(
        self,
        cred: Credential,
        p: int | None,
        tick: int,
        place: str,
        op: str,
        roles: tuple[Role, ...],
        allow_self: bool = False,
    ) -> None:
        if not cred.valid:
            self._fail(p, cred, tick, place, f"DENIED:{op}:invalid_credential")
            raise AccessDenied(f"invalid credential for {cred.actor_id}")
        if cred.role in roles:
            return
        if (
            allow_self
            and cred.role == Role.PATIENT
            and p is not None
            and p in self._anchor
            and self._anchor[p].fiscal_code == cred.actor_id
        ):
            return
        self._fail(p, cred, tick, place, f"DENIED:{op}:role_{cred.role.value}")
        raise AccessDenied(f"role {cred.role.value} may not {op}")

    # -- public operations -----------------------------------------------------

    def onboard_patient(
        self, cred: Credential, fiscal_code: str, personal_info: dict[str, str], place: str = "local"
    ) -> int:
        """Register a patient; the new identity block anchors both subchains."""
        tick = self._tick()
        if not cred.valid:
            self._note(cred.actor_id, tick, place, "DENIED:onboard:invalid_credential")
            raise AccessDenied(f"invalid credential for {cred.actor_id}")
        if fiscal_code in self._active_codes:
            raise DuplicateIdentity(f"fiscal code {fiscal_code!r} already active")
        p = len(self.main_chain)
        block = sealed(
            IdentityBlock(
                coord=BlockCoord(p),
                fiscal_code=fiscal_code,
                personal_info=dict(personal_info),
                prev_main=block_hash(self.main_chain[-1]),
                variant=IdentityVariant.PATIENT,
            )
        )
        self.main_chain.append(block)
        self._anchor[p] = block
        self._active_codes[fiscal_code] = p
        self.yellow[p] = []
        self.red[p] = []
        return p

    def write_record(
        self,
        cred: Credential,
        patient: int,
        entries: list[tuple[str, bytes]],
        place: str = "local",
    ) -> tuple[MedicalBlock, LogBlock]:
        """Append one medical block and its write log atomically."""
        if not entries:
            raise ValueError("write_record needs at least one (record_type, payload) entry")
        tick = self._tick()
        self._require_patient(patient, cred, tick, place, "write")
        self._require_cred(cred, patient, tick, place, "write", (Role.DOCTOR,))
        if patient in self.closed:
            self._fail(patient, cred, tick, place, "CLOSED:write")
            raise SubchainClosed(f"patient {patient} subchain is closed")
        catalog = self.active_catalog()
        for record_type, _ in entries:
            if record_type not in catalog:
                self._fail(patient, cred, tick, place, f"UNKNOWN_TYPE:{record_type}")
                raise UnknownRecordType(f"record type {record_type!r} not in catalog")
        built = tuple(
            RecordEntry(t, payload, self._latest_block_with_type(patient, t))
            for t, payload in entries
        )
        chain = self.yellow[patient]
        prev = block_hash(chain[-1]) if chain else block_hash(self._anchor[patient])
        medical = sealed(
            MedicalBlock(
                coord=BlockCoord(patient, len(chain) + 1),
                entries=built,
                prev_yellow=prev,
            )
        )
        chain.append(medical)
        viewed = "WRITE:" + ",".join(t for t, _ in entries)
        log = self._append_log(patient, AccessEvent.WRITE, cred, tick, place, viewed)
        return medical, log

    def _latest_block_with_type(self, p: int, record_type: str) -> Digest | None:
        for blk in reversed(self.yellow.get(p, [])):
            if any(e.record_type == record_type for e in blk.entries):
                return block_hash(blk)
        return None

    def read_record(
        self, cred: Credential, patient: int, query: str, place: str = "local"
    ) -> tuple[list[tuple[BlockCoord, RecordEntry]], LogBlock]:
        """Return matching entries; the read itself appends a log block.

        query is a record type, or "latest" for the newest non-final
        block's entries. Works on closed patients.
        """
        tick = self._tick()
        self._require_patient(patient, cred, tick, place, "read")
        self._require_cred(
            cred, patient, tick, place, "read", (Role.DOCTOR, Role.AUTHORITY), allow_self=True
        )
        matches: list[tuple[BlockCoord, RecordEntry]] = []
        if query == "latest":
            for blk in reversed(self.yellow.get(patient, [])):
                if not blk.is_final:
                    matches = [(blk.coord, e) for e in blk.entries]
                    break
        else:
            for blk in self.yellow.get(patient, []):
                matches += [(blk.coord, e) for e in blk.entries if e.record_type == query]
        log = self._append_log(
            patient, AccessEvent.READ, cred, tick, place, f"READ:{query}"
        )
        return matches, log

    def close_subchain(self, cred: Credential, patient: int, place: str = "local") -> MedicalBlock:
        """Append the final marker; afterwards only reads (and their logs) succeed."""
        tick = self._tick()
        self._require_patient(patient, cred, tick, place, "close")
        self._require_cred(cred, patient, tick, place, "close", (Role.AUTHORITY,))
        if patient in self.closed:
            self._fail(patient, cred, tick, place, "CLOSED:close")
            raise SubchainClosed(f"patient {patient} already closed")
        chain = self.yellow[patient]
        prev = block_hash(chain[-1]) if chain else block_hash(self._anchor[patient])
        final = sealed(
            MedicalBlock(
                coord=BlockCoord(patient, len(chain) + 1),
                entries=(),
                prev_yellow=prev,
                is_final=True,
            )
        )
        chain.append(final)
        self.closed.add(patient)
        self._append_log(patient, AccessEvent.WRITE, cred, tick, place, "FINAL")
        return final

    def change_fiscal_code(
        self, cred: Credential, patient: int, new_code: str, place: str = "local"
    ) -> IdentityBlock:
        """Append a fiscal-change identity block; later cross-hashes use it.

        Nothing already appended is touched, so the chain never ruptures.
        """
        tick = self._tick()
        self._require_patient(patient, cred, tick, place, "change_code")
        self._require_cred(cred, patient, tick, place, "change_code", (Role.AUTHORITY,))
        old = self._anchor[patient]
        if new_code == old.fiscal_code:
            raise NoChange(f"fiscal code for patient {patient} is already {new_code!r}")
        holder = self._active_codes.get(new_code)
        if holder is not None and holder != patient:
            raise DuplicateIdentity(f"fiscal code {new_code!r} already active for patient {holder}")
        block = sealed(
            IdentityBlock(
                coord=BlockCoord(len(self.main_chain)),
                fiscal_code=new_code,
                personal_info=dict(old.personal_info),
                prev_main=block_hash(self.main_chain[-1]),
                variant=IdentityVariant.FISCAL_CHANGE,
                fiscal_change=FiscalChange(
                    new_code=new_code,
                    old_code=old.fiscal_code,
                    prev_identity=block_hash(old),
                ),
            )
        )
        self.main_chain.append(block)
        self._active_codes.pop(old.fiscal_code, None)
        self._active_codes[new_code] = patient
        self._anchor[patient] = block
        self._append_log(patient, AccessEvent.WRITE, cred, tick, place, "FISCAL_CHANGE")
        return block

    def update_catalog(
        self, cred: Credential, new_entries: list[tuple[str, str]], place: str = "local"
    ) -> IdentityBlock:
        """Append a catalog block linking back to the current catalog head."""
        if not new_entries:
            raise ValueError("catalog update needs at least one (code, label) entry")
        tick = self._tick()
        if not cred.valid:
            self._note(cred.actor_id, tick, place, "DENIED:catalog:invalid_credential")
            raise AccessDenied(f"invalid credential for {cred.actor_id}")
        if cred.role != Role.AUTHORITY:
            self._note(cred.actor_id, tick, place, f"DENIED:catalog:role_{cred.role.value}")
            raise AccessDenied(f"role {cred.role.value} may not update the catalog")
        known = self.active_catalog()
        fresh = [c for c, _ in new_entries]
        for code in fresh:
            if code in known or fresh.count(code) > 1:
                raise DuplicateCatalogCode(f"catalog code {code!r} already defined")
        block = sealed(
            IdentityBlock(
                coord=BlockCoord(len(self.main_chain)),
                fiscal_code="",
                personal_info={},
                prev_main=block_hash(self.main_chain[-1]),
                variant=IdentityVariant.CATALOG,
                catalog=CatalogUpdate(tuple(new_entries), self.catalog_head),
            )
        )
        self.main_chain.append(block)
        self.catalog_head = block_hash(block)
        return block

    def assemble_report(
        self, cred: Credential, patient: int, record_type: str, place: str = "local"
    ) -> list[tuple[BlockCoord, bytes]]:
        """History of one record type, newest first, by following the typed
        backlinks from the most recent occurrence. One log block total."""
        tick = self._tick()
        self._require_patient(patient, cred, tick, place, "report")
        self._require_cred(
            cred, patient, tick, place, "report", (Role.DOCTOR, Role.AUTHORITY), allow_self=True
        )
        chain = self.yellow.get(patient, [])
        by_hash = {block_hash(blk): blk for blk in chain}
        start = next(
            (
                blk
                for blk in reversed(chain)
                if any(e.record_type == record_type for e in blk.entries)
            ),
            None,
        )
        report: list[tuple[BlockCoord, bytes]] = []
        cursor, hops = start, 0
        while cursor is not None and hops <= len(chain):
            typed = [e for e in cursor.entries if e.record_type == record_type]
            for e in reversed(typed):
                report.append((cursor.coord, e.payload))
            nxt = typed[0].prev_same_type if typed else None
            cursor = by_hash.get(nxt) if nxt else None
            hops += 1
        self._append_log(
            patient, AccessEvent.READ, cred, tick, place, f"REPORT:{record_type}"
        )
        return report


# --- whole-tree verification ---------------------------------------------------


def _lineages(
    main: list[IdentityBlock], main_hashes: list[Digest]
) -> tuple[dict[int, set[Digest]], list[Violation]]:
    """Identity-lineage hashes per patient (onboarding block, then fiscal
    changes, in main-chain order), resolved independently of the ledger's
    derived state."""
    violations: list[Violation] = []
    owner_by_hash: dict[Digest, int] = {}
    lineages: dict[int, set[Digest]] = {}
    for i, blk in enumerate(main):
        h = main_hashes[i]
        if blk.variant == IdentityVariant.PATIENT:
            owner_by_hash[h] = blk.coord.patient
            lineages.setdefault(blk.coord.patient, set()).add(h)
        elif blk.variant == IdentityVariant.FISCAL_CHANGE:
            if blk.fiscal_change is None:
                violations.append(
                    Violation("MAIN", str(i), "variant_payload", "fiscal_change without payload")
                )
                continue
            p = owner_by_hash.get(blk.fiscal_change.prev_identity)
            if p is None:
                violations.append(
                    Violation("MAIN", str(i), "identity_lineage", "prev_identity unresolved")
                )
                continue
            owner_by_hash[h] = p
            lineages[p].add(h)
    return lineages, violations


def verify_tree(ledger: Ledger) -> list[Violation]:
    """Recheck every hash, link and cross-hash in the tree.

    Returns violations as data; an intact tree yields an empty list.
    """
    v: list[Violation] = []
    main = ledger.main_chain
    if not main:
        return [Violation("MAIN", "-", "structure", "empty main chain")]
    main_hashes = [block_hash(blk) for blk in main]

    # main chain
    if main[0].variant != IdentityVariant.SYSTEM_GENESIS:
        v.append(Violation("MAIN", "0", "genesis", "first block is not the system genesis"))
    if main[0].prev_main != ZERO_DIGEST:
        v.append(Violation("MAIN", "0", "link", "genesis prev_main is not the zero digest"))
    if main[0].catalog is None or not main[0].catalog.entries:
        v.append(Violation("MAIN", "0", "genesis", "genesis carries no catalog"))
    last_catalog: Digest | None = None
    catalog_by_hash: dict[Digest, IdentityBlock] = {}
    broken = False
    for i, blk in enumerate(main):
        coord = str(i)
        if blk.self_hash != main_hashes[i]:
            v.append(Violation("MAIN", coord, "self_hash", "stored hash does not recompute"))
        if blk.coord != BlockCoord(i):
            v.append(Violation("MAIN", coord, "coord", f"coordinate {blk.coord.label()} at position {i}"))
        if i > 0:
            # once a link breaks, every later block sits on a broken suffix
            if broken:
                v.append(Violation("MAIN", coord, "ancestry", "follows a broken link"))
            elif blk.prev_main != main_hashes[i - 1]:
                v.append(Violation("MAIN", coord, "link", "prev_main does not match previous block"))
                broken = True
        if blk.variant == IdentityVariant.FISCAL_CHANGE:
            fc = blk.fiscal_change
            if fc is None or fc.old_code == fc.new_code:
                v.append(Violation("MAIN", coord, "variant_payload", "bad fiscal-change payload"))
        if blk.variant == IdentityVariant.CATALOG and (blk.catalog is None or not blk.catalog.entries):
            v.append(Violation("MAIN", coord, "variant_payload", "catalog block without entries"))
        if blk.catalog is not None:
            catalog_by_hash[main_hashes[i]] = blk
            last_catalog = main_hashes[i]
    if last_catalog is not None and ledger.catalog_head != last_catalog:
        v.append(Violation("MAIN", "-", "catalog_head", "head does not match last catalog block"))
    cursor, hops = ledger.catalog_head, 0
    while cursor != ZERO_DIGEST and hops <= len(catalog_by_hash):
        blk = catalog_by_hash.get(cursor)
        if blk is None:
            v.append(Violation("MAIN", "-", "catalog_chain", f"dangling catalog link {cursor.hex()[:12]}"))
            break
        cursor = blk.catalog.prev_catalog or ZERO_DIGEST
        hops += 1

    lineages, lineage_violations = _lineages(main, main_hashes)
    v += lineage_violations
    patient_set = set(lineages)

    for p in sorted(set(ledger.yellow) | set(ledger.red)):
        if p not in patient_set:
            v.append(Violation("YELLOW", str(p), "structure", "subchain for unknown patient"))
            lineage_hashes: set[Digest] = set()  # nothing can match, keep checking
        else:
            lineage_hashes = lineages[p]
        yellow = ledger.yellow.get(p, [])
        yellow_hashes = [block_hash(blk) for blk in yellow]

        broken = False
        for j, blk in enumerate(yellow):
            coord = f"{p}.{j + 1}"
            if blk.self_hash != yellow_hashes[j]:
                v.append(Violation("YELLOW", coord, "self_hash", "stored hash does not recompute"))
            if blk.coord != BlockCoord(p, j + 1):
                v.append(Violation("YELLOW", coord, "coord", f"coordinate {blk.coord.label()}"))
            if broken:
                v.append(Violation("YELLOW", coord, "ancestry", "follows a broken link"))
            elif j == 0:
                if blk.prev_yellow not in lineage_hashes:
                    v.append(Violation("YELLOW", coord, "link", "first block not anchored to an identity block"))
                    broken = True
            elif blk.prev_yellow != yellow_hashes[j - 1]:
                v.append(Violation("YELLOW", coord, "link", "prev_yellow does not match previous block"))
                broken = True
            if blk.is_final:
                if blk.entries:
                    v.append(Violation("YELLOW", coord, "final", "final block carries entries"))
                if j != len(yellow) - 1:
                    v.append(Violation("YELLOW", coord, "final", "final block is not last"))
            for e in blk.entries:
                expected = None
                for earlier in range(j - 1, -1, -1):
                    if any(x.record_type == e.record_type for x in yellow[earlier].entries):
                        expected = yellow_hashes[earlier]
                        break
                if e.prev_same_type != expected:
                    v.append(
                        Violation("YELLOW", coord, "entry_backlink", f"bad typed backlink for {e.record_type!r}")
                    )
        is_closed = bool(yellow) and yellow[-1].is_final
        if (p in ledger.closed) != is_closed:
            v.append(Violation("YELLOW", str(p), "closed_flag", "closed set disagrees with final marker"))

        red = ledger.red.get(p, [])
        red_hashes = [block_hash(blk) for blk in red]
        broken = False
        for k, blk in enumerate(red):
            coord = blk.coord.label()
            if blk.self_hash != red_hashes[k]:
                v.append(Violation("RED", coord, "self_hash", "stored hash does not recompute"))
            if blk.coord.patient != p or blk.coord.log != k + 1:
                v.append(Violation("RED", coord, "coord", f"expected log index {p}.*.{k + 1}"))
            if broken:
                v.append(Violation("RED", coord, "ancestry", "follows a broken link"))
            elif k == 0:
                if blk.h_prev_red not in lineage_hashes:
                    v.append(Violation("RED", coord, "cross_prev_red", "first log not anchored to an identity block"))
                    broken = True
            elif blk.h_prev_red != red_hashes[k - 1]:
                v.append(Violation("RED", coord, "cross_prev_red", "h_prev_red does not match previous log"))
                broken = True
            if blk.h_main not in lineage_hashes:
                v.append(Violation("RED", coord, "cross_main", "h_main matches no identity block of this patient"))
            if blk.coord.record is None:
                if blk.h_yellow != ZERO_DIGEST:
                    v.append(Violation("RED", coord, "cross_yellow", "no record index but h_yellow set"))
            elif not 1 <= blk.coord.record <= len(yellow):
                v.append(Violation("RED", coord, "cross_yellow", f"record index {blk.coord.record} out of range"))
            elif blk.h_yellow != yellow_hashes[blk.coord.record - 1]:
                v.append(Violation("RED", coord, "cross_yellow", "h_yellow does not match the referenced block"))

    # ledger-level audit note chain
    prev = ZERO_DIGEST
    for n, note in enumerate(ledger.global_audit):
        if note.prev_hash != prev:
            v.append(Violation("AUDIT", str(n), "link", "prev_hash does not match previous note"))
        if note.self_hash != b.note_hash(note):
            v.append(Violation("AUDIT", str(n), "self_hash", "stored hash does not recompute"))
        prev = note.self_hash
    return v
