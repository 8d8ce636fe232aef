"""Patient-record ledger: one identity chain, plus a medical subchain and an
access-log subchain per patient.

The identity block of a patient is the genesis anchor of both subchains;
no placeholder blocks are materialized. A patient holds both subchains or
neither: anchoring a patient creates both (_index), and a load reads both
files of each patient. So persist, the session image, snapshot_bytes,
verify_tree and repair walk the same chains. Every access attempt, successful or not, appends exactly one log
block to the patient's red chain, so the red chain only ever grows. Failed
attempts that cannot be anchored to a patient (unknown index, denied
onboarding) land in a ledger-level audit note chain instead.

Besides the chains, a Ledger keeps derived state rebuilt from them: the
anchors, active codes, catalog head and closed set, the active catalog,
and a per-patient type index (record type -> its newest holder block,
and the results a typed read and a report of it return, as tuples of
(coord, entry) pairs oldest first and of (coord, payload) pairs newest
first). It is built on a patient's first typed op (a write's backlink
lookup, a typed read, a report), extended by each medical append, shared
by clones, and dropped by a tamper, by every rebuild (a load, a repair of
the main chain) and by a repair of the patient's subchains. Derived
state is never evidence: repair reads only the chains, and verify_tree
reads the chains and compares two derived facts with them, the catalog
head (catalog_head) and the closed set (closed_flag). The typed
backlinks are tamper evidence that verify_tree checks; reads and reports
copy the index's results and never follow them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

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
    cached_hash,
    sealed,
    sealed_note,
)
from .errors import (
    AccessDenied,
    CommandError,
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


def require_code(code: str, catalog: bool = False) -> str:
    """code, or CommandError (a ValueError) if the ledger uses it for
    something else: the genesis and catalog blocks carry the empty fiscal
    code, an empty catalog code names no type, and a read of 'latest' asks
    for the newest block of any type. catalog: code is a catalog code."""
    if code == "" or (catalog and code == "latest"):
        raise CommandError(f"{'catalog' if catalog else 'fiscal'} code {code!r} is reserved")
    return code


# a patient's type index: record type -> (its newest holder block, the
# (coord, entry) pairs a typed read returns, oldest first, the (coord,
# payload) pairs a report returns, newest first)
TypeIndex = dict[
    str, tuple[MedicalBlock, tuple[tuple[BlockCoord, RecordEntry], ...], tuple[tuple[BlockCoord, bytes], ...]]
]
# what the index holds for a type that no entry has
_NO_HOLDERS: tuple = (None, (), ())

# looked up once: every index rebuild (a load, a repair, a clone) tests
# each main-chain block, and an enum member lookup is slow
_PATIENT, _FISCAL_CHANGE = IdentityVariant.PATIENT, IdentityVariant.FISCAL_CHANGE

# the access policy, op -> (roles granted, whether a patient may act on
# their own record, the action a refused role "may not" do)
_ACCESS: dict[str, tuple[tuple[Role, ...], bool, str]] = {
    "onboard": ((Role.AUTHORITY,), False, "onboard"),
    "catalog": ((Role.AUTHORITY,), False, "update the catalog"),
    "write": ((Role.DOCTOR,), False, "write"),
    "read": ((Role.DOCTOR, Role.AUTHORITY), True, "read"),
    "report": ((Role.DOCTOR, Role.AUTHORITY), True, "report"),
    "close": ((Role.AUTHORITY,), False, "close"),
    "change_code": ((Role.AUTHORITY,), False, "change_code"),
}


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
    or a store.session); blocks themselves are immutable values.
    """

    # (values offered, values sealed so far) while the network applies a
    # committed command on this replica, else None; see _seal
    _seal_share: tuple[Sequence[b.Block | GlobalAuditNote], list[b.Block | GlobalAuditNote]] | None = None

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
        entries = tuple((code, label) for code, label in catalog_entries)
        if not entries:
            raise ValueError("genesis catalog must not be empty")
        codes = [require_code(c, catalog=True) for c, _ in entries]
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
        """Rebuild anchor/code/closed/catalog indexes from the chains, and
        drop every type index (each is built again on its first use).

        Tolerant of inconsistent chains (tampered replicas must still be
        representable); verify_tree reports what is broken.
        """
        owners = _main_facts(self.main_chain, [cached_hash(blk) for blk in self.main_chain])[0]
        self._anchor: dict[int, IdentityBlock] = {}
        self._active_codes: dict[str, int] = {}
        self.catalog_head = ZERO_DIGEST
        self._catalog: dict[str, str] | None = None
        for block, p in zip(self.main_chain, owners):
            self._index(block, p)
        self.closed: set[int] = set()
        self._typed: dict[int, TypeIndex] = {}
        for p in self.yellow:
            self._recompute_patient(p)

    def _recompute_patient(self, p: int) -> None:
        """Rebuild the derived state of one patient's two subchains, at a
        rebuild or after they changed in place (a repair): the closed flag
        from the last medical block, and the type index, dropped as a
        tamper drops it. Nothing else derived reads a subchain."""
        chain = self.yellow[p]
        if chain and chain[-1].is_final:
            self.closed.add(p)
        else:
            self.closed.discard(p)
        self._typed.pop(p, None)

    def _index(self, block: IdentityBlock, owner: int | None) -> None:
        """Apply one main-chain block, in chain order, to the anchor,
        active-code and catalog-head indexes; owner is the patient whose
        identity lineage holds it, or None. An anchored patient always
        has both subchains, empty until the first access."""
        if block.catalog is not None:
            self.catalog_head = cached_hash(block)
            self._catalog = None
        if owner is None:
            return
        if block.variant == _FISCAL_CHANGE:
            self._active_codes.pop(self._anchor[owner].fiscal_code, None)
        self._anchor[owner] = block
        self._active_codes[block.fiscal_code] = owner
        self.yellow.setdefault(owner, [])
        self.red.setdefault(owner, [])

    def clone(self) -> "Ledger":
        """Snapshot copy; shares the immutable blocks, copies the containers
        and rebuilds the derived indexes from them. The cached catalog and
        the type indexes, never changed in place, are shared: the catalog
        while the rebuilt head is the same, each type index as it is, since
        the copied medical chains are the ones it was built from."""
        yellow, red = ({p: list(c) for p, c in table.items()} for table in (self.yellow, self.red))
        dup = Ledger(list(self.main_chain), yellow, red, list(self.global_audit), self.clock)
        if dup.catalog_head == self.catalog_head:
            dup._catalog = self._catalog
        dup._typed = dict(self._typed)
        return dup

    def chain(self, name: str, patient: int) -> list[b.Block]:
        """The main chain, or a patient's yellow or red subchain, by name."""
        if name == "main":
            return self.main_chain
        if name not in ("yellow", "red"):
            raise ValueError(f"unknown chain {name!r}")
        return (self.yellow if name == "yellow" else self.red).get(patient, [])

    def tamper(self, chain: str, patient: int, index: int, field_path: str, value) -> None:
        """Raw edit of one block, bypassing every check; for fault injection.

        index is the main-chain position for chain="main", else the
        1-based record/log index. The stored self_hash and the derived
        indexes are left stale, but the active catalog is resolved again,
        so a tampered catalog block changes what this replica accepts, and
        the patient's type index is dropped, so their next typed op sees
        the tampered entries.
        """
        blocks = self.chain(chain, patient)
        pos = index if chain == "main" else index - 1
        if not 0 <= pos < len(blocks):
            raise NoSuchBlock(f"no {chain} block {index} for patient {patient}")
        blocks[pos] = b.mutate_block(blocks[pos], field_path, value)
        self._catalog = None
        self._typed.pop(patient, None)

    def patients(self) -> list[int]:
        return sorted(self._anchor)

    def active_catalog(self) -> dict[str, str]:
        """Union of the catalog blocks along the prev links from the head,
        newest first. The walk runs once per catalog head and is cached;
        a raw tamper drops the cache, and the tampered block, a new
        object, is hashed again, so it changes what this replica accepts."""
        if self._catalog is None:
            catalogs = {cached_hash(blk): blk for blk in self.main_chain if blk.catalog is not None}
            out: dict[str, str] = {}
            for blk in _catalog_walk(catalogs, self.catalog_head)[0]:
                for code, label in blk.catalog.entries:
                    out.setdefault(code, label)
            self._catalog = out
        return dict(self._catalog)

    def snapshot_bytes(self) -> bytes:
        """Full deterministic serialization; equal bytes means equal state."""
        out = [b._U64_PACK(self.clock), b._U32_PACK(len(self.main_chain))]
        out.append(b._framed([b.encode_record(blk) for blk in self.main_chain]))
        for p in sorted(self.yellow):
            out.append(b._U32_PACK(p))
            for chain in (self.yellow[p], self.red[p]):
                out += (b._U32_PACK(len(chain)), b._framed([b.encode_record(blk) for blk in chain]))
        out += (b._U32_PACK(len(self.global_audit)), b._framed([b.encode_note(n) for n in self.global_audit]))
        return b"".join(out)

    def state_digest(self) -> str:
        return sha256(self.snapshot_bytes()).hex()

    # -- internal helpers ----------------------------------------------------

    def _seal(self, cls: type, fields: dict):
        """The one seal step of every append and audit note: the sealed
        value of class cls (a block kind or GlobalAuditNote) with the
        fields, all but self_hash, that its __init__ takes.

        While the network applies a committed command, _seal_share holds
        the values the first replica sealed, in seal order, and the values
        this apply has sealed so far. The k-th value sealed here is then
        the first replica's k-th value if that is of class cls and equal to
        a comparison copy in every field but self_hash: it was sealed by
        block_hash (note_hash) in this process, and equal values encode to
        equal bytes, so its seal and memo are the ones this value would
        get. The copy takes the offered self_hash, the one field left out
        of the comparison, and an empty memo; it is built by blocks._built,
        without __init__, so an identity copy skips __post_init__ and keeps
        the caller's personal_info dict, not a read-only one of its own.
        That is safe only because the copy is compared and dropped, never
        kept. Any other value, on a lone ledger, on the first replica or on
        a replica that diverged, is built with __init__ and sealed here, so
        every value a ledger keeps is built the one way.
        """
        share = self._seal_share
        if share is not None:
            offered, done = share
            hint = offered[len(done)] if len(done) < len(offered) else None
            if type(hint) is cls:
                fields["self_hash"] = hint.self_hash
                if b._built(cls, fields) == hint:
                    done.append(hint)
                    return hint
        value = cls(**fields)
        value = sealed_note(value) if cls is GlobalAuditNote else sealed(value)
        if share is not None:
            share[1].append(value)
        return value

    def _tick(self) -> int:
        t = self.clock
        self.clock += 1
        return t

    def _tip(self, chain: list[b.Block], p: int) -> Digest:
        """Hash of a subchain's last block, else of the patient's current
        identity block, the genesis anchor of both subchains."""
        return cached_hash(chain[-1] if chain else self._anchor[p])

    def _note(self, actor: str, tick: int, place: str, detail: str) -> None:
        prev = self.global_audit[-1].self_hash if self.global_audit else ZERO_DIGEST
        fields = {"actor": actor, "timestamp": tick, "place": place, "detail": detail, "prev_hash": prev}
        self.global_audit.append(self._seal(GlobalAuditNote, fields))

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
        chain, medical = self.red[p], self.yellow[p]
        latest = medical[-1] if medical else None
        log = self._seal(
            LogBlock,
            {
                "coord": BlockCoord(p, None if latest is None else latest.coord.record, len(chain) + 1),
                "event": event,
                "actor": cred.actor_id,
                "timestamp": tick,
                "place": place,
                "viewed": viewed,
                "h_main": cached_hash(self._anchor[p]),
                "h_yellow": ZERO_DIGEST if latest is None else cached_hash(latest),
                "h_prev_red": self._tip(chain, p),
            },
        )
        chain.append(log)
        return log

    def _fail(
        self, p: int | None, cred: Credential, tick: int, place: str, reason: str
    ) -> None:
        if p is not None:
            self._append_log(p, AccessEvent.FAILED_ATTEMPT, cred, tick, place, reason)
        else:
            self._note(cred.actor_id, tick, place, reason)

    def _admit(self, op: str, cred: Credential, patient: int | None, place: str) -> int:
        """Tick the clock and admit op under _ACCESS; returns the tick.

        Refuses, with one audit record, an unknown patient, then an invalid
        credential, then a role that op does not grant. A patient acts on
        their own record only under its fiscal code, and the reserved empty
        code identifies no patient, even one a store kept from before it was
        refused. patient is None for onboarding and catalog updates.
        """
        tick = self._tick()
        if patient is not None and patient not in self._anchor:
            self._note(cred.actor_id, tick, place, f"UNKNOWN_PATIENT:{op}:{patient}")
            raise UnknownPatient(f"no patient with index {patient}")
        if not cred.valid:
            self._fail(patient, cred, tick, place, f"DENIED:{op}:invalid_credential")
            raise AccessDenied(f"invalid credential for {cred.actor_id}")
        roles, own_record, action = _ACCESS[op]
        own = own_record and cred.role == Role.PATIENT and cred.actor_id != ""
        if cred.role in roles or (own and self._anchor[patient].fiscal_code == cred.actor_id):
            return tick
        self._fail(patient, cred, tick, place, f"DENIED:{op}:role_{cred.role.value}")
        raise AccessDenied(f"role {cred.role.value} may not {action}")

    def _append_main(self, owner: int | None, **fields) -> IdentityBlock:
        """Seal, link, append and index one main-chain block; it keeps a
        read-only copy of the personal_info it is given."""
        fields |= {"coord": BlockCoord(len(self.main_chain)), "prev_main": cached_hash(self.main_chain[-1])}
        block = self._seal(IdentityBlock, fields)
        self.main_chain.append(block)
        self._index(block, owner)
        return block

    def _types(self, p: int) -> TypeIndex:
        """The patient's type index, built on first use by one pass over
        their medical chain that groups its entries by record type, into
        the newest holder and the read and report pairs of each type; it
        hashes nothing. It is never changed in place: clones share it."""
        index = self._typed.get(p)
        if index is None:
            grouped: dict[str, list] = {}  # type -> [newest block, read pairs, report pairs oldest first]
            for blk in self.yellow[p]:
                coord = blk.coord
                for e in blk.entries:
                    try:
                        parts = grouped[e.record_type]
                    except KeyError:
                        parts = grouped[e.record_type] = [blk, [], []]
                    parts[0] = blk
                    parts[1].append((coord, e))
                    parts[2].append((coord, e.payload))
            index = self._typed[p] = {
                t: (newest, tuple(reads), tuple(report[::-1])) for t, (newest, reads, report) in grouped.items()
            }
        return index

    def _append_medical(self, p: int, entries: tuple[RecordEntry, ...], is_final: bool) -> MedicalBlock:
        """Seal, link and append one block to the patient's medical chain.
        If their type index is built, replace it with a copy that gives
        each of its entries' types the block as newest holder and new
        tuples of read and report pairs, each entry's pair appended to the
        reads and put first in the report; a clone sharing the old index
        keeps it, and its tuples."""
        chain = self.yellow[p]
        block = self._seal(
            MedicalBlock,
            {
                "coord": BlockCoord(p, len(chain) + 1),
                "entries": entries,
                "prev_yellow": self._tip(chain, p),
                "is_final": is_final,
            },
        )
        chain.append(block)
        index = self._typed.get(p)
        if index is not None and entries:
            index = self._typed[p] = dict(index)
            coord = block.coord
            for e in entries:
                _, reads, report = index.get(e.record_type, _NO_HOLDERS)
                index[e.record_type] = (block, reads + ((coord, e),), ((coord, e.payload),) + report)
        return block

    # -- public operations -----------------------------------------------------

    def onboard_patient(
        self, cred: Credential, fiscal_code: str, personal_info: dict[str, str], place: str = "local"
    ) -> int:
        """Register a patient; the new identity block anchors both subchains."""
        require_code(fiscal_code)
        tick = self._admit("onboard", cred, None, place)
        if fiscal_code in self._active_codes:
            self._note(cred.actor_id, tick, place, "DUPLICATE_IDENTITY:onboard")
            raise DuplicateIdentity(f"fiscal code {fiscal_code!r} already active")
        p = len(self.main_chain)
        self._append_main(p, fiscal_code=fiscal_code, personal_info=personal_info, variant=IdentityVariant.PATIENT)
        return p

    def write_record(
        self,
        cred: Credential,
        patient: int,
        entries: Sequence[tuple[str, bytes]],
        place: str = "local",
    ) -> tuple[MedicalBlock, LogBlock]:
        """Append one medical block and its write log atomically."""
        if not entries:
            raise ValueError("write_record needs at least one (record_type, payload) entry")
        tick = self._admit("write", cred, patient, place)
        if patient in self.closed:
            self._fail(patient, cred, tick, place, "CLOSED:write")
            raise SubchainClosed(f"patient {patient} subchain is closed")
        catalog = self.active_catalog()
        for record_type, _ in entries:
            if record_type not in catalog:
                self._fail(patient, cred, tick, place, f"UNKNOWN_TYPE:{record_type}")
                raise UnknownRecordType(f"record type {record_type!r} not in catalog")
        # each entry links to the newest holder of its type before this
        # write, so entries of one type in one block share their backlink
        index = self._types(patient)
        built = tuple(
            RecordEntry(t, payload, cached_hash(index[t][0]) if t in index else None)
            for t, payload in entries
        )
        medical = self._append_medical(patient, built, is_final=False)
        viewed = "WRITE:" + ",".join(t for t, _ in entries)
        log = self._append_log(patient, AccessEvent.WRITE, cred, tick, place, viewed)
        return medical, log

    def read_record(
        self, cred: Credential, patient: int, query: str, place: str = "local"
    ) -> tuple[list[tuple[BlockCoord, RecordEntry]], LogBlock]:
        """Return matching entries; the read itself appends a log block.

        query is a record type, or "latest" for the newest non-final
        block's entries. Works on closed patients. A typed read copies the
        read pairs of its type from the patient's type index into a list
        the caller owns, one C-level copy, and hashes only what its log
        block links.
        """
        tick = self._admit("read", cred, patient, place)
        matches: list[tuple[BlockCoord, RecordEntry]] = []
        if query == "latest":
            for blk in reversed(self.yellow[patient]):
                if not blk.is_final:
                    matches = [(blk.coord, e) for e in blk.entries]
                    break
        else:
            matches = list(self._types(patient).get(query, _NO_HOLDERS)[1])
        log = self._append_log(
            patient, AccessEvent.READ, cred, tick, place, f"READ:{query}"
        )
        return matches, log

    def close_subchain(self, cred: Credential, patient: int, place: str = "local") -> MedicalBlock:
        """Append the final marker; afterwards only reads (and their logs) succeed."""
        tick = self._admit("close", cred, patient, place)
        if patient in self.closed:
            self._fail(patient, cred, tick, place, "CLOSED:close")
            raise SubchainClosed(f"patient {patient} already closed")
        final = self._append_medical(patient, (), is_final=True)
        self.closed.add(patient)
        self._append_log(patient, AccessEvent.WRITE, cred, tick, place, "FINAL")
        return final

    def change_fiscal_code(
        self, cred: Credential, patient: int, new_code: str, place: str = "local"
    ) -> IdentityBlock:
        """Append a fiscal-change identity block; later cross-hashes use it.

        Nothing already appended is touched, so the chain never ruptures.
        """
        require_code(new_code)
        tick = self._admit("change_code", cred, patient, place)
        old = self._anchor[patient]
        if new_code == old.fiscal_code:
            self._fail(patient, cred, tick, place, "NO_CHANGE:change_code")
            raise NoChange(f"fiscal code for patient {patient} is already {new_code!r}")
        holder = self._active_codes.get(new_code)
        if holder is not None and holder != patient:
            self._fail(patient, cred, tick, place, "DUPLICATE_IDENTITY:change_code")
            raise DuplicateIdentity(f"fiscal code {new_code!r} already active for patient {holder}")
        block = self._append_main(
            patient,
            fiscal_code=new_code,
            personal_info=old.personal_info,
            variant=IdentityVariant.FISCAL_CHANGE,
            fiscal_change=FiscalChange(new_code=new_code, old_code=old.fiscal_code, prev_identity=cached_hash(old)),
        )
        self._append_log(patient, AccessEvent.WRITE, cred, tick, place, "FISCAL_CHANGE")
        return block

    def update_catalog(
        self, cred: Credential, new_entries: Sequence[tuple[str, str]], place: str = "local"
    ) -> IdentityBlock:
        """Append a catalog block linking back to the current catalog head."""
        if not new_entries:
            raise ValueError("catalog update needs at least one (code, label) entry")
        fresh = [require_code(c, catalog=True) for c, _ in new_entries]
        tick = self._admit("catalog", cred, None, place)
        known = self.active_catalog()
        for code in fresh:
            if code in known or fresh.count(code) > 1:
                self._note(cred.actor_id, tick, place, f"DUPLICATE_CODE:catalog:{code}")
                raise DuplicateCatalogCode(f"catalog code {code!r} already defined")
        return self._append_main(
            None,
            fiscal_code="",
            personal_info={},
            variant=IdentityVariant.CATALOG,
            catalog=CatalogUpdate(tuple((code, label) for code, label in new_entries), self.catalog_head),
        )

    def assemble_report(
        self, cred: Credential, patient: int, record_type: str, place: str = "local"
    ) -> list[tuple[BlockCoord, bytes]]:
        """History of one record type: every entry of it in the patient's
        medical chain, newest first, with its block's coordinate. One log
        block total.

        The report copies the type's report pairs from the patient's type
        index into a list the caller owns, one C-level copy. On every chain
        verify_tree accepts, these are exactly the entries the typed
        backlinks reach from the newest one; a tampered link hides none of
        them.
        """
        tick = self._admit("report", cred, patient, place)
        report = list(self._types(patient).get(record_type, _NO_HOLDERS)[2])
        self._append_log(
            patient, AccessEvent.READ, cred, tick, place, f"REPORT:{record_type}"
        )
        return report


# --- tree facts: pure functions over the chains ------------------------------------


def _main_facts(
    main: list[IdentityBlock], main_hashes: list[Digest]
) -> tuple[list[int | None], dict[Digest, IdentityBlock], Digest, list[Violation]]:
    """One pass over the main chain, resolved from the blocks alone.

    Returns the patient whose identity lineage (onboarding block, then
    fiscal changes) holds each block, or None; the catalog blocks by
    hash; the hash of the last one (the zero digest if there is none);
    and the lineage violations.
    """
    owners: list[int | None] = []
    owner_by_hash: dict[Digest, int] = {}
    catalogs: dict[Digest, IdentityBlock] = {}
    last_catalog = ZERO_DIGEST
    violations: list[Violation] = []
    for i, blk in enumerate(main):
        h = main_hashes[i]
        owner = None
        if blk.variant == _PATIENT:
            owner = blk.coord.patient
        elif blk.variant == _FISCAL_CHANGE and blk.fiscal_change is not None:
            # one without a payload owns nothing; verify_tree's variant check reports it
            owner = owner_by_hash.get(blk.fiscal_change.prev_identity)
            if owner is None:
                violations.append(
                    Violation("MAIN", str(i), "identity_lineage", "prev_identity unresolved")
                )
        if owner is not None:
            owner_by_hash[h] = owner
        owners.append(owner)
        if blk.catalog is not None:
            catalogs[h] = blk
            last_catalog = h
    return owners, catalogs, last_catalog, violations


def _catalog_walk(
    catalogs: dict[Digest, IdentityBlock], head: Digest
) -> tuple[list[IdentityBlock], Digest]:
    """The catalog blocks from head back along the prev_catalog links,
    newest first, and the digest the walk stopped at: the zero digest past
    the genesis catalog, else a link to no catalog block. A walk longer
    than the catalog (a cycle) stops at one block more than it holds."""
    walk: list[IdentityBlock] = []
    cursor = head
    while cursor != ZERO_DIGEST and cursor in catalogs and len(walk) <= len(catalogs):
        walk.append(catalogs[cursor])
        cursor = walk[-1].catalog.prev_catalog or ZERO_DIGEST
    return walk, cursor


# --- whole-tree verification ---------------------------------------------------


def verify_tree(ledger: Ledger, hash_of: Callable[[b.Block], Digest] | None = None) -> list[Violation]:
    """Recheck every hash, link and cross-hash in the tree.

    hash_of gives the hash each block is checked against; by default it is
    block_hash, which recomputes from the fields and never reads a memo. A
    verified store load passes the memos it has just set from the record
    bytes it read (store.load_checked). Returns violations as data; an
    intact tree yields an empty list.
    """
    hash_of = hash_of or block_hash  # the module's binding at call time, not at definition
    v: list[Violation] = []
    main = ledger.main_chain
    if not main:
        return [Violation("MAIN", "-", "structure", "empty main chain")]
    main_hashes = list(map(hash_of, main))

    # main chain
    if main[0].variant != IdentityVariant.SYSTEM_GENESIS:
        v.append(Violation("MAIN", "0", "genesis", "first block is not the system genesis"))
    if main[0].prev_main != ZERO_DIGEST:
        v.append(Violation("MAIN", "0", "link", "genesis prev_main is not the zero digest"))
    if main[0].catalog is None or not main[0].catalog.entries:
        v.append(Violation("MAIN", "0", "genesis", "genesis carries no catalog"))
    broken = False
    # a block that passes costs its checks alone: coordinates compare field
    # by field, and a coordinate label is built only for a violation
    for i, blk in enumerate(main):
        if blk.self_hash != main_hashes[i]:
            v.append(Violation("MAIN", str(i), "self_hash", "stored hash does not recompute"))
        c = blk.coord
        if c.patient != i or c.record is not None or c.log is not None:
            v.append(Violation("MAIN", str(i), "coord", f"coordinate {c.label()} at position {i}"))
        if i > 0:
            # once a link breaks, every later block sits on a broken suffix
            if broken:
                v.append(Violation("MAIN", str(i), "ancestry", "follows a broken link"))
            elif blk.prev_main != main_hashes[i - 1]:
                v.append(Violation("MAIN", str(i), "link", "prev_main does not match previous block"))
                broken = True
        if blk.variant == IdentityVariant.FISCAL_CHANGE:
            fc = blk.fiscal_change
            if fc is None or fc.old_code == fc.new_code:
                v.append(Violation("MAIN", str(i), "variant_payload", "bad fiscal-change payload"))
        if blk.variant == IdentityVariant.CATALOG and (blk.catalog is None or not blk.catalog.entries):
            v.append(Violation("MAIN", str(i), "variant_payload", "catalog block without entries"))
    owners, catalogs, last_catalog, lineage_violations = _main_facts(main, main_hashes)
    if catalogs and ledger.catalog_head != last_catalog:
        v.append(Violation("MAIN", "-", "catalog_head", "head does not match last catalog block"))
    stop = _catalog_walk(catalogs, last_catalog)[1]
    if stop != ZERO_DIGEST and stop not in catalogs:
        v.append(Violation("MAIN", "-", "catalog_chain", f"dangling catalog link {stop.hex()[:12]}"))

    v += lineage_violations
    lineages: dict[int, set[Digest]] = {}
    for p, h in zip(owners, main_hashes):
        if p is not None:
            lineages.setdefault(p, set()).add(h)

    for p in sorted(ledger.yellow):
        lineage_hashes = lineages.get(p, set())  # empty for no patient: nothing can match, keep checking
        if not lineage_hashes:
            v.append(Violation("YELLOW", str(p), "structure", "subchain for unknown patient"))
        yellow = ledger.yellow[p]
        yellow_hashes = list(map(hash_of, yellow))

        broken = False
        newest_of_type: dict[str, Digest] = {}  # typed-backlink target of the next block
        for j, blk in enumerate(yellow):
            if blk.self_hash != yellow_hashes[j]:
                v.append(Violation("YELLOW", f"{p}.{j + 1}", "self_hash", "stored hash does not recompute"))
            c = blk.coord
            if c.patient != p or c.record != j + 1 or c.log is not None:
                v.append(Violation("YELLOW", f"{p}.{j + 1}", "coord", f"coordinate {c.label()}"))
            if broken:
                v.append(Violation("YELLOW", f"{p}.{j + 1}", "ancestry", "follows a broken link"))
            elif j == 0:
                if blk.prev_yellow not in lineage_hashes:
                    detail = "first block not anchored to an identity block"
                    v.append(Violation("YELLOW", f"{p}.{j + 1}", "link", detail))
                    broken = True
            elif blk.prev_yellow != yellow_hashes[j - 1]:
                v.append(Violation("YELLOW", f"{p}.{j + 1}", "link", "prev_yellow does not match previous block"))
                broken = True
            if blk.is_final:
                if blk.entries:
                    v.append(Violation("YELLOW", f"{p}.{j + 1}", "final", "final block carries entries"))
                if j != len(yellow) - 1:
                    v.append(Violation("YELLOW", f"{p}.{j + 1}", "final", "final block is not last"))
            for e in blk.entries:
                if e.prev_same_type != newest_of_type.get(e.record_type):
                    detail = f"bad typed backlink for {e.record_type!r}"
                    v.append(Violation("YELLOW", f"{p}.{j + 1}", "entry_backlink", detail))
            for e in blk.entries:
                newest_of_type[e.record_type] = yellow_hashes[j]
        is_closed = bool(yellow) and yellow[-1].is_final
        if (p in ledger.closed) != is_closed:
            v.append(Violation("YELLOW", str(p), "closed_flag", "closed set disagrees with final marker"))

        red = ledger.red[p]
        red_hashes = list(map(hash_of, red))
        broken = False
        for k, blk in enumerate(red):
            c = blk.coord
            if blk.self_hash != red_hashes[k]:
                v.append(Violation("RED", c.label(), "self_hash", "stored hash does not recompute"))
            if c.patient != p or c.log != k + 1:
                v.append(Violation("RED", c.label(), "coord", f"expected log index {p}.*.{k + 1}"))
            if broken:
                v.append(Violation("RED", c.label(), "ancestry", "follows a broken link"))
            elif k == 0:
                if blk.h_prev_red not in lineage_hashes:
                    detail = "first log not anchored to an identity block"
                    v.append(Violation("RED", c.label(), "cross_prev_red", detail))
                    broken = True
            elif blk.h_prev_red != red_hashes[k - 1]:
                v.append(Violation("RED", c.label(), "cross_prev_red", "h_prev_red does not match previous log"))
                broken = True
            if blk.h_main not in lineage_hashes:
                v.append(Violation("RED", c.label(), "cross_main", "h_main matches no identity block of this patient"))
            if c.record is None:
                if blk.h_yellow != ZERO_DIGEST:
                    v.append(Violation("RED", c.label(), "cross_yellow", "no record index but h_yellow set"))
            elif not 1 <= c.record <= len(yellow):
                v.append(Violation("RED", c.label(), "cross_yellow", f"record index {c.record} out of range"))
            elif blk.h_yellow != yellow_hashes[c.record - 1]:
                v.append(Violation("RED", c.label(), "cross_yellow", "h_yellow does not match the referenced block"))

    # ledger-level audit note chain
    prev = ZERO_DIGEST
    for n, note in enumerate(ledger.global_audit):
        if note.prev_hash != prev:
            v.append(Violation("AUDIT", str(n), "link", "prev_hash does not match previous note"))
        if note.self_hash != b.note_hash(note):
            v.append(Violation("AUDIT", str(n), "self_hash", "stored hash does not recompute"))
        prev = note.self_hash
    return v
