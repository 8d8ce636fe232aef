"""Shared test machinery: seeded op-sequence driver and per-field mutation
generators. Kept independent of the assertions that use them."""

from __future__ import annotations

import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import pytest

from medledger import blocks, cli, merkle, store
from medledger.blocks import (
    BlockCoord,
    CatalogUpdate,
    GlobalAuditNote,
    IdentityBlock,
    IdentityVariant,
    LogBlock,
    MedicalBlock,
    RecordEntry,
    block_hash,
    cached_hash,
    decode_note,
    decode_record,
    encode_note,
    encode_record,
    mutate_block,
    note_hash,
    sealed,
)
from medledger.errors import AccessDenied, LedgerError
from medledger.ledger import Credential, Ledger, Role, Violation, verify_tree
from medledger.merkle import ZERO_DIGEST
from medledger.network import Command, Network, RepairEntry, SimConfig, repair_majority, repair_replicas, run_scenario

from scenarios import golden_lines as scenario_golden_lines

CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG"))

AUTHORITY = Credential("registry", Role.AUTHORITY)
DOCTOR = Credential("drbianchi", Role.DOCTOR)
INVALID = Credential("mallory", Role.DOCTOR, valid=False)


def patient_cred(ledger: Ledger, p: int) -> Credential:
    return Credential(ledger._anchor[p].fiscal_code, Role.PATIENT)


def fresh_ledger() -> Ledger:
    return Ledger.genesis(CATALOG)


def every_block(ledger: Ledger) -> list:
    """Every block of the ledger, in the order persist writes them: the
    main chain, then the medical and the log chain of each patient."""
    return [*ledger.main_chain, *(blk for p in sorted(ledger.yellow) for blk in ledger.yellow[p] + ledger.red[p])]


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


def empty_code_ledger() -> Ledger:
    """A ledger whose patient 1 holds the reserved empty fiscal code and one
    xray record, as a store kept from before onboarding refused that code
    loads it: the identity block is sealed and the tree verifies."""
    genesis = fresh_ledger().main_chain[0]
    identity = sealed(
        IdentityBlock(BlockCoord(1), "", {"name": "n"}, cached_hash(genesis), IdentityVariant.PATIENT)
    )
    ledger = Ledger([genesis, identity], {}, {}, [], clock=1)
    ledger.write_record(DOCTOR, 1, [("xray", b"secret")])
    return ledger


def count_calls(monkeypatch, original) -> list[int]:
    """Count calls to a medledger function through every binding of it in
    the loaded medledger modules, or to a method of a medledger class; the
    count is the list's one element."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    owner, _, method = original.__qualname__.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(sys.modules[original.__module__], owner), method, counting)
        return calls
    for name, module in list(sys.modules.items()):
        if name == "medledger" or name.startswith("medledger."):
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, counting)
    return calls


def long_history_ledger(writes: int = 1200) -> Ledger:
    """One patient of the long_history benchmark's size by default: 1200
    one-entry writes of three types and a read after every second write."""
    rng = random.Random(1)
    ledger = Ledger.genesis(CATALOG)
    p = ledger.onboard_patient(AUTHORITY, "FC00001", {"name": "n"})
    for w in range(writes):
        ledger.write_record(DOCTOR, p, [(rng.choice(CATALOG)[0], f"v{w}".encode())])
        if w % 2 == 1:
            ledger.read_record(DOCTOR, p, "latest")
    return ledger


def forged_log_replicas(history: Ledger) -> dict[str, Ledger]:
    """Three clones of the history, the third with the middle access log of
    patient 1 forged raw: one block to repair on a chain of any length."""
    replicas = {nid: history.clone() for nid in ("n1", "n2", "n3")}
    logs = replicas["n3"].red[1]
    logs[len(logs) // 2] = blocks.mutate_block(logs[len(logs) // 2], "actor", "forged")
    return replicas


def tampered_clones(base: Ledger, count: int, tampers: list[tuple[str, int, int, str]]) -> dict[str, Ledger]:
    """count clones of base, each tamper (chain, patient, 0-based position,
    field) applied raw to its own clone, the last clones first: the first
    replica, which repair scans against, is honest."""
    replicas = {f"n{k}": base.clone() for k in range(1, count + 1)}
    for replica, (chain, p, pos, field) in zip(reversed(replicas.values()), tampers):
        held = replica.chain(chain, p)
        held[pos] = blocks.mutate_block(held[pos], field, "forged")
    return replicas


def build_store(patients: int, seed: int = 1) -> Ledger:
    """The seeded store of the load benchmarks: onboard each patient, then
    six writes of 1-2 entries and three reads."""
    rng = random.Random(seed)
    types = tuple(code for code, _ in CATALOG)
    ledger = Ledger.genesis(CATALOG)
    for n in range(patients):
        p = ledger.onboard_patient(AUTHORITY, f"FC{n:06d}", {"name": f"n{rng.randrange(10**6)}"})
        for _ in range(6):
            entries = [(rng.choice(types), f"v{rng.randrange(1000)}".encode()) for _ in range(rng.randint(1, 2))]
            ledger.write_record(DOCTOR, p, entries)
        for _ in range(3):
            ledger.read_record(DOCTOR, p, rng.choice(types + ("latest",)))
    return ledger


def forged_log_dirs(ledger: Ledger, directory: Path) -> list[str]:
    """forged_log_replicas of the ledger persisted to directory/n1..n3, in
    path order: the third, last in the order audit-repair loads them, holds
    the forged log."""
    dirs = []
    for nid, replica in forged_log_replicas(ledger).items():
        store.persist(replica, directory / nid)
        dirs.append(str(directory / nid))
    return dirs


def quiet_main(argv: list[str]) -> int:
    """cli.main with its standard output dropped."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _command(cred: Credential, verb: str, **args: str) -> Command:
    return Command(verb, cred.actor_id, cred.role, cred.valid, tuple(args.items()))


def counted(fn, *originals, fresh=tuple) -> dict[str, int]:
    """The calls of each original, keyed "module.name" ("module.Class.name"
    for a method), in one call of fn(*fresh()); fresh() itself is not
    counted."""
    args = fresh()
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = {f"{f.__module__.rsplit('.', 1)[-1]}.{f.__qualname__}": count_calls(monkeypatch, f) for f in originals}
        fn(*args)
    return {name: calls[0] for name, calls in counts.items()}


def rebuilt(ledger: Ledger) -> Ledger:
    """A Ledger rebuilt from copies of the ledger's chains, as a load or a
    repair leaves one: same blocks, hash memos set, no type index built."""
    yellow, red = ({p: list(c) for p, c in table.items()} for table in (ledger.yellow, ledger.red))
    return Ledger(list(ledger.main_chain), yellow, red, list(ledger.global_audit), ledger.clock)


def cost_count_lines() -> list[str]:
    """One golden line "OP COUNTER CALLS" per op and counter: the
    cached_hash, block_hash and merkle.sha256 calls of a write, a typed
    read, a latest read and a report on patient 1 of long_history_ledger,
    each on a fresh clone; of a report, a typed read and a write on a
    fresh Ledger rebuilt from its chains, its first typed op; of a repair
    of its forged_log_replicas; and of a Network.propose of a write, a
    typed read, a report and a write that the catalog refuses, in that
    order, on one 3-node and one 15-node network. Then the same counts and
    the Ledger._recompute_derived calls of one repair of 15 clones of
    build_store(200), one with patient 1's second medical block forged and
    one with patient 2's fourth log forged; the decode_record and
    merkle.sha256 calls of one verified store.load of build_store(200), and
    of one CLI audit-repair over its forged_log_dirs; and those calls and
    the block_hash calls of one CLI write on a fresh persist of it. Counts
    only: they are exact on any machine."""
    counters = (blocks.cached_hash, blocks.block_hash, merkle.sha256)
    history = long_history_ledger()
    ops = {
        "write": lambda led: led.write_record(DOCTOR, 1, [("xray", b"v")]),
        "read": lambda led: led.read_record(DOCTOR, 1, "xray"),
        "read_latest": lambda led: led.read_record(DOCTOR, 1, "latest"),
        "report": lambda led: led.assemble_report(DOCTOR, 1, "xray"),
    }
    counts = {
        f"long_history.{name}": counted(op, *counters, fresh=lambda: (history.clone(),)) for name, op in ops.items()
    }
    counts |= {
        f"long_history.{name}_rebuilt": counted(ops[name], *counters, fresh=lambda: (rebuilt(history),))
        for name in ("report", "read", "write")
    }
    proposals = {
        "write": _command(DOCTOR, "write", patient="1", entry="xray:v"),
        "read": _command(DOCTOR, "read", patient="1", query="xray"),
        "report": _command(DOCTOR, "report", patient="1", type="xray"),
        "refused_write": _command(DOCTOR, "write", patient="1", entry="unknown:v"),
    }
    counts["long_history.repair"] = counted(repair_replicas, *counters, fresh=lambda: (forged_log_replicas(history),))
    for nodes in (3, 15):
        net = Network(SimConfig(nodes, seed=1), CATALOG)
        net.propose("n1", _command(AUTHORITY, "onboard", code="FC00001"))
        counts |= {
            f"network{nodes}.propose_{name}": counted(net.propose, *counters, fresh=lambda c=command: ("n1", c))
            for name, command in proposals.items()
        }
    store_ledger = build_store(200)
    forged = [("yellow", 1, 1, "entry.0.payload"), ("red", 2, 3, "actor")]
    counts["network15.repair"] = counted(
        repair_replicas, *counters, Ledger._recompute_derived, fresh=lambda: (tampered_clones(store_ledger, 15, forged),)
    )
    with tempfile.TemporaryDirectory() as tmp:
        dirs = forged_log_dirs(store_ledger, Path(tmp))
        store_counters = (blocks.decode_record, merkle.sha256)
        counts["store200.load"] = counted(store.load, *store_counters, fresh=lambda: (dirs[0],))
        repair = ["audit-repair", "--dirs", *dirs]
        counts["store200.audit_repair"] = counted(quiet_main, *store_counters, fresh=lambda: (repair,))
        write = ["write", "--dir", f"{tmp}/w", "--actor", "drb", "--role", "doctor", "--patient", "1"]
        write += ["--entry", "xray:v"]

        def persisted() -> tuple[list[str]]:
            store.persist(store_ledger, f"{tmp}/w")
            return (write,)

        counts["store200.cli_write"] = counted(quiet_main, *store_counters, blocks.block_hash, fresh=persisted)
    return [f"{name} {counter} {calls}" for name, by_counter in counts.items() for counter, calls in by_counter.items()]


def every_position_repair_oracle(replicas: dict[str, Ledger]) -> list[RepairEntry]:
    """network.repair_replicas as it voted at every position of a chain
    that differs anywhere: the same vote, hash check, clock rule and report
    order, with no scan for the positions where replicas hold different
    block objects. The audit notes are voted on last, as one more chain
    whose versions must recompute with note_hash. The replicas the main
    chain vote changed are reindexed before the subchain votes, and a
    replica that then anchors no patient of a subchain takes none of its
    blocks."""

    def chain(replica: Ledger, name: str, patient: int | None) -> list:
        return replica.global_audit if name == "audit" else replica.chain(name, patient)

    total = len(replicas)
    patients = sorted({p for r in replicas.values() for p in r.yellow})
    chains = [("main", None)] + [(name, p) for p in patients for name in ("yellow", "red")] + [("audit", None)]
    report: list[RepairEntry] = []
    touched: set[str] = set()
    for name, patient in chains:
        lists = {nid: chain(r, name, patient) for nid, r in replicas.items()}
        first = next(iter(lists.values()))
        if all(held == first for held in lists.values()):
            continue
        for pos in range(max(map(len, lists.values()))):
            versions: list[tuple[object, list[str]]] = []  # None: the replica lacks it
            for nid, held in lists.items():
                blk = held[pos] if pos < len(held) else None
                holders = next((h for v, h in versions if v == blk), None)
                if holders is None:
                    versions.append((blk, [nid]))
                else:
                    holders.append(nid)
            if len(versions) == 1:
                continue
            coord = str(pos) if patient is None else f"{patient}.{pos + 1}"
            good = next((blk for blk, holders in versions if repair_majority(len(holders), total)), None)
            if good is None or good.self_hash != (note_hash if name == "audit" else block_hash)(good):
                report.append(RepairEntry("*", name, coord, "unrepairable"))
                continue
            for blk, holders in versions:
                if blk is good:
                    continue
                for nid in holders:
                    held = lists[nid]
                    if name in ("yellow", "red") and patient not in replicas[nid].patients():
                        report.append(RepairEntry(nid, name, coord, "unrepairable"))
                        continue
                    if pos < len(held):
                        held[pos] = good
                    elif pos == len(held):
                        held.append(good)
                    else:
                        report.append(RepairEntry(nid, name, coord, "unrepairable"))
                        continue
                    touched.add(nid)
                    report.append(RepairEntry(nid, name, coord, "replaced"))
        if name == "main":
            for nid in touched:
                replicas[nid]._recompute_derived()
    clocks = [r.clock for r in replicas.values()]
    clock = next((c for c in clocks if repair_majority(clocks.count(c), total)), None)
    for nid in touched:
        if clock is not None:
            replicas[nid].clock = max(replicas[nid].clock, clock)
        replicas[nid]._recompute_derived()
    return report


def scan_report_oracle(ledger: Ledger, p: int, record_type: str) -> list[tuple[BlockCoord, bytes]]:
    """Brute force: linear scan of the medical chain, reversed."""
    found: list[tuple[BlockCoord, bytes]] = []
    for blk in ledger.yellow.get(p, []):
        for e in blk.entries:
            if e.record_type == record_type:
                found.append((blk.coord, e.payload))
    return list(reversed(found))


def per_block_read_oracle(ledger: Ledger, p: int, query: str) -> list[tuple[BlockCoord, RecordEntry]]:
    """read_record's matches as one comprehension per block computed them."""
    matches: list[tuple[BlockCoord, RecordEntry]] = []
    if query == "latest":
        for blk in reversed(ledger.yellow.get(p, [])):
            if not blk.is_final:
                matches = [(blk.coord, e) for e in blk.entries]
                break
    else:
        for blk in ledger.yellow.get(p, []):
            matches += [(blk.coord, e) for e in blk.entries if e.record_type == query]
    return matches


def grouped_scan(chain: list[MedicalBlock]) -> dict[str, tuple[int, list, list]]:
    """Each record type of a medical chain -> the three parts of a type
    index as a fresh pass builds them, by identity: the id of the newest
    holder block, the ids in each (coord, entry) read pair, oldest first,
    and in each (coord, payload) report pair, newest first. An index that
    kept a replaced block, or a pair of one, never equals it."""
    grouped: dict[str, list[tuple[MedicalBlock, RecordEntry]]] = {}
    for blk in chain:
        for e in blk.entries:
            grouped.setdefault(e.record_type, []).append((blk, e))
    return {
        t: (
            id(holders[-1][0]),
            [(id(blk.coord), id(e)) for blk, e in holders],
            [(id(blk.coord), id(e.payload)) for blk, e in reversed(holders)],
        )
        for t, holders in grouped.items()
    }


def stale_type_indexes(ledger: Ledger) -> list[int]:
    """The patients whose built type index differs from a fresh grouping
    scan of their medical chain, in any of its three parts."""
    return [
        p
        for p, index in ledger._typed.items()
        if {
            t: (id(newest), [tuple(map(id, pair)) for pair in reads], [tuple(map(id, pair)) for pair in report])
            for t, (newest, reads, report) in index.items()
        }
        != grouped_scan(ledger.yellow.get(p, []))
    ]


def newest_with_type(chain: list[MedicalBlock], record_type: str) -> MedicalBlock | None:
    """The newest block of a medical chain holding an entry of this type,
    as a write once found its typed backlink: a newest-first scan that
    tests each block with a generator and any()."""
    return next(
        (blk for blk in reversed(chain) if any(e.record_type == record_type for e in blk.entries)),
        None,
    )


HISTORY_TYPES = ("blood_test", "xray", "ecg")


def tampered_history(rng: random.Random) -> tuple[Ledger, int]:
    """One patient whose medical chain holds 2-8 blocks of 1-3 entries,
    types often repeated within a block, then 0-3 raw tampers of an
    entry's prev_same_type, record_type or payload.

    A link is tampered to None, the zero digest, or the hash of an older
    block, the same block or a newer one."""
    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC000001", {"name": "n"})
    for _ in range(rng.randint(2, 8)):
        entries = [
            (rng.choice(HISTORY_TYPES[:2]), f"v{rng.randrange(100)}".encode()) for _ in range(rng.randint(1, 3))
        ]
        ledger.write_record(DOCTOR, p, entries)
    chain = ledger.yellow[p]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(chain))
        i = rng.randrange(len(chain[k].entries))
        field = rng.choice(["prev_same_type"] * 4 + ["record_type", "payload"])
        if field == "prev_same_type":
            older, newer = rng.choice(chain[: k + 1]), rng.choice(chain[k:])
            value = rng.choice([None, ZERO_DIGEST, cached_hash(older), cached_hash(newer)])
        elif field == "record_type":
            value = rng.choice(HISTORY_TYPES)
        else:
            value = f"w{rng.randrange(100)}".encode()
        ledger.tamper("yellow", p, k + 1, f"entry.{i}.{field}", value)
    return ledger, p


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


def tree_check_cases(ledger: Ledger) -> Iterator[tuple[str, list[Violation], Ledger]]:
    """One golden line per single-field mutation of every block of the
    ledger, with the violation list it digests and the rebuilt ledger.

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
            yield f"{chain} {p} {index} {field_name} {digest}", violations, rebuilt


def store_image(directory) -> list[str]:
    """One `name sha256` line per file of a store directory, sorted by name."""
    return [
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in sorted(Path(directory).iterdir())
    ]


SUBSTITUTES = (0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF)


def record_shapes(ledger: Ledger) -> list[tuple[str, object]]:
    """One value of each stored shape the ledger holds, with its name: the
    first genesis, patient, fiscal-change and catalog identity block,
    medical block with a prev_same_type entry, final medical block, log
    block and global audit note."""
    held = every_block(ledger)
    medical = [blk for blk in held if isinstance(blk, MedicalBlock)]
    by_variant = {}
    for blk in ledger.main_chain:
        by_variant.setdefault(blk.variant, blk)
    picks = [
        ("genesis", by_variant[IdentityVariant.SYSTEM_GENESIS]),
        ("patient", by_variant[IdentityVariant.PATIENT]),
        ("fiscal_change", by_variant[IdentityVariant.FISCAL_CHANGE]),
        ("catalog", by_variant[IdentityVariant.CATALOG]),
        ("medical_prev_same_type", next(b for b in medical if any(e.prev_same_type for e in b.entries))),
        ("medical_final", next(b for b in medical if b.is_final)),
        ("log", next(b for b in held if isinstance(b, LogBlock))),
    ]
    return picks + [("audit_note", ledger.global_audit[0])]


def decode_shapes(ledger: Ledger) -> list[tuple[str, bytes, object]]:
    """The stored record of each of record_shapes, with its name and decoder."""
    return [
        (name, encode_note(value), decode_note)
        if isinstance(value, GlobalAuditNote)
        else (name, encode_record(value), decode_record)
        for name, value in record_shapes(ledger)
    ]


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


# the values each field is given in turn, by the kind of the field, with
# the name a golden line shows for each
ENCODE_VALUES = {
    "int": (("-1", -1), ("2**32", 2**32), ("2**64", 2**64)),
    "digest": (("digest31", bytes(31)), ("digest33", bytes(33))),
    "str": (("None", None), ("bytes", b"text"), ("int", 7), ("surrogate", "\udcff")),
    "payload": (("str", "text"),),
}


def _encode_fields(value) -> list[tuple[str, str, object]]:
    """(field, kind of field, edit) for every field the encoding of value
    writes; edit(v) is (the value with v in that field, the mutate_block
    path and value that make the same edit, or None for an audit note)."""

    def top(name: str):
        return lambda v: (replace(value, **{name: v}), (name, v))

    def nested(name: str, attr: str):
        inner = getattr(value, name)
        return lambda v: top(name)(replace(inner, **{attr: v}))

    if isinstance(value, GlobalAuditNote):
        return [
            (name, kind, lambda v, name=name: (replace(value, **{name: v}), None))
            for name, kind in (("actor", "str"), ("timestamp", "int"), ("place", "str"), ("detail", "str"),
                               ("prev_hash", "digest"), ("self_hash", "digest"))
        ]  # fmt: skip
    out = [(f"coord.{a}", "int", nested("coord", a)) for a in ("patient", "record", "log")]
    if isinstance(value, IdentityBlock):
        key, val = next(iter(sorted(value.personal_info.items())), ("name", "x"))
        out += [
            ("fiscal_code", "str", top("fiscal_code")),
            ("personal_info.key", "str", lambda v: top("personal_info")({v: val})),
            ("personal_info.value", "str", lambda v: (replace(value, personal_info={key: v}), (f"info.{key}", v))),
            ("variant", "int", top("variant")),
        ]
        if value.fiscal_change is not None:
            out += [(f"fiscal_change.{a}", k, nested("fiscal_change", a))
                    for a, k in (("new_code", "str"), ("old_code", "str"), ("prev_identity", "digest"))]  # fmt: skip
        if value.catalog is not None:
            code, label = value.catalog.entries[0]
            rest = value.catalog.entries[1:]
            out += [
                ("catalog.code", "str", lambda v: top("catalog")(replace(value.catalog, entries=((v, label),) + rest))),
                ("catalog.label", "str", lambda v: top("catalog")(replace(value.catalog, entries=((code, v),) + rest))),
                ("catalog.prev_catalog", "digest", nested("catalog", "prev_catalog")),
            ]
        out += [("prev_main", "digest", top("prev_main"))]
    elif isinstance(value, MedicalBlock):
        for attr, kind in (("record_type", "str"), ("payload", "payload"), ("prev_same_type", "digest")):
            if value.entries:
                edit = (lambda v, attr=attr: (
                    replace(value, entries=(replace(value.entries[0], **{attr: v}),) + value.entries[1:]),
                    (f"entry.0.{attr}", v),
                ))  # fmt: skip
                out.append((f"entry.0.{attr}", kind, edit))
        out += [("prev_yellow", "digest", top("prev_yellow"))]
    else:
        out += [(name, kind, top(name)) for name, kind in (
            ("event", "int"), ("actor", "str"), ("timestamp", "int"), ("place", "str"), ("viewed", "str"),
            ("h_main", "digest"), ("h_yellow", "digest"), ("h_prev_red", "digest"))]  # fmt: skip
    return out + [("self_hash", "digest", top("self_hash"))]


def _outcome(call) -> str:
    """`ok`, or what call raises, as _described."""
    try:
        call()
        return "ok"
    except Exception as exc:  # every class is part of the pinned contract
        return _described(exc)


def _described(exc: BaseException) -> str:
    """The exception's class; for one raised `from None` in place of
    another, that one in parentheses; else for an exact ValueError,
    medledger's own, its message."""
    text = type(exc).__name__
    if exc.__suppress_context__ and exc.__context__ is not None:
        return f"{text}({_described(exc.__context__)})"
    return f"{text}: {exc}" if type(exc) is ValueError else text


def encode_outcome_lines(ledger: Ledger) -> list[str]:
    """One line per field of each of record_shapes and value of ENCODE_VALUES:
    `shape field value encode=<outcome> mutate=<outcome>`, the outcomes of
    encode_record (encode_note) and of mutate_block; a note has no
    mutate_block path, shown as `-`."""
    lines = []
    for shape, value in record_shapes(ledger):
        encode = encode_note if isinstance(value, GlobalAuditNote) else encode_record
        for field, kind, edit in _encode_fields(value):
            for name, v in ENCODE_VALUES[kind]:
                edited, path = edit(v)
                mutated = "-" if path is None else _outcome(lambda: mutate_block(value, *path))
                lines.append(f"{shape} {field} {name} encode={_outcome(lambda: encode(edited))} mutate={mutated}")
    return lines


def encode_pair_outcome_digests(ledger: Ledger) -> list[str]:
    """One `shape sha256` line per shape of record_shapes: the digest of the
    outcome of encode_record (encode_note) on the value with two of its
    fields given values of ENCODE_VALUES, for every pair of fields, in
    encoding order, and of values. Of two bad fields, one raises first."""
    lines = []
    for shape, value in record_shapes(ledger):
        encode = encode_note if isinstance(value, GlobalAuditNote) else encode_record
        outcomes = []
        for i, (field, kind, edit) in enumerate(_encode_fields(value)):
            for name, v in ENCODE_VALUES[kind]:
                edited = edit(v)[0]
                for field2, kind2, edit2 in _encode_fields(edited)[i + 1 :]:
                    for name2, v2 in ENCODE_VALUES[kind2]:
                        twice = edit2(v2)[0]
                        outcomes.append(f"{field} {name} {field2} {name2} {_outcome(lambda: encode(twice))}")
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        lines.append(f"{shape} {digest}")
    return lines


# --- the pinned files of tests/golden --------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
LIFECYCLE_CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"))


def _text(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _proof_vectors() -> str:
    leaves = [b"L1", b"L2", b"L3", b"L4", b"L5"]
    tree = merkle.build_tree(leaves)
    proofs = (f"proof {i} {merkle.serialize_proof(merkle.prove(tree, i)).hex()}" for i in range(len(leaves)))
    return _text([f"root {tree.root.hex()}", *proofs])


def _store_image() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        store.persist(criterion7_ledger(42), tmp)
        return _text(store_image(tmp))


# The one producer of each file of tests/golden but its input
# lifecycle.script: file name -> its exact text. regenerate.py writes each
# file from here, and test_golden compares each file with it byte for byte.
GOLDEN_FILES = {
    # the Merkle root and the proof wire format of five leaves
    "proof_5leaf.txt": _proof_vectors,
    # the wire bytes of the genesis record
    "genesis_block.hex": lambda: _text([encode_record(Ledger.genesis(LIFECYCLE_CATALOG).main_chain[0]).hex()]),
    # the 5-node transcript of lifecycle.script, byte for byte
    "lifecycle_transcript.txt": lambda: run_scenario(
        SimConfig(node_count=5, seed=7), (GOLDEN / "lifecycle.script").read_text(), LIFECYCLE_CATALOG
    ),
    # the violations and rebuilt indexes of every single-field mutation of
    # every block of the criterion-7 ledger (tree_check_cases)
    "tree_checks.txt": lambda: _text(line for line, _, _ in tree_check_cases(criterion7_ledger(42))),
    # the directory format, meta included, file by file
    "store_image.txt": _store_image,
    # every truncation and single-byte substitution of one record of each
    # shape decodes or fails as the pinned decoders did, with the same
    # ValueError message and offset
    "decode_outcomes.txt": lambda: _text(decode_outcome_digests(criterion7_ledger_with_note(42))),
    # every field of each shape, given a value the encoding cannot hold,
    # raises from encode_record/encode_note and mutate_block as the pinned
    # encoders did: the same classes and medledger's own messages
    "encode_outcomes.txt": lambda: _text(encode_outcome_lines(criterion7_ledger_with_note(42))),
    # given two such fields, the encoders raise what the pinned encoders
    # raised: the fields are read in the same order
    "encode_pair_outcomes.txt": lambda: _text(encode_pair_outcome_digests(criterion7_ledger_with_note(42))),
    # the exact hash, SHA-256 and decode calls of each op of
    # cost_count_lines: a change that moves a count shows as a diff here
    "cost_counts.txt": lambda: _text(cost_count_lines()),
    # the differential of tests/scenarios.py as a gate: seeds 1 to 3, 300
    # scenarios each, end with the pinned transcript or declared error
    "scenario_digests.txt": lambda: _text(scenario_golden_lines()),
}
