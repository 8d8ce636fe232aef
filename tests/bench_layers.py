"""Per-layer costs of medledger, for two checkouts to compare.

    python tests/bench_layers.py SRC [REPS] [PATIENTS] [SECTION ...]

SRC is the `src` directory of the checkout to import medledger from; with
no SRC, or one that holds no medledger package, the script prints its
usage line and exits 2. REPS (at least 2, default 15) is the number of
samples per timing, each the mean time of a batch of calls; PATIENTS (at
least 1, default 200) sizes the store of the load and cli_repair sections. Leading integers, written
as str writes them, are REPS, then PATIENTS; the words after them name
the sections to run, all five by default. One section prints its JSON
object alone, several print one object keyed by section.

load (the figures of BENCH_decode.json) persists a seeded store of
PATIENTS patients, each with six writes of 1-2 entries and three reads.
It counts the merkle.sha256 and decode_record calls of one store.load
and the collections the cyclic collector makes in each generation during
one (collections_per_load), then times store.load (read, decode, hash
each record, verify_tree), store.load_raw (read and decode only),
decode_record over every stored block record already in memory,
verify_tree over the memos a verified load left, and two in-process
--porcelain CLI ops on the store, the path perfbench's clinic_cli times:
cli_verify, and cli_read, a doctor's read of patient 1's latest record,
which commits a log each call.

encode (BENCH_encode.json) and access (BENCH_access.json) build two
in-memory ledgers: long_history, 4 patients each with 1200 one-entry
writes and a read after every second write; and replicated_sim, 200
patients with two writes each, every 25th closed. encode times a seal of
each block kind, block_hash over every block of long_history, its
default verify_tree (recomputing every hash), and a Network.propose of a
write and of a read on 15 replicas (propose_write, propose_read), on 3
(propose_write_3, propose_read_3) and on 5 (propose_write_5,
propose_read_5), and of a report and of an onboard with an invalid
credential, which seals one audit note, on 15 (propose_report,
propose_refused_onboard). It counts their block_hash and merkle.sha256
calls and the __init__ calls of the three block kinds and of the audit
note: a commit builds each value it appends once, on the first replica,
and each other replica checks it against a copy built without __init__
(Ledger._seal). It also reports the tracemalloc size of long_history.
access times read_record of one type and of "latest", assemble_report,
write_record of a type already written and write_record of mri, a catalog
type never written, on patient 1 of each ledger, each sample on a fresh
clone, and counts their cached_hash and block_hash calls. A write of mri
is timed once per clone: after it, mri is the newest block's type.
read_typed_after_write times one typed read per clone, right after an
untimed write of that type: the write replaced the patient's type index
the clone shared with its source, and the read uses the new one.
report_rebuilt times one report per sample on a Ledger rebuilt from the
chains, as a load or a repair leaves one; the rebuild is untimed, and the
report is the first typed op, so it builds the patient's type index.

repair (BENCH_repair_scan.json) times network.repair_replicas on 3
clones of long_history with one seeded raw tamper (a medical payload or
a log's actor) and on 15 clones of replicated_sim with two, each tamper
on its own clone, the last first; each sample makes its clones untimed.
It counts the block_hash and merkle.sha256 calls of one repair, and its
Ledger._recompute_derived calls: the replicas it reindexed whole.

cli_repair (BENCH_audit_repair_share.json) persists three replica
directories of the load section's store, the third with the middle log
of patient 1 forged raw, and times one in-process CLI audit-repair over
them; each sample first writes the three directories again, untimed. It
counts the merkle.sha256 and decode_record calls of one audit-repair and
its collections per generation (collections).

The collection counts are gc.get_stats() deltas from a gc.collect(): they
hold for one Python build only, so no golden file pins them.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from operator import attrgetter
from pathlib import Path

USAGE = "usage: python tests/bench_layers.py SRC [REPS] [PATIENTS] [SECTION ...]; REPS must be at least 2, PATIENTS at least 1"

if __name__ == "__main__":
    if len(sys.argv) < 2 or not (Path(sys.argv[1]) / "medledger").is_dir():
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, sys.argv[1])

from helpers import AUTHORITY, DOCTOR, build_store, counted, forged_log_dirs, quiet_main, rebuilt  # noqa: E402
from helpers import tampered_clones  # noqa: E402
from helpers import CATALOG as STORE_CATALOG  # noqa: E402
from medledger import blocks, merkle, store  # noqa: E402
from medledger.ledger import Ledger, verify_tree  # noqa: E402
from medledger.network import Command, Network, SimConfig, repair_replicas  # noqa: E402

CATALOG = STORE_CATALOG + (("mri", "MRI"),)
TYPES = tuple(code for code, _ in STORE_CATALOG)
NODES = 15
PATIENT, TYPE, NEW_TYPE = 1, "xray", "mri"
# the classes whose __init__ calls encode counts: what an append builds and seals
INITIALISED = (blocks.IdentityBlock, blocks.MedicalBlock, blocks.LogBlock, blocks.GlobalAuditNote)


def collections(fn, fresh=tuple) -> dict[str, int]:
    """The collections the cyclic collector starts in each generation
    during one call of fn(*fresh()), as gc.get_stats() counts them from a
    gc.collect() made after fresh(); exact only for one Python build."""
    args = fresh()
    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    fn(*args)
    return {f"gen{g}": gen["collections"] - n for g, (gen, n) in enumerate(zip(gc.get_stats(), before))}


def sampled(fn, reps: int, batch: int = 1, fresh=tuple, digits: int = 5) -> dict[str, float]:
    """p25/p50/p75 over reps samples of the mean time in ms of batch calls
    of fn(*args), rounded to digits; each sample first makes its own args
    with fresh(), untimed."""
    samples = []
    for _ in range(reps):
        args = fresh()
        start = time.perf_counter()
        for _ in range(batch):
            fn(*args)
        samples.append((time.perf_counter() - start) * 1000 / batch)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"p25": round(q1, digits), "p50": round(median, digits), "p75": round(q3, digits)}


# -- load ----------------------------------------------------------------------


def block_records(directory: Path) -> list[bytes]:
    """Every record of the store's block files, unframed as the store
    unframes them."""
    records = []
    for path in sorted(directory.glob("*.chain")):
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            record, pos = blocks._blob_at(data, pos)
            records.append(record)
    return records


def load_section(reps: int, patients: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store.persist(build_store(patients), directory)
        records = block_records(directory)
        decode = blocks.decode_record
        loaded = store.load(directory)
        memo = attrgetter("hash_memo")
        verify = ["--porcelain", "verify", "--dir", str(directory)]
        read = ["--porcelain", "read", "--dir", str(directory), "--actor", DOCTOR.actor_id, "--role", "doctor"]
        read += ["--patient", str(PATIENT), "--query", "latest"]
        timings = {
            "store.load": lambda: store.load(directory),
            "store.load_raw": lambda: store.load_raw(directory),
            "decode_record_all": lambda: [decode(r) for r in records],
            "verify_tree_memos": lambda: verify_tree(loaded, memo),
            "cli_verify": lambda: quiet_main(verify),
            "cli_read": lambda: quiet_main(read),  # last: each read appends a log to the store
        }
        per_load = counted(lambda: store.load(directory), merkle.sha256, blocks.decode_record)
        per_load_collections = collections(lambda: store.load(directory))
        if quiet_main(verify) != 0:
            raise RuntimeError("verify of the load section's store failed")
        return {
            "patients": patients,
            "files": sum(1 for _ in directory.iterdir()),
            "bytes": sum(path.stat().st_size for path in directory.iterdir()),
            "block_records": len(records),
            "reps": reps,
            "ms": {name: sampled(fn, reps, digits=2) for name, fn in timings.items()},
            "per_load": per_load,
            "collections_per_load": per_load_collections,
        }


# -- encode and access -----------------------------------------------------------


def build(patients: int, writes: int, close_every: int = 0, seed: int = 1) -> Ledger:
    """Onboard each patient, write, read "latest" after every second write,
    and close every close_every-th patient."""
    rng = random.Random(seed)
    ledger = Ledger.genesis(CATALOG)
    for i in range(patients):
        p = ledger.onboard_patient(AUTHORITY, f"FC{i:06d}", {"name": f"n{rng.randrange(10**6)}"})
        for w in range(writes):
            ledger.write_record(DOCTOR, p, [(rng.choice(TYPES), f"v{rng.randrange(10**6)}".encode())])
            if w % 2 == 1:
                ledger.read_record(DOCTOR, p, "latest")
        if close_every and p % close_every == 0:
            ledger.close_subchain(AUTHORITY, p)
    return ledger


def encode_section(reps: int, patients: int) -> dict:
    tracemalloc.start()
    long_history = build(4, 1200)
    long_history_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    history_blocks = list(long_history.main_chain)
    for p in long_history.patients():
        history_blocks += long_history.yellow[p] + long_history.red[p]
    by_kind = {
        "identity": long_history.main_chain[1],
        "medical": long_history.yellow[1][-1],
        "log": long_history.red[1][-1],
    }
    base = build(200, 2, close_every=25)
    write = Command("write", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "3"), ("entry", "xray:v1")))
    read = Command("read", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "3"), ("query", "latest")))
    report = Command("report", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "3"), ("type", "xray")))
    refused_onboard = Command("onboard", "eve", AUTHORITY.role, False, (("code", "FC999999"),))

    ops = {f"sealed_{kind}": (lambda blk=blk: blocks.sealed(blk), 2000) for kind, blk in by_kind.items()}
    ops["block_hash_all"] = (lambda: [blocks.block_hash(blk) for blk in history_blocks], 1)
    ops["verify_tree"] = (lambda: verify_tree(long_history), 1)
    # the 15-node keys keep their names, so BENCH_encode.json stays reproducible
    for nodes, suffix in ((NODES, ""), (3, "_3"), (5, "_5")):
        net = Network(SimConfig(nodes, seed=1), CATALOG)
        for node in net.nodes.values():
            node.replica = base.clone()
        proposer = itertools.cycle(net.approved)  # round robin, as every sample shares it
        commands = {"write": write, "read": read}
        if nodes == NODES:
            commands |= {"report": report, "refused_onboard": refused_onboard}
        for name, command in commands.items():
            ops[f"propose_{name}{suffix}"] = (lambda n=net, p=proposer, c=command: n.propose(next(p), c), 20)
    counters = (blocks.block_hash, merkle.sha256, *(cls.__init__ for cls in INITIALISED))
    return {
        "reps": reps,
        "long_history_blocks": len(history_blocks),
        "long_history_tracemalloc_mb": round(long_history_bytes / 1e6, 3),
        "ms": {name: sampled(fn, reps, batch) for name, (fn, batch) in ops.items()},
        "calls": {name: counted(fn, *counters) for name, (fn, _) in ops.items()},
    }


def read_typed(led: Ledger):
    return led.read_record(DOCTOR, PATIENT, TYPE)


def write(led: Ledger):
    return led.write_record(DOCTOR, PATIENT, [(TYPE, b"v")])


def report(led: Ledger):
    return led.assemble_report(DOCTOR, PATIENT, TYPE)


def written_clone(led: Ledger) -> Ledger:
    dup = led.clone()
    write(dup)
    return dup


# op -> (the timed call, calls per sample, the untimed copy of the ledger each sample runs on)
ACCESS_OPS = {
    "read_typed": (read_typed, 50, Ledger.clone),
    "read_latest": (lambda led: led.read_record(DOCTOR, PATIENT, "latest"), 200, Ledger.clone),
    "report": (report, 50, Ledger.clone),
    "write": (write, 200, Ledger.clone),
    "write_new_type": (lambda led: led.write_record(DOCTOR, PATIENT, [(NEW_TYPE, b"v")]), 1, Ledger.clone),
    "read_typed_after_write": (read_typed, 1, written_clone),
    "report_rebuilt": (report, 1, rebuilt),
}


def access_section(reps: int, patients: int) -> dict:
    ledgers = {"long_history": build(4, 1200), "replicated_sim": build(200, 2, close_every=25)}
    runs = {
        f"{name}.{op_name}": (op, batch, lambda led=led, copy=copy: (copy(led),))
        for name, led in ledgers.items()
        for op_name, (op, batch, copy) in ACCESS_OPS.items()
    }
    return {
        "reps": reps,
        "medical_blocks": {name: len(led.yellow[PATIENT]) for name, led in ledgers.items()},
        "ms": {name: sampled(op, reps, batch, fresh) for name, (op, batch, fresh) in runs.items()},
        "calls": {
            name: counted(op, blocks.cached_hash, blocks.block_hash, fresh=fresh) for name, (op, _, fresh) in runs.items()
        },
    }


# -- repair ----------------------------------------------------------------------


def forged(ledger: Ledger, rng: random.Random) -> tuple[str, int, int, str]:
    """A raw tamper of one seeded block: (chain, patient, 0-based position,
    field), a medical block's first payload or a log block's actor."""
    p = rng.choice(ledger.patients())
    if rng.random() < 0.5:
        return "yellow", p, rng.randrange(len(ledger.yellow[p])), "entry.0.payload"
    return "red", p, rng.randrange(len(ledger.red[p])), "actor"


def repair_section(reps: int, patients: int) -> dict:
    rng = random.Random(1)
    long_history, sim = build(4, 1200), build(200, 2, close_every=25)
    # case -> the ledger cloned, the number of clones and the tampers
    setups = {
        "long_history": (long_history, 3, [forged(long_history, rng)]),
        "replicated_sim": (sim, NODES, [forged(sim, rng) for _ in range(2)]),
    }
    fresh = {name: lambda setup=setup: (tampered_clones(*setup),) for name, setup in setups.items()}
    return {
        "reps": reps,
        "tampers": {
            name: [f"{chain} {p}.{pos + 1} {field}" for chain, p, pos, field in tampers]
            for name, (_, _, tampers) in setups.items()
        },
        "ms": {name: sampled(repair_replicas, reps, fresh=make) for name, make in fresh.items()},
        "calls": {
            name: counted(repair_replicas, blocks.block_hash, merkle.sha256, Ledger._recompute_derived, fresh=make)
            for name, make in fresh.items()
        },
    }


# -- cli_repair ------------------------------------------------------------------


def cli_repair_section(reps: int, patients: int) -> dict:
    ledger = build_store(patients)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = forged_log_dirs(ledger, Path(tmp))
        argv = ["audit-repair", "--dirs", *dirs]

        def forged() -> tuple:
            forged_log_dirs(ledger, Path(tmp))  # each file written whole, the forged log back on n3
            return (argv,)

        if quiet_main(argv) != 0:
            raise RuntimeError("audit-repair of the forged replicas failed")
        return {
            "patients": patients,
            "reps": reps,
            "ms": {"audit_repair": sampled(quiet_main, reps, fresh=forged, digits=2)},
            "calls": counted(quiet_main, merkle.sha256, blocks.decode_record, fresh=forged),
            "collections": collections(quiet_main, fresh=forged),
        }


SECTIONS = {
    "load": load_section,
    "encode": encode_section,
    "access": access_section,
    "repair": repair_section,
    "cli_repair": cli_repair_section,
}


def main(argv: list[str]) -> int:
    """argv: the arguments after SRC."""
    numbers: list[int] = []
    for arg in argv[:2]:  # an integer only as str writes one: any other word names a section
        try:
            numbers.append(blocks.canonical_int(arg))
        except ValueError:
            break
    reps, patients = numbers + [15, 200][len(numbers) :]
    sections = argv[len(numbers) :] or list(SECTIONS)
    if reps < 2 or patients < 1 or not set(sections) <= SECTIONS.keys():
        print(f"{USAGE}, and each SECTION one of {', '.join(SECTIONS)}", file=sys.stderr)
        return 2
    results = {name: SECTIONS[name](reps, patients) for name in sections}
    print(json.dumps(results[sections[0]] if len(sections) == 1 else results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
