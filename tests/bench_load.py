"""Per-layer cost of a verified store load, for two checkouts to compare.

Builds a seeded store of PATIENTS patients, each with six writes and
three reads, in a temporary directory, then times, over REPS repetitions:

- store.load        read, decode, hash each record, verify_tree
- store.load_raw    read and decode only
- decode_record     over every stored block record, already in memory
- verify_tree       over the memos a verified load left

and counts the merkle.sha256 and decode_record calls of one store.load.
It prints one JSON object: the median and quartiles of each timing in ms,
the counts, and the size of the store.

    python tests/bench_load.py SRC [PATIENTS] [REPS]

SRC is the `src` directory of the checkout to import medledger from; REPS
(at least 2, default 15) is the number of timed repetitions.
"""

from __future__ import annotations

import json
import random
import struct
import sys
import tempfile
import time
from operator import attrgetter
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])

import pytest  # noqa: E402

from bench_encode import quartiles  # noqa: E402
from helpers import count_calls  # noqa: E402
from medledger import blocks, merkle, store  # noqa: E402
from medledger.ledger import Credential, Ledger, Role, verify_tree  # noqa: E402

CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG"))
AUTHORITY = Credential("registry", Role.AUTHORITY)
DOCTOR = Credential("drbianchi", Role.DOCTOR)
WRITES, READS = 6, 3


def build(patients: int, seed: int = 1) -> Ledger:
    rng = random.Random(seed)
    types = [code for code, _ in CATALOG]
    ledger = Ledger.genesis(CATALOG)
    for n in range(patients):
        p = ledger.onboard_patient(AUTHORITY, f"FC{n:06d}", {"name": f"n{rng.randrange(10**6)}"})
        for _ in range(WRITES):
            entries = [(rng.choice(types), f"v{rng.randrange(1000)}".encode()) for _ in range(rng.randint(1, 2))]
            ledger.write_record(DOCTOR, p, entries)
        for _ in range(READS):
            ledger.read_record(DOCTOR, p, rng.choice(types + ["latest"]))
    return ledger


def block_records(directory: Path) -> list[bytes]:
    """Every record of the store's block files, unframed."""
    records = []
    for path in sorted(directory.glob("*.chain")):
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            (n,) = struct.unpack_from(">I", data, pos)
            records.append(data[pos + 4 : pos + 4 + n])
            pos += 4 + n
    return records


def timed(fn, reps: int) -> dict[str, float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000)
    return quartiles(samples, 2)


def calls_per_load(directory: Path) -> dict[str, int]:
    """The merkle.sha256 and decode_record calls of one store.load."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        sha256_calls = count_calls(monkeypatch, merkle.sha256)
        decoded = count_calls(monkeypatch, blocks.decode_record)
        store.load(directory)
    return {"merkle.sha256": sha256_calls[0], "blocks.decode_record": decoded[0]}


def bench(patients: int, reps: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store.persist(build(patients), directory)
        records = block_records(directory)
        decode = blocks.decode_record
        loaded = store.load(directory)
        memo = attrgetter("hash_memo")
        return {
            "patients": patients,
            "files": sum(1 for _ in directory.iterdir()),
            "bytes": sum(path.stat().st_size for path in directory.iterdir()),
            "block_records": len(records),
            "reps": reps,
            "ms": {
                "store.load": timed(lambda: store.load(directory), reps),
                "store.load_raw": timed(lambda: store.load_raw(directory), reps),
                "decode_record_all": timed(lambda: [decode(r) for r in records], reps),
                "verify_tree_memos": timed(lambda: verify_tree(loaded, memo), reps),
            },
            "per_load": calls_per_load(directory),
        }


if __name__ == "__main__":
    patients = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    reps = int(sys.argv[3]) if len(sys.argv) > 3 else 15
    if reps < 2:
        print("usage: python tests/bench_load.py SRC [PATIENTS] [REPS]; REPS must be at least 2", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(bench(patients, reps), indent=2))
