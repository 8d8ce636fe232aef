"""Per-op cost of the Ledger's access paths, for two checkouts to compare.

Builds, in memory, the ledgers of two of the benchmark's workloads:

- long_history: 4 patients, each with 1200 writes of one entry and a read
  after every second write (1200 medical and 1800 log blocks each);
- replicated_sim: 200 patients with two writes each, every 25th closed.

On patient 1 of each it times, over REPS samples (each the mean of a batch
of calls on a fresh clone of the ledger):

- read_typed    read_record of one record type
- read_latest   read_record of "latest"
- report        assemble_report of one record type
- write         write_record of one entry

and counts the blocks.cached_hash and blocks.block_hash calls of one call
of each. It prints one JSON object.

    python tests/bench_access.py SRC [REPS]

SRC is the `src` directory of the checkout to import medledger from; REPS
(at least 2, default 15) is the number of samples per op.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])

import pytest  # noqa: E402

from bench_encode import DOCTOR, build, quartiles  # noqa: E402
from helpers import count_calls  # noqa: E402
from medledger import blocks  # noqa: E402
from medledger.ledger import Ledger  # noqa: E402

PATIENT, TYPE = 1, "xray"
OPS = {
    "read_typed": (lambda led: led.read_record(DOCTOR, PATIENT, TYPE), 50),
    "read_latest": (lambda led: led.read_record(DOCTOR, PATIENT, "latest"), 200),
    "report": (lambda led: led.assemble_report(DOCTOR, PATIENT, TYPE), 50),
    "write": (lambda led: led.write_record(DOCTOR, PATIENT, [(TYPE, b"v")]), 200),
}


def sampled(base: Ledger, op, reps: int, batch: int) -> dict[str, float]:
    """p25/p50/p75 over reps samples of the mean time of batch calls of op
    on a clone of base, in ms."""
    samples = []
    for _ in range(reps):
        ledger = base.clone()
        start = time.perf_counter()
        for _ in range(batch):
            op(ledger)
        samples.append((time.perf_counter() - start) * 1000 / batch)
    return quartiles(samples, 5)


def counted(base: Ledger, op) -> dict[str, int]:
    """The blocks.cached_hash and blocks.block_hash calls of one call of op."""
    ledger = base.clone()
    with pytest.MonkeyPatch.context() as monkeypatch:
        cached = count_calls(monkeypatch, blocks.cached_hash)
        hashes = count_calls(monkeypatch, blocks.block_hash)
        op(ledger)
    return {"blocks.cached_hash": cached[0], "blocks.block_hash": hashes[0]}


def bench(reps: int) -> dict:
    ledgers = {"long_history": build(4, 1200), "replicated_sim": build(200, 2, close_every=25)}
    return {
        "reps": reps,
        "medical_blocks": {name: len(led.yellow[PATIENT]) for name, led in ledgers.items()},
        "ms": {
            f"{name}.{op_name}": sampled(led, op, reps, batch)
            for name, led in ledgers.items()
            for op_name, (op, batch) in OPS.items()
        },
        "calls": {
            f"{name}.{op_name}": counted(led, op) for name, led in ledgers.items() for op_name, (op, _) in OPS.items()
        },
    }


if __name__ == "__main__":
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    if reps < 2:
        print("usage: python tests/bench_access.py SRC [REPS]; REPS must be at least 2", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(bench(reps), indent=2))
