"""Per-layer cost of sealing and hashing blocks, for two checkouts to compare.

Builds, in memory, the two set-ups of the benchmark's workloads:

- long_history: 4 patients, each with 1200 writes of one entry and a read
  after every second write (1200 medical and 1800 log blocks each);
- replicated_sim: 200 patients with two writes each, every 25th closed,
  cloned onto the replicas of a 15-node Network.

It then times, over REPS samples (each the mean of a batch of calls):

- sealed            one call per block kind, on a block of the set-up: the
                    seal of the ledger's append paths (resealing a sealed
                    block sets the hash it holds)
- block_hash_all    block_hash over every block of long_history
- verify_tree       default verify_tree (recomputing every hash) of long_history
- propose_write     a 15-replica Network.propose of a one-entry write
- propose_read      a 15-replica Network.propose of a read

and counts the blocks.block_hash and merkle.sha256 calls of each, and the
tracemalloc size of the long_history ledger. It prints one JSON object.

    python tests/bench_encode.py SRC [REPS]

SRC is the `src` directory of the checkout to import medledger from; REPS
(at least 2, default 15) is the number of samples per timing.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import tracemalloc

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])

import pytest  # noqa: E402

from helpers import count_calls  # noqa: E402
from medledger import blocks, merkle  # noqa: E402
from medledger.ledger import Credential, Ledger, Role, verify_tree  # noqa: E402
from medledger.network import Command, Network, SimConfig  # noqa: E402

CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG"), ("mri", "MRI"))
TYPES = ("blood_test", "xray", "ecg")
AUTHORITY = Credential("registry", Role.AUTHORITY)
DOCTOR = Credential("drbianchi", Role.DOCTOR)
NODES = 15


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


def all_blocks(ledger: Ledger) -> list:
    out = list(ledger.main_chain)
    for p in ledger.patients():
        out += ledger.yellow[p] + ledger.red[p]
    return out


def sampled(fn, reps: int, batch: int) -> dict[str, float]:
    """p25/p50/p75 over reps samples of the mean time of batch calls, in ms."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) * 1000 / batch)
    return quartiles(samples, 5)


def quartiles(samples: list[float], digits: int) -> dict[str, float]:
    """p25/p50/p75 of two or more samples, rounded to digits."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"p25": round(q1, digits), "p50": round(median, digits), "p75": round(q3, digits)}


def counted(fn) -> dict[str, int]:
    """The blocks.block_hash and merkle.sha256 calls of one call of fn."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        hashes = count_calls(monkeypatch, blocks.block_hash)
        sha256_calls = count_calls(monkeypatch, merkle.sha256)
        fn()
    return {"blocks.block_hash": hashes[0], "merkle.sha256": sha256_calls[0]}


def network(base: Ledger) -> Network:
    net = Network(SimConfig(NODES, seed=1), CATALOG)
    for node in net.nodes.values():
        node.replica = base.clone()
    return net


def bench(reps: int) -> dict:
    tracemalloc.start()
    long_history = build(4, 1200)
    long_history_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    history_blocks = all_blocks(long_history)
    by_kind = {
        "identity": long_history.main_chain[1],
        "medical": long_history.yellow[1][-1],
        "log": long_history.red[1][-1],
    }
    net = network(build(200, 2, close_every=25))
    proposer = iter(net.approved * 10**6)
    write = Command("write", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "3"), ("entry", "xray:v1")))
    read = Command("read", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "3"), ("query", "latest")))

    ops = {f"sealed_{kind}": (lambda blk=blk: blocks.sealed(blk), 2000) for kind, blk in by_kind.items()}
    ops["block_hash_all"] = (lambda: [blocks.block_hash(blk) for blk in history_blocks], 1)
    ops["verify_tree"] = (lambda: verify_tree(long_history), 1)
    ops["propose_write"] = (lambda: net.propose(next(proposer), write), 20)
    ops["propose_read"] = (lambda: net.propose(next(proposer), read), 20)
    return {
        "reps": reps,
        "long_history_blocks": len(history_blocks),
        "long_history_tracemalloc_mb": round(long_history_bytes / 1e6, 3),
        "ms": {name: sampled(fn, reps, batch) for name, (fn, batch) in ops.items()},
        "calls": {name: counted(fn) for name, (fn, _) in ops.items()},
    }


if __name__ == "__main__":
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    if reps < 2:
        print("usage: python tests/bench_encode.py SRC [REPS]; REPS must be at least 2", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(bench(reps), indent=2))
