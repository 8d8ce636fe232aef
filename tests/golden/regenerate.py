"""Regenerate the golden vectors in this directory.

Run from the repository root:  PYTHONPATH=src python3 tests/golden/regenerate.py
Only rerun deliberately; the whole point of the vectors is to freeze the
wire formats. tree_checks.txt pins the integrity checker and the ledger's
derived indexes: regenerate it only from a tree whose checker is trusted,
and never to make a refactor pass. store_image.txt pins the directory
store's bytes, `meta` included: regenerate it only from a tree whose store
encoder is trusted. decode_outcomes.txt pins every decoder error message
and offset: regenerate it only from a tree whose decoders are trusted, and
never to make a decoder rewrite pass. encode_outcomes.txt pins what
encode_record, encode_note and mutate_block raise for values the encoding
cannot hold: regenerate it only from a tree whose encoders are trusted,
and never to make an encoder rewrite pass. encode_pair_outcomes.txt pins,
as one digest per record shape, which of two such fields raises first.
cost_counts.txt pins the cached_hash, block_hash and SHA-256 calls of the
ops of helpers.cost_count_lines: a change that moves one says why.
scenario_digests.txt pins the outcome of each of the 900 seeded network
scenarios of tests/scenarios.py, one digest a line; the same lines, per
seed and without the prefix, come from `python tests/scenarios.py SRC SEED
300` for comparing two checkouts.
"""

import sys
import tempfile
from pathlib import Path

from medledger.ledger import Ledger
from medledger.blocks import encode_record
from medledger.merkle import build_tree, prove, serialize_proof
from medledger.network import SimConfig, run_scenario
from medledger.store import persist

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))  # the tests' helpers

from helpers import (  # noqa: E402
    cost_count_lines,
    criterion7_ledger,
    criterion7_ledger_with_note,
    decode_outcome_digests,
    encode_outcome_lines,
    encode_pair_outcome_digests,
    store_image,
    tree_check_cases,
)
from scenarios import golden_lines as scenario_golden_lines  # noqa: E402

LIFECYCLE_CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"))


def write_proof_vectors() -> None:
    leaves = [b"L1", b"L2", b"L3", b"L4", b"L5"]
    tree = build_tree(leaves)
    lines = [f"root {tree.root.hex()}"]
    for i in range(len(leaves)):
        lines.append(f"proof {i} {serialize_proof(prove(tree, i)).hex()}")
    (HERE / "proof_5leaf.txt").write_text("\n".join(lines) + "\n")


def write_genesis_vector() -> None:
    ledger = Ledger.genesis(LIFECYCLE_CATALOG)
    (HERE / "genesis_block.hex").write_text(encode_record(ledger.main_chain[0]).hex() + "\n")


def write_lifecycle_transcript() -> None:
    script = (HERE / "lifecycle.script").read_text()
    transcript = run_scenario(SimConfig(node_count=5, seed=7), script, LIFECYCLE_CATALOG)
    (HERE / "lifecycle_transcript.txt").write_text(transcript)


def write_tree_checks() -> None:
    lines = [line for line, _, _ in tree_check_cases(criterion7_ledger(42))]
    (HERE / "tree_checks.txt").write_text("\n".join(lines) + "\n")


def write_store_image() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        persist(criterion7_ledger(42), tmp)
        lines = store_image(tmp)
    (HERE / "store_image.txt").write_text("\n".join(lines) + "\n")


def write_decode_outcomes() -> None:
    lines = decode_outcome_digests(criterion7_ledger_with_note(42))
    (HERE / "decode_outcomes.txt").write_text("\n".join(lines) + "\n")


def write_encode_outcomes() -> None:
    lines = encode_outcome_lines(criterion7_ledger_with_note(42))
    (HERE / "encode_outcomes.txt").write_text("\n".join(lines) + "\n")


def write_encode_pair_outcomes() -> None:
    lines = encode_pair_outcome_digests(criterion7_ledger_with_note(42))
    (HERE / "encode_pair_outcomes.txt").write_text("\n".join(lines) + "\n")


def write_cost_counts() -> None:
    (HERE / "cost_counts.txt").write_text("\n".join(cost_count_lines()) + "\n")


def write_scenario_digests() -> None:
    (HERE / "scenario_digests.txt").write_text("\n".join(scenario_golden_lines()) + "\n")


if __name__ == "__main__":
    write_proof_vectors()
    write_genesis_vector()
    write_lifecycle_transcript()
    write_tree_checks()
    write_store_image()
    write_decode_outcomes()
    write_encode_outcomes()
    write_encode_pair_outcomes()
    write_cost_counts()
    write_scenario_digests()
    print("golden vectors regenerated")
