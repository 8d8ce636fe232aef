"""Regenerate the golden vectors in this directory.

Each file but lifecycle.script, an input, is written from its producer in
helpers.GOLDEN_FILES, the one that tier-1 compares the file with.

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
cost_counts.txt pins the cached_hash, block_hash, decode_record and SHA-256
calls of the ops of helpers.cost_count_lines: a change that moves one says why.
scenario_digests.txt pins the outcome of each of the 900 seeded network
scenarios of tests/scenarios.py, one digest a line; the same lines, per
seed and without the prefix, come from `python tests/scenarios.py SRC SEED
300` for comparing two checkouts.
"""

import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))  # the tests' helpers

from helpers import GOLDEN_FILES  # noqa: E402

if __name__ == "__main__":
    for name, produce in GOLDEN_FILES.items():
        (HERE / name).write_bytes(produce().encode())
    print("golden vectors regenerated")
