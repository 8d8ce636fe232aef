"""The pinned files of tests/golden: each is exactly what its producer in
helpers.GOLDEN_FILES gives, and the directory holds nothing else."""

import pytest

from helpers import GOLDEN, GOLDEN_FILES


@pytest.mark.parametrize("name", list(GOLDEN_FILES))
def test_golden_file_matches_its_producer(name):
    assert (GOLDEN / name).read_bytes() == GOLDEN_FILES[name]().encode()


def test_golden_directory_holds_the_produced_files_and_their_inputs():
    held = {path.name for path in GOLDEN.iterdir()} - {"__pycache__"}
    assert held == {*GOLDEN_FILES, "lifecycle.script", "regenerate.py"}
