"""Replay of every exact output recorded in qbench/reference.json.

The file holds the sha256 of each symbolic ``verify`` and ``expand``
output that the benchmark checks, timestamp masked, at degrees 10-32:
138 commands.  The goldens in tests/golden/ stop at degree 16, so this
keeps "same bytes" a test fact up to degree 32.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import mask_timestamp

REFERENCE = Path(__file__).resolve().parent.parent / "qbench" / "reference.json"
RECORDED = json.loads(REFERENCE.read_text(encoding="utf-8"))
ENTRIES = sorted(RECORDED["sha256"].items())


def test_reference_masks_the_timestamp_and_holds_every_command():
    assert RECORDED["masked"] == "timestamp"
    assert len(ENTRIES) == 138


@pytest.mark.parametrize("command,digest", ENTRIES, ids=[c for c, _ in ENTRIES])
def test_output_bytes_match_the_reference(invoke, command, digest):
    code, out = invoke(command.split(" "))
    assert code == 0
    assert hashlib.sha256(mask_timestamp(out).encode("utf-8")).hexdigest() == digest
