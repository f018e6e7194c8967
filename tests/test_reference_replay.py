"""Replay of every exact output recorded in qbench/reference.json.

The file holds the sha256 of each symbolic ``verify`` and ``expand``
output that the benchmark checks, timestamp masked, at degrees 10-32:
138 commands.  The goldens in tests/golden/ stop at degree 16, so this
keeps "same bytes" a test fact up to degree 32.  The file is only read.
DEEP pins, the same way, outputs at the degrees the file does not reach.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import mask_timestamp

REFERENCE = Path(__file__).resolve().parent.parent / "qbench" / "reference.json"
RECORDED = json.loads(REFERENCE.read_text(encoding="utf-8"))
ENTRIES = sorted(RECORDED["sha256"].items())
DEEP = {
    "verify --engine symbolic --degree 48":
        "89eeb1c276125bdc596d726ef3e1c9aea40d755b5c4b8ec5a7ded5f60027ebcd",
    "verify --engine symbolic --degree 64":
        "a6f08db2b4de9441b3ae23cb2dd95313677dcf43ad99fa54731c26775ef9449b",
    "expand --target eq8-rhs --degree 48":
        "efb093e212516654c6661a0822981b54eca35048bbae0c0c7ab0c41052bb097c",
}


def test_reference_masks_the_timestamp_and_holds_every_command():
    assert RECORDED["masked"] == "timestamp"
    assert len(ENTRIES) == 138


@pytest.mark.parametrize(
    "command,digest", ENTRIES + sorted(DEEP.items()),
    ids=[c for c, _ in ENTRIES] + sorted(DEEP),
)
def test_output_bytes_match_the_reference(invoke, command, digest):
    code, out = invoke(command.split(" "))
    assert code == 0
    assert hashlib.sha256(mask_timestamp(out).encode("utf-8")).hexdigest() == digest
