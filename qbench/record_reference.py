"""Record the reference digests of every exact output the workloads use.

Run from the root of a qdeform checkout, on the commit whose outputs are
the reference:

    python3 qbench/record_reference.py

It runs each argv of ``workloads.exact_domain()`` through
``qdeform.cli.main`` in this process and writes the sha256 of the output,
timestamp masked, to qbench/reference.json.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import oracle
import workloads


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qdeform.cli as cli

    digests = {}
    for argv in workloads.exact_domain():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            print(f"{' '.join(argv)}: exit code {code}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = oracle.digest(out.getvalue())
    oracle.REFERENCE_FILE.write_text(
        json.dumps({"masked": "timestamp", "sha256": digests}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests to {oracle.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
