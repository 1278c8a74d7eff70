"""SHA-256 and byte length of every file the canonical CLI runs write.

The runs: `reproduce fig1`-`fig4 --seed 0`, the default `probs`, `signal`
and `sweep` runs, and the README's `simulate` example.  Re-record
`digests.json` beside this script, from the repository root, with

    PYTHONPATH=src python tests/golden/record_digests.py

A change that moves an output re-records it with the evidence it would
give for a byte golden.  `tests/test_digests.py` writes the same files to a
temporary directory and names each one whose bytes moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mzhomodyne.cli import main

DIGESTS = Path(__file__).with_name("digests.json")

# the README's simulate example
README_SIMULATE = ["--nbar", "1000", "--b", "3.2", "--kf", "5", "--eigenvalues", "alternating",
                   "--phi-min", "0.02", "--phi-max", "0.18", "--steps", "9", "--seed", "1"]


def runs(out: Path) -> list:
    """The argv of each run, writing into the directory out."""
    return [*(["reproduce", fig, "--seed", "0", "--out", str(out)]
              for fig in ("fig1", "fig2", "fig3", "fig4")),
            *([command, "--out", str(out / f"{command}.csv")]
              for command in ("probs", "signal", "sweep")),
            ["simulate", *README_SIMULATE, "--out", str(out / "simulate_readme")]]


def digests(out: Path) -> dict:
    """{file name: {"sha256", "bytes"}} of every file the runs write into
    out, an empty directory; a run that exits nonzero raises."""
    for argv in runs(out):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise RuntimeError(f"{' '.join(argv[:2])} exited with status {status}")
    return {path.name: {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "bytes": path.stat().st_size}
            for path in sorted(out.iterdir())}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} files in {DIGESTS}", file=sys.stderr)
