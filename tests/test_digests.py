"""Every byte of every canonical CLI output, by digest.

tests/golden/digests.json holds the SHA-256 and length of each file that
`reproduce fig1`-`fig4 --seed 0`, the default probs, signal and sweep runs
and the README's simulate example write (tests/golden/record_digests.py
records it).  The byte goldens beside it show a moved line; this shows
that nothing else moved.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _recorder():
    spec = importlib.util.spec_from_file_location("record_digests", GOLDEN / "record_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_output_matches_its_recorded_digest(tmp_path):
    recorder = _recorder()
    want = json.loads(recorder.DIGESTS.read_text(encoding="utf-8"))
    got = recorder.digests(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not moved, f"outputs moved: {', '.join(moved)}"
