"""Golden replay of `verify-corpus`.

`data/golden/verify_corpus.jsonl.gz` holds one JSON line per generator spec:
the spec, and the stdout, stderr and exit code of `verify-corpus` on a
manifest that lists only that spec.  The specs are the 52 inputs of the first
two `cli-corpus` passes of benchmark seed 77, copied into the file so that
this test does not import the benchmark.  The test replays every line
in-process through `cli.main` and asks for the same bytes.

The specs are fixed once.  After a deliberate change of output, re-record the
outputs of the same specs with

    PYTHONPATH=src python tests/test_golden.py --record

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

from signspectra.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden" / "verify_corpus.jsonl.gz"


def load_golden() -> list[dict]:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def verify_corpus(spec: dict, work: Path) -> dict:
    """stdout, stderr and exit code of `verify-corpus` on a one-spec manifest."""
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps([spec]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-corpus", str(manifest)])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record(specs: list[dict]) -> None:
    """Write the outputs of `specs`, in order, to the golden file."""
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        lines = [json.dumps({"spec": spec, **verify_corpus(spec, Path(work))})
                 for spec in specs]
    # mtime=0 keeps the file byte-identical when nothing changed.
    GOLDEN.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))


def test_verify_corpus_replays_byte_for_byte(tmp_path):
    golden = load_golden()
    assert len(golden) == 52
    for entry in golden:
        got = verify_corpus(entry["spec"], tmp_path)
        assert got == {k: entry[k] for k in ("stdout", "stderr", "exit")}, entry["spec"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record([entry["spec"] for entry in load_golden()])
    print(f"re-recorded {GOLDEN}")
