"""Golden replays of `verify-corpus` and of five single-matrix commands.

`data/golden/verify_corpus.jsonl.gz` holds one JSON line per generator spec:
the spec, and the stdout, stderr and exit code of `verify-corpus` on a
manifest that lists only that spec.  The specs are the 52 inputs of the first
two `cli-corpus` passes of benchmark seed 77, copied into the file so that
this test does not import the benchmark.

`data/golden/commands.jsonl.gz` holds one JSON line per spec of that file, in
the same order: the spec, and for each of `analyze`, `classify`, `signsym`,
`frobenius` and `wsets` the stdout, stderr and exit code on the spec's
matrix, written by `cli.format_matrix_csv` (which round-trips exactly) to
`matrix.csv` and read from the working directory, so that the path `analyze`
reports is the same on every run.

The tests replay every line in-process through `cli.main` and ask for the
same bytes.  The specs are fixed once.  After a deliberate change of output,
re-record the outputs of the same specs in both files with

    PYTHONPATH=src python tests/test_golden.py --record

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from signspectra.cli import format_matrix_csv, main
from signspectra.gen import GenSpec, generate

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN = GOLDEN_DIR / "verify_corpus.jsonl.gz"
COMMANDS_GOLDEN = GOLDEN_DIR / "commands.jsonl.gz"
COMMANDS = ("analyze", "classify", "signsym", "frobenius", "wsets")


def load_golden(path: Path = GOLDEN) -> list[dict]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def run_cli(argv: list[str]) -> dict:
    """stdout, stderr and exit code of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def verify_corpus(spec: dict, work: Path) -> dict:
    """stdout, stderr and exit code of `verify-corpus` on a one-spec manifest."""
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps([spec]))
    return run_cli(["verify-corpus", str(manifest)])


def commands(spec: dict, work: Path) -> dict:
    """The `run_cli` result of each of COMMANDS on the spec's matrix, read
    as `matrix.csv` with `work` as the working directory."""
    (work / "matrix.csv").write_text(format_matrix_csv(generate(GenSpec.from_dict(spec))))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {command: run_cli([command, "matrix.csv"]) for command in COMMANDS}
    finally:
        os.chdir(cwd)


def _write(path: Path, lines: list[str]) -> None:
    # mtime=0 keeps the file byte-identical when nothing changed.
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))


def record(specs: list[dict]) -> None:
    """Write the outputs of `specs`, in order, to both golden files."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = [json.dumps({"spec": spec, **verify_corpus(spec, work)}) for spec in specs]
        per_command = [json.dumps({"spec": spec, **commands(spec, work)}) for spec in specs]
    _write(GOLDEN, corpus)
    _write(COMMANDS_GOLDEN, per_command)


def test_verify_corpus_replays_byte_for_byte(tmp_path):
    golden = load_golden()
    assert len(golden) == 52
    for entry in golden:
        got = verify_corpus(entry["spec"], tmp_path)
        assert got == {k: entry[k] for k in ("stdout", "stderr", "exit")}, entry["spec"]


def test_commands_replay_byte_for_byte(tmp_path):
    golden = load_golden(COMMANDS_GOLDEN)
    assert [entry["spec"] for entry in golden] == [entry["spec"] for entry in load_golden()]
    for entry in golden:
        got = commands(entry["spec"], tmp_path)
        for command in COMMANDS:
            assert got[command] == entry[command], (command, entry["spec"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record([entry["spec"] for entry in load_golden()])
    print(f"re-recorded {GOLDEN} and {COMMANDS_GOLDEN}")
