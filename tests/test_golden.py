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

`data/golden/errors.jsonl.gz` holds one JSON line per spec text of
`ERROR_SPECS`, the inputs behind the `error:` line of the spec parser: the
text, and the stdout, stderr and exit code of `gen` on the text written to
`spec.json`, and of `verify-corpus` on `manifest.json`, the text as the one
element of a list (a leading byte-order mark stays in front).

`data/golden/leaves.jsonl.gz` holds one JSON line per matrix of
`LEAF_MATRICES`, one for each leaf of `classify` that the 52 specs miss: the
matrix, and the stdout, stderr and exit code of `classify` and `analyze` on
it, written as `matrix.csv` as above.

The tests replay every line in-process through `cli.main` and ask for the
same bytes.  The specs are fixed once.  After a deliberate change of output,
re-record the outputs of the same specs in all four files with

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

import numpy as np

from signspectra.cli import format_matrix_csv, main
from signspectra.gen import GenSpec, generate
from signspectra.spectral import _LEAVES, Facts, classify

from helpers import readme_leaf_table

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN = GOLDEN_DIR / "verify_corpus.jsonl.gz"
COMMANDS_GOLDEN = GOLDEN_DIR / "commands.jsonl.gz"
ERRORS_GOLDEN = GOLDEN_DIR / "errors.jsonl.gz"
LEAVES_GOLDEN = GOLDEN_DIR / "leaves.jsonl.gz"
COMMANDS = ("analyze", "classify", "signsym", "frobenius", "wsets")
LEAF_COMMANDS = ("classify", "analyze")

# One matrix per leaf that no spec of the 52 reaches, with the leaf it reaches.
LEAF_MATRICES = [
    [[1, 0], [0, -1]],  # NONE: the matrix is not sign-symmetric
    [[0]],  # NONE: 1x1 with zero spectral radius
    [[2]],  # T10: 1x1
    [[0, 1], [0, 0]],  # NONE: zero spectral radius, n >= 2
    [[0, -1, 0], [0, 0, -1], [1, 0, 0]],  # T9.2
    [[1, -1, -1], [-1, 1, 0], [-1, 1, 1]],  # T10, with a positive 2x2 principal minor
    [[1, 1], [1, 1]],  # T10, with none
]


def _scrambled(levels: int) -> dict:
    """A `tp2` spec wrapped in `scrambled` specs, `levels` specs in all."""
    spec = {"kind": "tp2", "n": 3}
    for _ in range(levels - 1):
        spec = {"kind": "scrambled", "base": spec}
    return spec


ERROR_SPECS = [json.dumps(spec) for spec in [
    # The messages of test_gen.py's rejected specs.
    {"kind": "mystery"},
    ["not", "a", "dict"],
    {"kind": ["tp2"]},
    {"kind": "tp2"},
    {"kind": "cyclic_h", "h": 3},
    {"kind": "reducible_blocks", "blocks": 5},
    {"kind": "scrambled", "j_set": 2, "base": {"kind": "tp2", "n": 3}},
    {"kind": "scrambled", "base": {"kind": "tp2"}},
    {"kind": "cyclic_h", "n": 5.9, "h": 5},
    {"kind": "cyclic_h", "n": "5", "h": 5},
    {"kind": "cyclic_h", "n": 5, "h": True},
    {"kind": "tp2", "n": 4, "seed": 1.0},
    {"kind": "tp2", "n": "x"},
    {"kind": "scrambled", "j_set": [1.5], "base": {"kind": "tp2", "n": 3}},
    {"kind": "scrambled", "seed": False, "base": {"kind": "tp2", "n": 3}},
    {"kind": "nonneg_irreducible", "n": 4, "density": "0.5"},
    {"kind": "cyclic_h", "n": 5, "h": 5, "magnitude": True},
    {"kind": "cyclic_h", "n": 5, "h": 5, "magnitude": 10**400},
    {"kind": "reducible_blocks", "blocks": [], "rho_targets": [None]},
    # Unknown fields, and fields of another kind.
    {"kind": "tp2", "n": 5, "sed": 3},
    {"kind": "tp2", "n": 4, "h": 2},
    {"kind": "cyclic_h", "n": 4, "h": 2, "density": 0.5},
    {"kind": "scrambled", "n": 3, "base": {"kind": "tp2", "n": 3}},
    {"kind": "scrambled", "base": {"kind": "tp2", "n": 3, "magnitude": 2.0}},
    {"kind": "reducible_blocks", "blocks": [{"kind": "tp2", "n": 2}], "seed": 1},
    # Nested specs around the depth bound of 64 levels.
    _scrambled(2),
    _scrambled(64),
    _scrambled(65),
    _scrambled(100),
    {"kind": "reducible_blocks", "blocks": [_scrambled(64)]},
]] + ["\ufeff" + json.dumps({"kind": "tp2", "n": 3})]


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
    """The `run_cli` result of each of COMMANDS on the spec's matrix."""
    return matrix_commands(generate(GenSpec.from_dict(spec)), COMMANDS, work)


def matrix_commands(matrix, names: tuple[str, ...], work: Path) -> dict:
    """The `run_cli` result of each command of `names` on `matrix`, read as
    `matrix.csv` with `work` as the working directory."""
    (work / "matrix.csv").write_text(format_matrix_csv(np.asarray(matrix, dtype=float)))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {command: run_cli([command, "matrix.csv"]) for command in names}
    finally:
        os.chdir(cwd)


def spec_errors(text: str, work: Path) -> dict:
    """The `run_cli` results of `gen` and `verify-corpus` on the spec text,
    with `work` as the working directory."""
    body = text.removeprefix("\ufeff")
    (work / "spec.json").write_text(text, encoding="utf-8")
    (work / "manifest.json").write_text(text[: len(text) - len(body)] + f"[{body}]", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {
            "gen": run_cli(["gen", "spec.json"]),
            "verify-corpus": run_cli(["verify-corpus", "manifest.json"]),
        }
    finally:
        os.chdir(cwd)


def _write(path: Path, lines: list[str]) -> None:
    # mtime=0 keeps the file byte-identical when nothing changed.
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))


def record(specs: list[dict]) -> None:
    """Write the outputs of `specs`, in order, to the two golden files of
    the 52 specs, those of ERROR_SPECS to the third and those of
    LEAF_MATRICES to the fourth."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = [json.dumps({"spec": spec, **verify_corpus(spec, work)}) for spec in specs]
        per_command = [json.dumps({"spec": spec, **commands(spec, work)}) for spec in specs]
        errors = [json.dumps({"spec": text, **spec_errors(text, work)}) for text in ERROR_SPECS]
        leaves = [
            json.dumps({"matrix": m, **matrix_commands(m, LEAF_COMMANDS, work)})
            for m in LEAF_MATRICES
        ]
    _write(GOLDEN, corpus)
    _write(COMMANDS_GOLDEN, per_command)
    _write(ERRORS_GOLDEN, errors)
    _write(LEAVES_GOLDEN, leaves)


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


def test_spec_errors_replay_byte_for_byte(tmp_path):
    golden = load_golden(ERRORS_GOLDEN)
    assert [entry["spec"] for entry in golden] == ERROR_SPECS
    for entry in golden:
        got = spec_errors(entry["spec"], tmp_path)
        assert got == {k: entry[k] for k in ("gen", "verify-corpus")}, entry["spec"]


def test_leaves_replay_byte_for_byte(tmp_path):
    golden = load_golden(LEAVES_GOLDEN)
    assert [entry["matrix"] for entry in golden] == LEAF_MATRICES
    for entry in golden:
        got = matrix_commands(entry["matrix"], LEAF_COMMANDS, tmp_path)
        assert got == {k: entry[k] for k in LEAF_COMMANDS}, entry["matrix"]


def test_golden_matrices_reach_every_leaf():
    """The leaf table row each golden matrix selects: every row is reached,
    and each row's claims are the ones the README's leaf table lists."""
    matrices = [generate(GenSpec.from_dict(entry["spec"])) for entry in load_golden()]
    claims = [set() for _ in _LEAVES]
    for m in matrices + [np.asarray(m, dtype=float) for m in LEAF_MATRICES]:
        facts = Facts(m)
        row = next(i for i, leaf in enumerate(_LEAVES) if leaf.route(facts))
        c = classify(facts)
        assert c.theorem == _LEAVES[row].label
        claims[row].add(tuple(p.claim for p in c.predictions))
    unreached = [leaf.label for leaf, seen in zip(_LEAVES, claims) if not seen]
    assert unreached == []
    for (_, listed, _), seen in zip(readme_leaf_table(), claims):
        assert set().union(*seen) == set(listed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record([entry["spec"] for entry in load_golden()])
    print(f"re-recorded {GOLDEN}, {COMMANDS_GOLDEN}, {ERRORS_GOLDEN} and {LEAVES_GOLDEN}")
