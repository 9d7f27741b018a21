"""Golden replays of the CLI: one table of recorded slices.

Each row of `SLICES` names a gzipped JSON-lines file under `data/golden/`,
the key under which each line holds its input, the inputs in order, and a
runner.  The runner writes the input's files to a temporary working directory,
so that the paths the output names are the same on every run, and gives the
stdout, stderr and exit code of each command it runs there in-process through
`cli.main`.  A line is the input under its key followed by those results.
Matrices go to the commands as `matrix.csv`, written by `cli.format_matrix_csv`,
which round-trips exactly.  `test_replays_byte_for_byte` asks each file for
the row's inputs and outputs; `record` writes every file from the same table.

- `verify_corpus`: `verify-corpus` on a one-spec manifest per spec of `SPECS`.
- `commands`: the five matrix commands on the matrix of each spec of `SPECS`.
- `errors`: `gen` and `verify-corpus` on each spec text of `ERROR_SPECS`.
- `leaves`: `classify` and `analyze` on `LEAF_MATRICES`.
- `matrices`: the five matrix commands on `ANALYZE_INPUTS` and `cyclic_h(12, 11)`.
- `texts`: each command on its file of `TEXT_INPUTS`.
- `scale`: `classify` and `analyze` on `SCALE_INPUTS`.
- `families`: `classify` on every 20th matrix of `family_inputs()`.

The inputs are fixed once and never re-chosen to hide a difference.  After
a deliberate change of output, re-record every file with

    PYTHONPATH=src python tests/test_golden.py --record

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from signspectra.cli import format_matrix_csv, main
from signspectra.gen import GenSpec, cyclic_h, generate, tp2
from signspectra.spectral import _LEAVES, Facts, classify

from helpers import (
    ANALYZE_INPUTS,
    EXAMPLE1,
    GOLDEN_DIR,
    INFINITE_PAIRING_INPUTS,
    PROBE_ERROR_INPUTS,
    load_golden,
    readme_leaf_table,
)
from test_exterior import family_inputs

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


# The scale defects of ROADMAP items 4 and 19, recorded as they stand.
SCALE_INPUTS = (
    [tp2(10) * s for s in (1e-20, 1e-16, 1e140, 1e150)]
    + [cyclic_h(7, 7) * s for s in (1e-14, 1e-13, 1e-12)]
    + [np.outer(0.37 * np.arange(1.0, 7.0), 1.3 * np.arange(2.0, 8.0))]
)


# Each command and file text of the probe inputs, and a matrix behind a
# UTF-8 byte-order mark as CSV and as JSON.
TEXT_INPUTS = [
    {"argv": argv, "file": name, "text": text}
    for argv, name, text in [probe[:3] for probe in PROBE_ERROR_INPUTS]
    + [(["classify"], "m.csv", text) for text, _ in INFINITE_PAIRING_INPUTS]
    + [(["classify"], "m.csv", "\ufeff" + format_matrix_csv(EXAMPLE1)),
       (["classify"], "m.json", "\ufeff" + json.dumps({"n": 5, "rows": EXAMPLE1.tolist()}))]
]


def run_cli(argv: list[str], work: Path, files: dict[str, str]) -> dict:
    """stdout, stderr and exit code of `cli.main(argv)` with `work` as the
    working directory, after writing each text of `files` there."""
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def matrix_commands(*names: str) -> Callable[[Any, Path], dict]:
    """A runner: the `run_cli` result of each command of `names` on a
    matrix, read as `matrix.csv`."""
    def run(matrix, work: Path) -> dict:
        files = {"matrix.csv": format_matrix_csv(np.asarray(matrix, dtype=float))}
        return {name: run_cli([name, "matrix.csv"], work, files) for name in names}
    return run


MATRIX_COMMANDS = matrix_commands("analyze", "classify", "signsym", "frobenius", "wsets")


def spec_errors(text: str, work: Path) -> dict:
    """`gen` on the spec text as `spec.json`, and `verify-corpus` on the text
    as the one element of `manifest.json` (a leading byte-order mark stays
    in front)."""
    body = text.removeprefix("\ufeff")
    files = {"spec.json": text, "manifest.json": text[: len(text) - len(body)] + f"[{body}]"}
    return {
        "gen": run_cli(["gen", "spec.json"], work, files),
        "verify-corpus": run_cli(["verify-corpus", "manifest.json"], work, files),
    }


class Slice(NamedTuple):
    file: str
    key: str
    inputs: list
    run: Callable[[Any, Path], dict]


# The 52 inputs of the first two `cli-corpus` passes of benchmark seed 77,
# copied into the first file so that this test does not import the benchmark.
SPECS = [entry["spec"] for entry in load_golden("verify_corpus.jsonl.gz")]
SLICES = [
    Slice("verify_corpus.jsonl.gz", "spec", SPECS, lambda spec, work: run_cli(
        ["verify-corpus", "manifest.json"], work, {"manifest.json": json.dumps([spec])})),
    Slice("commands.jsonl.gz", "spec", SPECS,
          lambda spec, work: MATRIX_COMMANDS(generate(GenSpec.from_dict(spec)), work)),
    Slice("errors.jsonl.gz", "spec", ERROR_SPECS, spec_errors),
    Slice("leaves.jsonl.gz", "matrix", LEAF_MATRICES, matrix_commands("classify", "analyze")),
    Slice("matrices.jsonl.gz", "matrix",
          [m.tolist() for m in [*ANALYZE_INPUTS.values(), cyclic_h(12, 11)]],
          MATRIX_COMMANDS),
    Slice("texts.jsonl.gz", "input", TEXT_INPUTS, lambda probe, work: run_cli(
        [*probe["argv"], probe["file"]], work, {probe["file"]: probe["text"]})),
    Slice("scale.jsonl.gz", "matrix", [m.tolist() for m in SCALE_INPUTS],
          matrix_commands("classify", "analyze")),
    Slice("families.jsonl.gz", "matrix",
          [m.tolist() for m in itertools.islice(family_inputs(), 0, None, 20)],
          matrix_commands("classify")),
]


def record() -> None:
    """Write every file of SLICES from the row's inputs and runner."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for row in SLICES:
            lines = [json.dumps({row.key: x, **row.run(x, Path(tmp))}) for x in row.inputs]
            # mtime=0 keeps the file byte-identical when nothing changed.
            data = gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0)
            (GOLDEN_DIR / row.file).write_bytes(data)


@pytest.mark.parametrize("row", SLICES, ids=lambda row: row.file.split(".")[0])
def test_replays_byte_for_byte(tmp_path, row):
    golden = load_golden(row.file)
    assert [entry[row.key] for entry in golden] == row.inputs
    for entry in golden:
        assert {row.key: entry[row.key], **row.run(entry[row.key], tmp_path)} == entry, entry[row.key]


def test_golden_matrices_reach_every_leaf():
    """The leaf table row each golden matrix selects: every row is reached,
    and each row's claims are the ones the README's leaf table lists."""
    assert len(SPECS) == 52
    matrices = [generate(GenSpec.from_dict(spec)) for spec in SPECS]
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
    record()
    print("re-recorded", ", ".join(row.file for row in SLICES), "in", GOLDEN_DIR)
