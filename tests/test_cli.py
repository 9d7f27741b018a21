import ast
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra import cli, gen
from signspectra.cli import format_matrix_csv, main, parse_matrix_text
from signspectra.digraph import imprimitivity_index
from signspectra.gen import cyclic_h, reducible_blocks, scrambled, tp2

from helpers import (
    ANALYZE_INPUTS,
    EXAMPLE1,
    EXAMPLE1_COMPOUND_CSV,
    INFINITE_PAIRING_INPUTS,
    PROBE_ERROR_INPUTS,
    count_calls,
    count_calls_by_dimension,
    cycle_matrix,
    load_golden,
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_csv(tmp_path, m, name="m.csv"):
    path = tmp_path / name
    path.write_text(format_matrix_csv(np.asarray(m)))
    return str(path)


def write_json_matrix(tmp_path, m, name="m.json"):
    m = np.asarray(m)
    payload = {"n": int(m.shape[0]), "rows": [[float(v) for v in row] for row in m]}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseMatrixText:
    def test_csv_round_trip(self):
        m = parse_matrix_text("0,1.5\n-2,3\n", "csv")
        assert np.array_equal(m, [[0.0, 1.5], [-2.0, 3.0]])

    def test_csv_skips_blank_lines(self):
        m = parse_matrix_text("1,0\n\n0,1\n\n", "csv")
        assert np.array_equal(m, np.eye(2))

    def test_csv_bad_entry_names_row(self):
        with pytest.raises(Exception, match="row 2.*oops"):
            parse_matrix_text("1,0\n0,oops\n", "csv")

    def test_csv_ragged(self):
        with pytest.raises(Exception, match="row 2 has 3 entries"):
            parse_matrix_text("1,0\n0,1,2\n", "csv")

    def test_csv_non_square(self):
        with pytest.raises(Exception, match="square"):
            parse_matrix_text("1,0\n", "csv")

    def test_csv_empty(self):
        with pytest.raises(Exception, match="no rows"):
            parse_matrix_text("\n\n", "csv")

    def test_json_strict_schema(self):
        m = parse_matrix_text('{"n": 2, "rows": [[1, 0], [0, 1]]}', "json")
        assert np.array_equal(m, np.eye(2))
        with pytest.raises(Exception, match='"n" and "rows"'):
            parse_matrix_text('{"rows": [[1]]}', "json")
        with pytest.raises(Exception, match="row 1"):
            parse_matrix_text('{"n": 1, "rows": [["x"]]}', "json")
        with pytest.raises(Exception, match="invalid JSON"):
            parse_matrix_text("{broken", "json")


class TestCompound:
    def test_worked_example_exact_csv(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, err = run("compound", path)
        assert code == 0
        assert out == EXAMPLE1_COMPOUND_CSV
        assert err == ""

    def test_out_file(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        target = tmp_path / "c.csv"
        code, out, _ = run("compound", path, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == EXAMPLE1_COMPOUND_CSV

    def test_json_in_json_out(self, run, tmp_path):
        path = write_json_matrix(tmp_path, [[1, 2], [3, 4]])
        code, out, _ = run("compound", path)
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 1, "rows": [[-2]]}

    def test_too_small_is_input_error(self, run, tmp_path):
        path = write_csv(tmp_path, [[5.0]])
        code, _, err = run("compound", path)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("writer", [write_csv, write_json_matrix])
    def test_overflowing_minors_are_input_error(self, run, tmp_path, writer):
        # Finite entries whose 2 x 2 minors overflow to inf - inf = NaN.
        path = writer(tmp_path, [[1e200, 2e200, 0.0], [3e200, 4e200, 1.0], [0.0, 1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run("compound", path)
            assert (code, out) == (1, "")
            assert err == "error: second compound: matrix entries must be finite\n"
            assert run("classify", path) == (1, "", err)

    @pytest.mark.parametrize("command", ["classify", "analyze", "compound", "wsets"])
    def test_overflowing_minors_print_only_the_error(self, tmp_path, command):
        # A separate process, so that any numpy RuntimeWarning reaches stderr.
        path = write_csv(tmp_path, [[1e200, 2e200, 0.0], [3e200, 4e200, 1.0], [0.0, 1.0, 1.0]])
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "signspectra", command, path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "SIGNSPECTRA_THREADS": "1"},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: second compound: matrix entries must be finite\n"


class TestSignsym:
    def test_nonnegative(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, _ = run("signsym", path)
        assert code == 0
        data = json.loads(out)
        assert data == {
            "sign_symmetric": True,
            "j_set": [],
            "d": [1, 1, 1, 1, 1],
            "constraint_components": 1,
            "certificate_count": 2,
        }

    def test_scrambled_recovers_j(self, run, tmp_path):
        path = write_csv(tmp_path, scrambled(EXAMPLE1, j_set={2, 5}))
        code, out, _ = run("signsym", path)
        assert code == 0
        data = json.loads(out)
        assert data["sign_symmetric"] is True
        assert data["j_set"] == [2, 5]
        assert data["d"] == [1, -1, 1, 1, -1]

    def test_conflict_reports_cycle(self, run, tmp_path):
        path = write_csv(tmp_path, [[0.0, 1.0], [-1.0, 0.0]])
        code, out, _ = run("signsym", path)
        assert code == 0
        data = json.loads(out)
        assert data["sign_symmetric"] is False
        assert sorted(data["odd_cycle"]) == [1, 2]


class TestFrobenius:
    def test_two_blocks(self, run, tmp_path):
        path = write_csv(tmp_path, [[1.0, 1.0], [0.0, 2.0]])
        code, out, _ = run("frobenius", path)
        assert code == 0
        data = json.loads(out)
        assert data == {
            "perm": [2, 1],
            "rho": 2.0,
            "blocks": [
                {"indices": [2], "rho": 2.0},
                {"indices": [1], "rho": 1.0},
            ],
        }


class TestWsets:
    def test_worked_example(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, _ = run("wsets", path)
        assert code == 0
        data = json.loads(out)
        assert data["exists_transitive"] is False
        assert data["j_count"] == 2
        assert data["jt_count"] == 4
        assert data["unique_w_sets"] == 4
        assert len(data["candidates"]) == 8
        for entry in data["candidates"]:
            assert entry["transitive"] is False
            assert entry["order"] is None
            assert len(entry["witness"]) == 3

    def test_not_sign_symmetric_is_input_error(self, run, tmp_path):
        path = write_csv(tmp_path, [[0.0, 1.0], [-1.0, 0.0]])
        code, _, err = run("wsets", path)
        assert code == 1
        assert "error:" in err

    def test_cap_flag(self, run, tmp_path):
        path = write_csv(tmp_path, np.zeros((4, 4)))
        code, _, err = run("wsets", path, "--cap", "7")
        assert code == 1
        assert "cap" in err


class TestClassify:
    def test_odd_cycle_schema(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, err = run("classify", path)
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert set(data) == {
            "eigenvalues",
            "rho",
            "peripheral",
            "theorem",
            "predictions",
            "diagnostics",
        }
        assert data["theorem"] == "T8.2"
        assert data["peripheral"]["k"] == 5
        k, power = data["peripheral"]["roots_of"]
        assert k == 5 and power == pytest.approx(1.0)
        assert len(data["eigenvalues"]) == 5
        assert all(p["verified"] for p in data["predictions"])

    def test_failure_exits_two_with_bundle(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, err = run("classify", path, "--rel-tol", "1e-30")  # below rounding
        assert code == 2
        data = json.loads(out)
        assert any(not p["verified"] for p in data["predictions"])
        bundle = json.loads(err)
        assert bundle["theorem"] == "T8.2"
        assert bundle["verified"] is False
        assert bundle["matrix"] == [list(row) for row in EXAMPLE1]

    def test_none_is_exit_zero(self, run, tmp_path):
        path = write_csv(tmp_path, [[0.0, 1.0], [-1.0, 0.0]])
        code, out, _ = run("classify", path)
        assert code == 0
        assert json.loads(out)["theorem"] == "NONE"

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_overflowing_rho_power_prints_infinity(self, run, tmp_path, command):
        # rho^3 = 1e330 overflows, although every entry and minor is finite.
        path = write_csv(tmp_path, cycle_matrix(3) * 1e110)
        code, out, err = run(command, path)
        assert (code, err) == (0, "")
        data = json.loads(out)
        section = data if command == "classify" else data["classification"]
        assert section["theorem"] == "T9.2"
        assert section["peripheral"]["roots_of"] == [3, float("inf")]
        assert out == json.dumps(data, indent=2) + "\n"  # rho^3 is written Infinity
        assert "Infinity" in out

    def test_overflowing_compound_in_corpus_is_one_error_line(self, run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "nonneg_irreducible", "n": 3, "magnitude": 1e200}]))
        assert run("verify-corpus", str(manifest)) == (
            1, "", "error: spec 0: second compound: matrix entries must be finite\n"
        )

    @pytest.mark.parametrize("command", ["classify", "analyze", "wsets"])
    def test_integer_beyond_float_range_is_one_error_line(self, run, tmp_path, command):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "rows": [[1' + "0" * 399 + "]]}")
        assert run(command, str(path)) == (1, "", "error: matrix entries must be finite\n")

    def test_boolean_n_is_rejected(self, run, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": true, "rows": [[2]]}')
        assert run("classify", str(path)) == (1, "", "error: \"n\" must be an integer, got True\n")

    def test_magnitude_beyond_float_range_is_one_error_line(self, run, tmp_path):
        spec = '{"kind": "nonneg_irreducible", "n": 3, "magnitude": 1' + "0" * 399 + "}"
        message = "nonneg_irreducible spec: field 'magnitude': int too large to convert to float\n"
        assert run("gen", spec) == (1, "", "error: " + message)
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[" + spec + "]")
        assert run("verify-corpus", str(manifest)) == (1, "", "error: spec 0: " + message)


class TestInvalidFlags:
    """A tolerance or cap outside its range is one `error:` line and exit 1,
    not a verification failure with a counterexample bundle."""

    THREE_CYCLE = cycle_matrix(3)

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("classify", ("--rel-tol", "-1"), "rel_tol must be finite and positive, got -1.0"),
            ("classify", ("--rel-tol", "nan"), "rel_tol must be finite and positive, got nan"),
            ("classify", ("--peripheral-tol", "5"), "peripheral_tol must lie in (0, 1), got 5.0"),
            ("analyze", ("--rel-tol", "-1"), "rel_tol must be finite and positive, got -1.0"),
            ("analyze", ("--peripheral-tol", "0"), "peripheral_tol must lie in (0, 1), got 0.0"),
            ("analyze", ("--cap", "-5"), "cap must be at least 1, got -5"),
            ("wsets", ("--cap", "-5"), "cap must be at least 1, got -5"),
            ("wsets", ("--cap", "0"), "cap must be at least 1, got 0"),
        ],
    )
    def test_matrix_commands(self, run, tmp_path, command, flags, message):
        path = write_csv(tmp_path, self.THREE_CYCLE)
        assert run(command, path, *flags) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["analyze", "wsets"])
    def test_cap_is_checked_before_the_matrix_is_read(self, run, tmp_path, command):
        # Neither the missing file nor the rotation, which is not
        # sign-symmetric and so lists no candidates, is reached.
        message = "error: cap must be at least 1, got -5\n"
        assert run(command, str(tmp_path / "missing.csv"), "--cap", "-5") == (1, "", message)
        path = write_csv(tmp_path, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert run(command, path, "--cap", "-5") == (1, "", message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--rel-tol", "-1"), "rel_tol must be finite and positive, got -1.0"),
            (("--peripheral-tol", "5"), "peripheral_tol must lie in (0, 1), got 5.0"),
        ],
    )
    def test_verify_corpus_checks_flags_before_the_first_spec(self, run, tmp_path, flags, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "cyclic_h", "n": 3, "h": 3}]))
        assert run("verify-corpus", str(manifest), *flags) == (1, "", f"error: {message}\n")


class TestAnalyze:
    def test_full_report(self, run, tmp_path):
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, err = run("analyze", path)
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert set(data) == {
            "input",
            "tolerances",
            "sign_symmetry",
            "frobenius",
            "imprimitivity",
            "w_candidates",
            "classification",
            "verified",
        }
        assert data["input"]["n"] == 5
        assert data["tolerances"]["rel_tol"] == 1e-6
        assert data["sign_symmetry"]["matrix"]["sign_symmetric"] is True
        assert data["sign_symmetry"]["matrix"]["matches_two_power_blocks"] is True
        assert data["sign_symmetry"]["compound"]["certificate_count"] == 4
        assert data["frobenius"]["block_count"] == 1
        assert data["imprimitivity"]["h"] == 5
        assert data["w_candidates"]["unique_w_sets"] == 4
        assert data["w_candidates"]["truncated"] is False
        assert data["classification"]["theorem"] == "T8.2"
        assert len(data["classification"]["peripheral"]["values"]) == 5
        assert data["classification"]["facts"]["h"] == 5
        assert data["verified"] is True

    def test_deterministic_output(self, run, tmp_path):
        path = write_csv(tmp_path, scrambled(EXAMPLE1, j_set={3}))
        code1, out1, _ = run("analyze", path)
        code2, out2, _ = run("analyze", path)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_reducible_sections(self, run, tmp_path):
        from signspectra.gen import reducible_blocks

        a = reducible_blocks([cycle_matrix(3), cycle_matrix(3)])
        path = write_csv(tmp_path, a)
        code, out, _ = run("analyze", path)
        assert code == 0
        data = json.loads(out)
        assert data["imprimitivity"] is None
        assert data["frobenius"]["block_count"] == 2
        assert data["classification"]["theorem"] == "T11"
        assert data["verified"] is True

    def test_one_by_one(self, run, tmp_path):
        path = write_csv(tmp_path, [[3.0]])
        code, out, _ = run("analyze", path)
        assert code == 0
        data = json.loads(out)
        assert data["sign_symmetry"]["compound"] is None
        assert data["imprimitivity"]["h"] == 1
        assert data["classification"]["theorem"] == "T10"

    def test_listing_cap_leaves_classification_intact(self, run, tmp_path):
        path = write_csv(tmp_path, cyclic_h(33, 33, seed=1))
        code, out, _ = run("analyze", path)
        assert code == 0
        data = json.loads(out)
        assert "exceed the cap 65536" in data["w_candidates"]["error"]
        assert data["classification"]["theorem"] == "T8.2"
        assert data["classification"]["facts"]["exists_transitive"] is False
        assert data["verified"] is True

    def test_conflicted_matrix_skips_w_section(self, run, tmp_path):
        path = write_csv(tmp_path, [[0.0, 1.0], [-1.0, 0.0]])
        code, out, _ = run("analyze", path)
        assert code == 0
        data = json.loads(out)
        assert data["sign_symmetry"]["matrix"]["sign_symmetric"] is False
        assert data["w_candidates"] is None
        assert data["classification"]["theorem"] == "NONE"


def _flat_w_listing(w_section):
    """analyze's grouped W candidates in the flat per-pair form of `wsets`."""
    return [
        {"j": pair["j"], "jt": pair["jt"], "transitive": cand["transitive"],
         "witness": cand["witness"], "order": cand["order"]}
        for cand in w_section["candidates"]
        for pair in cand["generating_pairs"]
    ]


class TestAnalyzeSharesFacts:
    @pytest.mark.parametrize("name", sorted(ANALYZE_INPUTS))
    def test_sections_match_subcommands(self, run, tmp_path, name):
        path = write_csv(tmp_path, ANALYZE_INPUTS[name])
        code, out, _ = run("analyze", path)
        assert code == 0
        report = json.loads(out)
        signsym = json.loads(run("signsym", path)[1])
        frobenius = json.loads(run("frobenius", path)[1])
        wsets_code, wsets_out, _ = run("wsets", path)

        sign_matrix = dict(report["sign_symmetry"]["matrix"])
        sign_matrix.pop("matches_two_power_blocks", None)
        assert sign_matrix == signsym
        assert report["frobenius"]["blocks"] == frobenius["blocks"]
        assert report["frobenius"]["perm"] == frobenius["perm"]
        w = report["w_candidates"]
        if w is None:
            assert name == "none"
            assert wsets_code == 1
            return
        listing = json.loads(wsets_out)
        for key in ("exists_transitive", "j_count", "jt_count", "unique_w_sets"):
            assert w[key] == listing[key]
        assert w["truncated"] == (listing["unique_w_sets"] > 64)
        assert w["truncated"] == (name == "t11-blocks")
        flat = _flat_w_listing(w)
        assert flat == listing["candidates"][: len(flat)]
        if not w["truncated"]:
            assert len(flat) == len(listing["candidates"])

    @pytest.mark.parametrize(
        "a, theorem", [(tp2(4, seed=3), "T9.1"), (scrambled(EXAMPLE1, seed=4), "T8.2")]
    )
    def test_each_stage_runs_once(self, run, tmp_path, monkeypatch, a, theorem):
        path = write_csv(tmp_path, a)
        calls = count_calls(
            monkeypatch, "compound2", "sign_constraint_graph", "detect",
            "eigenvalues", "frobenius_form", "find_transitive_w",
        )
        searches = count_calls(monkeypatch, "is_irreducible", "_bfs_levels")
        by_dimension = count_calls_by_dimension(monkeypatch, "_pattern_index")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert json.loads(out)["classification"]["theorem"] == theorem
        transitive = calls.pop("find_transitive_w")
        # Both inputs are irreducible, so `Facts.frobenius` reads their one
        # block from the spectrum and skips `frobenius_form`.
        assert calls == {
            "compound2": 1, "sign_constraint_graph": 2, "detect": 0,
            "eigenvalues": 1, "frobenius_form": 0,
        }
        assert transitive <= 1
        # Only the facts read a pattern index, once per matrix; A and its
        # compound differ in size, so each dimension counts one matrix.
        # Irreducibility is read from it: one search along the arcs and one
        # against them for each irreducible matrix, and one for the
        # reducible compound of T8.2.
        assert sorted(by_dimension["_pattern_index"].values()) == [1, 1]
        assert searches == {
            "is_irreducible": 0, "_bfs_levels": 4 if theorem == "T9.1" else 3,
        }

    @pytest.mark.parametrize("name, searches", [("t11-blocks", 0), ("tp2", 1)])
    def test_zero_diagonal_with_a_cycle_skips_the_w_search(
        self, run, tmp_path, monkeypatch, name, searches
    ):
        # The T11 blocks are cycles with zero diagonals, so no W set is
        # transitive and `Facts` answers without `find_transitive_w`; `tp2`
        # has a positive diagonal and searches.
        path = write_csv(tmp_path, ANALYZE_INPUTS[name])
        calls = count_calls(monkeypatch, "find_transitive_w")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert calls == {"find_transitive_w": searches}
        assert json.loads(out)["w_candidates"]["exists_transitive"] == bool(searches)

    def test_strong_components_only_for_frobenius_form(self, run, tmp_path, monkeypatch):
        path = write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"])
        components = "_strong_components"
        calls = count_calls(monkeypatch, components, "frobenius_form")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert json.loads(out)["classification"]["theorem"] == "T11"
        assert calls == {components: 1, "frobenius_form": 1}


# Inputs whose `wsets` stdout was recorded with the one-combination-at-a-time
# listing that the coset listing must reproduce byte for byte.  The outputs
# live in the golden `matrices` slice, which runs every matrix command on them.
WSETS_GOLDEN = {
    "t11-blocks": ANALYZE_INPUTS["t11-blocks"],
    "cyclic_h-12-11": cyclic_h(12, 11),
}


def recorded_stdout(command, m):
    """The golden `matrices` slice's recorded stdout of `command` on `m`."""
    rows = [e for e in load_golden("matrices.jsonl.gz") if e["matrix"] == np.asarray(m).tolist()]
    assert len(rows) == 1
    return rows[0][command]["stdout"]


class TestWsetsListing:
    @pytest.mark.parametrize("name", sorted(WSETS_GOLDEN))
    def test_output_matches_recorded(self, run, tmp_path, name):
        code, out, _ = run("wsets", write_csv(tmp_path, WSETS_GOLDEN[name]))
        assert code == 0
        assert out == recorded_stdout("wsets", WSETS_GOLDEN[name])

    @pytest.mark.parametrize("name", sorted(WSETS_GOLDEN))
    def test_analyze_section_matches_recorded(self, run, tmp_path, name):
        code, out, _ = run("analyze", write_csv(tmp_path, WSETS_GOLDEN[name]))
        assert code == 0
        section = json.loads(out)["w_candidates"]
        recorded = json.loads(recorded_stdout("analyze", WSETS_GOLDEN[name]))["w_candidates"]
        assert json.dumps(section, indent=2) == json.dumps(recorded, indent=2)

    def test_checks_each_distinct_w_set_once(self, run, tmp_path, monkeypatch):
        # 8 x 512 (J, Jt) combinations build 512 distinct W sets, checked as
        # one (512, 15, 15) stack; `is_transitive` would be a batch of 1.
        path = write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"])
        calls = count_calls(monkeypatch, "is_transitive", "build_w_hat")
        batches = count_calls_by_dimension(monkeypatch, "_check_transitivity")
        code, out, _ = run("wsets", path)
        assert code == 0
        listing = json.loads(out)
        assert listing["j_count"] * listing["jt_count"] == 4096
        assert listing["unique_w_sets"] == 512
        assert batches == {"_check_transitivity": {512: 1}}
        assert calls == {"is_transitive": 0, "build_w_hat": 0}

    def test_analyze_encodes_each_distinct_pair_list_once(self, run, tmp_path, monkeypatch):
        # 64 listed candidates x 8 generating pairs: 1,024 J and Jt lists, but
        # only 8 distinct J sets (one of them empty) and 128 distinct Jt sets.
        # The report holds one list object per distinct set, and the writer
        # encodes each non-empty one once.
        trees, encoded = [], []
        dumps, encode_flat = cli._dumps, cli._encode_flat
        monkeypatch.setattr(cli, "_dumps", lambda obj: trees.append(obj) or dumps(obj))
        monkeypatch.setattr(
            cli, "_encode_flat", lambda obj, level: encoded.append(obj) or encode_flat(obj, level)
        )
        code, _, _ = run("analyze", write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"]))
        assert code == 0
        candidates = trees[0]["w_candidates"]["candidates"]
        pairs = [pair for cand in candidates for pair in cand["generating_pairs"]]
        lists = {id(pair[key]): pair[key] for pair in pairs for key in ("j", "jt")}
        assert len(pairs) == 512
        assert len(lists) == len({tuple(v) for v in lists.values()}) == 8 + 128
        nonempty = {key for key, value in lists.items() if value}
        # `encoded` keeps every argument alive, so no two of them share an id.
        assert sorted(id(obj) for obj in encoded if id(obj) in nonempty) == sorted(nonempty)

    def test_analyze_builds_only_the_listed_candidates(self, run, tmp_path, monkeypatch):
        from signspectra import wsets

        built = []
        original = wsets.WCandidate

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(wsets, "WCandidate", counting)
        code, out, _ = run("analyze", write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"]))
        assert code == 0
        section = json.loads(out)["w_candidates"]
        assert (section["unique_w_sets"], len(section["candidates"])) == (512, 64)
        assert len(built) == 64

    def test_analyze_builds_and_checks_only_the_listed_w_grids(self, run, tmp_path, monkeypatch):
        # Cycles as diagonal blocks: the 3-, 5- and 7-cycle give 2^12 (J, Jt)
        # combinations and 512 distinct W sets, the 5-, 7- and 9-cycle 2^15
        # and 4,096, counted without building any.  The 64 that `analyze`
        # prints are built and checked as one stack.
        grids = count_calls_by_dimension(monkeypatch, "_check_members", "_check_transitivity")
        for sizes, combinations, count in (((3, 5, 7), 2**12, 512), ((5, 7, 9), 2**15, 4096)):
            for counter in grids.values():
                counter.clear()
            a = reducible_blocks([cycle_matrix(n) for n in sizes])
            code, out, _ = run("analyze", write_csv(tmp_path, a))
            assert code == 0
            section = json.loads(out)["w_candidates"]
            assert section["j_count"] * section["jt_count"] == combinations
            assert (section["unique_w_sets"], len(section["candidates"])) == (count, 64)
            assert grids == {"_check_members": {64: 1}, "_check_transitivity": {64: 1}}

    @pytest.mark.parametrize(
        "a", [reducible_blocks([cycle_matrix(3), cycle_matrix(5), cycle_matrix(7)]),
              cycle_matrix(9)],
        ids=["blocks-3-5-7", "cycle-9"],
    )
    def test_wsets_reads_exists_transitive_off_the_listing(self, run, tmp_path, monkeypatch, a):
        # `wsets` checks every W set, so it needs no transitive-W search.
        calls = count_calls(monkeypatch, "find_transitive_w")
        code, out, _ = run("wsets", write_csv(tmp_path, a))
        assert code == 0
        listing = json.loads(out)
        assert calls == {"find_transitive_w": 0}
        assert listing["exists_transitive"] is False
        assert not any(entry["transitive"] for entry in listing["candidates"])


_TRICKY_TEXT = st.lists(
    st.sampled_from([", ", ": ", ",", "[", "]", "{", "}", '"', "\n", "\\", "e\u0301",
                     "\u00e9", "\u6f22", "\U0001f600", "\x00", "null", "1, 2"])
).map("".join)
_JSON_TEXT = st.text() | _TRICKY_TEXT
_JSON_FLAT = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda v: st.sampled_from([v, -v]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324])
)
_JSON_CONTAINERS = (
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, children, max_size=4)
)
# Trees that hold the same list and tuple objects more than once, at equal
# and at different depths: the writer encodes a flat list once per object
# and indentation.  `sampled_from` returns the objects themselves.
_SHARED_TREES = st.lists(
    st.lists(_JSON_FLAT, min_size=1, max_size=4)
    | st.lists(_JSON_FLAT, min_size=1, max_size=4).map(tuple),
    min_size=1,
    max_size=3,
).flatmap(
    lambda shared: st.recursive(
        st.sampled_from(shared) | _JSON_FLAT, _JSON_CONTAINERS, max_leaves=20
    )
)
_JSON_TREES = st.recursive(
    _JSON_FLAT | _JSON_TEXT | st.lists(_JSON_FLAT) | st.lists(_JSON_FLAT).map(tuple),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @given(_JSON_TREES)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    @given(_SHARED_TREES)
    @settings(max_examples=200, deadline=None)
    def test_shared_lists_match_json_dumps_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_equal_lists_of_different_types_keep_their_text(self):
        # [1] == [1.0] == [True] and [0] == [False], with equal hashes, but
        # each prints its own way, at every depth it recurs.
        lists = [[1], [1.0], [True], [0], [False], (1,), (True,)]
        tree = {"flat": lists, "deeper": [lists[::-1], {"again": lists}], "one": lists[2]}
        text = cli._dumps(tree)
        assert text == json.dumps(tree, indent=2)
        assert text.count("true") == 7 and text.count("1.0") == 3

    @pytest.mark.parametrize("obj", [{1: "x"}, {"a": [{None: 1}]}, {"a": {2.5: []}}])
    def test_non_str_key_raises(self, obj):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._dumps(obj)

    def test_every_command_writes_what_json_dumps_writes(self, run, tmp_path, monkeypatch):
        example = write_csv(tmp_path, EXAMPLE1, "example.csv")
        blocks = write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"], "blocks.csv")
        conflicted = write_csv(tmp_path, [[0.0, 1.0], [-1.0, 0.0]], "conflicted.csv")
        twin = write_json_matrix(tmp_path, scrambled(tp2(5, seed=2), seed=3), "twin.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"kind": "tp2", "n": 4, "seed": 1},
            {"kind": "scrambled", "seed": 3, "base": {"kind": "cyclic_h", "n": 6, "h": 3}},
        ]))
        invocations = [
            ("analyze", example), ("analyze", blocks), ("analyze", conflicted),
            ("analyze", twin), ("analyze", example, "--rel-tol", "1e-30"),
            ("classify", example), ("classify", twin), ("classify", example, "--rel-tol", "1e-30"),
            ("classify", example, "--rel-tol", "-1"), ("wsets", example, "--cap", "0"),
            ("compound", twin, "--format", "json"),
            ("wsets", example), ("wsets", blocks), ("wsets", conflicted),
            ("signsym", twin), ("signsym", conflicted),
            ("frobenius", blocks), ("frobenius", twin),
            ("verify-corpus", str(manifest)), ("verify-corpus", str(manifest), "--rel-tol", "1e-30"),
        ]
        fast = [run(*argv) for argv in invocations]
        assert {code for code, _, _ in fast} == {0, 1, 2}
        assert any(code == 2 and err.startswith("{") for code, _, err in fast)
        monkeypatch.setattr(cli, "_dumps", lambda obj: json.dumps(obj, indent=2))
        assert [run(*argv) for argv in invocations] == fast


class TestGen:
    def test_inline_spec_round_trip(self, run, tmp_path):
        code, out, _ = run("gen", '{"kind": "cyclic_h", "n": 6, "h": 3, "seed": 0}')
        assert code == 0
        m = parse_matrix_text(out, "csv")
        assert m.shape == (6, 6)
        assert imprimitivity_index(m).h == 3

    def test_deterministic(self, run):
        spec = '{"kind": "tp2", "n": 4, "seed": 9}'
        _, out1, _ = run("gen", spec)
        _, out2, _ = run("gen", spec)
        assert out1 == out2

    def test_spec_file_and_out(self, run, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"kind": "nonneg_irreducible", "n": 4, "seed": 1}')
        target = tmp_path / "out.csv"
        code, out, _ = run("gen", str(spec_path), "--out", str(target))
        assert code == 0
        assert out == ""
        m = parse_matrix_text(target.read_text(), "csv")
        assert m.shape == (4, 4)

    def test_json_output(self, run):
        code, out, _ = run("gen", '{"kind": "tp2", "n": 3, "seed": 0}', "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert data["rows"][2] == [1, 3, 6]

    @pytest.mark.parametrize("spec, message", [
        ('{"kind": "nonneg_irreducible", "n": 1000000}',
         "matrix dimension 1000000 exceeds the supported maximum 3000"),
        ('{"kind": "cyclic_h", "n": 3001, "h": 3}',
         "matrix dimension 3001 exceeds the supported maximum 3000"),
        ('{"kind": "tp2", "n": 600}',
         "second compound: base dimension 600 exceeds 180;"
         " the dense minor grid would need C(600,2)^2 entries"),
        ('{"kind": "reducible_blocks", "blocks": [{"kind": "nonneg_irreducible", "n": 3000},'
         ' {"kind": "scrambled", "base": {"kind": "nonneg_irreducible", "n": 1}}]}',
         "matrix dimension 3001 exceeds the supported maximum 3000"),
    ], ids=["nonneg_irreducible", "cyclic_h", "tp2", "reducible_blocks"])
    def test_oversized_spec_fails_before_allocating(self, run, spec, message):
        assert run("gen", '{"kind": "tp2", "n": 3}')[0] == 0  # loads gen's imports
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = run("gen", spec)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "", f"error: {message}\n")
        assert seconds < 0.1
        assert peak < 1_000_000

    def test_json_out_path_round_trips_through_classify(self, run, tmp_path):
        spec = '{"kind": "cyclic_h", "n": 6, "h": 3, "seed": 4}'
        target = tmp_path / "A.json"
        assert run("gen", spec, "--out", str(target)) == (0, "", "")
        assert json.loads(target.read_text())["n"] == 6
        code, out, err = run("classify", str(target))
        assert (code, err) == (0, "")
        _, text, _ = run("gen", spec)  # stdout stays CSV
        (tmp_path / "A.csv").write_text(text)
        assert run("classify", str(tmp_path / "A.csv")) == (0, out, "")

    def test_bad_spec_is_input_error(self, run):
        code, _, err = run("gen", "not json and not a file")
        assert code == 1
        assert "error:" in err
        code, _, err = run("gen", '{"kind": "mystery"}')
        assert code == 1

    def test_missing_field_is_one_error_line(self, run):
        assert run("gen", '{"kind": "tp2"}') == (
            1, "", "error: tp2 spec: missing field 'n'\n"
        )

    @pytest.mark.parametrize("spec", [
        '{"kind": "nonneg_irreducible", "n": 3, "magnitude": 1e400}',
        '{"kind": "nonneg_irreducible", "n": 3, "magnitude": 1.7e308}',
        '{"kind": "cyclic_h", "n": 3, "h": 3, "magnitude": 1.7e308}',
    ])
    def test_infinite_entries_are_one_error_line(self, run, tmp_path, spec):
        # JSON reads 1e400 as inf; 1.7e308 times a draw above 1.06 overflows.
        assert run("gen", spec) == (1, "", "error: matrix entries must be finite\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(f"[{spec}]")
        assert run("verify-corpus", str(manifest)) == (
            1, "", "error: spec 0: matrix entries must be finite\n"
        )

    def test_generation_error_is_one_error_line(self, run, tmp_path, monkeypatch):
        def fail(spec):
            raise gen.GenerationError("could not build the matrix")

        monkeypatch.setattr(gen, "generate", fail)
        assert run("gen", '{"kind": "tp2", "n": 3}') == (
            1, "", "error: could not build the matrix\n"
        )
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"kind": "tp2", "n": 3}]')
        assert run("verify-corpus", str(manifest)) == (
            1, "", "error: spec 0: could not build the matrix\n"
        )


class TestVerifyCorpus:
    def test_green_manifest(self, run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "specs": [
                        {"kind": "tp2", "n": 4, "seed": 1},
                        {"kind": "cyclic_h", "n": 5, "h": 5, "seed": 2},
                        {
                            "kind": "scrambled",
                            "seed": 3,
                            "j_set": [1, 4],
                            "base": {"kind": "cyclic_h", "n": 5, "h": 5, "seed": 2},
                        },
                    ]
                }
            )
        )
        code, out, _ = run("verify-corpus", str(manifest))
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == []
        assert [r["theorem"] for r in data["results"]] == ["T9.1", "T8.2", "T8.2"]
        assert all(r["ok"] for r in data["results"])

    def test_failures_exit_two(self, run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "tp2", "n": 3, "seed": 1}]))
        # A band this wide holds lambda2 (about 0.11 rho), so the peripheral
        # count is 2, not the 1 that T9.1 predicts.
        code, out, _ = run("verify-corpus", str(manifest), "--peripheral-tol", "0.99")
        assert code == 2
        data = json.loads(out)
        assert len(data["failures"]) == 1
        assert data["failures"][0]["index"] == 0

    def test_one_spectrum_and_compound_per_spec(self, run, tmp_path, monkeypatch):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "tp2", "n": 6, "seed": 1}]))
        calls = count_calls(monkeypatch, "eigenvalues", "compound2", "w_matrix")
        code, out, _ = run("verify-corpus", str(manifest))
        assert code == 0
        assert json.loads(out)["results"][0]["eigenvalue_products_ok"]
        assert calls == {"eigenvalues": 1, "compound2": 1, "w_matrix": 0}

    def test_ill_typed_field_is_one_error_line(self, run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "reducible_blocks", "blocks": 5}]))
        code, out, err = run("verify-corpus", str(manifest))
        assert (code, out) == (1, "")
        assert err.startswith("error: spec 0: reducible_blocks spec: field 'blocks'")
        assert err.count("\n") == 1

    def test_bad_manifest(self, run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"specs": []}))
        code, _, err = run("verify-corpus", str(manifest))
        assert code == 1
        assert "manifest" in err


class TestByteOrderMark:
    # A spreadsheet's "CSV UTF-8" export starts with the UTF-8 byte order
    # mark; every input file reads the same with it as without it.
    @staticmethod
    def with_bom(path) -> str:
        path = Path(path)
        marked = path.with_name("bom_" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return str(marked)

    @pytest.mark.parametrize("writer", [write_csv, write_json_matrix])
    @pytest.mark.parametrize("command", ["classify", "compound", "signsym"])
    def test_matrix_file(self, run, tmp_path, writer, command):
        plain = writer(tmp_path, EXAMPLE1)
        expected = run(command, plain)
        assert expected[0] == 0
        assert run(command, self.with_bom(plain)) == expected

    def test_gen_spec_file(self, run, tmp_path):
        plain = tmp_path / "spec.json"
        plain.write_text('{"kind": "cyclic_h", "n": 5, "h": 5, "seed": 2}')
        expected = run("gen", str(plain))
        assert expected[0] == 0
        assert run("gen", self.with_bom(plain)) == expected

    def test_verify_corpus_manifest(self, run, tmp_path):
        plain = tmp_path / "manifest.json"
        plain.write_text(json.dumps([{"kind": "tp2", "n": 4, "seed": 1}]))
        expected = run("verify-corpus", str(plain))
        assert expected[0] == 0
        assert run("verify-corpus", self.with_bom(plain)) == expected


class TestErrorsAndEnvironment:
    def test_missing_file(self, run):
        code, _, err = run("signsym", "/nonexistent/m.csv")
        assert code == 1
        assert "error:" in err

    def test_malformed_csv_row_diagnostic(self, run, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n0,x\n")
        code, _, err = run("signsym", str(path))
        assert code == 1
        assert "row 2" in err and "'x'" in err

    def test_unknown_command(self, run):
        code, _, err = run("mystery")
        assert code == 1

    def test_no_arguments(self, run):
        code, _, err = run()
        assert code == 1

    def test_parser_built_once_and_reused(self, run, tmp_path, monkeypatch):
        from signspectra import cli, spectral

        cli.build_parser.cache_clear()
        original = spectral.classify
        tolerances = []

        def recording(a, **kwargs):
            tolerances.append(kwargs)
            return original(a, **kwargs)

        monkeypatch.setattr(spectral, "classify", recording)
        path = write_csv(tmp_path, EXAMPLE1)
        code, out, _ = run("analyze", "--cap", "7", path)
        assert code == 0
        assert json.loads(out)["tolerances"]["candidate_cap"] == 7
        code, out, _ = run("analyze", path)
        assert code == 0
        assert json.loads(out)["tolerances"]["candidate_cap"] == 65536
        assert "error" not in json.loads(out)["w_candidates"]
        tolerances.clear()
        assert run("classify", "--rel-tol", "1e-3", path)[0] == 0
        assert run("classify", path)[0] == 0
        assert tolerances == [
            {"rel_tol": 1e-3, "peripheral_tol": 1e-6},
            {"rel_tol": 1e-6, "peripheral_tol": 1e-6},
        ]
        code, out, err = run("classify", "--rel-tol", "x", path)
        assert (code, out) == (1, "")
        assert err.startswith("usage: signspectra classify")
        assert run("signsym", path)[0] == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_parser_defaults_are_library_constants(self):
        from signspectra.spectral import DEFAULT_PERIPHERAL_TOL, DEFAULT_REL_TOL
        from signspectra.wsets import DEFAULT_CANDIDATE_CAP

        parser = cli.build_parser()
        tolerances = {"rel_tol": DEFAULT_REL_TOL, "peripheral_tol": DEFAULT_PERIPHERAL_TOL}
        for command in ("analyze", "classify", "verify-corpus"):
            args = vars(parser.parse_args([command, "m.csv"]))
            assert {k: args[k] for k in tolerances} == tolerances
        for command in ("analyze", "wsets"):
            assert parser.parse_args([command, "m.csv"]).cap == DEFAULT_CANDIDATE_CAP

    def test_thread_env_validation(self, run, monkeypatch):
        monkeypatch.setenv("SIGNSPECTRA_THREADS", "zero")
        code, _, err = run("signsym", "whatever.csv")
        assert code == 1
        assert "SIGNSPECTRA_THREADS" in err

    @pytest.mark.parametrize("command", ["classify", "analyze", "wsets", "verify-corpus"])
    def test_compound_over_dimension_limit(self, run, tmp_path, monkeypatch, command):
        # The 7-cycle's compound is 21 x 21; with the limit at 20 it stands in
        # for n >= 78, whose 3003 x 3003 compound exceeds the real limit 3000.
        monkeypatch.setattr("signspectra.core.MAX_DIMENSION", 20)
        if command == "verify-corpus":
            target = tmp_path / "manifest.json"
            target.write_text(json.dumps([{"kind": "cyclic_h", "n": 7, "h": 7}]))
            path, prefix = str(target), "error: spec 0: second compound:"
        else:
            path, prefix = write_csv(tmp_path, cycle_matrix(7)), "error: second compound:"
        code, out, err = run(command, path)
        assert code == 1
        assert out == ""
        assert err.startswith(prefix)
        assert "dimension 21 exceeds the supported maximum 20" in err

    @pytest.mark.parametrize("n", [78, 181])
    @pytest.mark.parametrize("command", ["classify", "analyze", "wsets", "verify-corpus"])
    def test_compound_at_the_real_limits(self, run, tmp_path, command, n):
        # C(78, 2) = 3003 is the first compound beyond the graph limit 3000,
        # and 181 the first base beyond 180; the graph limit rejects both.
        if command == "verify-corpus":
            target = tmp_path / "manifest.json"
            target.write_text(json.dumps([{"kind": "cyclic_h", "n": n, "h": n}]))
            path, prefix = str(target), "error: spec 0: second compound:"
        else:
            path, prefix = write_csv(tmp_path, cycle_matrix(n)), "error: second compound:"
        message = f"{prefix} matrix dimension {n * (n - 1) // 2} exceeds the supported maximum 3000\n"
        assert run(command, path) == (1, "", message)

    def test_compound_command_beyond_the_base_limit(self, run, tmp_path):
        path = write_csv(tmp_path, cycle_matrix(181))
        assert run("compound", path) == (
            1, "", "error: second compound: base dimension 181 exceeds 180;"
            " the dense minor grid would need C(181,2)^2 entries\n",
        )

    @pytest.mark.parametrize("argv, name, text, message", PROBE_ERROR_INPUTS)
    def test_probe_inputs_give_one_error_line(self, run, tmp_path, monkeypatch, argv, name, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(*argv, name)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("text, cycle", INFINITE_PAIRING_INPUTS)
    def test_probe_inputs_with_every_pairing_infinite_classify(self, run, tmp_path, text, cycle):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("classify", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["theorem"] == "NONE"
        assert data["diagnostics"] == f"matrix is not sign-symmetric: odd constraint cycle {cycle}"

    def test_inline_spec_with_unknown_field(self, run):
        assert run("gen", '{"kind": "tp2", "n": 5, "sed": 3}') == (
            1, "", "error: tp2 spec: unknown field 'sed'\n"
        )

    @staticmethod
    def fresh_python(probe: str, *args: str) -> subprocess.CompletedProcess:
        """Run `probe` in a fresh interpreter that imports this signspectra."""
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        return subprocess.run(
            [sys.executable, "-c", probe, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath, "SIGNSPECTRA_THREADS": "1"},
        )

    def modules_after(self, *argvs: list[str], root: str = "scipy") -> list[str]:
        """The modules named `root` or below it that a fresh interpreter
        holds after `main(argv)` for each of `argvs` in turn."""
        probe = (
            "import json, sys\n"
            "from signspectra.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "root = sys.argv[2]\n"
            "print(sorted(m for m in sys.modules if (m + '.').startswith(root + '.')),"
            " file=sys.stderr)\n"
            "sys.exit(max(codes))\n"
        )
        proc = self.fresh_python(probe, json.dumps(argvs), root)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        return ast.literal_eval(proc.stderr)

    @pytest.mark.parametrize(
        "command", ["gen", "compound", "signsym", "classify", "analyze", "wsets", "frobenius"]
    )
    def test_commands_import_no_scipy(self, tmp_path, command):
        # scipy takes most of a second to import.  An irreducible input needs
        # no strong components, and its peripheral groups pair up row by row.
        argv = (
            ["gen", '{"kind": "tp2", "n": 4, "seed": 1}']
            if command == "gen"
            else [command, write_csv(tmp_path, EXAMPLE1)]
        )
        assert self.modules_after(argv) == []

    def test_commands_on_a_reducible_input_import_no_scipy(self, tmp_path):
        # The strong components come from a Tarjan search, and the repeated
        # roots of the two equal-radius 3-cycle blocks pair up by the
        # assignment port.  One interpreter runs every command.
        path = write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"])
        commands = ["signsym", "classify", "analyze", "wsets", "frobenius"]
        assert self.modules_after(*[[command, path] for command in commands]) == []

    def test_classify_and_analyze_load_no_numpy_ma(self, tmp_path):
        # `np.unique` probes `np.ma.is_masked` in numpy 2.4, which imports
        # numpy.ma (about 18 ms and 1 MB).  Neither the transitive-W search
        # of a T8.2 input nor the W listing of a T11 input takes that path.
        cycle = write_csv(tmp_path, cycle_matrix(5), "cycle5.csv")
        blocks = write_csv(
            tmp_path, reducible_blocks([cycle_matrix(3), cycle_matrix(5)]), "blocks35.csv"
        )
        argvs = [["classify", cycle], ["analyze", blocks]]
        assert self.modules_after(*argvs, root="numpy.ma") == []

    def test_verify_corpus_of_an_odd_cycle_imports_no_scipy(self, tmp_path):
        # The product-law certificate takes its Schur form from numpy's eig
        # and QR, for a 5-cycle and for a 5-cycle and a 3-cycle of equal
        # spectral radius as two diagonal blocks.
        manifest = tmp_path / "manifest.json"
        cycle = {"kind": "cyclic_h", "n": 5, "h": 5}
        blocks = {
            "kind": "reducible_blocks",
            "blocks": [cycle, {**cycle, "n": 3, "h": 3}],
            "rho_targets": [1.0, 1.0],
        }
        manifest.write_text(json.dumps([cycle, blocks]))
        assert self.modules_after(["verify-corpus", str(manifest)]) == []

    def test_classify_past_the_compound_limit_routes_before_matching(self):
        # Two 40-cycles of radius 1 as diagonal blocks, n = 80: routing reads
        # C2 as a graph and fails at once, before the 80 peripheral values,
        # each root shared by both blocks, would be paired with their targets.
        probe = (
            "import sys\n"
            "from signspectra import spectral\n"
            "from signspectra.gen import cyclic_h, reducible_blocks\n"
            "a = reducible_blocks([cyclic_h(40, 40, seed=1), cyclic_h(40, 40, seed=2)],"
            " rho_targets=(1.0, 1.0))\n"
            "sizes = []\n"
            "pairs = spectral._pairs_every_row\n"
            "spectral._pairs_every_row = lambda allowed: sizes.append(len(allowed)) or pairs(allowed)\n"
            "try:\n"
            "    spectral.classify(a)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print(sizes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = self.fresh_python(probe)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "second compound: matrix dimension 3160 exceeds the supported maximum 3000\n"
            "[] []\n"
        )

    def test_78_cycle_with_a_negative_arc_imports_no_scipy(self):
        # Its 78 peripheral values, the 78th roots of -1, each lie halfway
        # between two 78th roots of 1, so the row rule fails and the
        # bottleneck pairing is bisected; the verdict is the parent's NONE.
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from signspectra.spectral import classify\n"
            "a = np.roll(np.eye(78), 1, axis=1)\n"
            "a[77, 0] = -1.0\n"
            "c = classify(a)\n"
            "print(c.verdict(), c.peripheral.roots_of)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = self.fresh_python(probe)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "('NONE', True, None, None, None, None, 78, None, ()) None\n[]\n"

    def test_verify_corpus_past_the_schur_gate_runs_without_scipy(self, tmp_path):
        # The cli-corpus inputs at benchmark seeds 132 and 405 whose first
        # Schur pass fails its gate, and a criterion-07 cycle with a defective
        # zero eigenvalue: their product law deflates, in an interpreter
        # where importing scipy raises.
        tp2 = {"kind": "tp2", "n": 12, "seed": 40500061}
        specs = [
            {"kind": "nonneg_irreducible", "n": 20, "density": 0.1, "seed": 13206121},
            tp2,
            {"kind": "scrambled", "seed": 40500061, "j_set": [1], "base": tp2},
            {"kind": "cyclic_h", "n": 9, "h": 5, "seed": 95},
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(specs))
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from signspectra.cli import main\n"
            "sys.exit(main(['verify-corpus', sys.argv[1]]))\n"
        )
        proc = self.fresh_python(probe, str(manifest))
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert [r["ok"] for r in report["results"]] == [True] * 4
        assert report["failures"] == []

    def test_console_script(self, tmp_path):
        exe = shutil.which("signspectra")
        assert exe is not None, "console script must be installed"
        path = write_csv(tmp_path, EXAMPLE1)
        proc = subprocess.run(
            [exe, "compound", path],
            capture_output=True,
            text=True,
            env={**os.environ, "SIGNSPECTRA_THREADS": "1"},
        )
        assert proc.returncode == 0
        assert proc.stdout == EXAMPLE1_COMPOUND_CSV
