import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra import cli
from signspectra.cli import format_matrix_csv, main, parse_matrix_text
from signspectra.digraph import imprimitivity_index
from signspectra.gen import cyclic_h, reducible_blocks, scrambled, tp2

from helpers import (
    EXAMPLE1,
    EXAMPLE1_COMPOUND_CSV,
    count_calls,
    count_calls_by_dimension,
    cycle_matrix,
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
        code, out, err = run("classify", path, "--rel-tol", "-1")
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
        from signspectra.gen import cyclic_h

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


ANALYZE_INPUTS = {
    "worked-5x5": EXAMPLE1,
    "tp2": tp2(5, seed=2),
    # 8 x 512 (J, Jt) combinations and 512 distinct W sets: truncated.
    "t11-blocks": reducible_blocks([cycle_matrix(3), cycle_matrix(3), cycle_matrix(5)]),
    "none": cycle_matrix(4),
}


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
        by_dimension = count_calls_by_dimension(monkeypatch, "imprimitivity_index")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert json.loads(out)["classification"]["theorem"] == theorem
        transitive = calls.pop("find_transitive_w")
        assert calls == {
            "compound2": 1, "sign_constraint_graph": 2, "detect": 0,
            "eigenvalues": 1, "frobenius_form": 1,
        }
        assert transitive <= 1
        # Only the facts call imprimitivity_index, at most once per matrix; A
        # and its compound differ in size, so each dimension counts one
        # matrix.  Irreducibility is read from it: one search along the arcs
        # and one against them for each irreducible matrix, and one for the
        # reducible compound of T8.2.
        assert max(by_dimension["imprimitivity_index"].values()) <= 1
        assert searches == {
            "is_irreducible": 0, "_bfs_levels": 4 if theorem == "T9.1" else 3,
        }

    def test_strong_components_only_for_frobenius_form(self, run, tmp_path, monkeypatch):
        path = write_csv(tmp_path, ANALYZE_INPUTS["t11-blocks"])
        calls = count_calls(monkeypatch, "connected_components", "frobenius_form")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert json.loads(out)["classification"]["theorem"] == "T11"
        assert calls == {"connected_components": 1, "frobenius_form": 1}


# Gzipped `wsets` stdout for these inputs, recorded with the one-combination-
# at-a-time listing that the packed listing must reproduce byte for byte.  It
# holds only integers and booleans, so it does not depend on the BLAS build.
WSETS_GOLDEN = {
    "t11-blocks": ANALYZE_INPUTS["t11-blocks"],
    "cyclic_h-12-11": cyclic_h(12, 11),
}


class TestWsetsListing:
    @pytest.mark.parametrize("name", sorted(WSETS_GOLDEN))
    def test_output_matches_recorded(self, run, tmp_path, name):
        code, out, _ = run("wsets", write_csv(tmp_path, WSETS_GOLDEN[name]))
        assert code == 0
        recorded = Path(__file__).parent / "data" / f"wsets_{name}.json.gz"
        assert out.encode() == gzip.decompress(recorded.read_bytes())

    @pytest.mark.parametrize("name", sorted(WSETS_GOLDEN))
    def test_analyze_section_matches_recorded(self, run, tmp_path, name):
        code, out, _ = run("analyze", write_csv(tmp_path, WSETS_GOLDEN[name]))
        assert code == 0
        section = json.dumps(json.loads(out)["w_candidates"], indent=2) + "\n"
        recorded = Path(__file__).parent / "data" / f"analyze_w_candidates_{name}.json.gz"
        assert section.encode() == gzip.decompress(recorded.read_bytes())

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
            ("analyze", twin), ("analyze", twin, "--rel-tol", "-1"),
            ("classify", example), ("classify", twin), ("classify", example, "--rel-tol", "-1"),
            ("compound", twin, "--format", "json"),
            ("wsets", example), ("wsets", blocks), ("wsets", conflicted),
            ("signsym", twin), ("signsym", conflicted),
            ("frobenius", blocks), ("frobenius", twin),
            ("verify-corpus", str(manifest)), ("verify-corpus", str(manifest), "--rel-tol", "-1"),
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
        code, out, _ = run("verify-corpus", str(manifest), "--rel-tol", "-1")
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
