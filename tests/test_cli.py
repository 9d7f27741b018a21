import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from signspectra.cli import format_matrix_csv, main, parse_matrix_text
from signspectra.digraph import imprimitivity_index
from signspectra.gen import scrambled

from helpers import EXAMPLE1, EXAMPLE1_COMPOUND_CSV, cycle_matrix


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

    def test_thread_env_validation(self, run, monkeypatch):
        monkeypatch.setenv("SIGNSPECTRA_THREADS", "zero")
        code, _, err = run("signsym", "whatever.csv")
        assert code == 1
        assert "SIGNSPECTRA_THREADS" in err

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
