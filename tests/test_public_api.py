"""The documented library surface: every name in the README "Library"
table imports from its module, every function the package exports from a
tabled module is named in that module's row, every lazy export of the
package is the object its module lists in `__all__`, and the README's
generator-spec table lists the kinds and fields of `gen`'s table, and the
README's leaf table lists the rows of `classify`'s table."""

import importlib
import inspect
import re
from pathlib import Path

import signspectra
from signspectra import gen
from signspectra.spectral import _LEAVES

from helpers import readme_leaf_table

README = Path(__file__).resolve().parents[1] / "README.md"


def library_table() -> dict[str, list[str]]:
    """Module -> the backticked names in its row of the README "Library" table."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`signspectra\.\w+`", cells[0]):
            rows[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[1])
    return rows


def test_readme_library_names_import():
    rows = library_table()
    assert sorted(rows) == sorted(
        f"signspectra.{m}" for m in ("signsym", "exterior", "wsets", "digraph", "spectral", "gen")
    )
    for module, names in rows.items():
        mod = importlib.import_module(module)
        assert names, module
        assert [name for name in names if not hasattr(mod, name)] == [], module


def test_exported_functions_are_in_readme_table():
    rows = library_table()
    missing = [
        name
        for name, module in signspectra._EXPORTS.items()
        if f"signspectra.{module}" in rows
        and inspect.isfunction(getattr(signspectra, name))
        and name not in rows[f"signspectra.{module}"]
    ]
    assert missing == []


def test_package_exports_are_module_names():
    for name, module in signspectra._EXPORTS.items():
        mod = importlib.import_module(f"signspectra.{module}")
        assert name in mod.__all__, f"{name} is not in signspectra.{module}.__all__"
        assert getattr(signspectra, name) is getattr(mod, name)


def test_readme_spec_table_matches_gen():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`\w+`", cells[0]):
            rows[cells[0].strip("`")] = tuple(re.findall(r"`(\w+)`", cells[1]))
    assert rows == {kind: fields for kind, (_, fields) in gen._KINDS.items()}


def test_readme_leaf_table_matches_classify():
    rows = [(label, reports) for label, _, reports in readme_leaf_table()]
    assert rows == [(leaf.label, leaf.reports) for leaf in _LEAVES]
