"""The package exports only names that code outside the package uses."""

import ast
from pathlib import Path

import restrictedsums

ROOT = Path(__file__).resolve().parent.parent


def referenced_names() -> set:
    """Every identifier, attribute and imported name in the CLI, the demos,
    the benchmark and the tests."""
    paths = [ROOT / "src" / "restrictedsums" / "cli.py"]
    for folder in ("demos", "bench", "tests"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_used_outside_the_package():
    assert sorted(set(restrictedsums.__all__) - referenced_names()) == []


PACKAGE_DIR = ROOT / "src" / "restrictedsums"
PACKED_KEY_HELPERS = {"_matrix", "_keys", "_column", "_packed", "_live", "_times", "_multinomial_terms"}


def imports(path) -> list:
    """(module, name) for each name a module imports: (".poly", "_keys") for
    ``from .poly import _keys``, ("numpy", "numpy") for ``import numpy``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return found


def test_each_decision_has_one_owning_module():
    found = {path.stem: imports(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    # only poly packs keys, and only poly and sweeps compute on numpy
    packers = {stem for stem, names in found.items() if PACKED_KEY_HELPERS & {name for _, name in names}}
    assert packers == set()
    numeric = {stem for stem, names in found.items() if any(m.split(".")[0] == "numpy" for m, _ in names)}
    assert numeric <= {"poly", "sweeps"}
    # the CLI labels and writes the coefficient sweep's rows; coeff runs it
    assert {name for module, name in found["cli"] if module == ".coeff"} <= {"proof_replay", "_coefficient_sweep"}
