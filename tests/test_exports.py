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
