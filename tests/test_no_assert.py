"""The library states its invariants as explicit raises, never as
`assert` statements, which `python -O` drops, and its modules import
only what they use."""

import ast
from pathlib import Path

import latcov


def _modules():
    for path in sorted(Path(latcov.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_assert_statements():
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_modules_use_every_import():
    found = []
    for path, tree in _modules():
        if path.name == "__init__.py":     # imports to re-export
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
