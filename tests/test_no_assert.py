"""The library states its invariants as explicit raises, never as
`assert` statements, which `python -O` drops."""

import ast
from pathlib import Path

import latcov


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(latcov.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
