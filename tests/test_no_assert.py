"""The library states its invariants as explicit raises, never as
`assert` statements, which `python -O` drops, its modules import only
what they use, every private name and every unexported function or
class it defines is used in it, only `lattice._fills` calls its
bounding-box scan, only the chain walk and the chain count list the
rays of a box, only the ray table and the edge signature sort by angle,
and only `lattice._planar` refuses a point set for its dimension."""

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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _definitions():
    """(module, line, name, is_def) for each module-level name the
    library defines, is_def true for a function or a class, and the set
    of names it references outside each name's own definition (a
    recursive call is not a use)."""
    defined, used = [], set()
    for path, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign):
                names = [stmt.target.id] if isinstance(
                    stmt.target, ast.Name) else []
            else:
                names = []
            is_def = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            defined += [(path.name, stmt.lineno, n, is_def) for n in names]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            used |= refs - set(names)
    return defined, used


def test_library_uses_every_private_definition():
    # a private helper that only tests call belongs in tests/
    defined, used = _definitions()
    found = [f"{path}:{line}: {name}" for path, line, name, _ in defined
             if _private(name) and name not in used]
    assert found == []


def test_library_uses_every_unexported_definition():
    # a public function or class the package does not export is a
    # helper, and a helper that only tests call belongs in tests/
    defined, used = _definitions()
    found = [f"{path}:{line}: {name}" for path, line, name, is_def in defined
             if is_def and not _private(name)
             and name not in latcov.__all__ and name not in used]
    assert found == []


def test_only_lattice_names_the_box_scan():
    # the box scan is reached through lattice._fills alone, so replacing
    # it is a change to one function
    name = "_hull_lattice_points"
    found = []
    for path, tree in _modules():
        for stmt in tree.body:
            if path.name == "lattice.py" and \
                    getattr(stmt, "name", None) in (name, "_fills"):
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(stmt)
                      if (isinstance(node, ast.Name) and node.id == name)
                      or (isinstance(node, ast.Attribute)
                          and node.attr == name)
                      or (isinstance(node, ast.alias) and node.name == name)]
    assert found == []
    [fills] = [stmt for path, tree in _modules() if path.name == "lattice.py"
               for stmt in tree.body if getattr(stmt, "name", None) == "_fills"]
    assert any(isinstance(node, ast.Name) and node.id == name
               for node in ast.walk(fills))


def test_only_the_walk_and_the_count_name_the_ray_table():
    # inside _polygons, _ray_groups is reached through walk_chains and
    # count_chains alone, so the partner table walks the walk's own rays
    # and cannot grow a second ray numbering
    name = "_ray_groups"
    allowed = (name, "walk_chains", "count_chains")
    found = []
    for path, tree in _modules():
        if path.name != "_polygons.py":
            continue
        found += [f"{stmt.name}:{node.lineno}" for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef)
                  and stmt.name not in allowed
                  for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and node.id == name]
    assert found == []


def test_only_the_ray_table_and_the_signature_compare_angles():
    # an edge signature has one order, the angle order of the ray table:
    # _ray_groups sorts rays by it and _signature lines, and nothing
    # else in the library sorts by angle
    names = {"cmp_to_key", "_angle_cmp"}
    allowed = {"_ray_groups", "_signature"}
    found = []
    for path, tree in _modules():
        for stmt in tree.body:
            if path.name == "_polygons.py" and (
                    isinstance(stmt, ast.ImportFrom)
                    or getattr(stmt, "name", None) in allowed):
                continue
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(stmt)
                      if (isinstance(node, ast.Name) and node.id in names)
                      or (isinstance(node, ast.Attribute)
                          and node.attr in names)
                      or (isinstance(node, ast.alias) and node.name in names)]
    assert found == []


def test_only_planar_refuses_a_set_for_its_dimension():
    # a public entry that needs planar points, or sets of one dimension,
    # passes them to lattice._planar with its message, so no raise
    # elsewhere states a dimension rule in its own words (a covariogram's
    # dim is not a set, nor are convolve's operands)
    texts = ("requires dimension 2", "expected a planar set",
             "wrong dimension", "dimension mismatch")
    found = []
    for path, tree in _modules():
        for stmt in tree.body:
            if (path.name, getattr(stmt, "name", None)) in (
                    ("lattice.py", "_planar"), ("covariogram.py", "convolve")):
                continue
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Raise)
                      for arg in ast.walk(node)
                      if isinstance(arg, ast.Constant)
                      and isinstance(arg.value, str)
                      and any(t in arg.value for t in texts)]
    assert found == []
