"""Three lint rules checked with the standard library's `ast`.

Every module-level import of a package module is read in that module, or
its line says `# noqa: F401`: names kept bound only so the benchmark tracer
can wrap them there.  In `__init__.py` a name listed in `__all__` counts as
read.  Every private module-level function or class of the package is
referenced by name somewhere in the package outside its own definition, or
is listed in `UNREFERENCED_HELPERS` with the reason it stays.  And every
name in `implinear.__all__` resolves.
"""

import ast
from pathlib import Path

import pytest

import implinear

PACKAGE = Path(implinear.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))

# "module.name" of each private helper the package itself never references
UNREFERENCED_HELPERS = {
    "theory._cone_generators": "the tests' ONP oracle and a benchmark tracer wrap point",
}


def unused_imports(path: Path) -> list[str]:
    """Module-level imported names that nothing in the module reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # the strings of __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            noqa = any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno})
            if name not in read and not noqa:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read_or_marked(path):
    assert unused_imports(path) == []


def test_the_rule_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\n"
                      "print(pi)\n")
    assert unused_imports(module) == ["m.py:1: os", "m.py:5: tau"]


def unreferenced_helpers(paths: list[Path]) -> list[str]:
    """Private module-level functions and classes ("module.name") that no
    name or attribute in the given modules reads outside their own
    definition."""
    defined, read = [], set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                    defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read.add((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    read.add((owner, node.attr))
    return sorted(f"{module}.{name}" for module, name in defined
                  if not any(n == name and o != (module, name) for o, n in read))


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers(MODULES) == sorted(UNREFERENCED_HELPERS)


def test_the_rule_sees_an_unreferenced_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n)\n\n\n"
                      "class _Dead:\n    pass\n\n\ndef __getattr__(name):\n    return _used\n")
    other = tmp_path / "o.py"
    other.write_text("import m\n\n\ndef _via_attribute():\n    return m._Dead\n")
    assert unreferenced_helpers([module]) == ["m._Dead", "m._recursive"]
    assert unreferenced_helpers([module, other]) == ["m._recursive", "o._via_attribute"]


def test_every_exported_name_resolves():
    missing = [name for name in implinear.__all__ if not hasattr(implinear, name)]
    assert missing == [] and len(set(implinear.__all__)) == len(implinear.__all__)
