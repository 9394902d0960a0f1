"""Two lint rules checked with the standard library's `ast`.

Every module-level import of a package module is read in that module, or
its line says `# noqa: F401`: names kept bound only so the benchmark tracer
can wrap them there.  In `__init__.py` a name listed in `__all__` counts as
read.  And every name in `implinear.__all__` resolves.
"""

import ast
from pathlib import Path

import pytest

import implinear

PACKAGE = Path(implinear.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def test_every_exported_name_resolves():
    missing = [name for name in implinear.__all__ if not hasattr(implinear, name)]
    assert missing == [] and len(set(implinear.__all__)) == len(implinear.__all__)
