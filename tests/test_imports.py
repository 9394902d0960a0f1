"""Six lint rules checked with the standard library's `ast`.

Every module-level import of a package module is read in that module, or
its line says `# noqa: F401`: names kept bound only so the benchmark tracer
can wrap them there.  In `__init__.py` a name listed in `__all__` counts as
read.  Every name so marked is a wrap point of `benchmarks/tracing.py` in
that module, so a mark outlives no wrap point.  Every private module-level
function or class of the package is referenced by name somewhere in the
package outside its own definition, or is listed in `UNREFERENCED_HELPERS`
with the reason it stays.  Every name in `implinear.__all__` resolves, and
is read by some package module other than `__init__.py`, outside its own
definition and outside the definitions of exports nothing reads, so an
export that only the tests use has no place in the package.  Every
module-level class of the package is a `NamedTuple`, an exception, or a
class whose `__init__` raises, that is, one that checks its input: a
record that checks nothing needs no constructor of its own.
"""

import ast
import builtins
import importlib.util
import sys
from pathlib import Path

import pytest

import implinear

PACKAGE = Path(implinear.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# "module.name" of each private helper the package itself never references
UNREFERENCED_HELPERS = {
    "theory._cone_generators": "the tests' ONP oracle and a benchmark tracer wrap point",
}


def module_imports(path: Path) -> list[tuple[int, str, bool]]:
    """(line, bound name, whether the line says `# noqa: F401`) of every
    module-level import but those from `__future__`."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imports = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            noqa = any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno})
            imports.append((alias.lineno, alias.asname or alias.name.split(".")[0], noqa))
    return imports


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module's `__all__`."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def unused_imports(path: Path) -> list[str]:
    """Module-level imported names that nothing in the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= exported_names(tree)
    return [f"{path.name}:{line}: {name}" for line, name, noqa in module_imports(path)
            if name not in read and not noqa]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read_or_marked(path):
    assert unused_imports(path) == []


def test_the_rule_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\n"
                      "print(pi)\n")
    assert unused_imports(module) == ["m.py:1: os", "m.py:5: tau"]


def marks_off_wrap_points(paths: list[Path], wrap_points) -> list[str]:
    """"module.name" of each import marked `# noqa: F401` that is no
    (module, name) of the given wrap points."""
    wrapped = {f"{module}.{name}" for module, name, *_ in wrap_points}
    marked = [f"{PACKAGE.name}.{path.stem}.{name}" for path in paths
              for _, name, noqa in module_imports(path) if noqa]
    return [mark for mark in marked if mark not in wrapped]


def test_every_marked_import_is_a_wrap_point(monkeypatch):
    spec = importlib.util.spec_from_file_location("implinear_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert marks_off_wrap_points(MODULES, tracing.WRAP_POINTS) == []


def test_the_rule_sees_a_mark_without_a_wrap_point(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from math import pi, tau  # noqa: F401\nimport os\n")
    assert marks_off_wrap_points([module], [("implinear.m", "pi", "span")]) == ["implinear.m.tau"]


def owned_reads(path: Path) -> set[tuple[tuple[str, str] | None, str]]:
    """(owner, name) of every name or attribute the module reads, with owner
    the ("module", name) of the module-level function or class whose
    definition reads it, or None at module level."""
    read = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = (path.stem, stmt.name)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                read.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                read.add((owner, node.attr))
    return read


def unreferenced_helpers(paths: list[Path]) -> list[str]:
    """Private module-level functions and classes ("module.name") that no
    name or attribute in the given modules reads outside their own
    definition."""
    read = set().union(*map(owned_reads, paths))
    defined = [(path.stem, stmt.name) for path in paths
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.endswith("__")]
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


def unread_exports(init: Path, paths: list[Path]) -> list[str]:
    """Names in the `__all__` of `init` that none of the given modules reads
    outside the name's own definition and the definitions of other unread
    names, so an export read only by a dead export is dead too."""
    exported = exported_names(ast.parse(init.read_text(encoding="utf-8")))
    read = set().union(*(owned_reads(path) for path in paths if path != init))
    unread: set[str] = set()
    while True:  # grows until the reads left uncounted make no more names unread
        now = exported - {n for o, n in read if o is None or o[1] != n and o[1] not in unread}
        if now == unread:
            return sorted(unread)
        unread = now


def test_every_export_is_read_by_the_package():
    assert unread_exports(PACKAGE / "__init__.py", MODULES) == []


def test_the_rule_sees_an_unread_export(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .m import used, dead, helper, recursive, Typed\n\n"
                    "__all__ = ['used', 'dead', 'helper', 'recursive', 'Typed']\n")
    module = tmp_path / "m.py"
    module.write_text("class Typed:\n    pass\n\n\ndef used(x: Typed):\n    return x\n\n\n"
                      "def helper():\n    pass\n\n\ndef dead():\n    return helper()\n\n\n"
                      "def recursive(n):\n    return recursive(n)\n")
    other = tmp_path / "o.py"
    other.write_text("import m\n\nVALUE = m.used(None)\n")
    assert unread_exports(init, [init, module]) == ["Typed", "dead", "helper", "recursive", "used"]
    assert unread_exports(init, [init, module, other]) == ["dead", "helper", "recursive"]


def base_names(cls: ast.ClassDef) -> set[str]:
    return {b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
            if isinstance(b, (ast.Name, ast.Attribute))}


def unchecked_classes(paths: list[Path]) -> list[str]:
    """"module.name" of each module-level class that is no `NamedTuple`,
    no exception and no class whose `__init__` contains a `raise`."""
    classes = [(path.stem, stmt) for path in paths
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(stmt, ast.ClassDef)]
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    for _ in classes:  # a subclass of the package's own exception is one too
        errors |= {cls.name for _, cls in classes if base_names(cls) & errors}
    return sorted(f"{module}.{cls.name}" for module, cls in classes
                  if not base_names(cls) & (errors | {"NamedTuple"})
                  and not any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                              and any(isinstance(n, ast.Raise) for n in ast.walk(stmt))
                              for stmt in cls.body))


def test_every_class_is_a_record_an_error_or_checks_its_input():
    assert unchecked_classes(MODULES) == []


def test_the_rule_sees_a_class_that_checks_nothing(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import typing\nfrom typing import NamedTuple\n\n\n"
                      "class Record(NamedTuple):\n    x: int\n\n\n"
                      "class Qualified(typing.NamedTuple):\n    x: int\n\n\n"
                      "class Error(ValueError):\n    pass\n\n\n"
                      "class SubError(Error):\n    pass\n\n\n"
                      "class Checked:\n    def __init__(self, x):\n        if x < 0:\n"
                      "            raise ValueError(x)\n        self.x = x\n\n\n"
                      "class Unchecked:\n    def __init__(self, x):\n        self.x = x\n\n\n"
                      "class Bare:\n    pass\n")
    assert unchecked_classes([module]) == ["m.Bare", "m.Unchecked"]
