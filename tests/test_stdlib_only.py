"""The runtime imports nothing outside the standard library; every module
but the package's ``__init__``, and every test module, uses each name it
imports; every name the package defines is used somewhere, and by the
package or the benchmark, not by tests alone; and every field of its
dataclasses is read somewhere."""

import ast
import importlib
import sys
from pathlib import Path

import ubisim

PACKAGE = Path(ubisim.__file__).parent
TESTS = Path(__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def foreign_imports(path):
    """(line, module) of each import in ``path`` that is neither ubisim nor stdlib."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one inside the package
        for name in names:
            top = name.split(".")[0]
            if top != "ubisim" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def unused_imports(path):
    """(line, name) of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue  # not an import, or a compiler directive
        found += [(node.lineno, name) for name in names if name not in used]
    return found


def definitions(tree):
    """(name, qualified name, first line, last line) of each module-level
    function, class and constant in ``tree`` and of each method of its
    classes, dunders left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found += [(f.name, f"{node.name}.{f.name}", f.lineno, f.end_lineno)
                          for f in node.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, n.id, node.lineno, node.end_lineno) for t in targets
                      for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [d for d in found if not (d[0].startswith("__") and d[0].endswith("__"))]


def references(tree):
    """(name, line) of each name ``tree`` reads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def parse_all(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def dead_names(modules, readers):
    """(file, line, qualified name) of each definition in ``modules`` that no
    file of ``modules`` or ``readers`` refers to outside the definition."""
    trees = parse_all({*modules, *readers})
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            seen.setdefault(name, []).append((path, line))
    dead = []
    for path in modules:
        for name, qualname, first, last in definitions(trees[path]):
            if all(p == path and first <= line <= last for p, line in seen.get(name, [])):
                dead.append((path.name, first, qualname))
    return dead


def attribute_reads(tree):
    """Each name ``tree`` reads as an attribute or through ``getattr`` with a
    constant name; a store or ``del`` is no read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def is_dataclass(cls):
    for deco in cls.decorator_list:
        deco = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(deco, "attr", getattr(deco, "id", None)) == "dataclass":
            return True
    return False


def unread_fields(modules, readers):
    """(file, line, Class.field) of each field of a module-level dataclass in
    ``modules`` whose name no file of ``modules`` or ``readers`` reads."""
    trees = parse_all({*modules, *readers})
    read = {name for tree in trees.values() for name in attribute_reads(tree)}
    return [(path.name, stmt.lineno, f"{cls.name}.{stmt.target.id}")
            for path in modules for cls in trees[path].body
            if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


ENUMS = {"Status", "Mode", "Outcome"}


def enum_member_loads(path):
    """(line, Enum.MEMBER) of each member of a package enum that ``path``
    reads through its class inside a function or lambda body. Functions read
    the module constants instead; see the model module's docstring."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies += node.body
        elif isinstance(node, ast.Lambda):
            bodies.append(node.body)
    return sorted({(n.lineno, f"{n.value.id}.{n.attr}") for body in bodies for n in ast.walk(body)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   and isinstance(n.value, ast.Name) and n.value.id in ENUMS})


def overrides_a_base(module_file, qualname):
    """Whether ``qualname`` is a method of a package class that replaces one
    it inherits, which the base's own callers reach."""
    owner, _, name = qualname.rpartition(".")
    module = importlib.import_module(f"ubisim.{Path(module_file).stem}")
    return bool(owner) and any(name in vars(base) for base in getattr(module, owner).__mro__[1:])


def test_every_module_imports_only_stdlib_and_ubisim():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: foreign_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_flags_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import model\nimport hypothesis\nfrom numpy import array\n")
    assert foreign_imports(probe) == [(3, "hypothesis"), (4, "numpy")]


def test_no_function_reads_an_enum_member_through_its_class():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: enum_member_loads(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_flags_an_enum_member_load(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "RUNNING = Status.RUNNING\n"
        "class Rec:\n    status: Status = Status.RUNNING\n"
        "def alive(dev, mode=Mode.DYNAMIC):\n    return dev.status is Status.RUNNING\n"
        "failed = lambda o: o is Outcome.FAILED\n"
        "def other(dev):\n    Status.RUNNING = 1\n    return dev.Status.RUNNING is RUNNING\n"
    )
    assert enum_member_loads(probe) == [(5, "Status.RUNNING"), (6, "Outcome.FAILED")]


def test_every_module_uses_what_it_imports():
    # __init__ imports names only to re-export them
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 9 and len(tests) >= 10
    offenders = {str(p.relative_to(p.parents[1])): unused_imports(p) for p in modules + tests}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\nimport os.path as osp\nfrom . import model\n"
        "from dataclasses import InitVar, field\n"
        "x: model.Service = field()\nos.sep\n"
    )
    assert unused_imports(probe) == [(3, "osp"), (5, "InitVar")]


def test_every_defined_name_is_used():
    modules = sorted(PACKAGE.rglob("*.py"))
    readers = sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert len(modules) >= 10 and len(readers) >= 16
    dead = dead_names(modules, readers)
    assert [d for d in dead if not overrides_a_base(d[0], d[2])] == []
    assert unread_fields(modules, readers) == []


# reference implementations the tests compare the package's own code against
TEST_REFERENCES = {"elect_head"}


def test_no_package_name_is_reached_only_by_tests():
    # __init__ re-exports names for library users; it calls none of them
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    readers = sorted(BENCH.glob("*.py"))
    assert len(modules) >= 9 and len(readers) >= 6
    dead = dead_names(modules, readers)
    assert [d for d in dead
            if d[2] not in TEST_REFERENCES and not overrides_a_base(d[0], d[2])] == []


def test_guard_flags_a_dead_name(tmp_path):
    module, reader = tmp_path / "module.py", tmp_path / "reader.py"
    module.write_text(
        "__version__ = '1'\nLIMIT = 3\nUNUSED = 4\n"
        "def walk(n):\n    return walk(n - 1) if n else LIMIT\n"
        "class Box:\n    def __init__(self):\n        self.kept = self.fill()\n"
        "    def fill(self):\n        return 1\n    def spare(self):\n        return 2\n"
        "@dataclasses.dataclass(slots=True)\n"
        "class Rec:\n    kept: int\n    named: int\n    written: int = 0\n"
    )
    reader.write_text(
        "from module import Box, Rec\nBox.spare = None\n"
        "rec = Rec(1, 2)\nrec.written = rec.kept + getattr(rec, 'named')\n"
    )
    assert dead_names([module], [reader]) == [
        ("module.py", 3, "UNUSED"), ("module.py", 4, "walk"), ("module.py", 11, "Box.spare"),
    ]
    assert unread_fields([module], [reader]) == [("module.py", 17, "Rec.written")]
    assert overrides_a_base("cli.py", "_Parser.error")  # argparse calls it
    assert not overrides_a_base("cli.py", "_build_parser")
