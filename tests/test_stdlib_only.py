"""The runtime imports nothing outside the standard library, and every
module but the package's ``__init__``, and every test module, uses each name
it imports."""

import ast
import sys
from pathlib import Path

import ubisim

PACKAGE = Path(ubisim.__file__).parent
TESTS = Path(__file__).parent


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


def test_every_module_imports_only_stdlib_and_ubisim():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: foreign_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_flags_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import model\nimport hypothesis\nfrom numpy import array\n")
    assert foreign_imports(probe) == [(3, "hypothesis"), (4, "numpy")]


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
