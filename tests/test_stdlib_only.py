"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import ubisim

PACKAGE = Path(ubisim.__file__).parent


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


def test_every_module_imports_only_stdlib_and_ubisim():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: foreign_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_guard_flags_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import model\nimport hypothesis\nfrom numpy import array\n")
    assert foreign_imports(probe) == [(3, "hypothesis"), (4, "numpy")]
