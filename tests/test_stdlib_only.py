"""The core package stays stdlib-only: it imports nothing from outside the
standard library, and the package declares no runtime dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arsenal_sim").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level names of every absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_core_imports_only_the_standard_library():
    assert SOURCES
    outside = {f"{path.name}: {name}" for path in SOURCES
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names and name != "arsenal_sim"}
    assert not outside


def test_package_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    start = lines.index("[project]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")),
               len(lines))
    assert "dependencies = []" in lines[start:end]
