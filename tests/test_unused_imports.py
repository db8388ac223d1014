"""Every import in the core package is read: a name an import binds is used
somewhere in its module, so a refactor leaves no import behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arsenal_sim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names
                      if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_an_unread_import():
    assert unused_imports("import os\nfrom typing import NamedTuple as T\n"
                          "from .x import a, b\nos.sep\nb()\n") == ["T", "a"]


def test_core_reads_every_import():
    assert SOURCES
    unused = {f"{path.name}: {name}" for path in SOURCES
              for name in unused_imports(path.read_text())}
    assert not unused
