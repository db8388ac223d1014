"""Every definition in the core package is read: each module-level
function, class and assigned name in ``src/arsenal_sim``, and each method,
is read somewhere in ``src/``, ``tests/`` or ``bench/``, so a refactor
leaves no definition behind. Dunder names are called by Python itself and
are exempt. Likewise every attribute a class keeps on ``self`` is loaded
as an attribute somewhere, so a refactor leaves no state behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arsenal_sim").glob("*.py"))
READERS = sorted(path for folder in ("src", "tests", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def defined(tree: ast.Module) -> list[str]:
    """A module's top-level functions, classes and assigned names, and its
    classes' methods."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def read(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread(source: str, readers: list[str]) -> list[str]:
    """The names ``source`` defines that neither it nor ``readers`` read."""
    tree = ast.parse(source)
    seen = read(tree).union(*(read(ast.parse(text)) for text in readers))
    return [name for name in defined(tree) if name not in seen]


def state(tree: ast.Module) -> list[str]:
    """The attributes a module's classes assign on ``self``, by plain,
    annotated or augmented assignment, and their ``__slots__`` entries."""
    names = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for target in targets:
                names += [n.attr for n in ast.walk(target)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == "self"]
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names += [item.value for item in ast.walk(node.value)
                              if isinstance(item, ast.Constant)]
    return list(dict.fromkeys(names))


def loaded_attributes(tree: ast.Module) -> set[str]:
    """Every attribute name ``tree`` loads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_state(source: str, readers: list[str]) -> list[str]:
    """The attributes ``source``'s classes keep that neither it nor
    ``readers`` load as an attribute."""
    tree = ast.parse(source)
    seen = loaded_attributes(tree).union(
        *(loaded_attributes(ast.parse(text)) for text in readers))
    return [name for name in state(tree) if name not in seen]


def test_finds_an_unread_definition():
    source = ("def f(): pass\ndef g(): pass\n"
              "class C:\n    def __init__(self): pass\n"
              "    def m(self): pass\n    def n(self): pass\n"
              "X = 1\nY: int = 2\nA, B = 3, 4\nZ = 5\ng()\n")
    readers = ["from mod import C, Y\nC().n()\nA = B\n", "Z.attr\n"]
    assert unread(source, readers) == ["f", "m", "X", "A"]


def test_core_reads_every_definition():
    assert SOURCES
    readers = [path.read_text() for path in READERS]
    unused = {f"{path.name}: {name}" for path in SOURCES
              for name in unread(path.read_text(), readers)}
    assert not unused


def test_finds_unread_state():
    source = ("class C:\n    __slots__ = ('a', 'b', 'kept')\n"
              "    def __init__(self):\n        self.a = 1\n"
              "        self.b: int = 2\n        self.c, self.d = 3, 4\n"
              "    def m(self, other):\n        self.e += 1\n"
              "        self.d[0] = self.a\n        other.f = 5\n"
              "        kept = 6\n")
    readers = ["x.c\nc.e = x\ngetattr(x, 'b')\nkept\n"]
    assert unread_state(source, readers) == ["b", "kept", "e"]


def test_core_reads_every_attribute_it_keeps():
    readers = [path.read_text() for path in READERS]
    unused = {f"{path.name}: {name}" for path in SOURCES
              for name in unread_state(path.read_text(), readers)}
    assert not unused
