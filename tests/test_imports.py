"""Every name a recal module imports is used in it, and every private
function, class and method of the package is named by its code.

No linter ships with the package's test dependencies, so these are the
checks that catch an import, or a private helper, that a deletion
leaves behind.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "recal"


def _unused_imports(source: str) -> list:
    """The names source imports and never reads, as (line, name).

    A name counts as read when it appears as a Name node, inside a
    quoted annotation, or in a module-level __all__; the
    `from __future__` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_src_modules_use_every_import():
    # The check itself first, on a module with two leftovers.
    sample = ("from __future__ import annotations\nimport functools\nimport math\n"
              "from .geometry import point_mass, game_config\n__all__ = ['game_config']\n"
              "def f(x: 'Sequence') -> 'np.ndarray':\n    return math.pi\n")
    assert _unused_imports(sample) == [(2, "functools"), (4, "point_mass")]
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unused and {name: u for name, u in unused.items() if u} == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unnamed_privates(sources: dict) -> list:
    """The private top-level functions and classes, and the private
    methods of top-level classes, of the modules in sources (file name
    to source) that no code of any of them names, as (file, line, name).

    A name counts as named when it appears as a Name node or as an
    attribute; its own definition, a comment or a docstring does not
    count.  Dunder names are not private.
    """
    defined, named = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and _private(item.name):
                    defined.append((fname, item.lineno, item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(d for d in defined if d[2] not in named)


def test_src_modules_name_every_private_definition():
    # The check itself first, on two modules with two leftovers: one
    # named only in a docstring, and one method that nothing calls.
    sample = {
        "a.py": ("def _used(x):\n    return x\n"
                 "def _left():\n    '''Not _left by _used.'''\n"
                 "class _Box:\n    def __init__(self):\n        self._n = 0\n"
                 "    def _size(self):\n        return self._n\n"
                 "    def _gone(self):\n        pass\n"),
        "b.py": "from .a import _Box, _used\nprint(_used(_Box()._size()))\n",
    }
    assert _unnamed_privates(sample) == [("a.py", 3, "_left"), ("a.py", 10, "_gone")]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert _unnamed_privates(sources) == []
