"""Every name a recal module imports is used in it.

No linter ships with the package's test dependencies, so this is the
check that catches an import a deletion leaves behind.
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
