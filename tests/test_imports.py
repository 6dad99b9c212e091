"""Every imported name is read somewhere in its module.

An import left behind by a refactor is dead code that still loads, and
it hides which module depends on which. Names a module lists in its
``__all__`` are exempt: importing them is how a package re-exports them.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unread_imports(source):
    """Names bound by an import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = set(bound) - read - _exported(tree)
    return sorted((bound[n], n) for n in unused)


def test_scan_finds_an_unread_import():
    src = "import math\nimport os\nfrom json import dumps, loads\n" \
          "print(math.pi, loads)\n"
    assert unread_imports(src) == [(2, "os"), (3, "dumps")]
    assert unread_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize(
    "path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES]
)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []
