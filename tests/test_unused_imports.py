"""No module imports a name it never reads.

Walks the syntax tree of every library module, test and demo script and
fails on a name an import binds that no expression loads.  The package
__init__.py is left out, since its imports are the re-exported API, and
so is an import line marked "# noqa", which is kept for its side effect.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p
    for d in (ROOT / "src" / "rankfuzz", ROOT / "tests", ROOT / "demos")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) for each imported name the source never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue  # a compiler directive, not a name
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" not in lines[node.lineno - 1]:
            # "import a.b" binds a
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in bound if name not in loaded]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_import():
    source = "import os\nimport sys  # noqa\nfrom a.b import c, d as e\nimport f.g\nprint(c, f)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]
