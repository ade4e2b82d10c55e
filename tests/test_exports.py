"""The package exports only names something outside the tests reads.

Every name rankfuzz/__init__.py re-exports must be read by another
library module, a demo script, a perfbench file or README.md.  A read is
a name or attribute an expression loads, or, for the benchmark's tracer,
which wraps functions by name, a string constant equal to the name;
README.md counts a name wherever it appears as a word.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankfuzz"


def exported(init_source: str) -> list:
    """Names the package __init__ imports from its modules."""
    return [
        a.asname or a.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]


def read_names(source: str) -> set:
    """Names, attributes and whole string constants a module loads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_exports(init_source: str, sources, readme: str) -> list:
    read = set(re.findall(r"\w+", readme)).union(*map(read_names, sources))
    return [name for name in exported(init_source) if name not in read]


def test_every_export_is_read_outside_the_tests():
    files = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    sources = [p.read_text(encoding="utf-8") for p in files]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, sources, readme) == []


def test_the_check_finds_an_unread_export():
    init = "from .a import used, spanned, documented, unused\n"
    sources = ["used(1)\nprint('unused here')\n", "WRAP = [('rankfuzz.a', 'spanned')]\n"]
    assert unread_exports(init, sources, "see `documented`") == ["unused"]
