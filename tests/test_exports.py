"""The package exports, functions and methods only what something outside
the tests reads.

Every name rankfuzz/__init__.py re-exports must be read by another
library module, a demo script, a perfbench file or README.md.  A read is
a name or attribute an expression loads, or, for the benchmark's tracer,
which wraps functions by name, a string constant equal to the name;
README.md counts a name wherever it appears as a word.

Every public module-level function and public method of the library,
dunder methods aside, must be read by a library module or a demo script,
named by a string constant in perfbench/, or named in README.md.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankfuzz"

# public names no code outside the tests reads, which the check forgives
UNREAD_ALLOWED = set()


def exported(init_source: str) -> list:
    """Names the package __init__ imports from its modules."""
    return [
        a.asname or a.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]


def string_constants(source: str) -> set:
    return {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def read_names(source: str) -> set:
    """Names, attributes and whole string constants a module loads."""
    out = string_constants(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def public_callables(source: str) -> list:
    """Names of the public module-level functions and public methods a
    module defines; a dunder method is called by Python itself."""
    body = ast.parse(source).body
    methods = [m for c in body if isinstance(c, ast.ClassDef) for m in c.body]
    return [
        node.name
        for node in body + methods
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def unread_exports(init_source: str, sources, readme: str) -> list:
    read = set(re.findall(r"\w+", readme)).union(*map(read_names, sources))
    return [name for name in exported(init_source) if name not in read]


def unread_callables(library, demos, perfbench, readme: str) -> list:
    read = set(re.findall(r"\w+", readme)).union(
        *map(read_names, library + demos), *map(string_constants, perfbench)
    )
    return [name for source in library for name in public_callables(source) if name not in read]


def _texts(paths) -> list:
    return [p.read_text(encoding="utf-8") for p in paths]


def test_every_export_is_read_outside_the_tests():
    files = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, _texts(files), readme) == []


def test_every_public_function_and_method_is_read_outside_the_tests():
    library = _texts(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    demos = _texts((ROOT / "demos").glob("*.py"))
    perfbench = _texts((ROOT / "perfbench").rglob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = unread_callables(library, demos, perfbench, readme)
    assert sorted(set(unread) - UNREAD_ALLOWED) == []


def test_the_check_finds_an_unread_export():
    init = "from .a import used, spanned, documented, unused\n"
    sources = ["used(1)\nprint('unused here')\n", "WRAP = [('rankfuzz.a', 'spanned')]\n"]
    assert unread_exports(init, sources, "see `documented`") == ["unused"]


def test_the_check_finds_an_unread_function_or_method():
    library = [
        "def used(): pass\ndef spanned(): pass\ndef _private(): pass\n"
        "class C:\n    def __len__(self): pass\n    def unused(self): pass\n"
        "    def called(self): pass\n",
        "def documented(): pass\ndef only_perfbench_calls(): pass\nused()\n",
    ]
    demos = ["C().called()\n"]
    perfbench = ["WRAP = ('rankfuzz.a', 'spanned')\nonly_perfbench_calls()\n"]
    unread = unread_callables(library, demos, perfbench, "see `documented`")
    assert unread == ["unused", "only_perfbench_calls"]
