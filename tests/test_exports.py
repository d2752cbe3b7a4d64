"""Every name a module of ``repro`` exports in ``__all__`` resolves, and
something other than the tests uses it."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

#: Exported names that only the tests may use, kept on purpose.
TEST_ONLY_EXPORTS = {
    "ReferenceQueryEvaluator": "the differential oracle the SPARQL suites compare "
                               "against; benchmarks/e2e imports it too",
    "evaluate_expression": "the expression oracle compiled FILTERs are compared "
                           "with; benchmarks/e2e imports it too",
    "is_fresh_path_variable": "the path rewriter's invariant, asserted by the "
                              "property-path suites",
    "serialize_query": "the parser's inverse, which the round-trip suites use",
    "dblp_author_similarity_task": "Table I's DBLP entity-similarity task, which "
                                   "the pinned similarity answers train on",
}


def _modules():
    names = [repro.__name__] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix=repro.__name__ + ".")]
    return [importlib.import_module(name) for name in names]


def test_every_exported_name_resolves():
    modules = _modules()
    missing = []
    for module in modules:
        missing += [f"{module.__name__}.{exported}"
                    for exported in getattr(module, "__all__", ())
                    if not hasattr(module, exported)]
    assert len(modules) > 50
    assert missing == []


def _defined_at_top_level(source: str) -> set:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _source_file(value):
    """The resolved source file of a class or function, if it has one."""
    try:
        return Path(inspect.getsourcefile(value)).resolve()
    except TypeError:
        return None


def test_every_exported_name_is_used_outside_the_tests():
    """A name in some ``__all__`` occurs in a .py file under src/, examples/
    or benchmarks/ other than the module that defines it and the package
    ``__init__``s that re-export it; else it belongs to the tests, or
    nowhere."""
    root = Path(repro.__file__).resolve().parents[2]
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "examples", "benchmarks")
               for path in (root / folder).rglob("*.py")}
    words = {path: set(re.findall(r"\w+", text)) for path, text in sources.items()}
    home = {}  # exported name -> the files that do not count as a use
    for module in _modules():
        path = Path(module.__file__).resolve()
        defined = _defined_at_top_level(sources[path])
        for name in getattr(module, "__all__", ()):
            skip = home.setdefault(name, set())
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                origin = _source_file(value)
                if origin is not None:
                    skip.add(origin)
            if path.name == "__init__.py" or name in defined:
                skip.add(path)
    unused = sorted(name for name, skip in home.items()
                    if not any(name in words[path]
                               for path in words if path not in skip))
    assert [name for name in unused if name not in TEST_ONLY_EXPORTS] == []
    assert [name for name in TEST_ONLY_EXPORTS if name not in home] == []
