"""Every name a module of ``repro`` exports in ``__all__`` resolves, and
something other than the tests uses it; so does every public method of a
``repro`` class."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
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


#: Public methods of ``repro`` classes that only the tests call, kept on
#: purpose: ``Class.method`` -> why.
TEST_ONLY_MEMBERS = {
    "Module.state_dict": "the weights a durable model file (ROADMAP 2(b)) "
                         "will be written from",
    "Module.load_state_dict": "the inverse of state_dict, which a durable "
                              "model file (ROADMAP 2(b)) will be read through",
    "Module.num_parameters": "a model's weight count, part of the Module API",
    "Module.parameter_bytes": "a model's weight bytes, what the estimator's "
                              "weight term prices (ROADMAP 5(a))",
    "Dataset.has_graph": "the named-graph membership test of the dataset API",
    "DatasetSnapshot.has_graph": "the same membership test on a pinned dataset",
    "GraphStatistics.top_edge_types": "the k most frequent edge types of a "
                                      "KG's statistics",
    "GraphStatistics.top_node_types": "the k most frequent node types of a "
                                      "KG's statistics",
    "Token.is_keyword": "the tokenizer's keyword test, which its own tests use",
    "KGNet.predict_node_class": "the facade's single-node prediction, the "
                                "partner of its predict_links",
    "KGNet.train_sparqlml": "the facade's TrainGML from a SPARQL-ML INSERT "
                            "text (paper Fig 8)",
    "KGNet.api_metrics": "the per-route service counters the README documents",
    "RemoteClient.protocol_ask": "the remote client's ASK over the protocol, "
                                 "the partner of its protocol_select",
}

_DEF_LINE = re.compile(r"\s*(?:async\s+)?def\s+(\w+)")

#: Classes that answer another class's API without inheriting from it: a
#: file that names the other class may call either.
STAND_INS = {"UnionGraphView": "Graph"}

#: Public methods called outside the tests only where their class goes
#: unnamed (reached through a function's result or a field): ``Class.method``
#: -> the caller.
UNNAMED_CALLERS = {
    "GraphStatistics.as_dict": "the router's `stats` op, on "
                               "`compute_statistics(...)`",
    "MetaSamplingReport.as_dict": "`SPARQLMLService.train_request`, on the "
                                  "report `MetaSampler.extract` returns",
    "TransformReport.as_dict": "`GMLaaS.train`, on "
                               "`TrainingOutcome.transform_report`",
}


def _classes(root: Path):
    """Every ``repro`` class by name: its base names and its public methods
    as ``(name, file, first line, last line)``."""
    classes = {}
    for path in (root / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases, methods = classes.setdefault(node.name, (set(), []))
                bases.update(base.id if isinstance(base, ast.Name) else base.attr
                             for base in node.bases
                             if isinstance(base, (ast.Name, ast.Attribute)))
                methods += [(item.name, path.resolve(), item.lineno, item.end_lineno)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")]
    return classes


def _kin(classes, name: str) -> set:
    """``name``, what it stands in for, every class it inherits from and
    every class that inherits from it."""
    def closure(step) -> set:
        found, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in found:
                found.add(current)
                todo += step(current)
        return found
    ancestors = closure(lambda current: [base for base in classes[current][0]
                                         if base in classes])
    descendants = closure(lambda current: [other for other, (bases, _) in classes.items()
                                           if current in bases])
    return ancestors | descendants | {STAND_INS.get(name, name)}


def _unused_members():
    """``Class.method`` for every public method of a ``repro`` class that no
    .py file under src/, examples/ or benchmarks/ names outside its own body
    and off a line that defines a method of that name.  When several classes
    define the name, a use counts for a class only in a file that also names
    the class or one of its kin (:func:`_kin`)."""
    root = Path(repro.__file__).resolve().parents[2]
    uses, mentions = {}, {}
    for folder in ("src", "examples", "benchmarks"):
        for path in (root / folder).rglob("*.py"):
            path = path.resolve()
            text = path.read_text(encoding="utf-8")
            mentions[path] = set(re.findall(r"\w+", text))
            for number, line in enumerate(text.splitlines(), 1):
                defined = _DEF_LINE.match(line)
                words = set(re.findall(r"\w+", line))
                if defined:
                    words.discard(defined.group(1))
                for word in words:
                    uses.setdefault(word, []).append((path, number))
    classes = _classes(root)
    owners = Counter(name for _, methods in classes.values()
                     for name in {method[0] for method in methods})
    unused = set()
    for cls, (_, methods) in classes.items():
        kin = _kin(classes, cls)
        for name, home, first, last in methods:
            if not any((path != home or not first <= number <= last)
                       and (owners[name] == 1 or mentions[path] & kin)
                       for path, number in uses.get(name, ())):
                unused.add(f"{cls}.{name}")
    assert sum(len(methods) for _, methods in classes.values()) > 500
    return unused


def test_every_public_member_is_used_outside_the_tests():
    """A public method of a ``repro`` class is called by something other
    than the tests (:func:`_unused_members`); else it belongs to the tests,
    or nowhere."""
    unused = _unused_members()
    kept = set(TEST_ONLY_MEMBERS) | set(UNNAMED_CALLERS)
    assert sorted(unused - kept) == []
    assert sorted(kept - unused) == []


def _unused_imports(tree: ast.Module) -> list:
    """Names a module binds by an import and never reads: no ``Name`` node
    loads them and its ``__all__`` does not list them."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


def test_no_module_imports_what_it_does_not_use():
    """Every name a ``repro`` module imports is read in that module or
    re-exported through its ``__all__`` (there is no linter in the tier-1
    job, so this holds the count at zero)."""
    root = Path(repro.__file__).resolve().parent
    unused = {}
    for path in sorted(root.rglob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(root))] = names
    assert unused == {}


#: Values a caller can set without editing code, over ``src/repro``: every
#: function parameter with a default and every ``@dataclass`` field with a
#: default.  A change that adds one raises this number and says why in
#: CHANGES.md; a change that removes one lowers it.
SETTABLE_VALUES = 673


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign) and item.value is not None
                         and "ClassVar" not in ast.unparse(item.annotation)
                         for item in node.body)
    return count


def test_settable_values_do_not_grow():
    """The simplicity rule "no new knobs", held in tier-1: the settable
    values of ``src/repro`` are exactly ``SETTABLE_VALUES``."""
    root = Path(repro.__file__).resolve().parent
    assert sum(_settable_values(ast.parse(path.read_text(encoding="utf-8")))
               for path in root.rglob("*.py")) == SETTABLE_VALUES
