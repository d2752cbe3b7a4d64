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
SETTABLE_VALUES = 590


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


#: Settable values (see ``SETTABLE_VALUES``) that no call under src/,
#: tests/, benchmarks/ or examples/ passes, kept on purpose:
#: ``callable(param)`` -> why.  A key that is a bare class name covers
#: every field of that class.
UNSET_SETTINGS = {
    "QueryInterrupted": "an interrupt's `details`: the context assigns "
                        "them, and `exception_from_payload` passes them "
                        "back from a wire payload as `cls(message, **fields)`",
    "TransE(seed)": "set by `method_selector._transductive`, whose "
                    "`model_class(..., seed=config.seed)` the name match "
                    "cannot resolve",
    "ResourceUsage": "what a training run measured: state, not a setting",
    "TransformReport": "a transform's report, filled in as it runs",
    "MetaSamplingReport": "a meta-sampling run's report, filled in as it runs",
    "RouteMetrics": "per-route counters, state the router updates",
    "UserDefinedPredicate": "a SPARQL-ML AST node, filled in by the parser",
    "SelectQuery": "a SPARQL AST node, filled in by the parser",
    "ConstructQuery": "a SPARQL AST node, filled in by the parser",
    "ServiceResponse(stream_error)": "state: the streaming guard assigns it "
                                     "when a body is cut mid-transfer",
    "APIClient.load_graph(graph_iri)": "the `load` op's `graph_iri` envelope "
                                       "field, which the router takes from "
                                       "any client",
    "APIClient.infer_similar(k)": "the `infer_similar` op's `k` envelope field",
    "APIClient.next_page(page_size)": "the `next_page` op's `page_size` "
                                      "envelope field",
    "KGNet.load_graph(graph_iri)": "the `load` op's `graph_iri` envelope field, "
                                   "from the in-process facade",
    "KGNet.train_task(name)": "the `train` op's `name` envelope field, from "
                              "the in-process facade",
    "RemoteClient.protocol_select(default_graph_uris)": "the SPARQL protocol's "
                                                        "`default-graph-uri` "
                                                        "parameter",
    "ReplicaEngine(fsync)": "a durability setting of a deployment",
    "main(argv)": "the replica CLI's entry point; `None` reads `sys.argv`",
}

_ALL = None  # a call whose ``*args`` / ``**kwargs`` may set anything


def _signature(node) -> tuple:
    """``(positional names, keyword-only names, {name: line} of those
    with a default)`` of a ``def``."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    keyword_only = [arg.arg for arg in args.kwonlyargs]
    defaulted = {arg.arg: default.lineno for arg, default in zip(
        (args.posonlyargs + args.args)[len(positional) - len(args.defaults):],
        args.defaults)}
    defaulted.update((arg.arg, default.lineno)
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)
    return positional, keyword_only, defaulted


def _is_field(item) -> bool:
    """An annotated class-body name that the dataclass ``__init__`` takes."""
    if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
        return False
    if "ClassVar" in ast.unparse(item.annotation):
        return False
    value = item.value
    return not (isinstance(value, ast.Call) and getattr(value.func, "id", getattr(
        value.func, "attr", None)) == "field" and any(
            keyword.arg == "init" and getattr(keyword.value, "value", True) is False
            for keyword in value.keywords))


class _Definitions(ast.NodeVisitor):
    """Every settable value of ``src/repro``, and every class's bases and
    constructor parameters."""

    def __init__(self) -> None:
        self.settings = []  # (callable, name it is called by, param, where)
        self.functions = {}  # name -> [(positional names, keyword-only names)]
        self.bases = {}  # class -> set of base names
        self.inits = {}  # class -> [(param, owning class)], if it has its own
        self.fields = {}  # dataclass -> [(field, owning class)]
        self.path = None
        self._scope = []

    def visit_ClassDef(self, node) -> None:
        self.bases.setdefault(node.name, set()).update(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases if isinstance(base, (ast.Name, ast.Attribute)))
        if _is_dataclass(node):
            fields = self.fields.setdefault(node.name, [])
            for item in node.body:
                if _is_field(item):
                    fields.append((item.target.id, node.name))
                    if item.value is not None:
                        self.settings.append((f"{node.name}({item.target.id})",
                                              node.name, item.target.id,
                                              f"{self.path}:{item.lineno}"))
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node) -> None:
        positional, keyword_only, defaulted = _signature(node)
        owner = self._scope[-1] if self._scope else None
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if isinstance(owner, ast.ClassDef) and "staticmethod" not in decorators:
            positional = positional[1:]
        if isinstance(owner, ast.ClassDef) and node.name == "__init__":
            self.inits.setdefault(owner.name, []).extend(
                (param, owner.name) for param in positional + keyword_only)
            label, key = owner.name, owner.name
        else:
            label = ".".join([scope.name for scope in self._scope] + [node.name])
            key = node.name
            self.functions.setdefault(node.name, []).append((positional, keyword_only))
        self.settings += [(f"{label}({param})", key, param, f"{self.path}:{line}")
                          for param, line in defaulted.items()]
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def constructor(self, cls: str, seen=()) -> list:
        """``[(param, owning class)]`` that calling ``cls`` takes, in order:
        its own ``__init__``, else its dataclass fields after its bases',
        else its first known base's."""
        if cls in self.inits:
            return self.inits[cls]
        known = [base for base in sorted(self.bases.get(cls, ()))
                 if base in self.bases and base not in seen]
        inherited = self.constructor(known[0], seen + (cls,)) if known else []
        if cls in self.fields:
            own = [name for name, _ in self.fields[cls]]
            return ([item for item in inherited if item[0] not in own]
                    + self.fields[cls])
        return inherited


class _Calls(ast.NodeVisitor):
    """What the calls of one file set: ``by_name`` maps a callable's name,
    ``by_class`` a class's name, to ``(positional count, keywords)``
    pairs (``_ALL`` where ``*args`` / ``**kwargs`` may set anything)."""

    def __init__(self, classes, by_name, by_class) -> None:
        self.classes, self.by_name, self.by_class = classes, by_name, by_class
        self._classes = []

    def visit_ClassDef(self, node) -> None:
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node) -> None:
        func, args = node.func, list(node.args)
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "partial" and args:  # functools.partial(f, *args, **kwargs)
            func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
        positional = _ALL if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
        keywords = {keyword.arg for keyword in node.keywords}
        if None in keywords:
            positional = keywords = _ALL
        setter = (positional, keywords)
        here = self._classes[-1] if self._classes else None
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            if isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super":
                for base in self.classes.bases.get(here, ()):
                    self.by_class.setdefault(base, []).append(setter)
            elif getattr(func.value, "id", None) in self.classes.bases:
                self.by_class.setdefault(func.value.id, []).append(
                    (positional if positional is _ALL else positional - 1, keywords))
        elif name in self.classes.bases:
            self.by_class.setdefault(name, []).append(setter)
        elif here and (name == "cls" or (isinstance(func, ast.Call)
                                         and getattr(func.func, "id", None) == "type")):
            self.by_class.setdefault(here, []).append(setter)
        elif name == "replace" and keywords is not _ALL:  # dataclasses.replace
            for cls in self.classes.fields:
                self.by_class.setdefault(cls, []).append((0, keywords))
        elif name is not None:
            self.by_name.setdefault(name, []).append(setter)
        self.generic_visit(node)


def _sets(setters, params, param) -> bool:
    """Whether one of ``setters`` sets ``param`` of a callable that takes
    ``params`` positionally."""
    index = params.index(param) if param in params else None
    return any(keywords is _ALL or param in keywords
               or (index is not None and (positional is _ALL or index < positional))
               for positional, keywords in setters)


def _unset_settings(root: Path) -> list:
    """``(key, "path:line key")`` for every settable value of ``src/repro``
    (a parameter with a default, or a dataclass field with one that its
    ``__init__`` takes) that no call under src/, tests/, benchmarks/ or
    examples/ passes by keyword, by position or through ``*args`` /
    ``**kwargs``.  Calls match a callable by name; a class's call, a
    ``super().__init__`` or a ``Base.__init__`` sets the parameters of the
    constructor that class resolves to (:meth:`_Definitions.constructor`)."""
    definitions = _Definitions()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        definitions.path = path.relative_to(root).as_posix()
        definitions.visit(ast.parse(path.read_text(encoding="utf-8")))
    by_name, by_class = {}, {}
    for folder in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            _Calls(definitions, by_name, by_class).visit(
                ast.parse(path.read_text(encoding="utf-8")))
    set_on_class = set()
    for cls, setters in by_class.items():
        params = definitions.constructor(cls)
        names = [param for param, _ in params]
        set_on_class.update((owner, param) for param, owner in params
                            if _sets(setters, names, param))
    unset = []
    for key, name, param, where in definitions.settings:
        if name in definitions.bases:
            done = (name, param) in set_on_class
        else:
            done = any(_sets(by_name.get(name, ()), positional, param)
                       for positional, _ in definitions.functions.get(name, ()))
        if not done:
            unset.append((key, f"{where} {key}"))
    assert len(definitions.settings) > 500
    return unset


def test_every_setting_is_set_somewhere():
    """The simplicity rule "a value with one use is a constant", held in
    tier-1: every settable value of ``src/repro`` is passed by some call in
    the repository (:func:`_unset_settings`), or ``UNSET_SETTINGS`` says why
    it stays."""
    unset = _unset_settings(Path(repro.__file__).resolve().parents[2])
    offenders = [where for key, where in unset
                 if key not in UNSET_SETTINGS and key.split("(")[0] not in UNSET_SETTINGS]
    assert not offenders, "settings no call passes:\n" + "\n".join(offenders)
    covered = {key for key, _ in unset} | {key.split("(")[0] for key, _ in unset}
    assert sorted(set(UNSET_SETTINGS) - covered) == []
