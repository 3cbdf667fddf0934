"""Guard against names that only the tests use.

Every public top-level function or class in ``src/bridgecovers`` and every
public method must be named somewhere in ``src/`` or ``bench/`` besides its
own definition and the package's ``__init__.py``.  Every exception class in
``src/`` must be named in an ``except`` clause in ``src/`` or ``bench/``; a
rejection that no caller tells apart is a plain ``ValueError``.  No module
in ``src/`` other than the package's ``__init__.py`` imports a name it does
not use.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bridgecovers").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def public_names():
    """(file, qualified name) of each public function, class and method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path.name, "%s.%s" % (node.name, sub.name)


def uncalled():
    """(file, qualified name) of each public name whose identifier nothing
    in src/ or bench/ mentions besides the definitions of that identifier."""
    names = list(public_names())
    texts = [p.read_text() for p in SOURCES + BENCH if p.name != "__init__.py"]
    definitions = {}
    for _, qualified in names:
        ident = qualified.rsplit(".", 1)[-1]
        definitions[ident] = definitions.get(ident, 0) + 1
    out = set()
    for path, qualified in names:
        ident = qualified.rsplit(".", 1)[-1]
        pattern = re.compile(r"\b%s\b" % re.escape(ident))
        if sum(len(pattern.findall(text)) for text in texts) <= definitions[ident]:
            out.add((path, qualified))
    return out


def test_every_public_name_has_a_caller():
    assert uncalled() == set()


def exception_classes():
    """(file, name) of each exception class that a module in src/ defines."""
    out = set()
    for path in SOURCES:
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module("bridgecovers." + path.stem)
        out.update((path.name, name) for name, obj in vars(module).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__)
    return out


def caught_names():
    """Names in the except clauses of src/ and bench/ (``mod.Name`` gives Name)."""
    out = set()
    for path in SOURCES + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                out.update(t.id if isinstance(t, ast.Name) else t.attr for t in types)
    return out


def test_every_exception_class_is_caught():
    caught = caught_names()
    assert {(path, name) for path, name in exception_classes() if name not in caught} == set()


def unused_imports():
    """(file, name) of each imported name that its module never reads."""
    out = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.add((path.name, bound))
    return out


def test_no_unused_imports():
    assert unused_imports() == set()
