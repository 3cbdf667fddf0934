"""Guard against public names that only the tests use.

Every public top-level function or class in ``src/bridgecovers`` and every
public method must be named somewhere in ``src/`` or ``bench/`` besides its
own definition and the package's ``__init__.py``.
"""

import ast
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
