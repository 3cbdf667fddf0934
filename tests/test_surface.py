"""Guard against public names that only the tests use.

Every public top-level function or class in ``src/bridgecovers`` and every
public method must be named somewhere in ``src/`` or ``bench/`` besides its
own definition and the package's ``__init__.py``.  Names in
``PAPER_RESULTS`` implement a statement of the paper that no verb calls
yet; they are exempt, and leave the set once something calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bridgecovers").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

PAPER_RESULTS = {
    # the face-paired ball schema: regions, vertex classes and relators
    "schema_dump",
    # the two-coloured cycles of a gem, whose counts give its genus
    "bicoloured_cycles",
    # the monodromy m_1 -> sigma, m_2 -> sigma^k of the (n; 1, k) covering
    "build_monodromy",
    # the branch components over each link component, with their indices
    "component_orbit_counts",
    # the Heegaard genus bound n + 1 - (number of branch components)
    "orbit_genus",
}


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
    unused = {name for name in uncalled() if name[1] not in PAPER_RESULTS}
    assert unused == set()


def test_paper_results_are_still_uncalled():
    # a paper result that gains a caller leaves the exempt set
    exempt = {qualified for _, qualified in uncalled()} & PAPER_RESULTS
    assert exempt == PAPER_RESULTS
