"""The bench tracer's targets, checked without running the bench.

``bench/spans.py`` traces a run by rebinding the public functions it lists
in every ``bridgecovers`` namespace.  A target that no longer exists breaks
the tracer, and a route table that stores a traced function itself keeps
the original out of reach of the rebinding, so its calls go unrecorded.
"""

import importlib
import importlib.util
from pathlib import Path

from bridgecovers import homology

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_targets():
    """(span name, module, attribute) of every target in bench/spans.py."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def resolve(module, attr):
    owner = importlib.import_module("bridgecovers." + module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_targets_resolve():
    for name, module, attr in traced_targets():
        assert callable(resolve(module, attr)), name


def test_routes_reach_traced_functions_through_globals():
    traced = [resolve(module, attr) for _, module, attr in traced_targets()]
    for name, route in homology.ROUTES.items():
        assert not any(route is fn for fn in traced), name
