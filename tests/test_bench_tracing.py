"""The bench tracer's targets, checked without running the bench.

``bench/spans.py`` traces a run by rebinding the public functions it lists
in every ``bridgecovers`` namespace.  A target that no longer exists breaks
the tracer, and a route table that stores a traced function itself keeps
the original out of reach of the rebinding, so its calls go unrecorded.
A kernel that calls back through a traced name is counted twice.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from bridgecovers import cli, homology

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_targets():
    """(span name, module, attribute) of every target in bench/spans.py."""
    return load_spans().TRACED


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


# every presentation route calls h1, and h1 reduces one matrix per distinct
# abelianization key of a report; at k = 1 the link Minkus presentation,
# with its fixed generator, has no key, so it and mu3 are each reduced
@pytest.mark.parametrize("argv, presented, reduced",
                         [(("homology", "10", "3", "5", "1"), 3, 2),
                          (("homology", "8", "3", "4", "1"), 3, 2),
                          (("homology", "5", "3", "3"), 3, 1)])
def test_one_smith_normal_form_call_per_abelianization(capsys, argv, presented, reduced):
    with load_spans().Tracer() as tracer:
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    _, calls = tracer.totals()
    assert calls["homology.h1"] == presented
    assert calls["homology.smith_normal_form"] == reduced


def test_link_polyhedral_route_reuses_the_mu3_group(capsys):
    # mu3 and the schema present the same abelianization: one SNF for both
    with load_spans().Tracer() as tracer:
        assert cli.main(["--format", "json", "homology", "8", "3", "4", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    _, calls = tracer.totals()
    assert (calls["homology.h1"], calls["homology.smith_normal_form"]) == (2, 1)
    groups = {r["route"]: r["group"] for r in report["routes"]}
    assert groups["mu3"] == groups["polyhedral"]


def test_knot_routes_share_one_smith_normal_form(capsys):
    # the polyhedral presentation of a knot is the Minkus circulant and the
    # row x_1 .. x_n, which the circulant spans: all three group routes
    # read one SNF
    with load_spans().Tracer() as tracer:
        assert cli.main(["--format", "json", "homology", "7", "3", "320"]) == 0
    report = json.loads(capsys.readouterr().out)
    _, calls = tracer.totals()
    assert (calls["homology.h1"], calls["homology.smith_normal_form"]) == (3, 1)
    assert report["agree"] is True
    assert {"minkus", "takahashi", "polyhedral"} <= {r["route"] for r in report["routes"]}


def test_one_is_gem_call_per_gem(capsys):
    with load_spans().Tracer() as tracer:
        assert cli.main(["gem", "5", "8", "3", "3"]) == 0
    capsys.readouterr()
    _, calls = tracer.totals()
    assert calls["gems.is_crystallization"] == 1
    assert calls["gems.is_gem"] == 1
