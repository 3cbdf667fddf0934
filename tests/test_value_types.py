"""The value types: immutable, compared and hashed by their fields, shown in
the ``Name(field=value, ...)`` form, and cheap to import."""

import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bridgecovers
from bridgecovers import two_bridge
from bridgecovers.covering import CoveringClass, CoveringSpec, GenusBounds
from bridgecovers.gems import ColouredGraph, LMParams
from bridgecovers.homology import AbelianGroup, IntMatrix
from bridgecovers.polyhedral import CellComplexCounts, MinkusSchema
from bridgecovers.two_bridge import ContinuedFraction, EvenConwayForm, TwoBridge, normalize
from bridgecovers.words import (CyclicPresentation, FreeWord, LaurentPolynomial,
                                Presentation)

SRC = Path(__file__).resolve().parent.parent / "src"

# (factory, repr of what it builds); each factory builds a new object
VALUES = (
    (lambda: TwoBridge(5, 3), "TwoBridge(alpha=5, beta=3)"),
    (lambda: ContinuedFraction((1, 1, 2)), "ContinuedFraction(entries=(1, 1, 2))"),
    (lambda: EvenConwayForm((1,), (-1,)), "EvenConwayForm(q=(1,), s=(-1,))"),
    (lambda: CoveringSpec(5, (1, 7)), "CoveringSpec(n=5, exponents=(1, 2))"),
    (lambda: CoveringClass(True, True, True, False),
     "CoveringClass(strictly=True, almost_strictly=True, meridian=True, singly=False)"),
    (lambda: GenusBounds(4), "GenusBounds(general=4, braid=None, symmetric=None)"),
    (lambda: ColouredGraph(((1, 0),) * 4, 2, ((1, 1), (0, 0), (0, 0), (0, 0))),
     "ColouredGraph(base=((1, 0), (1, 0), (1, 0), (1, 0)), n=2,"
     " shifts=((1, 1), (0, 0), (0, 0), (0, 0)))"),
    (lambda: LMParams(3, 2, 5, 4), "LMParams(n=3, p=2, q=1, c=1, cprime=1)"),
    (lambda: AbelianGroup(1, (2, 4)), "AbelianGroup(rank=1, torsion=(2, 4))"),
    (lambda: CellComplexCounts(1, 2, 2, 1), "CellComplexCounts(t0=1, t1=2, t2=2, t3=1)"),
    (lambda: MinkusSchema(2, 3, 1, 1, 1), "MinkusSchema(n=2, p=3, q=1, k=1, pairing_shift=1)"),
    (lambda: FreeWord(((1, 1), (1, 1), (2, 0))), "FreeWord(letters=((1, 2),))"),
    (lambda: Presentation(2, (FreeWord(((2, -1),)),)),
     "Presentation(generator_count=2, relators=(FreeWord(letters=((2, -1),)),))"),
    (lambda: CyclicPresentation(3, ((FreeWord(((1, 1),)), 3),), 1),
     "CyclicPresentation(n=3, families=((FreeWord(letters=((1, 1),)), 3),), fixed=1)"),
)


@pytest.mark.parametrize("make, shown", VALUES, ids=[s.split("(")[0] for _, s in VALUES])
def test_value_type_contract(make, shown):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == shown
    for name in inspect.signature(type(a)).parameters:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))


# (factory of a valid value, fields that __new__ rejects, anchored message);
# one case for every value type whose __new__ checks its fields
REJECTED = (
    (lambda: TwoBridge(5, 3), {"beta": 10}, r"^beta 10 not reduced mod 10$"),
    (lambda: TwoBridge(5, 3), {"alpha": 4, "beta": 2}, r"^gcd\(4, 2\) != 1$"),
    (lambda: ContinuedFraction((1, 1, 2)), {"entries": (1, 0)},
     r"^entries must be a nonempty sequence of nonzero integers$"),
    (lambda: EvenConwayForm((1,), (-1,)), {"s": (1, 2)}, r"^inconsistent even form$"),
    (lambda: CoveringSpec(5, (1, 2)), {"exponents": (5,)},
     r"^exponents must be nonzero mod n$"),
    (lambda: ColouredGraph(((1, 0),) * 4), {"base": ((1, 0),) * 3},
     r"^need exactly four involutions$"),
    # shifts 1 and 1 cancel mod 2 but not mod 3
    (lambda: ColouredGraph(((1, 0),) * 4, 2, ((1, 1), (0, 0), (0, 0), (0, 0))), {"n": 3},
     r"^colour 0 is not an involution at vertex 0$"),
    (lambda: LMParams(3, 2, 5, 4), {"p": 4, "q": 2}, r"^gcd\(p, q\) must be 1$"),
    (lambda: IntMatrix(2, [{0: 1}]), {"entries": [{2: 1}]},
     r"^rows must map columns in range\(2\) to nonzero entries$"),
    (lambda: AbelianGroup(1, (2, 4)), {"torsion": (4, 2)},
     r"^torsion is not a divisibility chain$"),
    (lambda: Presentation(2, ()), {"relators": (FreeWord(((3, 1),)),)},
     r"^letter index 3 out of range$"),
    # x_5 is no generator of n = 3, and x_4 only while it is fixed
    (lambda: CyclicPresentation(3, ((FreeWord(((1, 1),)), 3),)),
     {"families": ((FreeWord(((5, 1),)), 3),)}, r"^letter index 5 out of range$"),
    (lambda: CyclicPresentation(3, ((FreeWord(((4, 1),)), 3),), 1), {"fixed": 0},
     r"^letter index 4 out of range$"),
    # a family has 1..n shifts
    (lambda: CyclicPresentation(3, ((FreeWord(((1, 1),)), 3),)), {"n": 2},
     r"^family count 3 out of range$"),
    (lambda: CyclicPresentation(3, ((FreeWord(((1, 1),)), 3),)),
     {"families": ((FreeWord(((1, 1),)), 7),)}, r"^family count 7 out of range$"),
    (lambda: CyclicPresentation(3, ((FreeWord(((1, 1),)), 3),)),
     {"families": ((FreeWord(((1, 1),)), 0),)}, r"^family count 0 out of range$"),
)


@pytest.mark.parametrize("make, fields, message", REJECTED,
                         ids=["%s-%s" % (make().__class__.__name__, "-".join(fields))
                              for make, fields, _ in REJECTED])
def test_make_and_replace_check_their_fields(make, fields, message):
    value = make()
    with pytest.raises(ValueError, match=message):
        value._replace(**fields)
    with pytest.raises(ValueError, match=message):
        type(value)._make(tuple(fields.get(name, getattr(value, name))
                                for name in value._fields))


def test_make_and_replace_normalize_their_fields():
    # the same normal form as the constructor gives
    assert CoveringSpec(5, (1, 2))._replace(exponents=(6, 7)) == CoveringSpec(5, (1, 2))
    assert CoveringSpec._make((5, (6, 7))).exponents == (1, 2)
    assert LMParams(3, 2, 5, 4)._replace(c=5) == LMParams(3, 2, 1, 2, 1)
    plain = ColouredGraph(((1, 0),) * 4)
    assert plain == ColouredGraph(((1, 0),) * 4, 1, ((0, 0),) * 4)
    assert (plain._replace(n=2, shifts=((3, -1), (0, 0), (0, 2), (0, 0)))
            == ColouredGraph(((1, 0),) * 4, 2, ((1, 1), (0, 0), (0, 0), (0, 0))))
    assert FreeWord._make((((1, 1), (1, -1), (2, 3)),)) == FreeWord(((2, 3),))
    w = FreeWord(((1, 1),))
    assert w._replace(letters=((1, 2), (1, -2))) == FreeWord()
    cp = CyclicPresentation(3, [(w, 3)])
    assert cp == CyclicPresentation._make((3, [(w, 3)], 0)) and hash(cp) == hash(cp._replace())
    for make, _ in VALUES:
        value = make()
        assert type(value)._make(iter(value)) == value == value._replace()


def test_value_types_with_list_fields_are_unhashable():
    # as before: the rows of a matrix are dicts in a list
    m = IntMatrix(2, [{0: 1}, {1: -2}])
    assert m == IntMatrix(2, [{0: 1}, {1: -2}])
    assert repr(m) == "IntMatrix(cols=2, entries=[{0: 1}, {1: -2}])"
    with pytest.raises(TypeError):
        hash(m)
    with pytest.raises(AttributeError):
        m.cols = 3


def test_laurent_polynomial_is_a_mutable_value():
    p = LaurentPolynomial({0: 1, 1: 0, 2: -3})
    assert p == LaurentPolynomial({2: -3, 0: 1}) and p != LaurentPolynomial()
    assert repr(p) == "LaurentPolynomial(coefficients={0: 1, 2: -3})"
    assert repr(LaurentPolynomial()) == "LaurentPolynomial(coefficients={})"
    with pytest.raises(TypeError):
        hash(p)
    p.coefficients = {1: 1}
    assert p == LaurentPolynomial({1: 1})


def test_even_cf_expand_rejection_names_the_link(monkeypatch):
    # no input reaches this check; a wrong evaluation shows what it reports
    monkeypatch.setattr(two_bridge.EvenConwayForm, "value", lambda form: Fraction(0))
    with pytest.raises(ValueError, match=r"^re-evaluation failed for b\(7,3\)$"):
        two_bridge.even_cf_expand(normalize(7, 3))


def test_cli_import_loads_no_dataclasses():
    # each CLI call pays for the import; a dataclass costs about 1 ms to define
    code = ("import sys; sys.path.insert(0, %r); import bridgecovers.cli; "
            "print('dataclasses' in sys.modules)" % str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


LAZY = ("decomposition", "gems", "homology", "polyhedral", "presentations", "words")

# one JSON line per CLI call: the layers that have run by then (a layer not yet
# run is a LazyLoader module, and reading any attribute of it runs it, so only
# its type is read), and whether fractions has been imported
LAYERS_RUN = """
import contextlib, io, json, sys, types
sys.path.insert(0, %r)
from bridgecovers import cli
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--format", "json", *argv]) == 0
    run = [name for name in %r
           if type(sys.modules["bridgecovers." + name]) is types.ModuleType]
    print(json.dumps([argv[0], run, "fractions" in sys.modules]))
"""


def layers_run(*calls):
    """Run the CLI calls in one fresh interpreter; one line per call, as above."""
    code = LAYERS_RUN % (str(SRC), [call.split() for call in calls], LAZY)
    done = subprocess.run([sys.executable, "-S", "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_cli_verbs_run_only_the_layers_they_use():
    assert layers_run("gem 5 4 3 1", "classify 7 3 5 1", "classify 5 1 3 1", "info 7 3",
                      "homology 7 3 5", "decompose 8 3 10 15") == [
        ["gem", ["gems"], False],
        ["classify", ["gems"], False],
        # b(5,1) is a torus knot, so geometry takes the sign of 2(n + alpha) - n alpha
        ["classify", ["gems"], False],
        # info evaluates the even continued fraction
        ["info", ["gems"], True],
        ["homology", ["gems", "homology", "polyhedral", "presentations", "words"], True],
        ["decompose", list(LAZY), True]]


def test_only_the_gem_verb_runs_the_gem_layer():
    # b(16,5) at k = 1 is a link, so its mu3 route reads eta
    lines = layers_run("homology 16 5 10 1", "present 8 3 4 1 --method mu3",
                       "polyhedral 5 1 7 3", "decompose 8 3 10 15", "verify --sweep 6 4",
                       "info 7 3", "classify 7 3 5 1", "gem 5 4 3 1")
    assert [verb for verb, run, _ in lines if "gems" in run] == ["gem"]
    assert lines[-1][1] == list(LAZY)


# one pass over the bench's sweep pool: the gem layer is still unexecuted
# after it, so no sweep item pays for compiling gems
SWEEP_PASS = """
import sys, types
sys.path[:0] = [%r, %r]
import workloads
codes = {workloads.call(item)[0] for item in workloads.sweep_pool()}
print(sorted(codes), type(sys.modules["bridgecovers.gems"]) is types.ModuleType)
"""


def test_sweep_pass_leaves_the_gem_layer_unexecuted():
    code = SWEEP_PASS % (str(SRC), str(SRC.parent / "bench"))
    done = subprocess.run([sys.executable, "-S", "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[0]", "False"]


# every name the package exported while it imported each layer eagerly
EXPORTS = (
    "AbelianGroup", "CYCLIC_ORDERS", "ColouredGraph", "CoveringClass", "CoveringSpec",
    "CyclicPresentation", "FreeWord", "GenusBounds", "GeometryType", "IntMatrix", "LMParams",
    "LaurentPolynomial", "MinkusSchema", "Presentation", "SPHERE", "TwoBridge",
    "alexander_polynomial", "build_generalized", "build_lins_mandel", "build_minkus",
    "cf_expand", "classify", "covering", "covering_equivalent", "decompose", "decomposition",
    "equivalent", "even_cf_expand", "format_word", "gem_closed_form", "gems", "genus_bounds",
    "geometry", "graph_isomorphic", "h1", "h1_closed_form", "heegaard_genus", "homology",
    "hyperbolic_homeomorphic", "is_crystallization", "is_gem", "is_genus_one",
    "lens_recognize", "linking_number", "lm_isomorphic_closed_form", "minkus_cyclic",
    "minkus_presentation", "mirror", "mu3_presentation", "normalize", "order_via_resultant",
    "polyhedral", "presentations", "quotient_counts", "represented_covering",
    "schema_presentation", "smith_normal_form", "takahashi_word", "two_bridge", "values",
    "verify_consistency", "words")


def test_package_exports_every_name():
    star = {}
    exec("from bridgecovers import *", star)
    assert sorted(n for n in star if not n.startswith("_")) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(bridgecovers))
    for name in EXPORTS:
        value = getattr(bridgecovers, name)
        assert star[name] is value
        # a function or class is its defining layer's own object
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("bridgecovers."):
            assert getattr(sys.modules[home], name) is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bridgecovers.no_such_name
