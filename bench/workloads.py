"""Workload pools, the calls into bridgecovers, and the answers they must give.

An item is a tuple whose first entry names its kind:

- ``("homology", alpha, beta, n, k)``: one ``bridgecovers homology`` call
  through ``cli.main`` with ``--format json``;
- ``("gem", n, p, q, c)`` or ``("gem", n, p, q, c, cprime)``: one
  ``bridgecovers gem`` call through ``cli.main``;
- ``("iso", (n, p, q, c), (n, p, q, c))``: build both Lins-Mandel graphs and
  decide isomorphism up to colour permutation.

Every call goes through a module attribute (``cli.main``, ``gems.is_gem``,
...) looked up at call time, so the tracer in ``spans.py`` sees it.

The answer of an item is its mathematical content only: the consensus group,
the gem record, or the isomorphism verdict.  Route records may gain fields
or routes without changing it.
"""

import contextlib
import hashlib
import io
import json
from itertools import combinations, combinations_with_replacement
from math import gcd

from bridgecovers import cli, gems

# isomorphism pairs at the 200-vertex cap of graph_isomorphic, per family and
# verdict.  Non-isomorphic pairs try every root and colour permutation, so
# they are the slow tail; there are enough of them that item_p99_ms lies
# among them and not at the edge of the census.
CAP_FAMILIES = ((10, 10), (5, 20))
CAP_PAIRS = {True: 2, False: 14}


class Failure(Exception):
    """An item whose output is wrong: non-zero exit, disagreeing routes, ..."""


def sweep_pool():
    """Every covering that ``bridgecovers verify --sweep 16 10`` checks."""
    items = []
    for alpha in range(2, 17):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            for n in range(2, 11):
                ks = (1,) if alpha % 2 else range(1, n)
                items.extend(("homology", alpha, beta, n, k) for k in ks)
    return items


def _lm_family(n, p):
    return [(n, p, q, c) for q in range(2 * p) if gcd(p, q) == 1 for c in range(n)]


def _iso_verdict(a, b):
    return gems.lm_isomorphic_closed_form(gems.LMParams(*a), gems.LMParams(*b))


def _small_iso_pairs():
    # the n, p in {3, 4, 5} family of the acceptance battery; pairs outside
    # the closed form's stated range are skipped, as there
    pairs = []
    for n in (3, 4, 5):
        for p in (3, 4, 5):
            for a, b in combinations_with_replacement(_lm_family(n, p), 2):
                try:
                    _iso_verdict(a, b)
                except gems.OutOfRange:
                    continue
                pairs.append(("iso", a, b))
    return pairs


def _cap_iso_pairs():
    # evenly spaced isomorphic and non-isomorphic pairs of 200-vertex graphs
    pairs = []
    for n, p in CAP_FAMILIES:
        split = {True: [], False: []}
        for a, b in combinations(_lm_family(n, p), 2):
            split[_iso_verdict(a, b)].append(("iso", a, b))
        for verdict, count in CAP_PAIRS.items():
            group = split[verdict]
            pairs.extend(group[::len(group) // count][:count])
    return pairs


def gems_pool():
    """A census of gem calls plus isomorphism pairs."""
    items = []
    for n in range(1, 7):
        for p in range(1, 7):
            items.extend(("gem",) + params for params in _lm_family(n, p))
    for n in range(1, 6):
        for p in range(1, 6):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    for cp in range(n):
                        # c' = 1 repeats the plain family above
                        if gcd(n, gcd(c, cp)) == 1 and cp != 1 % n:
                            items.append(("gem", n, p, q, c, cp))
    return items + _small_iso_pairs() + _cap_iso_pairs()


POOLS = {"sweep": sweep_pool, "gems": gems_pool}
WORKLOADS = tuple(POOLS)


def key(item) -> str:
    """Stable text key of an item, e.g. ``homology 5 3 3 1``."""
    if item[0] == "iso":
        return " ".join(map(str, ("iso",) + item[1] + item[2]))
    return " ".join(map(str, item))


def call(item):
    """Run one item against bridgecovers and return its raw output."""
    if item[0] == "iso":
        g1 = gems.build_lins_mandel(gems.LMParams(*item[1]))
        g2 = gems.build_lins_mandel(gems.LMParams(*item[2]))
        return gems.graph_isomorphic(g1, g2, allow_colour_permutation=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json"] + [str(x) for x in item])
    return code, out.getvalue()


def _group_order(group):
    if group["rank"]:
        return "infinite"
    out = 1
    for d in group["torsion"]:
        out *= d
    return out


def _homology_answer(record):
    groups = [r["group"] for r in record["routes"] if "group" in r]
    if not groups:
        raise Failure("no route computed a group")
    answer = {"rank": groups[0]["rank"], "torsion": list(groups[0]["torsion"])}
    for g in groups[1:]:
        if g["rank"] != answer["rank"] or list(g["torsion"]) != answer["torsion"]:
            raise Failure("group routes disagree")
    order = _group_order(answer)
    for r in record["routes"]:
        if "order" in r and r["order"] != order:
            raise Failure("order route disagrees with the groups")
    return answer


def _gem_answer(record):
    if record["gem"] != record["closed_form"]:
        raise Failure("is_gem disagrees with gem_closed_form")
    covering = record["covering"]
    if isinstance(covering, dict):
        covering = [covering["alpha"], covering["beta"], covering["degree"],
                    list(covering["exponents"])]
    genus = record["genus"]
    return {"gem": record["gem"], "crystallization": record["crystallization"],
            "covering": covering,
            "genus": None if genus is None else genus["by_order"]}


def answer(item, raw):
    """The mathematical answer of an item's output; raises Failure."""
    if item[0] == "iso":
        if raw != _iso_verdict(item[1], item[2]):
            raise Failure("graph_isomorphic disagrees with lm_isomorphic_closed_form")
        return raw
    code, text = raw
    if code != 0:
        raise Failure("exit status %r" % (code,))
    record = json.loads(text)
    if item[0] == "homology":
        return _homology_answer(record)
    return _gem_answer(record)


def fingerprint(answers: dict) -> str:
    """Short digest of a key -> answer map, independent of order."""
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
