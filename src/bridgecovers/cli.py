"""Command-line front end: eight verbs over the covering toolkit.

Exit status is 0 on success, 1 when a cross-route verification disagrees,
2 on argument errors (usage goes to stderr).  --format json emits a single
JSON object carrying a schema_version field; every record round-trips
through json.loads.  Each verb's cmd_* returns (exit status, record), and its
render_* builds the text lines from that record alone, for --format text only.
"""

import argparse
import functools
import json
import sys
from itertools import combinations
from math import gcd

# the lazy layers are bound as modules and read at use, so that a verb
# which does not call one leaves it unexecuted
from . import decomposition, gems, homology, polyhedral, presentations, words
from .covering import (CoveringSpec, classify, covering_equivalent, genus_bounds, geometry,
                       hyperbolic_homeomorphic, lens_recognize, torus_signs)
from .two_bridge import (cf_expand, even_cf_expand, is_genus_one, linking_number,
                         normalize, reorient_component)

SCHEMA_VERSION = 1


def _group_str(gd: dict) -> str:
    return str(homology.AbelianGroup(gd["rank"], tuple(gd["torsion"])))


def _presentation_payload(pres) -> dict:
    return {"generators": pres.generator_count,
            "relators": [words.format_word(r) for r in pres.relators]}


def cmd_info(args):
    t = normalize(args.alpha, args.beta)
    data = {"link": str(t), "alpha": t.alpha, "beta": t.beta,
            "kind": "knot" if t.is_knot else "link",
            "continued_fraction": list(cf_expand(t).entries),
            "even_form": list(even_cf_expand(t).entries())}
    if t.is_link:
        data["linking_number"] = linking_number(t)
    else:
        data["genus_one"] = is_genus_one(t)
    return 0, data


def render_info(d):
    lines = ["%s: %s" % (d["link"], "knot" if d["kind"] == "knot" else "2-component link"),
             "continued fraction: %s" % (d["continued_fraction"],),
             "even form: %s" % (d["even_form"],)]
    return lines + (["linking number: %d" % d["linking_number"]] if "linking_number" in d
                    else ["genus one: %s" % ("yes" if d["genus_one"] else "no")])


def cmd_classify(args):
    t = normalize(args.alpha, args.beta)
    spec = CoveringSpec(args.n, tuple(args.k))
    cls = classify(spec)
    bounds = genus_bounds(t, spec)
    lens = lens_recognize(t, spec)
    return 0, {"link": str(t), "degree": spec.n, "exponents": list(spec.exponents),
               "classes": {"strictly": cls.strictly, "almost_strictly": cls.almost_strictly,
                           "meridian": cls.meridian, "singly": cls.singly,
                           # every cyclic covering is monodromy-cyclic
                           "monodromy": True},
               "geometry": geometry(t, spec).value,
               "genus_bounds": {"general": bounds.general, "braid": bounds.braid,
                                "symmetric": bounds.symmetric},
               "lens": list(lens) if lens is not None else None}


def render_classify(d):
    lens = d["lens"]
    return ["%s, degree %d, exponents %s" % (d["link"], d["degree"], d["exponents"]),
            "classes: %s" % ", ".join(name for name, on in d["classes"].items() if on),
            "geometry: %s" % d["geometry"],
            "genus bounds: general %(general)s, braid %(braid)s, symmetric %(symmetric)s"
            % d["genus_bounds"],
            "lens space: %s" % ("L(%d, %d)" % tuple(lens) if lens is not None else "not forced")]


def cmd_present(args):
    t = normalize(args.alpha, args.beta)
    n, k = args.n, args.k
    if args.method == "mu3":
        pres = presentations.mu3_presentation(t, n, k)
    elif args.method == "takahashi" and t.is_link:
        raise ValueError("%s is a 2-component link; takahashi needs a knot" % (t,))
    else:
        # the arguments are checked before the n relators are built
        presentations.check_degree(n)
        if t.is_link and (k - 1) % n:
            raise ValueError("--method minkus presents the covering with exponents (1, 1); "
                             "use --method mu3 for k = %d" % k)
        # a knot's exponent must generate Z_n, as in homology's CoveringSpec
        if t.is_knot and gcd(n, k) != 1:
            raise ValueError("exponents do not generate Z_%d" % n)
        if args.method == "minkus":
            pres = presentations.minkus_presentation(t, n)
        else:
            pres = presentations.takahashi_word(even_cf_expand(t), n)
    return 0, {"link": str(t), "degree": n, "method": args.method,
               **_presentation_payload(pres)}


def render_present(d):
    return (["%s, degree %d, %s presentation" % (d["link"], d["degree"], d["method"]),
             "generators: %d" % d["generators"]] + ["  " + r for r in d["relators"]])


def cmd_homology(args):
    t = normalize(args.alpha, args.beta)
    spec = CoveringSpec(args.n, (args.k,) if t.is_knot else (1, args.k))
    names = homology.ROUTES if args.routes == "all" else args.routes.split(",")
    report = homology.verify_consistency(t, spec, names)
    return (1 if report["agree"] is False else 0), report


def render_homology(d):
    return (["%s, degree %d, exponents %s" % (d["link"], d["degree"], d["exponents"])]
            + ["%-12s %s" % (r["route"] + ":", _group_str(r["group"]) if "group" in r
                             else "order %s" % r["order"]) for r in d["routes"]]
            + ["agree: %s" % {True: "yes", False: "NO", None: "unverified"}[d["agree"]]])


def cmd_gem(args):
    # c' is shown only when given; the default c' = 1 is the plain family
    given = () if args.cprime is None else (args.cprime,)
    params = gems.LMParams(args.n, args.p, args.q, args.c, *given)
    graph = gems.build_generalized(params)
    shown = (params.n, params.p, params.q, params.c, params.cprime)[:4 + len(given)]
    data = {"graph": "G(%s)" % ", ".join(map(str, shown)), "vertices": graph.vertex_count,
            "gem": gems.is_gem(graph), "closed_form": gems.gem_closed_form(params)}
    if not data["gem"]:
        data.update(crystallization=None, covering=None, genus=None)
        return 0, data
    data["crystallization"] = gems.is_crystallization(graph)
    covered = gems.represented_covering(params)
    if covered is gems.SPHERE:
        data["covering"] = "sphere"
    else:
        t, spec = covered
        data["covering"] = {"link": str(t), "alpha": t.alpha, "beta": t.beta,
                            "degree": spec.n, "exponents": list(spec.exponents)}
    # every G(n, p, q, c, c') is bipartite, so each genus is an integer
    genus = {"".join(map(str, order)): gems.heegaard_genus(graph, order)
             for order in gems.CYCLIC_ORDERS}
    data["genus"] = {"by_order": genus, "min": min(genus.values())}
    return 0, data


def render_gem(d):
    lines = ["%s: %d vertices" % (d["graph"], d["vertices"])]
    if not d["gem"]:
        return lines + ["not a manifold: some 3-residue is not a 2-sphere"]
    cov = d["covering"]
    return lines + [
        "gem: yes, crystallization: %s" % ("yes" if d["crystallization"] else "no"),
        "represents: S^3" if cov == "sphere" else
        "represents: %(degree)d-fold covering of %(link)s, exponents %(exponents)s" % cov,
        "heegaard genus by colour order: %(by_order)s, min %(min)s" % d["genus"]]


def cmd_polyhedral(args):
    schema = polyhedral.build_minkus(args.n, args.k, args.p, args.q)
    counts = polyhedral.quotient_counts(schema)
    return 0, {"n": schema.n, "k": schema.k, "p": schema.p, "q": schema.q,
               "cells": {"t0": counts.t0, "t1": counts.t1, "t2": counts.t2, "t3": counts.t3},
               "chi": counts.chi,
               "presentation": (_presentation_payload(polyhedral.schema_presentation(schema))
                                if counts.chi == 0 else None)}


def render_polyhedral(d):
    lines = ["schema n=%(n)d k=%(k)d p=%(p)d q=%(q)d" % d,
             "cells: %(t0)d vertices, %(t1)d edges, %(t2)d faces, %(t3)d balls" % d["cells"],
             "euler characteristic: %d" % d["chi"]]
    p = d["presentation"]
    return lines + (["not a manifold (chi != 0)"] if p is None else
                    ["generators: %d" % p["generators"]] + ["  " + r for r in p["relators"]])


def cmd_decompose(args):
    return 0, decomposition.decompose(normalize(args.alpha, args.beta), args.n, args.k)


def render_decompose(d):
    upper, lower = d["degrees"]
    return ["%s, covering (%d; 1, %d)" % (d["link"], upper * lower, d["exponents"][1]),
            "d = gcd(n, k) = %d" % d["d"],
            "degrees: %d (meridian-cyclic) * %d (cyclic over one component)" % (upper, lower),
            "intermediate: L(%(d)d, %(alpha1)d/%(beta)d), %(components)d components, "
            "branching index %(index)d" % d["intermediate"],
            "linking number: %d" % d["intermediate"]["l"],
            "base indices: %s" % ((upper * lower, upper),)]


def _reproduce(rep) -> str:
    # homology takes a link's exponents as (1, k) and a knot's as (1,)
    argv = [rep["alpha"], rep["beta"], rep["degree"], *rep["exponents"][1:]]
    return "  reproduce: bridgecovers homology %s" % " ".join(map(str, argv))


def _groups_differ(a, b) -> bool:
    """True iff both reports have a consensus group and the two differ."""
    ga, gb = homology.consensus_group(a), homology.consensus_group(b)
    return ga is not None and gb is not None and ga != gb


def _pair_mismatches(t, reports):
    """One record per pair of (n; 1, k) reports of the link t whose
    consensus groups differ although an equivalence predicate accepts them."""
    out = []
    for a, b in combinations(reports, 2):
        if not _groups_differ(a, b):
            continue
        n, k, k2 = a["degree"], a["exponents"][1], b["exponents"][1]
        accepted = []
        if covering_equivalent(t, CoveringSpec(n, (1, k)), CoveringSpec(n, (1, k2))):
            accepted.append("covering_equivalent")
        # the homeomorphism test covers meridian-cyclic coverings of non-torus links
        if not torus_signs(t) and gcd(n, k * k2) == 1 and hyperbolic_homeomorphic(t, n, k, k2):
            accepted.append("hyperbolic_homeomorphic")
        if accepted:
            out.append({"accepted_by": accepted, "reports": [a, b]})
    return out


def _reorientation_mismatches(reports, reoriented):
    """One record per (n; 1, k) report of a link whose consensus group
    differs from that of the (n; 1, -k) report of the link with one
    component reversed; both lists run over k = 1 .. n - 1."""
    return [{"accepted_by": ["reorient_component"], "reports": [a, b]}
            for a, b in zip(reports, reversed(reoriented)) if _groups_differ(a, b)]


def _genus_mismatches(t, spec, report):
    """One record per genus bound of the covering below d(H_1), the number
    of generators of the report's consensus group: the Heegaard genus is at
    least the rank of pi_1, which is at least d(H_1)."""
    group = homology.consensus_group(report)
    if group is None:
        return []
    generators = group["rank"] + len(group["torsion"])
    bounds = genus_bounds(t, spec)
    return [{"genus_bound": name, "bound": bound, "generators": generators, "report": report}
            for name, bound in zip(bounds._fields, bounds)
            if bound is not None and bound < generators]


def cmd_verify(args):
    amax, nmax = args.sweep
    if amax < 2 or nmax < 2:
        raise ValueError("sweep bounds must be at least 2")
    checked = unverified = 0
    mismatches = []
    for alpha in range(2, amax + 1):
        # a link's beta counts mod 2 alpha: beta > alpha reverses one component
        link_reports = {}
        for beta in range(1, alpha if alpha % 2 else 2 * alpha):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            for n in range(2, nmax + 1):
                if t.is_knot:
                    specs = [CoveringSpec(n, (1,))]
                else:
                    specs = [CoveringSpec(n, (1, k)) for k in range(1, n)]
                reports = [homology.verify_consistency(t, spec) for spec in specs]
                for spec, report in zip(specs, reports):
                    checked += 1
                    if report["agree"] is False:
                        mismatches.append(report)
                    elif report["agree"] is None:
                        unverified += 1
                    mismatches += _genus_mismatches(t, spec, report)
                if t.is_link:
                    mismatches += _pair_mismatches(t, reports)
                    link_reports[t.beta, n] = reports
                    if t.beta > alpha:
                        reoriented = link_reports[reorient_component(t).beta, n]
                        mismatches += _reorientation_mismatches(reports, reoriented)
    return (1 if mismatches else 0), {"alpha_max": amax, "n_max": nmax, "checked": checked,
                                      "unverified": unverified, "mismatches": mismatches,
                                      "ok": not mismatches}


def _at(rep) -> str:
    return "MISMATCH %s degree %d exponents %s" % (rep["link"], rep["degree"], rep["exponents"])


def render_verify(d):
    lines = ["checked %(checked)d coverings (alpha <= %(alpha_max)d, n <= %(n_max)d)" % d,
             "unverified: %d" % d["unverified"]]
    for rep in d["mismatches"]:
        if "accepted_by" in rep:
            a, b = rep["reports"]
            # a reorientation pair spans two links
            second = (b["exponents"] if b["link"] == a["link"]
                      else "%s exponents %s" % (b["link"], b["exponents"]))
            lines += ["%s and %s: equivalent by %s, but H_1 %s and %s"
                      % (_at(a), second, ", ".join(rep["accepted_by"]),
                         _group_str(homology.consensus_group(a)),
                         _group_str(homology.consensus_group(b))),
                      _reproduce(a), _reproduce(b)]
        elif "genus_bound" in rep:
            a = rep["report"]
            lines += ["%s: H_1 %s needs %d generators, above the %s genus bound %d"
                      % (_at(a), _group_str(homology.consensus_group(a)), rep["generators"],
                         rep["genus_bound"], rep["bound"]),
                      _reproduce(a)]
        else:
            lines += ["%s: %s" % (_at(rep), [(r["route"], r.get("group", r.get("order")))
                                             for r in rep["routes"]]),
                      _reproduce(rep)]
    return lines + ["mismatches: %d" % len(d["mismatches"])]


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bridgecovers",
        description="cyclic branched coverings of 2-bridge knots and links")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # accepted before or after the verb; SUPPRESS keeps the subparser from
    # clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[common], help="normal form, continued fractions, link data")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.set_defaults(func=cmd_info, render=render_info)

    p = sub.add_parser("classify", parents=[common], help="covering taxonomy, geometry, genus bounds")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="+")
    p.set_defaults(func=cmd_classify, render=render_classify)

    p = sub.add_parser("present", parents=[common], help="fundamental group presentation")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=1)
    p.add_argument("--method", choices=("minkus", "mu3", "takahashi"),
                   default="minkus")
    p.set_defaults(func=cmd_present, render=render_present)

    p = sub.add_parser("homology", parents=[common], help="H_1 by every applicable route")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=1)
    p.add_argument("--routes", default="all",
                   help="comma-separated route names, or 'all'")
    p.set_defaults(func=cmd_homology, render=render_homology)

    p = sub.add_parser("gem", parents=[common], help="coloured graph: gem test, covering, genus")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("c", type=int)
    p.add_argument("cprime", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_gem, render=render_gem)

    p = sub.add_parser("polyhedral", parents=[common], help="face-paired ball schema")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_polyhedral, render=render_polyhedral)

    p = sub.add_parser("decompose", parents=[common], help="factor a singly-cyclic covering")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_decompose, render=render_decompose)

    p = sub.add_parser("verify", parents=[common], help="sweep all cross-route invariants")
    p.add_argument("--sweep", type=int, nargs=2, default=(12, 8),
                   metavar=("ALPHA_MAX", "N_MAX"))
    p.set_defaults(func=cmd_verify, render=render_verify)

    # the 3.10-3.12 layout; 3.13 would put the verbs and "..." on one line
    indent = "\n" + " " * 20
    parser.usage = ("%(prog)s [-h] [--format {text,json}]" + indent
                    + "{%s}" % ",".join(sub.choices) + indent + "...")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, data = args.func(args)
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": args.verb, **data}))
    else:
        print("\n".join(args.render(data)))
    return code


def __getattr__(name):
    # callers that read cli.verify_consistency, as the bench's tracer tests
    # do, get what homology binds at the time, which is what the verbs call
    if name == "verify_consistency":
        return homology.verify_consistency
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


if __name__ == "__main__":
    sys.exit(main())
