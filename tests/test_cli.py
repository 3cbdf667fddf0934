import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from bridgecovers.cli import build_parser, main
from bridgecovers.words import format_word, word

from test_outputs import grid, run_call


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_homology_json_record(capsys):
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json")
    assert code == 0
    assert rec["schema_version"] == 1
    assert rec["verb"] == "homology"
    assert rec["agree"] is True
    groups = [r for r in rec["routes"] if "group" in r]
    assert len(groups) >= 4
    for r in groups:
        assert r["group"] == {"rank": 0, "torsion": [4, 4]}
    orders = [r for r in rec["routes"] if "order" in r]
    assert orders and all(r["order"] == 16 for r in orders)


def test_present_takahashi_text(capsys):
    code, out, err = run(capsys, "present", "5", "2", "4", "--method", "takahashi")
    assert code == 0
    lines = out.splitlines()
    assert "takahashi" in lines[0]
    assert lines[1] == "generators: 4"
    relators = [ln.strip() for ln in lines[2:]]
    base = word((3, -1), (2, 2), (1, -1), (2, 1))
    assert relators == [format_word(base.shift(i, 4)) for i in range(4)]


def test_gem_non_manifold_diagnostic(capsys):
    code, out, err = run(capsys, "gem", "3", "5", "3", "1")
    assert code == 0
    assert "not a manifold: some 3-residue is not a 2-sphere" in out
    code, rec = run_json(capsys, "--format", "json", "gem", "3", "5", "3", "1")
    assert rec["gem"] is False
    assert rec["covering"] is None and rec["genus"] is None


def test_format_flag_position(capsys):
    _, before = run_json(capsys, "--format", "json", "info", "5", "3")
    _, after = run_json(capsys, "info", "5", "3", "--format", "json")
    assert before == after
    assert before["kind"] == "knot" and before["genus_one"] is True


def test_info_link_fields(capsys):
    code, rec = run_json(capsys, "info", "8", "3", "--format", "json")
    assert code == 0
    assert rec["kind"] == "link"
    assert rec["linking_number"] == 0
    assert rec["continued_fraction"] == [2, 1, 2]


def test_classify_record(capsys):
    code, rec = run_json(capsys, "classify", "7", "3", "2", "1", "--format", "json")
    assert code == 0
    assert rec["classes"]["strictly"] is True
    assert rec["lens"] == [7, 3]
    assert rec["geometry"] == "spherical"


def test_classify_braid_bound_reads_orientation(capsys):
    # (5; 1, 1) of b(4,5) is (5; 1, -1) of b(4,1): H_1 needs 4 generators,
    # above the braid bound min(alpha - 1, n - 1) = 3 of b(4,1) at (5; 1, 1)
    code, rec = run_json(capsys, "homology", "4", "5", "5", "1", "--format", "json")
    assert code == 0 and rec["agree"] is True
    assert all(len(r["group"]["torsion"]) == 4 for r in rec["routes"])
    # each pair is one manifold, so geometry and braid bound agree within it
    for a, b, geometry, braid in (((4, 5, 5, 1, 1), (4, 1, 5, 1, 4), "undetermined", None),
                                  ((4, 5, 5, 1, 4), (4, 1, 5, 1, 1), "sl2r", 3)):
        for argv in (a, b):
            code, rec = run_json(capsys, "classify", *map(str, argv), "--format", "json")
            assert code == 0
            assert (rec["geometry"], rec["genus_bounds"]["braid"]) == (geometry, braid)


def test_gem_crystallization_record(capsys):
    code, rec = run_json(capsys, "gem", "5", "8", "3", "3", "1", "--format", "json")
    assert code == 0
    assert rec["gem"] is True and rec["crystallization"] is True
    assert rec["covering"]["alpha"] == 8 and rec["covering"]["beta"] == 3
    assert rec["covering"]["degree"] == 5
    assert rec["covering"]["exponents"] == [1, 2]
    assert rec["genus"]["by_order"]["0213"] == 4
    assert rec["genus"]["min"] == 4


def test_gem_labels(capsys):
    # c' is shown only when given; q, c and c' are shown reduced
    for argv, label in ((("5", "8", "3", "3"), "G(5, 8, 3, 3)"),
                        (("5", "8", "3", "3", "1"), "G(5, 8, 3, 3, 1)"),
                        (("5", "8", "19", "8", "6"), "G(5, 8, 3, 3, 1)")):
        code, rec = run_json(capsys, "gem", *argv, "--format", "json")
        assert code == 0 and rec["graph"] == label
        code, out, _ = run(capsys, "gem", *argv)
        assert out.splitlines()[0] == "%s: 80 vertices" % label


def test_polyhedral_record(capsys):
    code, rec = run_json(capsys, "polyhedral", "3", "1", "5", "3", "--format", "json")
    assert code == 0
    assert rec["chi"] == 0
    assert rec["cells"] == {"t0": 2, "t1": 4, "t2": 3, "t3": 1}
    assert rec["presentation"]["generators"] == 3
    code, out, _ = run(capsys, "polyhedral", "3", "1", "5", "3")
    assert "euler characteristic: 0" in out


def test_decompose_record(capsys):
    code, rec = run_json(capsys, "decompose", "8", "3", "10", "5", "--format", "json")
    assert code == 0
    assert rec["link"] == "b(8,3)" and rec["exponents"] == [1, 5]
    assert rec["d"] == 5
    assert rec["degrees"] == [2, 5]
    assert rec["intermediate"]["components"] == 6
    assert rec["intermediate"]["alpha1"] == 4
    assert rec["intermediate"]["beta"] == 3


def test_verify_sweep(capsys):
    code, rec = run_json(capsys, "verify", "--sweep", "6", "4", "--format", "json")
    assert code == 0
    assert rec["ok"] is True and rec["mismatches"] == []
    assert rec["checked"] > 0 and rec["unverified"] == 0
    again_code, again = run_json(capsys, "verify", "--sweep", "6", "4", "--format", "json")
    assert again == rec
    code, out, _ = run(capsys, "verify", "--sweep", "6", "4")
    assert out.splitlines()[-1] == "mismatches: 0"
    assert "unverified: 0" in out.splitlines()


def test_verify_counts_unverified(capsys, monkeypatch):
    from bridgecovers import homology

    real = homology.verify_consistency

    def knots_unverified(t, spec):
        report = real(t, spec)
        if t.is_knot:
            report["routes"] = report["routes"][:1]
            report["agree"] = None
        return report

    monkeypatch.setattr(homology, "verify_consistency", knots_unverified)
    code, rec = run_json(capsys, "verify", "--sweep", "6", "4", "--format", "json")
    assert code == 0 and rec["ok"] is True and rec["mismatches"] == []
    assert 0 < rec["unverified"] < rec["checked"]


def test_verify_mismatch_reproducers(capsys, monkeypatch):
    from bridgecovers import homology

    def wrong_closed_form(t, spec):
        if (t.alpha, t.beta, spec.n) in ((5, 2, 3), (8, 3, 4)):
            return {"group": {"rank": 0, "torsion": [7]}}

    monkeypatch.setitem(homology.ROUTES, "closed_form", wrong_closed_form)
    code, out, _ = run(capsys, "verify", "--sweep", "8", "4")
    assert code == 1
    lines = out.splitlines()
    found = [(lines[i], lines[i + 1]) for i, line in enumerate(lines)
             if line.startswith("MISMATCH")]
    # one knot covering, and the link b(8,3) with k = 1, 2, 3
    assert len(found) == 4
    assert all(rep.startswith("  reproduce: bridgecovers homology ") for _, rep in found)
    assert found[0][1] == "  reproduce: bridgecovers homology 5 2 3"
    assert [rep for _, rep in found[1:]] == [
        "  reproduce: bridgecovers homology 8 3 4 %d" % k for k in (1, 2, 3)]
    # each reproducer finds its mismatch again
    for _, rep in found:
        argv = rep.split("bridgecovers ")[1].split()
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out.splitlines()[-1] == "agree: NO"
    code, rec = run_json(capsys, "verify", "--sweep", "8", "4", "--format", "json")
    assert code == 1 and len(rec["mismatches"]) == 4
    assert all("reproduce" not in json.dumps(rep) for rep in rec["mismatches"])


def test_verify_pair_mismatch_reproducers(capsys, monkeypatch):
    from bridgecovers import homology

    def planted(route):
        def wrong_at_one_k(t, spec):
            rec = route(t, spec)
            key = (t.alpha, t.beta, spec.n, spec.exponents)
            if rec and "group" in rec and key == (8, 3, 4, (1, 3)):
                return {"group": {"rank": 0, "torsion": [7]}}
            return rec
        return wrong_at_one_k

    # every route agrees on the wrong group, so only the pair checks see it:
    # b(8,3) has beta^2 = alpha + 1 mod 2 alpha, so (4; 1, 3) is (4; 1, -1),
    # and b(8,11), b(8,3) with one component reversed, has (4; 1, 1)
    for name, route in list(homology.ROUTES.items()):
        monkeypatch.setitem(homology.ROUTES, name, planted(route))
    code, out, _ = run(capsys, "verify", "--sweep", "8", "4")
    assert code == 1
    lines = out.splitlines()
    found = [i for i, line in enumerate(lines) if line.startswith("MISMATCH")]
    assert len(found) == 2 and lines[-1] == "mismatches: 2"
    i, j = found
    assert lines[i].startswith("MISMATCH b(8,3) degree 4 exponents [1, 1] and [1, 3]: "
                               "equivalent by covering_equivalent, hyperbolic_homeomorphic")
    assert lines[i + 1:i + 3] == ["  reproduce: bridgecovers homology 8 3 4 1",
                                  "  reproduce: bridgecovers homology 8 3 4 3"]
    assert lines[j].startswith("MISMATCH b(8,11) degree 4 exponents [1, 1] and "
                               "b(8,3) exponents [1, 3]: equivalent by reorient_component")
    assert lines[j + 1:j + 3] == ["  reproduce: bridgecovers homology 8 11 4 1",
                                  "  reproduce: bridgecovers homology 8 3 4 3"]
    # each reproducer agrees with itself, and the two groups of a pair differ
    for k in found:
        groups = []
        for rep in lines[k + 1:k + 3]:
            argv = rep.split("bridgecovers ")[1].split()
            code, rec = run_json(capsys, *argv, "--format", "json")
            assert code == 0 and rec["agree"] is True
            groups.append(rec["routes"][0]["group"])
        assert groups[0] != groups[1] and groups[1] == {"rank": 0, "torsion": [7]}
    code, rec = run_json(capsys, "verify", "--sweep", "8", "4", "--format", "json")
    assert code == 1 and not rec["ok"] and len(rec["mismatches"]) == 2
    pair, reoriented = rec["mismatches"]
    assert pair["accepted_by"] == ["covering_equivalent", "hyperbolic_homeomorphic"]
    assert [r["exponents"] for r in pair["reports"]] == [[1, 1], [1, 3]]
    assert reoriented["accepted_by"] == ["reorient_component"]
    assert [(r["link"], r["exponents"]) for r in reoriented["reports"]] == [
        ("b(8,11)", [1, 1]), ("b(8,3)", [1, 3])]


def test_verify_sweeps_links_past_alpha(capsys, monkeypatch):
    from bridgecovers import homology

    seen = set()
    real = homology.verify_consistency

    def recording(t, spec):
        seen.add((t.alpha, t.beta))
        return real(t, spec)

    monkeypatch.setattr(homology, "verify_consistency", recording)
    code, rec = run_json(capsys, "verify", "--sweep", "6", "3", "--format", "json")
    assert code == 0 and rec["ok"] is True
    # links run over every beta < 2 alpha coprime to alpha, knots over beta < alpha
    assert seen == {(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3), (4, 5), (4, 7),
                    (5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 5), (6, 7), (6, 11)}


def test_argument_errors_exit_2(capsys):
    for argv in (("homology", "4", "2", "3"),
                 ("present", "8", "3", "3", "--method", "takahashi"),
                 ("polyhedral", "3", "1", "5", "2"),
                 ("verify", "--sweep", "1", "4")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "error:" in err


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "5", "3"])
    assert exc.value.code == 2


def test_json_roundtrip_every_verb(capsys):
    cases = [("info", "5", "3"),
             ("classify", "8", "3", "5", "1", "2"),
             ("present", "5", "3", "3"),
             ("homology", "5", "3", "3"),
             ("gem", "3", "5", "3", "2"),
             ("polyhedral", "3", "1", "5", "3"),
             ("decompose", "8", "3", "10", "5"),
             ("verify", "--sweep", "4", "3")]
    for argv in cases:
        code, rec = run_json(capsys, *argv, "--format", "json")
        assert code == 0
        assert rec["schema_version"] == 1
        assert rec["verb"] == argv[0]


def test_json_mode_builds_no_text(capsys, monkeypatch):
    from bridgecovers import cli

    def never(group):
        raise AssertionError("text was built for --format json")

    monkeypatch.setattr(cli, "_group_str", never)
    for argv in (("homology", "5", "3", "3"), ("homology", "8", "3", "4", "3")):
        code, rec = run_json(capsys, *argv, "--format", "json")
        assert code == 0 and rec["agree"] is True
        assert sum("group" in r for r in rec["routes"]) >= 2
        # the text of the same call does reach the group strings
        with pytest.raises(AssertionError, match="text was built"):
            main(list(argv))


def test_text_is_rendered_from_the_json_record():
    # over the output-digest grid: the text of each call is its parsed JSON
    # record rendered, with the same exit status and stderr
    parser = build_parser()
    rendered = set()
    for verb, calls in grid().items():
        for call in calls:
            argv = [str(x) for x in call]
            code, out, err = run_call(argv)
            json_code, record, json_err = run_call(argv + ["--format", "json"])
            assert (json_code, json_err) == (code, err), argv
            if code != 2:
                args = parser.parse_args(argv)
                assert "\n".join(args.render(json.loads(record))) + "\n" == out, argv
                rendered.add(verb)
    assert rendered == set(grid())


def test_homology_route_filter(capsys):
    code, rec = run_json(capsys, "homology", "5", "3", "3",
                         "--routes", "minkus,resultant", "--format", "json")
    assert code == 0
    assert [r["route"] for r in rec["routes"]] == ["minkus", "resultant"]


def test_homology_no_comparable_route_is_unverified(capsys):
    # mu3 presents links only, so no route of this knot is kept
    code, out, _ = run(capsys, "homology", "5", "3", "3", "--routes", "mu3")
    assert code == 0
    assert out.splitlines() == ["b(5,3), degree 3, exponents [1]", "agree: unverified"]
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--routes", "mu3",
                         "--format", "json")
    assert code == 0 and rec["routes"] == [] and rec["agree"] is None


def test_homology_unknown_route_exits_2(capsys):
    code, out, err = run(capsys, "homology", "5", "3", "3", "--routes", "bogus")
    assert code == 2
    assert out == ""
    assert "error: unknown route 'bogus'" in err
    for name in ("minkus", "mu3", "takahashi", "polyhedral", "closed_form",
                 "lens", "resultant"):
        assert name in err
    code, _, err = run(capsys, "homology", "5", "3", "3", "--routes", "minkus,bogus")
    assert code == 2 and "'bogus'" in err


def test_homology_computes_only_kept_routes(capsys, monkeypatch):
    from bridgecovers import homology

    real_h1, real_snf = homology.h1, homology.smith_normal_form
    presented, reduced = [], []

    def counting_h1(p):
        presented.append(p)
        return real_h1(p)

    def counting_snf(m):
        reduced.append(m)
        return real_snf(m)

    monkeypatch.setattr(homology, "h1", counting_h1)
    monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
    argv = ("homology", "5", "3", "3", "--format", "json")
    code, rec = run_json(capsys, *argv)
    # minkus, takahashi and polyhedral each present the covering to h1; they
    # share one abelianization once the polyhedral row x_1 .. x_n, which the
    # circulant spans, is left out, so h1 reduces one matrix
    assert code == 0 and (len(presented), len(reduced)) == (3, 1)
    presented.clear()
    reduced.clear()
    code, rec = run_json(capsys, *argv, "--routes", "closed_form,resultant")
    assert code == 0 and rec["agree"] is True
    assert [r["route"] for r in rec["routes"]] == ["closed_form", "resultant"]
    assert presented == reduced == []

    def never(t, spec):
        raise AssertionError("a route that was not kept ran")

    monkeypatch.setitem(homology.ROUTES, "minkus", never)
    code, rec = run_json(capsys, *argv, "--routes", "closed_form,resultant")
    assert code == 0 and rec["agree"] is True


def test_homology_agree_is_computed_after_filtering(capsys, monkeypatch):
    from bridgecovers import homology

    def wrong_lens(t, spec):
        return {"group": {"rank": 0, "torsion": [3]}}

    monkeypatch.setitem(homology.ROUTES, "lens", wrong_lens)
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json")
    assert code == 1 and rec["agree"] is False
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json",
                         "--routes", "minkus,takahashi,resultant")
    assert code == 0 and rec["agree"] is True
    assert [r["route"] for r in rec["routes"]] == ["minkus", "takahashi", "resultant"]
    code, out, _ = run(capsys, "homology", "5", "3", "3", "--routes", "lens,minkus")
    assert code == 1
    assert out.splitlines()[-1] == "agree: NO"


def test_homology_filtered_order_route_is_checked(capsys, monkeypatch):
    from bridgecovers import homology

    def wrong_order(t, spec):
        return {"order": 15}

    monkeypatch.setitem(homology.ROUTES, "resultant", wrong_order)
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json",
                         "--routes", "polyhedral,resultant")
    assert code == 1 and rec["agree"] is False
    # one route left: nothing to compare against, so unverified, not agreeing
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json",
                         "--routes", "polyhedral")
    assert code == 0 and rec["agree"] is None


def test_present_minkus_rejects_link_exponent(capsys):
    code, out, err = run(capsys, "present", "8", "3", "3", "2")
    assert code == 2
    assert out == ""
    assert "--method mu3" in err
    # k = 4 is k = 1 mod 3: the same covering, which minkus presents
    code, rec = run_json(capsys, "present", "8", "3", "3", "4", "--format", "json")
    assert code == 0 and rec["method"] == "minkus"
    code, rec = run_json(capsys, "present", "8", "3", "3", "2", "--method", "mu3",
                         "--format", "json")
    assert code == 0 and rec["method"] == "mu3"
    # on a knot the exponent does not change the covering
    code, _, _ = run(capsys, "present", "5", "3", "3", "2")
    assert code == 0


def test_present_bad_degree_exits_2(capsys):
    for argv in (("present", "2", "-1", "0", "-1"),
                 ("present", "3", "-1", "-2", "-1", "--method", "takahashi"),
                 ("present", "8", "3", "0", "1", "--method", "mu3")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: covering degree must be positive" in err


def test_present_checks_arguments_before_building(capsys, monkeypatch):
    from bridgecovers import presentations

    def never(*args):
        raise AssertionError("a presentation was built for rejected arguments")

    monkeypatch.setattr(presentations, "minkus_presentation", never)
    monkeypatch.setattr(presentations, "takahashi_word", never)
    for argv, message in (
            (("present", "5", "3", "200000", "2"), "exponents do not generate Z_200000"),
            (("present", "5", "3", "200000", "2", "--method", "takahashi"),
             "exponents do not generate Z_200000"),
            (("present", "4", "1", "200000", "3"), "use --method mu3 for k = 3"),
            (("present", "5", "3", "0", "0"), "covering degree must be positive, got 0"),
            (("present", "4", "1", "-3", "3"), "covering degree must be positive, got -3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(message), argv


def test_present_knot_exponent_must_generate(capsys):
    # the same rejection as homology's for the same covering
    for argv in (("present", "5", "3", "4", "2"),
                 ("present", "5", "3", "4", "0"),
                 ("present", "5", "3", "4", "2", "--method", "takahashi"),
                 ("present", "5", "3", "4", "0", "--method", "takahashi"),
                 ("homology", "5", "3", "4", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: exponents do not generate Z_4"


def test_verify_genus_bound_mismatch_reproducers(capsys, monkeypatch):
    from bridgecovers import homology

    def planted(route):
        def three_generators(t, spec):
            rec = route(t, spec)
            if rec and (t.alpha, t.beta, spec.n) == (3, 1, 5):
                return ({"group": {"rank": 0, "torsion": [2, 2, 2]}} if "group" in rec
                        else {"order": 8})
            return rec
        return three_generators

    # every route agrees on Z_2^3 for the 5-fold covering of the trefoil, so
    # only the genus check sees it: the braid bound min(alpha, n) - 1 is 2,
    # the general and symmetric bounds n - 1 are 4
    for name, route in list(homology.ROUTES.items()):
        monkeypatch.setitem(homology.ROUTES, name, planted(route))
    code, out, _ = run(capsys, "verify", "--sweep", "3", "5")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "MISMATCH b(3,1) degree 5 exponents [1]: H_1 Z_2 + Z_2 + Z_2 needs 3 generators, "
        "above the braid genus bound 2",
        "  reproduce: bridgecovers homology 3 1 5",
        "mismatches: 1"]
    code, rec = run_json(capsys, "verify", "--sweep", "3", "5", "--format", "json")
    assert code == 1 and not rec["ok"] and rec["unverified"] == 0
    [mismatch] = rec["mismatches"]
    assert {k: v for k, v in mismatch.items() if k != "report"} == {
        "genus_bound": "braid", "bound": 2, "generators": 3}
    assert mismatch["report"]["agree"] is True
    assert (mismatch["report"]["link"], mismatch["report"]["degree"]) == ("b(3,1)", 5)
    # unplanted, the reproducer gives the trivial group of the Poincare sphere
    monkeypatch.undo()
    code, rec = run_json(capsys, "homology", "3", "1", "5", "--format", "json")
    assert code == 0 and rec["routes"][0]["group"] == {"rank": 0, "torsion": []}


def test_knot_link_errors_say_what_is_wrong(capsys):
    for argv, message in (
            (("present", "5", "3", "4", "--method", "mu3"),
             "error: b(5,3) is a knot; mu3 needs a 2-component link"),
            (("decompose", "5", "3", "4", "2"),
             "error: b(5,3) is a knot; decompose needs a 2-component link"),
            (("present", "8", "3", "4", "2", "--method", "takahashi"),
             "error: b(8,3) is a 2-component link; takahashi needs a knot")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == message


def test_main_is_reentrant(capsys):
    # the parser is built once per process; no call may leak into the next
    run(capsys, "present", "5", "3", "3", "--method", "mu3")
    code, rec = run_json(capsys, "present", "5", "3", "3", "--format", "json")
    assert code == 0 and rec["method"] == "minkus"
    code, rec = run_json(capsys, "present", "8", "3", "3", "--method", "mu3", "--format", "json")
    assert code == 0 and rec["method"] == "mu3"
    code, rec = run_json(capsys, "present", "8", "3", "3", "--format", "json")
    assert code == 0 and rec["method"] == "minkus"

    _, rec = run_json(capsys, "--format", "json", "homology", "5", "3", "3")
    assert rec["verb"] == "homology"
    code, out, _ = run(capsys, "homology", "5", "3", "3")
    assert code == 0
    assert out.startswith("b(5,3), degree 3") and out.splitlines()[-1] == "agree: yes"
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--routes", "minkus",
                         "--format", "json")
    assert [r["route"] for r in rec["routes"]] == ["minkus"]
    code, rec = run_json(capsys, "homology", "5", "3", "3", "--format", "json")
    assert len(rec["routes"]) > 1

    good = ("info", "8", "3", "--format", "json")
    _, first = run_json(capsys, *good)
    assert run(capsys, "homology", "4", "2", "3")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["present", "5", "3", "3", "--method", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = run_json(capsys, *good)
    assert code == 0 and again == first


def test_present_grid_never_raises(capsys):
    # bad degrees, exponents, methods and links give exit 2, never a traceback
    codes = set()
    for alpha in range(-1, 5):
        for beta in range(-1, 5):
            for n in range(-2, 4):
                for k in range(-1, 3):
                    for method in ("minkus", "mu3", "takahashi"):
                        codes.add(main(["present", str(alpha), str(beta), str(n),
                                        str(k), "--method", method]))
    capsys.readouterr()
    assert codes == {0, 2}


small = st.integers(-2, 12)
alphas = st.integers(-2, 40)
betas = st.integers(-5, 80)
formats = st.sampled_from(((), ("--format", "json")))
verbs = st.one_of(
    st.tuples(st.just("info"), alphas, betas),
    st.tuples(st.just("classify"), alphas, betas, small, small),
    st.tuples(st.just("classify"), alphas, betas, small, small, small),
    st.tuples(st.just("present"), alphas, betas, small, small, st.just("--method"),
              st.sampled_from(("minkus", "mu3", "takahashi"))),
    st.tuples(st.just("homology"), alphas, betas, small, small),
    st.tuples(st.just("gem"), small, small, small, small),
    st.tuples(st.just("gem"), small, small, small, small, small),
    st.tuples(st.just("polyhedral"), small, small, alphas, alphas),
    st.tuples(st.just("decompose"), alphas, betas, small, small),
    st.tuples(st.just("verify"), st.just("--sweep"), st.integers(-1, 8),
              st.integers(-1, 5)))


@settings(max_examples=150, deadline=None)
@given(verbs, formats)
def test_every_verb_exits_cleanly(argv, fmt):
    # in-process, so an uncaught exception fails the test with its traceback
    argv = [str(a) for a in argv] + list(fmt)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("error: "), argv
        # the message says more than the name of the link
        assert not re.fullmatch(r"error: b\(\d+,\d+\)", last), (argv, last)
