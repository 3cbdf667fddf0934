"""Tests of the benchmark itself, on a small slice of each pool.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import io
import json
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(name, items):
    """Every kind of item of a pool, in a second or two."""
    if name == "sweep":
        return items[::40]
    census = [i for i in items if i[0] == "gem"]
    pairs = [i for i in items if i[0] == "iso"]
    # the last pair is at the 200-vertex cap
    return census[::60] + pairs[::60] + pairs[-1:]


def setUpModule():
    global workloads, spans, full_pools
    run.setup("sweep")
    import spans
    import workloads
    full_pools = dict(workloads.POOLS)
    for name, pool in full_pools.items():
        workloads.POOLS[name] = lambda name=name, pool=pool: _tiny(name, pool())


def tearDownModule():
    workloads.POOLS.update(full_pools)


def _main(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


class MetricsTest(unittest.TestCase):

    def check_run(self, trace, declared):
        for name in workloads.WORKLOADS:
            code, lines, result = _main("--workload", name, "--seed", "5",
                                        "--seconds", "0", "--trace", str(trace))
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"], lines)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertIn("failed_ratio 0.000000 ratio", "\n".join(lines))
            self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
            for m in declared:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertTrue(any(line.split()[:1] == [m["name"]]
                                    and line.split()[-1] == m["unit"] for line in lines),
                                m["name"])

    def test_end_to_end_metrics(self):
        self.check_run(0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_run(1, BENCHMARK["per_layer"])


class SpansTest(unittest.TestCase):

    def test_every_span_is_reached(self):
        calls = {}
        for name in workloads.WORKLOADS:
            work = run.setup(name)
            tally = run.Tally()
            with spans.Tracer() as tracer:
                wall = run.run_pass(work, work.items, tally, tracer)
            self.assertEqual(tally.failed, 0)
            self_s, calls[name] = tracer.totals()
            # self times partition the traced wall time, less loop overhead
            total = sum(self_s.values())
            self.assertLessEqual(total, wall)
            self.assertGreater(total, 0.9 * wall)
        # gems spans are reached by the gems workload, the rest by sweep
        for span in spans.SPAN_NAMES:
            where = "gems" if span.startswith("gems.") else "sweep"
            self.assertGreater(calls[where][span], 0, (span, where))

    def test_functions_are_restored(self):
        from bridgecovers import cli, homology, words
        before = (cli.main, homology.smith_normal_form, cli.verify_consistency,
                  words.Presentation.relator_matrix)
        with spans.Tracer():
            self.assertIsNot(cli.verify_consistency, before[2])
        self.assertEqual((cli.main, homology.smith_normal_form, cli.verify_consistency,
                          words.Presentation.relator_matrix), before)


class ReferenceTest(unittest.TestCase):

    def corrupted(self, name, kind, wrong):
        work = run.setup(name)
        item = next(i for i in work.items if i[0] == kind)
        work.references = dict(work.references)
        work.references[workloads.key(item)] = wrong(work.references[workloads.key(item)])
        lines, result = run.measure(work, 5, 0, 0)
        self.assertFalse(result["correct"])
        # the one corrupted item fails once per pass
        self.assertEqual(result["failed"], result["attempted"] // len(work.items))
        self.assertTrue(any(line.startswith("failed_ratio ") and float(line.split()[1]) > 0
                            for line in lines))
        self.assertTrue(any("answer differs from the reference" in line for line in lines))

    def test_wrong_group_fails(self):
        self.corrupted("sweep", "homology",
                       lambda g: {"rank": g["rank"], "torsion": g["torsion"] + [997]})

    def test_wrong_gem_record_fails(self):
        self.corrupted("gems", "gem", lambda r: dict(r, covering="sphere"
                                                     if r["covering"] != "sphere" else None))

    def test_wrong_isomorphism_verdict_fails(self):
        self.corrupted("gems", "iso", lambda verdict: not verdict)


if __name__ == "__main__":
    unittest.main()
