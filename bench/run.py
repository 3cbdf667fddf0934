"""Benchmark of bridgecovers, driven from outside the package.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it imports bridgecovers from the
checkout's ``src`` and needs nothing beyond the standard library.

One process, one caller, closed loop: each item is issued after the
previous one returns.  A run makes whole passes over the workload's pool,
each in an order shuffled from ``--seed``, until at least ``MIN_PASSES``
passes and ``--seconds`` of passes have been measured.  Every answer is
checked against ``references/<workload>.json``.

On a shared machine the processor alternates between full speed and a
markedly slower state, and the share of time spent slow drifts from minute
to minute.  ``reference_kernel``, fixed pure-Python work, runs between
items in ``KERNEL_SLOTS`` places per pass with the garbage collector paused,
and each pass is scaled to reference speed by ``KERNEL_REF_S`` over its
mean kernel time.  Every call counts: ``items_per_s`` is the median over
passes of the pool size over the scaled pass time (the kernel's own time
left out), and the latency percentiles are taken over every scaled call.
The unscaled figures are printed too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it measures the same untraced passes, then one more pass with
every public function in ``spans.TRACED`` rebound to record spans, and
reports per-layer self times and counts of that pass; the spans are written to
``out/spans-<workload>-seed<seed>.jsonl`` next to this file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
after a run, whatever its answers, and 2 when the run cannot be set up.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1
# a run makes at least this many passes
MIN_PASSES = 3
# places per pass where the reference kernel runs (every item in a smaller pool)
KERNEL_SLOTS = 128
# the reference kernel's time at full speed, on the machine that took the
# baselines in README.md; times are reported at this speed
KERNEL_REF_S = 1.4e-3
# fresh processes timed for setup_s, after one that is not counted
SETUP_PROBES = 15
# reference-kernel runs in each probe, before setup and again after it
PROBE_KERNELS = 8
# failure reasons printed per run
SHOWN_FAILURES = 5


class SetupError(Exception):
    pass


@dataclass
class Workload:
    name: str
    items: list
    references: dict


def setup(name) -> Workload:
    """Import bridgecovers from the checkout, build the pool, load its answers."""
    if not (SRC / "bridgecovers" / "__init__.py").is_file():
        raise SetupError("no bridgecovers sources under %s" % SRC)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bridgecovers
    if Path(bridgecovers.__file__).resolve().parent != (SRC / "bridgecovers").resolve():
        raise SetupError("bridgecovers was imported from %s" % bridgecovers.__file__)
    import workloads
    if name not in workloads.POOLS:
        raise SetupError("unknown workload %r" % name)
    items = workloads.POOLS[name]()
    path = HERE / "references" / ("%s.json" % name)
    try:
        references = json.loads(path.read_text())["answers"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError("cannot read %s: %s" % (path, exc)) from exc
    missing = [workloads.key(i) for i in items if workloads.key(i) not in references]
    if missing:
        raise SetupError("%d pool items have no reference answer, e.g. %r"
                         % (len(missing), missing[0]))
    return Workload(name, items, references)


def setup_probe(name):
    """One process's setup time and its median reference-kernel time."""
    kernel = [time_kernel() for _ in range(PROBE_KERNELS)]
    t0 = perf_counter()
    setup(name)
    setup_s = perf_counter() - t0
    kernel += [time_kernel() for _ in range(PROBE_KERNELS)]
    return setup_s, statistics.median(kernel)


def setup_seconds(name):
    """Median setup time of fresh processes, scaled and unscaled.

    Each process imports bridgecovers, builds the pool and loads the
    references, and is scaled to reference speed by its own kernel time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--setup-probe"]
    probes = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError("setup probe failed: %s" % done.stderr.strip())
        if i:
            probes.append([float(x) for x in done.stdout.split()[-2:]])
    return (statistics.median(t * KERNEL_REF_S / k for t, k in probes),
            statistics.median(t for t, _ in probes))


@dataclass
class Pass:
    """One pass over the pool."""

    items_s: float  # wall time, less the reference kernel's
    kernel: list  # reference-kernel times
    times: list  # the time of every call

    @property
    def scale(self) -> float:
        """Factor from this pass's speed to reference speed."""
        return KERNEL_REF_S / statistics.fmean(self.kernel)


@dataclass
class Tally:
    """Outcomes of the items of one or more passes."""

    passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(p.items_s for p in self.passes)


def _describe(exc) -> str:
    """Exception type, message and the line that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = " at %s:%d" % (Path(frames[-1].filename).name, frames[-1].lineno) if frames else ""
    return "%s: %s%s" % (type(exc).__name__, exc, where)


def reference_kernel():
    """Fixed pure-Python work that uses nothing from bridgecovers.

    Its mix follows the sweep and gems items, so that a slow spell slows it
    by about as much: build an argparse parser with eight sub-commands and
    parse an argument vector, round-trip a record through JSON, key a dict
    by tuples, and run fraction-free elimination on a constant 9x9 matrix.
    """
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in range(8):
        p = sub.add_parser("v%d" % verb, help="verb %d" % verb)
        for name in ("alpha", "beta", "n"):
            p.add_argument(name, type=int)
        p.add_argument("k", type=int, nargs="?", default=1)
        p.add_argument("--mode", choices=("a", "b", "c"), default="a")
    args = parser.parse_args(["v3", "5", "3", "7", "--mode", "b"])
    record = json.loads(json.dumps({"verb": args.verb, "routes": [
        {"route": "r%d" % i, "group": {"rank": 0, "torsion": [i, 2 * i]}} for i in range(6)]}))
    cells = {}
    for i in range(60):
        for j in range(5):
            cells[(i, j)] = (i * j) % 7
    n = 9
    a = [[(i * 7 + j * 13 + i * j + len(record["routes"])) % 19 - 9 for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return len(cells), a[-1][-1]


def time_kernel() -> float:
    """Seconds of one reference_kernel call, with the collector paused.

    A collection that falls due meanwhile runs just after the kernel, so it
    counts in the pass time and not in the kernel's.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def run_pass(work, order, tally, tracer=None):
    """One pass over ``order``; returns its wall time less the kernel's."""
    import spans
    import workloads
    every = max(1, len(order) // KERNEL_SLOTS)
    kernel = []
    times = []
    start = perf_counter()
    for j, item in enumerate(order):
        if j % every == 0:
            kernel.append(time_kernel())
        k = workloads.key(item)
        if tracer is not None:
            tracer.item = k
            rec = tracer.open(spans.ITEM)
        t0 = perf_counter()
        try:
            raw = workloads.call(item)
        except (Exception, SystemExit) as exc:  # a raising item is a failed item
            raw = exc
        times.append(perf_counter() - t0)
        tally.attempted += 1
        try:
            if isinstance(raw, BaseException):
                raise workloads.Failure("raised %s" % _describe(raw))
            ans = workloads.answer(item, raw)
            if ans != work.references[k]:
                raise workloads.Failure("answer differs from the reference")
            tally.answers[k] = ans
        except (workloads.Failure, KeyError, TypeError, ValueError) as exc:
            tally.failed += 1
            tally.failures.append("%s: %s" % (k, exc))
        if tracer is not None:
            tracer.close(rec)
    items_s = perf_counter() - start - sum(kernel)
    tally.passes.append(Pass(items_s, kernel, times))
    return items_s


def _p99(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def measure(work, seed, seconds, trace):
    """Run the passes; returns the summary lines and the result object."""
    import spans
    import workloads
    rng = random.Random(seed)
    tally = Tally()
    while len(tally.passes) < MIN_PASSES or tally.wall < seconds:
        order = list(work.items)
        rng.shuffle(order)
        run_pass(work, order, tally)
    untraced = list(tally.passes)
    metrics = {}
    if trace:
        order = list(work.items)
        rng.shuffle(order)
        with spans.Tracer() as tracer:
            run_pass(work, order, tally, tracer)
        traced = tally.passes[-1]
        overhead = (traced.items_s * traced.scale
                    / statistics.median(p.items_s * p.scale for p in untraced))
        metrics = spans.layer_metrics(tracer, traced.items_s, overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s-seed%d.jsonl" % (work.name, seed)))
    else:
        lat = [t * p.scale for p in untraced for t in p.times]
        metrics["items_per_s"] = (
            statistics.median(len(p.times) / (p.items_s * p.scale) for p in untraced), "1/s")
        metrics["item_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        metrics["item_p99_ms"] = (_p99(lat) * 1e3, "ms")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss / 1024, "MB")

    keys = [workloads.key(i) for i in work.items]
    got = workloads.fingerprint(tally.answers)
    want = workloads.fingerprint({k: work.references[k] for k in keys})
    lines = ["workload %s, seed %d: %d passes%s of %d items in %.3f s, %.6g items/s"
             % (work.name, seed, len(tally.passes), " (the last traced)" if trace else "",
                len(work.items), tally.wall, tally.attempted / tally.wall),
             "failed_ratio %.6f ratio (%d of %d)"
             % (tally.failed / tally.attempted, tally.failed, tally.attempted),
             "fingerprint %s (reference %s, %s)"
             % (got, want, "match" if got == want else "MISMATCH")]
    if not trace:
        raw = [t for p in untraced for t in p.times]
        lines.append("reference kernel %s ms (full speed %.4g ms); unscaled items/s %.6g,"
                     " p50 %.6g ms, p99 %.6g ms"
                     % (" ".join("%.4g" % (statistics.fmean(p.kernel) * 1e3) for p in untraced),
                        KERNEL_REF_S * 1e3,
                        statistics.median(len(p.times) / p.items_s for p in untraced),
                        statistics.median(raw) * 1e3, _p99(raw) * 1e3))
    lines += ["FAILED %s" % f for f in tally.failures[:SHOWN_FAILURES]]
    result = {"correct": tally.failed == 0 and got == want,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print("%r %r" % setup_probe(args.workload))
            return 0
        work = setup(args.workload)
        setup_s = None if args.trace else setup_seconds(args.workload)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    lines, result = measure(work, args.seed, args.seconds, args.trace)
    if setup_s is not None:
        lines.append("setup unscaled %.6g s" % setup_s[1])
        result["metrics"] = {"setup_s": {"value": setup_s[0], "unit": "s"},
                             **result["metrics"]}
    for name, m in result["metrics"].items():
        lines.append("%-48s %.6g %s" % (name, m["value"], m["unit"]))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
