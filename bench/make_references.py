"""Write the reference answers of every workload pool.

    python3 bench/make_references.py [workload ...]

Run it from the root of the repository at the commit whose answers become
the reference.  An item keeps a reference only when at least two routes
agree on its answer: two or more group routes (and the resultant order, for
knots) for ``homology``; ``is_gem`` against ``gem_closed_form`` for ``gem``;
``graph_isomorphic`` against ``lm_isomorphic_closed_form`` for ``iso``.
Items without one are reported and left out, and the benchmark then refuses
to run until the pool no longer contains them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402


def _group_routes(raw) -> int:
    return sum("group" in r for r in json.loads(raw[1])["routes"])


def references(name):
    answers = {}
    dropped = []
    for item in workloads.POOLS[name]():
        raw = workloads.call(item)
        try:
            ans = workloads.answer(item, raw)
        except workloads.Failure as exc:
            dropped.append((workloads.key(item), str(exc)))
            continue
        if item[0] == "homology" and _group_routes(raw) < 2:
            dropped.append((workloads.key(item), "fewer than two group routes"))
            continue
        answers[workloads.key(item)] = ans
    return answers, dropped


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or workloads.WORKLOADS
    out_dir = HERE / "references"
    out_dir.mkdir(exist_ok=True)
    status = 0
    for name in names:
        answers, dropped = references(name)
        for k, why in dropped:
            print("%s: dropped %s (%s)" % (name, k, why), file=sys.stderr)
            status = 1
        doc = {"workload": name, "items": len(answers),
               "fingerprint": workloads.fingerprint(answers), "answers": answers}
        path = out_dir / ("%s.json" % name)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        print("%s: %d answers, fingerprint %s -> %s"
              % (name, len(answers), doc["fingerprint"], path.relative_to(HERE.parent)))
    return status


if __name__ == "__main__":
    sys.exit(main())
