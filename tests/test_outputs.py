"""Output fingerprint of the command line.

A fixed grid of in-process ``cli.main`` calls covers all eight verbs, each
call in text and in JSON.  Every call's (argv, exit status, stdout, stderr)
is hashed into one SHA-256 per verb and compared with the digests in
``output_digests.json``.  A change meant to keep outputs byte-identical
keeps every digest; a change meant to alter output names the verbs whose
digests it rewrites.  Rewrite the file with

    PYTHONPATH=src python tests/test_outputs.py

The usage line that argparse prints before an ``error:`` line is part of
stderr, so the terminal width is pinned, and ``cli.build_parser`` pins the
top-level usage text to one layout on every Python version.
"""

import contextlib
import hashlib
import io
import json
import os
from math import gcd
from pathlib import Path

from bridgecovers.cli import main

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"


def _pairs(alpha_max):
    # every beta in [-1, 2 alpha), the non-coprime ones included
    for alpha in range(2, alpha_max + 1):
        for beta in range(-1, 2 * alpha):
            yield alpha, beta


def _links_and_knots(alpha_max):
    for alpha in range(2, alpha_max + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                yield alpha, beta


def grid():
    """verb -> list of argv (text form; each also runs with --format json)."""
    g = {}
    g["info"] = [("info", a, b) for a, b in _pairs(12)]
    g["classify"] = [("classify", a, b, n, *ks)
                     for a, b in _links_and_knots(7) for n in range(2, 5)
                     for ks in ((1,), (n - 1,), (1, n - 1), (2, 2))]
    g["present"] = [("present", a, b, n, k, "--method", m)
                    for a, b in _links_and_knots(7) for n in range(1, 5)
                    for k in range(0, n + 1)
                    for m in ("minkus", "mu3", "takahashi")]
    g["present"] += [("present", 5, 3, 0, 1, "--method", m)
                     for m in ("minkus", "mu3", "takahashi")]
    g["homology"] = [("homology", a, b, n, k)
                     for a, b in _links_and_knots(8) for n in range(1, 6)
                     for k in range(0, n + 1)]
    g["homology"] += [("homology", 8, 3, 4, 1, "--routes", r)
                      for r in ("minkus", "closed_form,resultant", "nope")]
    g["gem"] = [("gem", n, p, q, c, *cp)
                for n in range(1, 4) for p in range(1, 5) for q in range(0, 2 * p)
                for c in range(n) for cp in ((),) + tuple((x,) for x in range(n))]
    # a schema needs q odd, so the even q only reach the error
    g["polyhedral"] = [("polyhedral", n, k, p, q)
                       for n in range(2, 5) for k in range(0, n + 1)
                       for p in range(1, 9) for q in (-1, 0, *range(1, p, 2))]
    g["polyhedral"] += [("polyhedral", 1, 1, 5, 2)]
    g["decompose"] = [("decompose", a, b, n, k)
                      for a, b in _links_and_knots(6) for n in range(1, 6)
                      for k in range(0, n + 1)]
    g["verify"] = [("verify", "--sweep", a, n) for a, n in ((1, 4), (6, 4), (8, 4))]
    return g


def run_call(argv):
    """(exit status, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fingerprint():
    """verb -> hex SHA-256 of every call of its grid, text then JSON."""
    digests = {}
    for verb, calls in grid().items():
        h = hashlib.sha256()
        for call in calls:
            text = [str(x) for x in call]
            for argv in (text, text + ["--format", "json"]):
                h.update(repr((argv, *run_call(argv))).encode())
        digests[verb] = h.hexdigest()
    return digests


def test_outputs_match_committed_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert fingerprint() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    DIGESTS.write_text(json.dumps(fingerprint(), indent=2) + "\n")
