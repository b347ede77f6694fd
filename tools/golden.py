"""Byte-identity battery of the ltbf command line.

    python tools/golden.py TREE OUT [--side 16] [--seeds 101,102,103]

Runs `ltbf.cli.run` in this process, with `ltbf` imported from TREE/src,
and writes every file under the directory OUT (made if missing):

- `gen` of the default config at the given side, once per seed;
- `invert` of each scenario through the four pipelines (antenna or
  beamspace, plain or low-rank) at --eps 1e-6 and 1e-20, with --trace;
- `sweep` of each scenario at both eps, and `report` of each sweep.

It prints a manifest to stdout: one line per file written and per
command's stdout, holding its SHA-256 and its name, with OUT masked in
the stdout texts.  The manifests of two trees compare with diff:

    python tools/golden.py . /tmp/new > new.txt
    python tools/golden.py ../parent /tmp/old > old.txt
    diff old.txt new.txt

A command that exits non-zero stops the battery with exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

_EPSILONS = ("1e-6", "1e-20")
_PIPELINES = [(domain, precond) for domain in ("antenna", "beamspace")
              for precond in ("none", "lowrank")]


def battery(run, out, side, seeds):
    """Manifest lines of the battery, run through `run` (ltbf.cli.run)
    with every output under the absolute directory `out`."""
    lines = []

    def call(name, argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = run(argv)
        if code != 0:
            raise SystemExit("golden: %s exited %d" % (" ".join(argv), code))
        masked = text.getvalue().replace(out, "OUT")
        digest = hashlib.sha256(masked.encode()).hexdigest()
        lines.append("%s  %s.stdout" % (digest, name))

    def files(*names):
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append("%s  %s" % (digest, name))

    config = os.path.join(out, "scene.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("side = %d\n" % side)
    for seed in seeds:
        scene = "scene-%d" % seed
        path = os.path.join(out, scene + ".bslv")
        call("gen-%d" % seed, ["gen", config, path, "--seed", str(seed)])
        files(scene + ".bslv")
        for eps in _EPSILONS:
            for domain, precond in _PIPELINES:
                stem = "%s-%s-%s-%s" % (scene, domain, precond, eps)
                call("invert-" + stem,
                     ["invert", path, "--domain", domain, "--precond", precond,
                      "--eps", eps, "--out", os.path.join(out, stem + ".inv"),
                      "--trace", os.path.join(out, stem + ".trace.csv")])
                files(stem + ".inv", stem + ".trace.csv")
            run_dir = "%s-sweep-%s" % (scene, eps)
            call("sweep-" + run_dir, ["sweep", path, "--eps", eps,
                                      "--out-dir", os.path.join(out, run_dir)])
            files(*(os.path.join(run_dir, table) for table in (
                "capacity.csv", "cdf.csv", "bound.csv", "run_meta.csv",
                "sparsity.csv")))
            call("report-" + run_dir, ["report", os.path.join(out, run_dir)])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", help="checkout whose src/ltbf is run")
    parser.add_argument("out", help="directory for the outputs")
    parser.add_argument("--side", type=int, default=16)
    parser.add_argument("--seeds", default="101,102,103",
                        help="comma list of scenario seeds")
    args = parser.parse_args(argv)
    src = os.path.abspath(os.path.join(args.tree, "src"))
    sys.path.insert(0, src)
    from ltbf import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("golden: imported %s, not from %s"
                         % (cli.__file__, src))
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    seeds = [int(tok) for tok in args.seeds.split(",")]
    for line in battery(cli.run, out, args.side, seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
