"""Byte-identity battery of the ltbf command line.

    python tools/golden.py TREE OUT [--side 16] [--seeds 101,102,103]

Runs `ltbf.cli.run` in this process, with `ltbf` imported from TREE/src,
and writes every file under the directory OUT (made if missing):

- `gen` of the default config at the given side, once per seed;
- `gen` of a multi-stream config at the given side (3 users, 2 streams,
  3 paths each, 64 subcarriers), once per seed, and its beamspace
  low-rank `invert` at --eps 1e-6, with --trace;
- `invert` of each scenario through the four pipelines (antenna or
  beamspace, plain or low-rank) at --eps 1e-6 and 1e-20, with --trace;
- `sweep` of each scenario at both eps, and `report` of each sweep;
- `sweep --configs` of each scenario at --eps 1e-6, and its `report`,
  over explicit sketch widths and power steps (N = side^2): antenna
  q=1 p=1, beamspace q=N/2 p=4, antenna q=N p=1 and beamspace q=N p=2.

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
# the multi-stream config's lines after `side`: the stream and path order
# of each user's steering columns shows only with n_streams > 1
_MULTI_STREAM = ("n_ue = 3\nn_streams = 2\npaths_per_user = 3\n"
                 "subcarriers = 64\n")
_TABLES = ("capacity.csv", "cdf.csv", "bound.csv", "run_meta.csv",
           "sparsity.csv")


def sketch_configs(n):
    """Lines of a sweep --configs file: the low-rank setups at explicit
    widths (q = N is the worst-conditioned sketch) and power steps."""
    setups = [("antenna", 1, 1), ("beamspace", max(n // 2, 1), 4),
              ("antenna", n, 1), ("beamspace", n, 2)]
    return ["%s-q%d-p%d domain=%s precond=lowrank q=%d p=%d\n"
            % (domain, q, p, domain, q, p) for domain, q, p in setups]


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

    def sweep(path, run_dir, options):
        call("sweep-" + run_dir, ["sweep", path] + options
             + ["--out-dir", os.path.join(out, run_dir)])
        files(*(os.path.join(run_dir, table) for table in _TABLES))
        call("report-" + run_dir, ["report", os.path.join(out, run_dir)])

    config = os.path.join(out, "scene.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("side = %d\n" % side)
    multi_config = os.path.join(out, "multi.cfg")
    with open(multi_config, "w", encoding="utf-8") as fh:
        fh.write("side = %d\n%s" % (side, _MULTI_STREAM))
    sketches = os.path.join(out, "sketches.cfg")
    with open(sketches, "w", encoding="utf-8") as fh:
        fh.writelines(sketch_configs(side * side))
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
            sweep(path, "%s-sweep-%s" % (scene, eps), ["--eps", eps])
        sweep(path, "%s-sweep-sketches" % scene,
              ["--eps", _EPSILONS[0], "--configs", sketches])
        multi = "multi-%d" % seed
        multi_path = os.path.join(out, multi + ".bslv")
        call("gen-" + multi, ["gen", multi_config, multi_path,
                              "--seed", str(seed)])
        stem = multi + "-beamspace-lowrank-" + _EPSILONS[0]
        call("invert-" + stem,
             ["invert", multi_path, "--domain", "beamspace", "--precond",
              "lowrank", "--eps", _EPSILONS[0],
              "--out", os.path.join(out, stem + ".inv"),
              "--trace", os.path.join(out, stem + ".trace.csv")])
        files(multi + ".bslv", stem + ".inv", stem + ".trace.csv")
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
