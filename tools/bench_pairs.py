"""Paired benchmark runs of two checkouts, written to one JSON file.

    python tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json
        [--seeds 601,...] [--workloads a,b]

For each workload of CHANGE's BENCHMARK.json and each seed, runs the
benchmark command it declares,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, so that every run lasts the
benchmark's run length.  It runs once with PARENT and once with CHANGE as
the working directory, so each tree runs its own sources.  The tree that
goes first alternates from seed to seed.  Each run's last stdout line is its result object and the line
before it the details object.  The JSON file holds:

- machine facts, the seeds, the run length and both trees' commits (and
  the tree hash of their src/, which names the sources run);
- every run of both sides: result, metrics, op counts and failures;
- per workload: each side's crashed runs (a non-zero exit or no result
  line), runs that failed a check (`correct` false) and failed ops over
  attempted ops;
- per workload and metric of the BENCHMARK.json end_to_end list: each
  side's median and quartiles over its usable runs (exit 0 and `correct`
  true), the pairs of usable runs the change won, the change of the
  median, a verdict against the metric's bound, read from
  BENCHMARK.json, and whether the change is a gain.

The verdict is "fail" when the change has no usable run, more crashed
runs than the parent, or a larger share of failed ops, whatever its
metrics read.  Otherwise it is "pass" when every change run reads better
than every parent run, and "unresolved" when the parent's own IQR/median
exceeds the bound, unless every change run reads worse than every parent
run and the median is worse by more than the bound.  Else it is "fail"
when the median is worse by more than the bound and "pass" when not.

`gain` is true when the change won at least 9 of every 10 pairs and its
median reads better than the parent's by more than the parent's IQR,
the rule a claimed gain is held to; never where the verdict fails for
crashes or failed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
DEFAULT_SEEDS = tuple(range(601, 611))


def run_benchmark(tree, argv):
    """(exit status, stdout, stderr) of argv run with tree as working
    directory."""
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def git_hash(tree, rev):
    """`git -C tree rev-parse rev`, or None outside a checkout."""
    done = subprocess.run(["git", "-C", tree, "rev-parse", rev],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def parse_run(code, stdout, stderr):
    """The record of one run from its exit status and output."""
    lines = stdout.strip().splitlines()
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        details = result = None
    if code != 0 or not isinstance(result, dict) or "metrics" not in result:
        return {"returncode": code, "error": stderr[-2000:]}
    return {"returncode": code,
            "correct": result.get("correct"),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "ops": details.get("ops"),
            "op_s.tail": details.get("op_s.tail"),
            "failures": details.get("failures", []),
            "machine": details.get("machine")}


def usable(record):
    """Whether a run exited 0, reported its metrics and passed its checks."""
    return record.get("correct") is True and "metrics" in record


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


def failures(runs):
    """Per side: crashed runs, runs that failed a check and the share of
    failed ops over the ops attempted by the runs that reported."""
    out = {}
    for side in SIDES:
        attempted = sum(r.get("attempted") or 0 for r in runs[side])
        failed = sum(r.get("failed") or 0 for r in runs[side])
        out[side] = {
            "crashed": sum(1 for r in runs[side] if "metrics" not in r),
            "incorrect": sum(1 for r in runs[side]
                             if "metrics" in r and r.get("correct") is not True),
            "failed_share": failed / attempted if attempted else None}
    return out


def failure_reason(runs):
    """Why the change fails on this workload whatever its metrics read, or
    None."""
    counts = failures(runs)
    if not any(usable(r) for r in runs["change"]):
        return "no usable change run"
    if counts["change"]["crashed"] > counts["parent"]["crashed"]:
        return "more crashed runs than the parent"
    if ((counts["change"]["failed_share"] or 0.0)
            > (counts["parent"]["failed_share"] or 0.0)):
        return "a larger share of failed ops than the parent"
    return None


def summarize(runs, metric):
    """Per-side statistics, pairs won and the verdict of one gated metric."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    values = {side: [r["metrics"][name] for r in runs[side]
                     if usable(r) and name in r["metrics"]] for side in SIDES}
    out = {"bound": bound, "better": better}
    for side in SIDES:
        if not values[side]:
            out[side] = None
            continue
        q1, median, q3 = quartiles(values[side])
        out[side] = {"n": len(values[side]), "median": median, "q1": q1,
                     "q3": q3,
                     "iqr_over_median": (q3 - q1) / abs(median) if median else None}
    # sign * value is lower for the better reading
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(p["metrics"][name], c["metrics"][name])
             for p, c in zip(runs["parent"], runs["change"])
             if usable(p) and usable(c)
             and name in p["metrics"] and name in c["metrics"]]
    out["pairs"] = len(pairs)
    out["pairs_won"] = sum(1 for p, c in pairs if sign * (c - p) < 0.0)
    out["median_change"] = None
    if out["parent"] is not None and out["change"] is not None:
        base = out["parent"]["median"]
        if base:
            out["median_change"] = (out["change"]["median"] - base) / abs(base)
    reason = failure_reason(runs)
    out["gain"] = bool(
        reason is None and out["pairs"]
        and out["pairs_won"] >= 0.9 * out["pairs"]
        and sign * (out["parent"]["median"] - out["change"]["median"])
        > out["parent"]["q3"] - out["parent"]["q1"])
    if reason is not None:
        out["verdict"], out["reason"] = "fail", reason
        return out
    if out["median_change"] is None:
        out["verdict"] = "unresolved"
        return out
    # a positive sign * change is the change being worse
    worse = sign * out["median_change"] > bound
    change = [sign * v for v in values["change"]]
    parent = [sign * v for v in values["parent"]]
    if max(change) < min(parent):
        out["verdict"] = "pass"
    elif (out["parent"]["iqr_over_median"] > bound
          and not (worse and min(change) > max(parent))):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "fail" if worse else "pass"
    return out


def bench_pairs(trees, seeds, workloads, spec, runner=run_benchmark,
                log=None):
    """The report object of paired runs of trees = {"parent": ..,
    "change": ..}: every run, then each workload's gated metrics."""
    seconds = spec["run_seconds"]
    report = {"command": spec["command"], "seconds": seconds,
              "seeds": list(seeds),
              "machine": {"platform": platform.platform(),
                          "cpu_count": os.cpu_count(),
                          "python": platform.python_version()},
              "commits": {side: git_hash(trees[side], "HEAD") for side in SIDES},
              "src_trees": {side: git_hash(trees[side], "HEAD:src")
                            for side in SIDES},
              "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                argv = spec["command"] + ["--workload", workload,
                                          "--seed", str(seed),
                                          "--seconds", str(seconds),
                                          "--trace", "0"]
                record = parse_run(*runner(trees[side], argv))
                record.update(seed=seed, position=position)
                runs[side].append(record)
                machine = record.pop("machine", None) or {}
                report["machine"].setdefault(
                    "perfbench", {k: v for k, v in machine.items() if k != "seed"})
                if log:
                    log("%s seed %d %s: %s" % (workload, seed, side,
                                               record.get("metrics")
                                               or record.get("error")))
        report["workloads"][workload] = {
            "runs": runs,
            "failures": failures(runs),
            "metrics": {m["name"]: summarize(runs, m)
                        for m in spec["end_to_end"]}}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                        help="comma list of run seeds, one pair each")
    parser.add_argument("--workloads",
                        help="comma list (default: every workload)")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(tok) for tok in args.seeds.split(",")]
    trees = {"parent": args.parent, "change": args.change}
    report = bench_pairs(trees, seeds, workloads, spec,
                         log=lambda text: print(text, file=sys.stderr,
                                                flush=True))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print("%s %s: %s (pairs won %d/%d)%s%s"
                  % (workload, name, m["verdict"], m["pairs_won"], m["pairs"],
                     ", gain" if m["gain"] else "",
                     ": " + m["reason"] if "reason" in m else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
