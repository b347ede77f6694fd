"""Benchmark of the ltbf inversion pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ./src.  One
process runs one workload as a closed loop with one client: set-up, warm-up
op(s), then ops back to back for --seconds (at least a few), each checked
for correctness outside its timed region.  A failed check or an exception
counts as a failed op.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced ops and reports the per-layer metrics; the
traced ops run with every public ltbf function wrapped (see tracing.py).
The last line of stdout is the result object; the line before it holds
machine facts, exact counts and the metrics that are not gated.

--smoke runs one op of every workload at side 4, untraced and traced, and
asserts that every metric appears with its unit and that the exact counts
repeat across two traced runs of the same seed.
"""

from time import perf_counter

_START = perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 3
MIN_TRACED_OPS = 2
# op_s.tail is the highest of these with at least TAIL_BEYOND samples above
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def limit_blas_threads():
    """Cap BLAS threads at the usable CPU count; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def machine_facts(nproc, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": nproc, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "numpy": np.__version__, "python": platform.python_version(),
            "seed": seed}


def tail(durations):
    """(value, percentile) of op_s.tail, or (None, None) with too few ops."""
    import numpy as np
    for pct in TAIL_PERCENTILES:
        if len(durations) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return float(np.percentile(durations, pct)), pct
    return None, None


def run_op(wl, i, tracer, record):
    """One op, timed, then checked: (seconds or None, failure text or None,
    result).  Seconds is None when the op raised."""
    from workloads import CheckFailed
    try:
        with tracer.recording(record) if record is not None else nullcontext():
            start = perf_counter()
            result = wl.op(i)
            seconds = perf_counter() - start
    except Exception:
        # a broken op is a failed op; the run goes on and reports it
        return None, "op %d raised:\n%s" % (i, traceback.format_exc()), None
    if record is not None:
        record.close(seconds)
    try:
        wl.check(result)
    except CheckFailed as err:
        return seconds, "op %d: %s" % (i, err), result
    except Exception:
        return seconds, "op %d check raised:\n%s" % (i, traceback.format_exc()), result
    return seconds, None, result


def measure(name, seed, seconds, trace, tiny, import_s, nproc, min_ops):
    """Set up, warm up and run one workload: (result, details).

    With trace, every second timed op is traced, on the same input as the
    untraced op before it.  Timings cover every op
    that returned, whether or not its check passed; at least min_ops of
    each kind are timed unless ops keep raising.
    """
    import numpy as np
    import ltbf
    import tracing
    import workloads

    workdir = WORK / ("%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](str(workdir), seed, tiny)
    tracer = tracing.Tracer(ltbf) if trace else None
    setup_rec = tracer.new_record() if trace else None
    failures, plain, traced, records, np_inv_s = [], [], [], [], []
    probe = None
    attempted = failed = timed = timed_failed = raised = 0
    timed_s = 0.0
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            with tracer.recording(setup_rec) if trace else nullcontext():
                build_s.append(wl.build_inputs())
        warmup_s = 0.0
        for _ in range(wl.warmup_ops):
            dt, failure, _ = run_op(wl, attempted, None, None)
            warmup_s += dt or 0.0
            attempted += 1
            if failure:
                failed += 1
                failures.append(failure)
        setup_s = import_s + statistics.median(build_s) + warmup_s

        deadline = perf_counter() + seconds
        while True:
            # a traced op repeats the input of the untraced op before it
            index = wl.warmup_ops + (timed // 2 if trace else timed)
            record = tracer.new_record() if trace and timed % 2 else None
            start = perf_counter()
            dt, failure, result = run_op(wl, index, tracer, record)
            attempted += 1
            timed += 1
            if failure:
                failed += 1
                timed_failed += 1
                failures.append(failure)
            if dt is None:
                raised += 1
                timed_s += perf_counter() - start
            elif record is None:
                timed_s += dt
                plain.append(dt)
            else:
                timed_s += dt
                traced.append(dt)
                records.append(record)
                if probe is None:
                    probe = result
                q = wl.antenna_q(result)
                start = perf_counter()
                np.linalg.inv(q)
                np_inv_s.append(perf_counter() - start)
            if perf_counter() < deadline or (trace and timed % 2):
                continue
            done = min(len(plain), len(traced)) if trace else len(plain)
            if done >= min_ops or raised >= min_ops:
                break
        failures.extend(wl.finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not plain or (trace and not traced):
        raise RuntimeError("every op raised:\n" + "\n".join(failures))

    tail_s, tail_pct = tail(plain)
    details = {
        "workload": name, "trace": trace, "tiny": tiny,
        "machine": machine_facts(nproc, seed),
        "ops": {"warmup": wl.warmup_ops, "untraced": len(plain),
                "traced": len(traced), "attempted": attempted, "failed": failed},
        "op_s.tail": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                      "samples": len(plain)},
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "failures": failures,
    }
    if trace:
        metrics = tracing.layer_metrics(records, setup_rec)
        metrics["reference.np_inv_s"] = statistics.median(np_inv_s)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        details["largest_self_layer"] = tracing.largest_self_layer(records)
        details["counts"] = tracing.exact_counts(records[0])
        details["program_complex_mults"] = wl.printed_mults(probe)
    else:
        metrics = {
            "op_s.p50": statistics.median(plain),
            "ops_per_s": (timed - timed_failed) / timed_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, details


def select_metrics(result, wanted):
    """Keep the metrics BENCHMARK.json lists, with its units; (result, missing)."""
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    result = dict(result, metrics={
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in metrics})
    return result, missing


def smoke(spec, seed, nproc):
    """One op of each workload at side 4, untraced and twice traced."""
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            raw, details = measure(name, seed, 0.0, trace, True, 0.0, nproc,
                                   min_ops=1)
            result, missing = select_metrics(
                raw, spec["per_layer" if trace else "end_to_end"])
            where = "%s trace=%d" % (name, trace)
            problems += ["%s: metric %s missing" % (where, m) for m in missing]
            problems += ["%s: %s has no unit" % (where, key)
                         for key in ("op_s.tail", "failed_frac")
                         if not details[key].get("unit")]
            if not result["correct"] or result["failed"]:
                problems.append("%s: failed\n%s"
                                % (where, "\n".join(details["failures"])))
            print("smoke: %s correct=%s attempted=%d failed=%d"
                  % (where, result["correct"], result["attempted"], result["failed"]))
            if trace:
                counts.append(details["counts"])
                mults = details["program_complex_mults"]
                if mults is not None and mults != details["counts"]["flops_total"][0]:
                    problems.append("%s: traced mults %d differ from the %d "
                                    "the program printed" % (
                                        where, details["counts"]["flops_total"][0],
                                        mults))
        if counts[0] != counts[1]:
            problems.append("%s: exact counts differ between two traced runs "
                            "of seed %d" % (name, seed))
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checking the output")
    args = parser.parse_args(argv)

    if not (SRC / "ltbf" / "__init__.py").is_file():
        print("perfbench: no ltbf sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print("perfbench: cannot read %s: %s" % (SPEC, err), file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import ltbf
    import tracing  # noqa: F401  (imported here so import_s covers it)
    import workloads  # noqa: F401
    if Path(ltbf.__file__).resolve().parent != (SRC / "ltbf").resolve():
        print("perfbench: ltbf was imported from %s, not %s"
              % (ltbf.__file__, SRC), file=sys.stderr)
        return 2
    import_s = perf_counter() - _START

    if args.smoke:
        return smoke(spec, args.seed, nproc)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("--workload must be one of %s"
                     % ", ".join(w["name"] for w in spec["workloads"]))
    min_ops = MIN_TRACED_OPS if args.trace else MIN_OPS
    raw, details = measure(args.workload, args.seed, args.seconds, args.trace,
                           False, import_s, nproc, min_ops)
    result, missing = select_metrics(
        raw, spec["per_layer" if args.trace else "end_to_end"])
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
