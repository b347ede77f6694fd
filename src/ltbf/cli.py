"""Command-line front end.

Four subcommands cover the batch workflow:

    ltbf gen CONFIG OUT          make a scenario file from a key=value config
    ltbf invert SCENARIO         solve one scenario and store the inverse
    ltbf sweep SCENARIO          run solver configurations, emit CSV tables
    ltbf report RUN_DIR          condense sweep CSVs into a text summary

All output is plain CSV plus key-value stdout lines; plotting is left to
external tooling.  Exit codes: 0 success, 2 configuration problem (a
config too large to allocate among them), 3 numerical failure, 4 file
I/O problem.

The sweep config file holds one solver configuration per line:

    NAME domain=antenna|beamspace precond=none|lowrank [q=Q] [p=2]

q, the sketch width, defaults to min(32, N).  NAME goes unquoted into the
CSV tables: it may hold neither ',' nor '"', and "exact" is reserved.

'#' starts a comment.  Without a config file the four standard
combinations (antenna/beamspace crossed with plain/low-rank) are run.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .beamspace import (SPARSITY_THRESHOLD, build_operator, from_beamspace,
                        sparsity_ratio, to_beamspace)
from .cg import CGConfig, NumericalBreakdownError, cg_inverse
from .cholqr import RankDeficiencyError
from .evaluation import (build_projectors, capacity, capacity_vs_iterations,
                         check_sinr_bound, inverse_error, scenario_gammas,
                         sinr_cdf, write_csv)
from .linalg import (CholeskyBreakdownError, FlopCounter,
                     JacobiConvergenceError, NotFiniteError,
                     SingularTriangularError)
from .precond import InvalidSpectrumError, build_preconditioner, sketch_width
from .scenario import (ConfigError, FileFormatError, assemble_q,
                       generate_scenario, load_scenario, read_config_file,
                       read_config_lines, save_matrix, save_scenario)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4

# NotFiniteError: a finite Q whose beamspace transform overflows
_NUMERICAL_ERRORS = (RankDeficiencyError, NumericalBreakdownError,
                     CholeskyBreakdownError, SingularTriangularError,
                     JacobiConvergenceError, InvalidSpectrumError,
                     NotFiniteError, np.linalg.LinAlgError)

_BOUND_EPSILONS = (0.1, 0.01)


class SolverSetup:
    """One named solver configuration of a sweep run; q None is the
    default sketch width, resolved where N is known."""

    def __init__(self, name, domain="antenna", precond="none", q=None, p=2):
        if domain not in ("antenna", "beamspace"):
            raise ConfigError("config %s: unknown domain %r" % (name, domain))
        if precond not in ("none", "lowrank"):
            raise ConfigError("config %s: unknown precond %r" % (name, precond))
        self.name = name
        self.domain = domain
        self.precond = precond
        self.q = None if q is None else int(q)
        self.p = int(p)


_DEFAULT_SETUPS = (
    SolverSetup("antenna_plain", "antenna", "none"),
    SolverSetup("antenna_precond", "antenna", "lowrank"),
    SolverSetup("beamspace_plain", "beamspace", "none"),
    SolverSetup("beamspace_precond", "beamspace", "lowrank"),
)


def read_sweep_configs(path):
    """Parse the sweep config file into SolverSetup objects."""
    setups = []
    seen = set()
    for lineno, line in read_config_lines(path):
        tokens = line.split()
        name = tokens[0]
        if "=" in name:
            raise ConfigError("%s:%d: first token must be the config id"
                              % (path, lineno))
        if "," in name or '"' in name or name == "exact":
            raise ConfigError("%s:%d: config id %r is 'exact' or holds ',' or "
                              "'\"'" % (path, lineno, name))
        if name in seen:
            raise ConfigError("%s:%d: duplicate config id %r"
                              % (path, lineno, name))
        seen.add(name)
        kwargs = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ConfigError("%s:%d: expected key=value, got %r"
                                  % (path, lineno, tok))
            key, value = tok.split("=", 1)
            if key not in ("domain", "precond", "q", "p"):
                raise ConfigError("%s:%d: unknown config key %r"
                                  % (path, lineno, key))
            kwargs[key] = value
        try:
            setups.append(SolverSetup(name, **kwargs))
        except ValueError as err:
            raise ConfigError("%s:%d: %s" % (path, lineno, err)) from err
    if not setups:
        raise ConfigError("%s: no solver configurations found" % path)
    return setups


def _cluster_stats(eigvals):
    """(cluster count, cluster edge) of eigenvalues hugging 1 from above."""
    excess = float(np.max(eigvals)) - 1.0
    edge = 1.0 + 0.05 * max(excess, 0.0)
    inside = int(np.sum((eigvals >= 1.0 - 1e-9) & (eigvals <= edge)))
    return inside, edge


def _cmd_gen(args):
    cfg = read_config_file(args.config_file)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stats, channels = generate_scenario(cfg)
    system = assemble_q(stats)  # rejects the statistics before any file exists
    save_scenario(args.out_path, cfg, stats, channels)
    eigvals = np.linalg.eigvalsh(system.matrix)
    clustered, edge = _cluster_stats(eigvals)
    print("out=%s" % args.out_path)
    print("N=%d" % cfg.n_antennas)
    print("N_UE=%d" % cfg.n_ue)
    print("seed=%d" % cfg.seed)
    print("sigma2=%r" % system.sigma2)
    print("kappa=%r" % float(eigvals[-1] / eigvals[0]))
    print("clustered_eigs=%d" % clustered)
    print("cluster_edge=%r" % edge)
    return _EXIT_OK


def _setup_preconditioner(system, setup, seed, counter=None):
    """The setup's preconditioner of the working-domain system, or None."""
    if setup.precond == "lowrank":
        return build_preconditioner(system, rank=setup.q, power_iters=setup.p,
                                    seed=seed, counter=counter)
    return None


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ConfigError("--eps must lie in (0, 1), got %r" % eps)


def _check_sketch(q, p, n, where=""):
    """Sketch rank q in [1, N] (None: the default width) and power
    iterations p >= 1."""
    if q is not None and not 1 <= q <= n:
        raise ConfigError("%ssketch rank q must lie in [1, %d], got %d"
                          % (where, n, q))
    if p < 1:
        raise ConfigError("%spower iteration count p must be >= 1, got %d"
                          % (where, p))


def _check_iterations(what, count, n):
    if not 0 <= count <= 10 * n:
        raise ConfigError("%s must lie in [0, %d] (10N), got %d"
                          % (what, 10 * n, count))


def _cmd_invert(args):
    cfg, stats = load_scenario(args.scenario)[:2]
    _check_sketch(args.q, args.p, cfg.n_antennas)
    _check_eps(args.eps)
    if args.max_iters is not None:
        _check_iterations("--max-iters", args.max_iters, cfg.n_antennas)
    system = assemble_q(stats)
    del stats  # the covariances are not needed past Q
    operator = build_operator(cfg.side)
    setup = SolverSetup("invert", domain=args.domain, precond=args.precond,
                        q=args.q, p=args.p)
    if setup.domain == "beamspace":
        system = to_beamspace(operator, system)  # drops the antenna Q
    counter = FlopCounter()
    precond = _setup_preconditioner(system, setup, cfg.seed, counter=counter)
    n = system.matrix.shape[0]
    max_iters = args.max_iters if args.max_iters is not None else 10 * n
    state = cg_inverse(system, preconditioner=precond,
                       config=CGConfig(max_iters=max_iters, epsilon=args.eps),
                       counter=counter)
    x = state.x
    if setup.domain == "beamspace":
        x = from_beamspace(operator, x)
    out_path = args.out if args.out else args.scenario + ".inv"
    save_matrix(out_path, x)
    if args.trace:
        config_id = "%s_%s" % (args.domain, args.precond)
        write_csv(args.trace, "iter,residual,config_id",
                  ((k, res, config_id) for k, res
                   in enumerate(state.residual_history, start=1)))
    print("out=%s" % out_path)
    print("domain=%s" % setup.domain)
    print("precond=%s" % setup.precond)
    print("iterations=%d" % state.iterations)
    print("residual=%r" % state.residual)
    print("complex_mults=%d" % counter.mults)
    print("complex_adds=%d" % counter.adds)
    if state.residual >= args.eps:
        print("warning=target %r not reached in %d iterations (%s)"
              % (args.eps, state.iterations, state.stop))
    return _EXIT_OK


def _sweep_tables(cfg, stats, channels, setups, budgets, eps, rank):
    """Rows of capacity.csv, cdf.csv, bound.csv, run_meta.csv, sparsity.csv."""
    system_ant = assemble_q(stats)
    operator = build_operator(cfg.side)
    systems = {"antenna": system_ant,
               "beamspace": to_beamspace(operator, system_ant)}
    projectors = build_projectors(stats, rank)

    def gammas(x, op=None):
        return scenario_gammas(stats, channels, x, cfg.noise_psd,
                               projectors=projectors, operator=op)

    gam_exact = gammas(np.linalg.inv(system_ant.matrix))

    capacity_rows = []
    cdf_rows = []
    meta_rows = []
    for setup in setups:
        system = systems[setup.domain]
        precond = _setup_preconditioner(system, setup, cfg.seed)
        # beamspace iterates are scored through the operator, not mapped
        # back; one run serves the budgets and the converged solve of the CDF
        domain_op = operator if setup.domain == "beamspace" else None
        rows, (converged,) = capacity_vs_iterations(
            system, lambda x: capacity(gammas(x, domain_op)), budgets, [eps],
            preconditioner=precond)
        for row in rows:
            capacity_rows.append((setup.name, row["iterations"], row["capacity"]))
        x = converged.pop("x")  # holds one N x N iterate, not two
        if domain_op is not None:
            x = from_beamspace(operator, x)  # inverse_error needs it mapped back
        gam = gammas(x)
        for db, pr in zip(*sinr_cdf(gam)):
            cdf_rows.append((db, pr, setup.name))
        fro, spec = inverse_error(system_ant, x)
        meta_rows.append((setup.name, setup.domain, setup.precond,
                          sketch_width(setup.q, system.matrix.shape[0]),
                          setup.p, converged["iterations"], fro, spec,
                          capacity(gam)))
    for db, pr in zip(*sinr_cdf(gam_exact)):
        cdf_rows.append((db, pr, "exact"))

    # bound rows come from deliberately loose solves at the probe
    # tolerances, all read off one plain antenna run: a preconditioned
    # one can meet both at its first iterate and probe a single eps
    bound_rows = []
    _, probes = capacity_vs_iterations(system_ant, None, [], _BOUND_EPSILONS)
    for probe in probes:
        _, spec = inverse_error(system_ant, probe["x"])
        gam = gammas(probe["x"])
        bound = check_sinr_bound(gam_exact, gam, spec)
        n_ue = gam.shape[0]
        for user in range(n_ue):
            g_u = gam[user].reshape(-1)
            rhs_u = bound.rhs[user].reshape(-1)
            for g_val, rhs_val in zip(g_u, rhs_u):
                bound_rows.append((user, spec, g_val, rhs_val, g_val - rhs_val))

    sparsity_rows = [(domain, SPARSITY_THRESHOLD,
                      sparsity_ratio(system.matrix))
                     for domain, system in systems.items()]
    return capacity_rows, cdf_rows, bound_rows, meta_rows, sparsity_rows


def _cmd_sweep(args):
    cfg, stats, channels = load_scenario(args.scenario)
    setups = read_sweep_configs(args.configs) if args.configs else list(_DEFAULT_SETUPS)
    try:
        budgets = [int(tok) for tok in args.iters.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError("--iters must be a comma list of integers, got %r"
                          % args.iters) from err
    n = cfg.n_antennas
    for setup in setups:
        _check_sketch(setup.q, setup.p, n, "config %s: " % setup.name)
    for budget in budgets:
        _check_iterations("iteration budget", budget, n)
    _check_eps(args.eps)
    if not 1 <= args.eval_rank <= n:
        raise ConfigError("--eval-rank must lie in [1, %d], got %d"
                          % (n, args.eval_rank))
    os.makedirs(args.out_dir, exist_ok=True)
    if budgets:
        tables = _sweep_tables(cfg, stats, channels, setups, budgets,
                               args.eps, args.eval_rank)
    else:
        tables = ([],) * 5  # nothing to sweep; leave well-formed empty tables
    capacity_rows, cdf_rows, bound_rows, meta_rows, sparsity_rows = tables
    out = lambda name: os.path.join(args.out_dir, name)
    write_csv(out("capacity.csv"), "config_id,iters,capacity", capacity_rows)
    write_csv(out("cdf.csv"), "gamma_db,cdf,config_id", cdf_rows)
    write_csv(out("bound.csv"), "user,epsilon,gamma,bound_rhs,margin",
              bound_rows)
    write_csv(out("run_meta.csv"), "config_id,domain,precond,q,p,iters_to_eps,"
              "residual_fro,residual_spectral,capacity", meta_rows)
    write_csv(out("sparsity.csv"), "domain,threshold,sparsity_ratio",
              sparsity_rows)
    print("out_dir=%s" % args.out_dir)
    print("configs=%d" % len(setups))
    print("budgets=%s" % ",".join(str(b) for b in budgets))
    for name, _, _, _, _, iterations, fro, _, _ in meta_rows:
        if fro >= args.eps:
            print("warning=%s target %r not reached in %d iterations"
                  % (name, args.eps, iterations))
    return _EXIT_OK


def _read_table(run_dir, name, columns):
    """The rows of a sweep table, each of the named columns parsed by its
    type; a table that lacks one or holds a value that does not parse is a
    FileFormatError."""
    path = os.path.join(run_dir, name)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [{key: kind(row[key]) for key, kind in columns.items()}
                    for row in csv.DictReader(fh)]
    except (KeyError, TypeError, ValueError, csv.Error) as err:
        raise FileFormatError("%s: malformed table: %r" % (path, err)) from err


def _cmd_report(args):
    names = os.listdir(args.run_dir)
    if "run_meta.csv" not in names:
        print("no runs found in %s" % args.run_dir)
        return _EXIT_OK
    meta = _read_table(args.run_dir, "run_meta.csv", {
        "config_id": str, "domain": str, "precond": str, "iters_to_eps": int,
        "capacity": float})
    cap = _read_table(args.run_dir, "capacity.csv", {
        "config_id": str, "iters": int, "capacity": float})
    bound = _read_table(args.run_dir, "bound.csv", {"margin": float})
    sparsity = _read_table(args.run_dir, "sparsity.csv", {
        "domain": str, "threshold": str, "sparsity_ratio": float})

    lines = ["solver configurations: %d" % len(meta)]
    baseline = next((r for r in meta if r["domain"] == "antenna"
                     and r["precond"] == "none"), None)
    for row in meta:
        note = ""
        if baseline is not None and row is not baseline:
            saved = baseline["iters_to_eps"] - row["iters_to_eps"]
            note = "  (saves %d vs plain antenna)" % saved
        lines.append("%s: %d iterations to target, capacity %.4f%s"
                     % (row["config_id"], row["iters_to_eps"],
                        row["capacity"], note))

    by_config = {}
    for row in cap:
        by_config.setdefault(row["config_id"], []).append(
            (row["iters"], row["capacity"]))
    if baseline is not None and by_config:
        base_curve = dict(by_config.get(baseline["config_id"], ()))
        for name, curve in sorted(by_config.items()):
            if name == baseline["config_id"]:
                continue
            deltas = ["%+.1f%% @%d" % (100.0 * (c - base_curve[b]) /
                                       max(base_curve[b], 1e-12), b)
                      for b, c in sorted(curve) if b in base_curve][:3]
            if deltas:
                lines.append("capacity delta %s vs plain antenna: %s"
                             % (name, ", ".join(deltas)))

    if bound:
        margins = np.array([r["margin"] for r in bound])
        lines.append("SINR bound: %d rows, worst margin %.3e, violations %d"
                     % (len(bound), margins.min(), int(np.sum(margins < 0))))
    for row in sparsity:
        lines.append("sparsity ratio (%s, threshold %s): %.3f"
                     % (row["domain"], row["threshold"],
                        row["sparsity_ratio"]))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("out=%s" % args.out)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltbf",
        description="low-rank preconditioned inversion workflows for "
                    "long-term beamforming studies")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("config_file", help="key=value scenario config file")
    gen.add_argument("out_path", help="output scenario path")
    gen.add_argument("--seed", type=int, help="override the config seed")

    inv = sub.add_parser("invert", help="solve one scenario for its inverse")
    inv.add_argument("scenario", help="scenario file from gen")
    inv.add_argument("--domain", choices=("antenna", "beamspace"),
                     default="antenna")
    inv.add_argument("--precond", choices=("none", "lowrank"), default="lowrank")
    inv.add_argument("--q", type=int, default=None,
                     help="preconditioner rank (default min(32, N))")
    inv.add_argument("--p", type=int, default=2,
                     help="power iterations of the sketch (default 2)")
    inv.add_argument("--eps", type=float, default=1e-6,
                     help="relative residual target (default 1e-6)")
    inv.add_argument("--max-iters", type=int, default=None,
                     help="iteration budget (default 10N)")
    inv.add_argument("--trace", help="write per-iteration residual CSV here")
    inv.add_argument("--out", help="output matrix path (default SCENARIO.inv)")

    swp = sub.add_parser("sweep", help="run solver configs, emit CSV tables")
    swp.add_argument("scenario", help="scenario file from gen")
    swp.add_argument("--configs", help="solver config file (see module help)")
    swp.add_argument("--iters", default="2,4,6,8,12,16,24,32",
                     help="comma list of iteration budgets")
    swp.add_argument("--out-dir", required=True, help="directory for the tables")
    swp.add_argument("--eps", type=float, default=1e-6,
                     help="convergence target for the CDF solves")
    swp.add_argument("--eval-rank", type=int, default=4,
                     help="projection rank of the evaluated receiver")

    rep = sub.add_parser("report", help="summarize sweep CSVs as text")
    rep.add_argument("run_dir", help="directory written by sweep")
    rep.add_argument("--out", help="write the summary here instead of stdout")

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "invert": _cmd_invert,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as err:  # a config whose arrays cannot be allocated
        print("config error: out of memory: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    except _NUMERICAL_ERRORS as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as err:  # FileFormatError among them
        print("file error: %s" % err, file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(run())
