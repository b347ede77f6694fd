"""End-to-end conditioning walkthrough on the default scenario.

Builds the 256-antenna multi-user scenario, looks at the spectrum of the
system matrix, then races the four solver configurations (antenna/beamspace
crossed with plain/low-rank preconditioned) to two residual targets and
prints the iteration and complex-multiply tallies.
"""

import numpy as np

from ltbf.beamspace import (SPARSITY_THRESHOLD, build_operator, sparsity_ratio,
                            to_beamspace)
from ltbf.cg import CGConfig, cg_inverse
from ltbf.linalg import FlopCounter
from ltbf.precond import build_preconditioner
from ltbf.scenario import ScenarioConfig, assemble_q, generate_scenario

SKETCH_RANK = None  # the default width, min(32, N)
POWER_ITERS = 2


def run_config(name, system, precond, eps):
    counter = FlopCounter()
    n = system.matrix.shape[0]
    state = cg_inverse(system, preconditioner=precond,
                       config=CGConfig(max_iters=10 * n, epsilon=eps),
                       counter=counter)
    print("  %-18s  %2d iterations   residual %.2e   %.1f Mmult"
          % (name, state.iterations, state.residual_history[-1],
             counter.mults / 1e6))
    return state.iterations


def main():
    cfg = ScenarioConfig()
    print("scenario: %d antennas, %d users, SNR %g..%g dB, seed %d"
          % (cfg.n_antennas, cfg.n_ue, cfg.snr_db_range[0],
             cfg.snr_db_range[1], cfg.seed))
    stats, _ = generate_scenario(cfg)
    system = assemble_q(stats)

    vals = np.linalg.eigvalsh(system.matrix)
    edge = 1.0 + 0.05 * (vals[-1] - 1.0)
    clustered = int(np.sum((vals >= 1.0 - 1e-9) & (vals <= edge)))
    print("spectrum: kappa %.1f, %d of %d eigenvalues inside [1, %.3f]"
          % (vals[-1] / vals[0], clustered, len(vals), edge))

    operator = build_operator(cfg.side)
    system_beam = to_beamspace(operator, system)
    print("beamspace sparsity %.2f vs antenna %.2f (threshold %g)"
          % (sparsity_ratio(system_beam.matrix),
             sparsity_ratio(system.matrix), SPARSITY_THRESHOLD))

    pre_ant = build_preconditioner(system, rank=SKETCH_RANK,
                                   power_iters=POWER_ITERS, seed=cfg.seed)
    pre_beam = build_preconditioner(system_beam, rank=SKETCH_RANK,
                                    power_iters=POWER_ITERS, seed=cfg.seed)
    configs = [("antenna plain", system, None),
               ("antenna precond", system, pre_ant),
               ("beamspace plain", system_beam, None),
               ("beamspace precond", system_beam, pre_beam)]

    for eps in (1e-3, 1e-6):
        print("solves to residual %g:" % eps)
        counts = {name: run_config(name, sys_m, pre, eps)
                  for name, sys_m, pre in configs}
        saved = counts["antenna plain"] - counts["beamspace precond"]
        print("  joint pipeline saves %d iterations over plain antenna" % saved)


if __name__ == "__main__":
    main()
