"""Link-level cost of truncating the iterative inverse.

Evaluates the default scenario's post-combining SINR under the exact
system-matrix inverse and under solver iterates cut off early, then checks
the measured degradation against the algebraic lower bound driven by the
operator residual ||Q X - I||.
"""

import argparse

import numpy as np

from ltbf.cg import CGConfig, cg_inverse
from ltbf.evaluation import (build_projectors, capacity, capacity_vs_iterations,
                             check_sinr_bound, inverse_error, scenario_gammas)
from ltbf.precond import build_preconditioner
from ltbf.scenario import ScenarioConfig, assemble_q, generate_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3301)
    parser.add_argument("--rank", type=int, default=4,
                        help="projection rank of the evaluated receiver")
    args = parser.parse_args()

    cfg = ScenarioConfig(seed=args.seed)
    stats, channels = generate_scenario(cfg)
    system = assemble_q(stats)
    projectors = build_projectors(stats, args.rank)

    def gammas(x):
        return scenario_gammas(stats, channels, x, cfg.noise_psd,
                               projectors=projectors)

    g_exact = gammas(np.linalg.inv(system.matrix))
    cap_exact = capacity(g_exact)
    print("exact-inverse capacity: %.4f bit/s/Hz per user" % cap_exact)

    precond = build_preconditioner(system, rank=8, power_iters=4,
                                   seed=cfg.seed)
    budgets = [1, 2, 3, 4, 6, 8]
    print("capacity vs iteration budget (plain | preconditioned):")
    score = lambda x: capacity(gammas(x))
    plain, _ = capacity_vs_iterations(system, score, budgets, ())
    pre, _ = capacity_vs_iterations(system, score, budgets, (),
                                    preconditioner=precond)
    for row_p, row_q in zip(plain, pre):
        print("  k'=%2d   %.4f (%.0f%%)  |  %.4f (%.0f%%)"
              % (row_p["iterations"],
                 row_p["capacity"], 100.0 * row_p["capacity"] / cap_exact,
                 row_q["capacity"], 100.0 * row_q["capacity"] / cap_exact))

    print("degradation bound at measured operator residuals:")
    for budget in (4, 5, 8):
        state = cg_inverse(system, config=CGConfig(max_iters=budget,
                                                   epsilon=1e-16))
        _, spec = inverse_error(system, state.x)
        gam = gammas(state.x)
        outcome = check_sinr_bound(g_exact, gam, spec)
        print("  k'=%d: eps=%.2e, %d of %d points above the bound, "
              "min margin %.2e"
              % (budget, spec, round(outcome.fraction_ok * gam.size),
                 gam.size, outcome.min_margin))


if __name__ == "__main__":
    main()
