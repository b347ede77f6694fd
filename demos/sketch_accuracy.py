"""How many power iterations does the sketched eigensolver need?

Uses a 64-antenna scenario with four users spread from -6 to 14 dB, so the
weak users' modes sit only a little above the unit cluster of Q.  Sweeps
the power iteration count and reports, side by side, the top-8 eigenvalue
error of a sketch of Q itself and of the sketch build_preconditioner runs
(Q - (1 - delta) I, Ritz values still of Q), plus the cost relative to a
full eigendecomposition of Q by the same small-EVD kernel.
"""

import numpy as np

from ltbf.linalg import FlopCounter, hermitian_evd_small
from ltbf.precond import SKETCH_SHIFT
from ltbf.randevd import randomized_evd
from ltbf.scenario import ScenarioConfig, assemble_q, generate_scenario

RANK = 8


def mode_residuals(a, res):
    # ||A u - lambda u|| per recovered eigenpair, scale-free
    r = a @ res.eigvecs - res.eigvecs * res.eigvals
    return np.linalg.norm(r, axis=0) / np.abs(res.eigvals)


def value_error(res, ref_vals):
    return np.max(np.abs(res.eigvals - ref_vals[:RANK]) / ref_vals[:RANK])


def main():
    cfg = ScenarioConfig(side=8, snr_db_low=-6.0, snr_db_high=14.0, seed=3327)
    stats, _ = generate_scenario(cfg)
    system = assemble_q(stats)
    a = system.matrix
    n = a.shape[0]
    # the rule of build_preconditioner: delta = SKETCH_SHIFT * max(tr(Q - I), 1)
    shift = 1.0 - SKETCH_SHIFT * max(n * (system.sigma2 - 1.0), 1.0)

    counter = FlopCounter()
    ref_vals, _ = hermitian_evd_small(a, counter=counter)
    dense_mults = counter.mults
    print("reference spectrum (full EVD, %.1f Mmult): top-8 %s"
          % (dense_mults / 1e6,
             np.array2string(ref_vals[:RANK], precision=2)))
    print("gap at the sketch width: lambda9/lambda8 = %.3f, "
          "(lambda9 - 1)/(lambda8 - 1) = %.3f"
          % (ref_vals[RANK] / ref_vals[RANK - 1],
             (ref_vals[RANK] - 1.0) / (ref_vals[RANK - 1] - 1.0)))
    print("shift 1 - delta = %.6f" % shift)

    print("%-4s %-12s %-12s %-12s %-12s %-10s"
          % ("p", "val err Q", "val err Q-s", "mode res Q", "mode res Q-s",
             "cost vs dense"))
    for power_iters in (1, 2, 3, 4, 6):
        plain = randomized_evd(a, RANK, power_iters, seed=cfg.seed)
        counter = FlopCounter()
        shifted = randomized_evd(a, RANK, power_iters, seed=cfg.seed,
                                 counter=counter, shift=shift)
        print("%-4d %-12.2e %-12.2e %-12.2e %-12.2e %6.1f%%"
              % (power_iters, value_error(plain, ref_vals),
                 value_error(shifted, ref_vals),
                 mode_residuals(a, plain).max(),
                 mode_residuals(a, shifted).max(),
                 100.0 * counter.mults / dense_mults))

    # the sketch is deterministic in its seed; rerunning reproduces bits
    again = randomized_evd(a, RANK, 4, seed=cfg.seed, shift=shift)
    first = randomized_evd(a, RANK, 4, seed=cfg.seed, shift=shift)
    print("bitwise reproducible:", np.array_equal(first.eigvals, again.eigvals)
          and np.array_equal(first.eigvecs, again.eigvecs))


if __name__ == "__main__":
    main()
