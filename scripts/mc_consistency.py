#!/usr/bin/env python3
"""Jump Monte Carlo versus the exact solvers on the two-site chain.

Samples trajectories of the energy-exchange process, compares the mean rates
against the Lyapunov fluxes and the empirical cumulant generating function
against the 4L x 4L spectral value.  This run is what pins the global sign
convention (the CGF gradient at zero is +J, energy counted into the baths).

Exits 1 when a bath's mean rate is 5 or more standard errors from J (a correct
sampler does so about once in 10^6 runs); the CGF bracket is informational.
"""

import argparse
import sys

import numpy as np

from fermiflux import chain, deviations, dynamics, fock, thermal, unravel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trajectories", type=int, default=2000)
    ap.add_argument("--T", type=float, default=50.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--length", type=int, default=2)
    args = ap.parse_args()

    spec = chain.ChainSpec(length=args.length, beta0=1.0, betaL=0.0)
    model = chain.build(spec)
    m_inf = dynamics.stationary_covariance(model)
    rho0 = fock.quasi_free_state(m_inf).density
    j = thermal.fluxes(model, m_inf)

    print(f"sampling {args.trajectories} trajectories, T = {args.T} ...")
    records = unravel.simulate_batch(model, rho0, args.T, args.trajectories, base_seed=args.seed)
    mean, sem = unravel.mean_rates(records)
    z = (mean - j) / sem
    for i in range(model.n_baths):
        print(f"bath {i}: mean N_T/T = {mean[i]:+.6f} +- {sem[i]:.6f}   J = {j[i]:+.6f}   z = {z[i]:+.2f}")

    for a in ([0.1, 0.0], [-0.1, 0.0]):
        est = unravel.empirical_cgf(records, a)
        exact = deviations.e_alpha(model, a)
        inside = est.ci_low <= exact <= est.ci_high
        print(
            f"alpha = {a}: empirical {est.value:+.6f} CI [{est.ci_low:+.6f}, {est.ci_high:+.6f}]"
            f"  exact {exact:+.6f}  brackets: {inside}  (ESS {est.effective_samples:.0f})"
        )
    print("sign convention: e'(0) = +J (energy counted into each bath)")
    if not np.all(np.abs(z) < 5.0):
        print(f"mean rates off by z = {z}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
