#!/usr/bin/env python3
"""Rate functions of the energy flux through the fermionic chain.

Emits one CSV per temperature pair with a column per chain length, e.g.

    python scripts/rate_curves.py --out-dir data/

reproduces the two standard figures: beta = (1, 0) for L = 2..10 and the
strongly asymmetric beta = (10, 0) for L = 2..5.
"""

import argparse
import pathlib

import numpy as np

from fermiflux import chain, cli, deviations


def sweep(beta0, betaL, lengths, zetas):
    curves = []
    for length in lengths:
        spec = chain.ChainSpec(length=length, beta0=beta0, betaL=betaL)
        curves.append(deviations.rate_function(chain.build(spec), zetas))
        print(f"  L={length}: min I = {curves[-1].rates.min():.3e}")
    return curves


def write_csv(path, lengths, zetas, curves, meta):
    with open(path, "w") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(cli.rate_table(lengths, zetas, curves))
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=".", help="output directory")
    ap.add_argument("--points", type=int, default=200)
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    zetas = np.linspace(-0.1, 0.3, args.points)
    print("beta = (1, 0), L = 2..10")
    lengths = list(range(2, 11))
    curves = sweep(1.0, 0.0, lengths, zetas)
    write_csv(out / "rate_beta_1_0.csv", lengths, zetas, curves, {"beta": "1,0", "theta": "1,1"})

    print("beta = (10, 0), L = 2..5")
    lengths = list(range(2, 6))
    curves = sweep(10.0, 0.0, lengths, zetas)
    write_csv(out / "rate_beta_10_0.csv", lengths, zetas, curves, {"beta": "10,0", "theta": "1,1"})


if __name__ == "__main__":
    main()
