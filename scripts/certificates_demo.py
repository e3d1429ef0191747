#!/usr/bin/env python3
"""Print the executable solver certificates: the T^(-1/4) convergence bound
against measured iterate errors, and Lipschitz probes of the solution map in
the weight field."""

import argparse

import numpy as np

from tvmap.certificates import desk_lipschitz_worst, desk_rate_certificate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    cert = desk_rate_certificate(rng)
    print(f"  norm equivalence c={cert.c_lower:.4f} C={cert.c_upper:.4f}, "
          f"constant {cert.c_za:.3f}, start gap {cert.m_norm_gap:.3f}")
    print("      T     measured        bound")
    for T, measured, bound in cert.entries:
        print(f"  {T:5d}  {measured:12.5e} {bound:12.5e}")
    print(f"  bound holds everywhere: {cert.holds()}\n")

    worst = desk_lipschitz_worst(rng, args.pairs)
    print(f"  {args.pairs} Lipschitz probes, worst lhs/rhs = {worst:.4e}")


if __name__ == "__main__":
    main()
