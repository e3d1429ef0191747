#!/usr/bin/env python3
"""Low-dose CT study: filtered backprojection against TV-regularized
three-operator splitting on an ellipse phantom with Poisson counts."""

import argparse
import time

from tvmap.config import ExperimentConfig
from tvmap.experiments import build_split
from tvmap.metrics import nrmse, psnr, ssim
from tvmap.solvers import grid_search_scalar, solve_problem
from tvmap.tensors import SharingMode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--angles", type=int, default=90)
    ap.add_argument("--bins", type=int, default=95)
    ap.add_argument("--n0", type=float, default=4096.0)
    ap.add_argument("--mu", type=float, default=81.35858)
    ap.add_argument("--T", type=int, default=1024)
    args = ap.parse_args()

    t0 = time.perf_counter()
    cfg = ExperimentConfig(task="ct", seed=args.seed, nx=args.n, ny=args.n, angles=args.angles,
                           bins=args.bins, n0=args.n0, mu=args.mu, train_count=0,
                           val_count=0, test_count=1)
    (prob,) = build_split(cfg, "test")
    x_true, x0 = prob.x_true, prob.x0

    grid = [10.0, 30.0, 50.0, 100.0, 300.0]
    best, scores = grid_search_scalar([prob], SharingMode.XYT, grid, args.T)
    rep = solve_problem(prob, best, args.T)
    unreg = solve_problem(prob, 1e-8, args.T)

    def report(name, img):
        print(f"    {name:22s} psnr {psnr(img, x_true):7.3f}  "
              f"nrmse {nrmse(img, x_true):.4f}  ssim {ssim(img, x_true):.4f}")

    print(f"  grid scores: {dict(zip(grid, [round(s, 2) for s in scores]))}")
    print(f"  best weight: {best}\n")
    report("filtered backprojection", x0)
    report("splitting, no TV", unreg.image)
    report(f"splitting, weight {best}", rep.image)
    print(f"\n  total {time.perf_counter()-t0:.0f}s")


if __name__ == "__main__":
    main()
