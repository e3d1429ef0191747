#!/usr/bin/env python3
"""Dynamic denoising study: learned parameter-maps against grid-searched
scalar weights on moving-disk videos.

Runs the same comparison as the acceptance suite but with adjustable size,
and prints a small results table.  Everything is CPU-only and seeded.
"""

import argparse
import time

import numpy as np

from tvmap.config import ExperimentConfig
from tvmap.experiments import build_split, net_config
from tvmap.metrics import psnr
from tvmap.network import init_weights
from tvmap.solvers import grid_search_scalar
from tvmap.tensors import SharingMode
from tvmap.training import TrainConfig, evaluate, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--train-count", type=int, default=24)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--sigma", type=float, default=0.2)
    ap.add_argument("--t-eval", type=int, default=256)
    args = ap.parse_args()

    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        task="denoise", seed=args.seed, nx=32, ny=32, nt=8,
        train_count=args.train_count, val_count=4, test_count=8,
        sigma=args.sigma, stages=2, filters=8, convs_per_stage=2,
    )
    train_items = build_split(cfg, "train")
    val_items = build_split(cfg, "val")
    test_items = build_split(cfg, "test")

    g_spatial = [0.04, 0.07, 0.12, 0.2, 0.33]
    g_temporal = [0.05, 0.12, 0.25, 0.5]
    lam_xyt, _ = grid_search_scalar(
        train_items, SharingMode.XYT, sorted(set(g_spatial + g_temporal)), args.t_eval
    )
    lam_pair, _ = grid_search_scalar(
        train_items, SharingMode.XY_T, (g_spatial, g_temporal), args.t_eval
    )
    print(f"[{time.perf_counter()-t0:6.0f}s] grid picks: "
          f"single {lam_xyt}, pair {lam_pair}")

    ncfg = net_config(cfg)
    tcfg = TrainConfig(t_train=64, t_test=args.t_eval, lr=2e-3, epochs=args.epochs,
                       batch_size=4, validate_every=2, seed=args.seed,
                       mode=SharingMode.XY_T)
    weights, history = train(train_items, val_items, init_weights(ncfg, seed=args.seed),
                             ncfg, tcfg)
    print(f"[{time.perf_counter()-t0:6.0f}s] training done "
          f"({len(history)} history rows)")

    p_noisy = float(np.mean([psnr(p.z, p.x_true) for p in test_items]))
    # each pick's mean test PSNR: a grid search over that one candidate
    _, (p_xyt,) = grid_search_scalar(test_items, SharingMode.XYT, [lam_xyt], args.t_eval)
    _, (p_pair,) = grid_search_scalar(test_items, SharingMode.XY_T,
                                      ([lam_pair[0]], [lam_pair[1]]), args.t_eval)
    rows = evaluate(test_items, weights, ncfg, SharingMode.XY_T, args.t_eval)
    p_net = float(np.mean([r[0] for r in rows]))
    s_net = float(np.mean([r[2] for r in rows]))

    print("\n  test-set mean PSNR (dB)")
    print(f"    noisy input          {p_noisy:7.3f}")
    print(f"    scalar weight        {p_xyt:7.3f}")
    print(f"    spatial+temporal     {p_pair:7.3f}")
    print(f"    learned weight maps  {p_net:7.3f}   (SSIM {s_net:.4f})")
    print(f"\n  total {time.perf_counter()-t0:.0f}s")


if __name__ == "__main__":
    main()
