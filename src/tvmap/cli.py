"""Command-line interface.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every command echoes its resolved configuration and seed into a manifest
next to its outputs.

``train``, ``eval`` and ``gridsearch`` map their items over processes at
:func:`tvmap.parallel.pmap`'s default count, which only the command's CPU
set limits; ``gen`` is serial. Outputs are byte-identical for any count.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig
from .errors import ConvergenceError, NumericalError


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvmap",
        description="Weighted spatio-temporal TV reconstruction with learned "
        "per-voxel regularization maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate phantoms and corrupted data")
    p.add_argument("--config", required=True)

    p = sub.add_parser("solve", help="reconstruct one test item")
    p.add_argument("--config", required=True)
    p.add_argument("--task", help="must match the config when given")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--map", dest="map_path", help="TNSR1 weight-field file")
    p.add_argument("--T", type=int)
    p.add_argument("--item", type=int, default=0)

    p = sub.add_parser("gridsearch", help="scalar weight grid search")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["xyt", "xy_t"])
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--grid-t", help="temporal values for mode xy_t")
    p.add_argument("--T", type=int)
    p.add_argument("--split", default="train", choices=["train", "val", "test"])

    p = sub.add_parser("train", help="train the parameter-map network")
    p.add_argument("--config", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint over iteration budgets")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--t-test", help="comma-separated iteration counts "
                   "(default: the config's t_test)")

    p = sub.add_parser("certify", help="run the solver theory certificates")
    p.add_argument("--rate", action="store_true")
    p.add_argument("--lipschitz", action="store_true")
    p.add_argument("--out", default="runs/certify")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit-t1", help="per-pixel relaxometry fit of a series")
    p.add_argument("--series", required=True)
    p.add_argument("--times", required=True, help="comma-separated seconds")
    p.add_argument("--out", default="runs/fit_t1")
    p.add_argument("--t1-lo", type=float, default=0.05)
    p.add_argument("--t1-hi", type=float, default=6.0)

    p = sub.add_parser("preview", help="write 8-bit PGM previews per frame")
    p.add_argument("tensor")
    p.add_argument("--out", default=None, help="output prefix")

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import experiments as ex

    if args.command == "gen":
        cfg = ExperimentConfig.load(args.config)
        out = ex.cmd_gen(cfg)
        print(f"wrote data to {out}")
    elif args.command == "solve":
        cfg = ExperimentConfig.load(args.config)
        if args.task and args.task != cfg.task:
            raise ValueError(f"--task {args.task} does not match config task {cfg.task}")
        if args.lam is not None and args.map_path is not None:
            raise ValueError("pass either --lambda or --map, not both")
        if not 0 <= args.item < cfg.test_count:
            raise ValueError(f"--item {args.item} is outside the test split, "
                             f"range({cfg.test_count})")
        out = ex.cmd_solve(cfg, lam=args.lam, map_path=args.map_path, T=args.T,
                           item=args.item)
        print(f"wrote reconstruction to {out}")
    elif args.command == "gridsearch":
        cfg = ExperimentConfig.load(args.config)
        grid_t = _floats(args.grid_t) if args.grid_t else None
        best, _ = ex.cmd_gridsearch(
            cfg, _floats(args.grid), grid_t=grid_t, mode=args.mode, T=args.T,
            split=args.split,
        )
        print(f"best weight: {best!r}")
    elif args.command == "train":
        cfg = ExperimentConfig.load(args.config)
        ckpt = ex.cmd_train(cfg)
        print(f"checkpoint at {ckpt}")
    elif args.command == "eval":
        cfg = ExperimentConfig.load(args.config)
        t_list = _ints(args.t_test) if args.t_test is not None else None
        out = ex.cmd_eval(cfg, args.checkpoint, t_list)
        print(f"metrics in {out}")
    elif args.command == "certify":
        if not (args.rate or args.lipschitz):
            raise ValueError("pass --rate and/or --lipschitz")
        out = ex.cmd_certify(args.rate, args.lipschitz, args.out, seed=args.seed)
        print((out / "certify.txt").read_text().strip())
    elif args.command == "fit-t1":
        out = ex.cmd_fit_t1(args.series, _floats(args.times), args.out,
                            t1_lo=args.t1_lo, t1_hi=args.t1_hi)
        print(f"maps in {out}")
    elif args.command == "preview":
        prefix = args.out if args.out else str(args.tensor).rsplit(".", 1)[0]
        paths = ex.cmd_preview(args.tensor, prefix)
        print(f"wrote {len(paths)} frame(s)")
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
