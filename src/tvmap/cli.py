"""Command-line interface.

The parser declares every option and its default once.  :func:`run` hands
the parsed arguments to the subcommand's handler, ``experiments.cmd_<name>``,
which reads and checks all of its options, runs the command and returns the
line printed here.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every command writes a manifest next to its outputs: the config that ran,
with the options that set a config key applied, and the other options
under ``[manifest]``, so the command reruns from it.  ``train`` writes
its manifest into the checkpoint directory, beside the weights, and
``eval`` reads the network from it.

``train``, ``eval`` and ``gridsearch`` map their items over processes at
:func:`tvmap.parallel.pmap`'s default count, which only the command's CPU
set limits; ``gen`` is serial. Outputs are byte-identical for any count.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConvergenceError, NumericalError


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

    handlers = {
        "gen": ex.cmd_gen, "solve": ex.cmd_solve, "gridsearch": ex.cmd_gridsearch,
        "train": ex.cmd_train, "eval": ex.cmd_eval, "certify": ex.cmd_certify,
        "fit-t1": ex.cmd_fit_t1, "preview": ex.cmd_preview,
    }
    print(handlers[args.command](args))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
