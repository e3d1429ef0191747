"""Dataset assembly and the command handlers behind the CLI.

Each ``cmd_<name>(args)`` owns one subcommand: it takes the parsed
arguments, loads the config, converts and checks every option, runs the
command and returns the line ``tvmap`` prints.

Every command derives all randomness from the config seed (see
:mod:`tvmap.config` for the derivation), so a command sequence is exactly
reproducible from the config alone; the data files written by ``gen`` are
exported artifacts, and downstream commands rebuild the same data in memory.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import fileio
from .config import (
    SEED_MASKS,
    SEED_NOISE,
    SEED_PHANTOM,
    ExperimentConfig,
    parse_sections,
    render_sections,
    write_manifest,
)
from .fileio import named, parse_list, parse_value
from .metrics import nrmse, psnr, ssim
from .network import NetWeights, UNetConfig, init_weights
from .operators import (
    MriEncoder,
    RadonOp,
    cg_normal_init,
    equispaced_angles,
    fbp,
    identity_op,
    make_cartesian_mask,
    synth_coil_maps,
)
from .phantoms import add_gaussian, ct_poisson_log, ellipse_ct, moving_disks
from .prox import KlParams
from .qmri import InversionSeries, concentric_region_labels, fit_t1, synth_qmri_series
from .solvers import Problem, as_weight_field, grid_candidates, grid_search_scalar, solve_problem
from .tensors import SharingMode
from .training import TrainConfig, evaluate, train

SPLIT_OFFSETS = {"train": 0, "val": 100000, "test": 200000}

# The run's training settings: config key -> TrainConfig field, in the
# order checkpoint.txt lists them.
TRAIN_SETTINGS = {
    "mode": "mode", "seed": "seed", "t_train": "t_train", "t_test": "t_test",
    "lr": "lr", "weight_decay": "weight_decay", "epochs": "epochs",
    "batch": "batch_size", "validate_every": "validate_every",
}

# Radon system matrices are immutable and expensive to assemble; share them
# across items with the same geometry.
_RADON_MEMO: dict[tuple, RadonOp] = {}


def _radon_for(cfg: ExperimentConfig) -> RadonOp:
    key = (cfg.nx, cfg.angles, cfg.bins, cfg.side)
    if key not in _RADON_MEMO:
        _RADON_MEMO[key] = RadonOp(
            cfg.nx, equispaced_angles(cfg.angles), cfg.bins, side=cfg.side
        )
    return _RADON_MEMO[key]

QMRI_TISSUES = [
    (0.0 + 0.0j, 3.0),        # background: no signal
    (0.85 + 0.1j, 0.35),
    (1.0 - 0.15j, 0.9),
    (0.7 + 0.3j, 1.6),
]


def _phase_ramp(nx: int, ny: int) -> np.ndarray:
    gx, gy = np.meshgrid(np.linspace(-1, 1, nx), np.linspace(-1, 1, ny), indexing="ij")
    return np.exp(1j * (0.6 * gx + 0.9 * gy))


def net_config(cfg: ExperimentConfig) -> UNetConfig:
    rank = 2 if cfg.task == "ct" else 3
    in_channels = 2 if cfg.task in ("mri", "qmri") else 1
    if cfg.task == "ct" and cfg.mode != "xyt":
        raise ValueError("static CT uses sharing mode xyt")
    return UNetConfig(
        rank=rank,
        stages=cfg.stages,
        convs_per_stage=cfg.convs_per_stage,
        base_filters=cfg.filters,
        out_channels=SharingMode(cfg.mode).channels,
        in_channels=in_channels,
    )


def _mri_problem(cfg: ExperimentConfig, item: int, x_true: np.ndarray) -> Problem:
    """Undersampled multi-coil data of ``x_true`` (one mask per frame), with
    complex noise, and the CG start of the normal equations."""
    coils = synth_coil_maps(cfg.nx, cfg.ny, cfg.coils)
    masks = make_cartesian_mask(
        cfg.nx, cfg.ny, x_true.shape[0], cfg.accel, cfg.center_fraction,
        seed=cfg.item_seed(SEED_MASKS, item),
    )
    enc = MriEncoder(coils, masks)
    z = enc.forward(x_true)
    z = add_gaussian(z, cfg.sigma, seed=cfg.item_seed(SEED_NOISE, item),
                     complex_noise=True) * masks[None]
    x0 = cg_normal_init(enc, z, cfg.cg_iters)
    return Problem(A=enc, z=z, x_true=x_true, x0=x0)


def _build_item(cfg: ExperimentConfig, split: str, index: int) -> Problem:
    item = SPLIT_OFFSETS[split] + index
    if cfg.task in ("denoise", "mri"):
        x_true = moving_disks(
            cfg.nx, cfg.ny, cfg.nt, n_disks=cfg.disks,
            seed=cfg.item_seed(SEED_PHANTOM, item),
        )
        if cfg.task == "mri":
            return _mri_problem(cfg, item, x_true * _phase_ramp(cfg.nx, cfg.ny)[None])
        z = add_gaussian(x_true, cfg.sigma, seed=cfg.item_seed(SEED_NOISE, item))
        return Problem(A=identity_op(x_true.shape), z=z, x_true=x_true, x0=z)
    if cfg.task == "ct":
        x_true = ellipse_ct(cfg.nx, seed=cfg.item_seed(SEED_PHANTOM, item))
        op = _radon_for(cfg)
        kl = KlParams(mu=cfg.mu, n0=cfg.n0)
        z = ct_poisson_log(op, x_true, kl, seed=cfg.item_seed(SEED_NOISE, item))
        return Problem(A=op, z=z, x_true=x_true, x0=fbp(op, z), kl=kl)
    # qmri: ExperimentConfig admits no other task
    series, _ = synth_qmri_series(concentric_region_labels(cfg.nx), QMRI_TISSUES, cfg.times)
    return _mri_problem(cfg, item, series.images)  # (n_times, nx, ny), complex


def build_split(cfg: ExperimentConfig, split: str) -> list[Problem]:
    count = {"train": cfg.train_count, "val": cfg.val_count, "test": cfg.test_count}[split]
    return [_build_item(cfg, split, i) for i in range(count)]


def _numbers(kind, option: str, text: str) -> list:
    """The values of list ``option`` (:func:`parse_list`); it must list at least one."""
    values = parse_list(kind, option, text)
    if not values:
        raise ValueError(f"{option} lists no values")
    return values


def cmd_gen(args) -> str:
    """Write phantoms and corrupted data as TNSR1 files, plus the manifest."""
    cfg = ExperimentConfig.load(args.config)
    splits = {split: build_split(cfg, split) for split in ("train", "val", "test")}
    out = Path(cfg.outdir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    items = 0
    for split, problems in splits.items():
        for i, prob in enumerate(problems):
            stem = out / f"{split}_{i:03d}"
            fileio.write_tensor(f"{stem}_true.tnsr", prob.x_true)
            fileio.write_tensor(f"{stem}_z.tnsr", prob.z)
            fileio.write_tensor(f"{stem}_x0.tnsr", prob.init_image())
            if isinstance(prob.A, MriEncoder):
                fileio.write_tensor(f"{stem}_masks.tnsr", prob.A.masks)
                fileio.write_tensor(f"{stem}_coils.tnsr", prob.A.coil_maps)
            items += 1
    write_manifest(Path(cfg.outdir) / "manifest.txt", cfg, "gen", {"items": items})
    return f"wrote data to {out}"


def cmd_solve(args) -> str:
    """Reconstruct one test item with the config's weight, ``--lambda`` or a
    ``--map`` weight-field file."""
    cfg = ExperimentConfig.load(args.config)
    if args.lam is not None and args.map_path is not None:
        raise ValueError("pass either --lambda or --map, not both")
    item = args.item
    if not 0 <= item < cfg.test_count:
        raise ValueError(f"--item {item} is outside the test split, range({cfg.test_count})")
    T = cfg.t_solve if args.T is None else args.T
    prob = _build_item(cfg, "test", item)
    if args.map_path is not None:
        lam_field = fileio.read_tensor(args.map_path)
        with named(args.map_path):
            lam_field = as_weight_field(lam_field, prob.init_image().shape)
    elif args.lam is not None:
        lam_field = float(args.lam)
    else:
        lam_field = cfg.lam
    rep = solve_problem(prob, lam_field, T, record=True)
    out = Path(cfg.outdir) / "solve"
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_tensor(out / f"recon_{item:03d}.tnsr", rep.image)
    rep.write_diagnostics(out / f"diagnostics_{item:03d}.csv")
    extra = {"item": item, "T": T, "psnr": psnr(rep.image, prob.x_true),
             "nrmse": nrmse(rep.image, prob.x_true)}
    write_manifest(out / "manifest.txt", cfg, "solve", extra)
    return f"wrote reconstruction to {out}"


def cmd_gridsearch(args) -> str:
    """Scalar grid search over the chosen split; writes scores and the pick."""
    cfg = ExperimentConfig.load(args.config)
    grid = _numbers(float, "--grid", args.grid)
    grid_t = None if args.grid_t is None else _numbers(float, "--grid-t", args.grid_t)
    mode = SharingMode(args.mode or cfg.mode)
    if mode is SharingMode.XYT and grid_t is not None:
        raise ValueError("--grid-t applies only to mode xy_t; mode xyt takes one "
                         "weight per candidate, from --grid")
    T = cfg.t_solve if args.T is None else args.T
    problems = build_split(cfg, args.split)
    if mode is SharingMode.XYT:
        spec = grid
        header = ["lam", "mean_psnr"]
    else:
        spec = (grid, grid_t if grid_t is not None else grid)
        header = ["lam_spatial", "lam_temporal", "mean_psnr"]
    best, scores = grid_search_scalar(problems, mode, spec, T)
    out = Path(cfg.outdir) / "gridsearch"
    out.mkdir(parents=True, exist_ok=True)
    rows = [c + (s,) for c, s in zip(grid_candidates(mode, spec), scores)]
    fileio.write_csv(out / f"scores_{mode.value}.csv", header, rows)
    extra = {"mode": mode.value, "T": T, "best": repr(best), "split": args.split}
    write_manifest(out / "manifest.txt", cfg, "gridsearch", extra)
    return f"best weight: {best!r}"


def save_checkpoint(
    ckpt_dir: Path,
    weights: NetWeights,
    net_cfg: UNetConfig,
    cfg: ExperimentConfig,
    val_loss: float,
) -> None:
    """Write each layer's kernel and bias, and ``checkpoint.txt``: every
    :class:`UNetConfig` field, then the run's training settings."""
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for i, (k, b) in enumerate(zip(weights.kernels, weights.biases)):
        fileio.write_tensor(ckpt_dir / f"w{i:02d}_kernel.tnsr", k)
        fileio.write_tensor(ckpt_dir / f"w{i:02d}_bias.tnsr", b)
    pairs = {f.name: getattr(net_cfg, f.name) for f in fields(UNetConfig)}
    pairs.update({key: getattr(cfg, key) for key in TRAIN_SETTINGS})
    pairs.update(val_loss=val_loss, n_layers=len(weights.kernels))
    (ckpt_dir / "checkpoint.txt").write_text(render_sections({"checkpoint": pairs}))


def load_checkpoint(ckpt_dir) -> tuple[NetWeights, UNetConfig, SharingMode]:
    """Read a checkpoint; ``checkpoint.txt`` must hold every key it is read
    by, and the layer count and every kernel and bias shape must match the
    convolutions of the network's :meth:`UNetConfig.layer_plan`."""
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / "checkpoint.txt"
    with named(path):
        info = parse_sections(path.read_text()).get("checkpoint")
        if info is None:
            raise ValueError("no [checkpoint] section")
        kinds = get_type_hints(UNetConfig) | {"n_layers": int}
        missing = [key for key in [*kinds, "mode"] if key not in info]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(missing)}")
        values = {key: parse_value(kind, key, info[key]) for key, kind in kinds.items()}
        n_layers = values.pop("n_layers")
        net_cfg = UNetConfig(**values)
        convs = net_cfg.convs()
        if n_layers != len(convs):
            raise ValueError(f"n_layers = {n_layers}, the network has {len(convs)} layers")
        mode = SharingMode(info["mode"])
    kernels, biases = [], []
    for i, (_, c_in, c_out, k) in enumerate(convs):
        kernels.append(_read_shaped(ckpt_dir / f"w{i:02d}_kernel.tnsr",
                                    (c_out, c_in) + (k,) * net_cfg.rank))
        biases.append(_read_shaped(ckpt_dir / f"w{i:02d}_bias.tnsr", (c_out,)))
    return NetWeights(kernels, biases), net_cfg, mode


def _read_shaped(path: Path, shape: tuple) -> np.ndarray:
    arr = fileio.read_tensor(path)
    if arr.shape != shape:
        raise ValueError(f"{path}: shape {arr.shape}, the layer plan needs {shape}")
    return arr


def cmd_train(args) -> str:
    """Train the parameter-map network; writes checkpoint plus history CSV."""
    cfg = ExperimentConfig.load(args.config)
    net_cfg = net_config(cfg)
    settings = {name: getattr(cfg, key) for key, name in TRAIN_SETTINGS.items()}
    tcfg = TrainConfig(**settings | {"mode": SharingMode(cfg.mode)})
    train_items = build_split(cfg, "train")
    val_items = build_split(cfg, "val")
    w0 = init_weights(net_cfg, seed=cfg.seed)
    best, history = train(train_items, val_items, w0, net_cfg, tcfg)
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    best_val = min(v for _, _, v in history if not np.isnan(v))
    save_checkpoint(out / "checkpoint", best, net_cfg, cfg, best_val)
    fileio.write_csv(out / "history.csv", ["epoch", "train_loss", "val_loss"],
                     [(float(e), t, v) for e, t, v in history])
    write_manifest(out / "train_manifest.txt", cfg, "train", {"best_val_loss": best_val})
    return f"checkpoint at {out / 'checkpoint'}"


def _check_checkpoint_fits(ckpt_dir, net_cfg: UNetConfig, mode: SharingMode,
                           cfg: ExperimentConfig, image: np.ndarray) -> None:
    """Raise, naming the checkpoint, if its network or sharing mode does not
    fit the config's test images."""
    want = net_config(cfg)
    for name in ("rank", "in_channels", "out_channels"):
        have, need = getattr(net_cfg, name), getattr(want, name)
        if have != need:
            raise ValueError(f"checkpoint {ckpt_dir}: {name} = {have}, "
                             f"the {cfg.task} config needs {need}")
    with named(f"checkpoint {ckpt_dir}"):
        mode.check_image(image.shape)
        net_cfg.check_pooling(image.shape)


def cmd_eval(args) -> str:
    """Evaluate a checkpoint on the test split for each iteration budget
    (default: the config's ``t_test``)."""
    cfg = ExperimentConfig.load(args.config)
    t_list = [cfg.t_test] if args.t_test is None else _numbers(int, "--t-test", args.t_test)
    ckpt_dir = args.checkpoint
    weights, net_cfg, mode = load_checkpoint(ckpt_dir)
    items = build_split(cfg, "test")
    if not items:
        raise ValueError("eval needs test items, the config has test_count = 0")
    _check_checkpoint_fits(ckpt_dir, net_cfg, mode, cfg, items[0].init_image())
    rows = []
    mean_rows = []
    for T in t_list:
        per_item = evaluate(items, weights, net_cfg, mode, T)
        for i, (p, n, s) in enumerate(per_item):
            rows.append((float(T), float(i), p, n, s))
        arr = np.asarray(per_item)
        mean_rows.append((float(T), float(np.mean(arr[:, 0])),
                          float(np.mean(arr[:, 1])), float(np.mean(arr[:, 2]))))
    out = Path(cfg.outdir) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_csv(out / "metrics.csv", ["t_test", "item", "psnr", "nrmse", "ssim"], rows)
    fileio.write_csv(out / "metrics_mean.csv", ["t_test", "psnr", "nrmse", "ssim"],
                     mean_rows)
    write_manifest(out / "manifest.txt", cfg, "eval",
                   {"checkpoint": ckpt_dir, "t_list": t_list})
    return f"metrics in {out}"


def cmd_certify(args) -> str:
    """Run the executable solver certificates on built-in desk instances."""
    from .certificates import desk_lipschitz_worst, desk_rate_certificate

    if not (args.rate or args.lipschitz):
        raise ValueError("pass --rate and/or --lipschitz")
    rng = np.random.default_rng(args.seed)
    cert = desk_rate_certificate(rng) if args.rate else None
    lines = [] if cert is None else [f"rate bound holds: {cert.holds()}"]
    if args.lipschitz:
        worst = desk_lipschitz_worst(rng, 100)
        lines.append(f"lipschitz probes: 100 pairs, worst lhs/rhs = {worst!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cert is not None:
        rows = [(float(T), m, b) for T, m, b in cert.entries]
        fileio.write_csv(out / "rate_certificate.csv", ["T", "measured", "bound"], rows)
    (out / "certify.txt").write_text("\n".join(lines) + "\n")
    write_manifest(out / "manifest.txt", None, "certify",
                   {"seed": args.seed, "rate": args.rate, "lipschitz": args.lipschitz})
    return "\n".join(lines)


def cmd_fit_t1(args) -> str:
    """Per-pixel (T1, M0) fit of a TNSR1 inversion-recovery series."""
    times = _numbers(float, "--times", args.times)
    images = fileio.read_tensor(args.series)
    if images.ndim != 3 or len(images) != len(times):
        raise ValueError(f"{args.series}: fit-t1 needs an (n_times, nx, ny) series, one "
                         f"image per --times value ({len(times)}); the file holds shape "
                         f"{images.shape}")
    series = InversionSeries(times=np.asarray(times, dtype=float), images=images)
    result = fit_t1(series, t1_bounds=(args.t1_lo, args.t1_hi))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_tensor(out / "t1.tnsr", result.t1)
    fileio.write_tensor(out / "m0.tnsr", result.m0)
    fileio.write_tensor(out / "degenerate.tnsr", result.degenerate.astype(float))
    write_manifest(out / "manifest.txt", None, "fit-t1", {
        "series": args.series, "times": times, "t1_lo": args.t1_lo, "t1_hi": args.t1_hi})
    return f"maps in {out}"


def cmd_preview(args) -> str:
    """One 8-bit PGM per frame of a 2-D image, a 3-D image stack or a 4-D
    field stack (one frame per component and time)."""
    arr = fileio.read_tensor(args.tensor)
    if not 2 <= arr.ndim <= 4:
        raise ValueError(f"{args.tensor}: preview needs a 2-, 3- or 4-D tensor, "
                         f"the file holds shape {arr.shape}")
    if arr.ndim == 4:
        arr = arr.reshape((-1,) + arr.shape[2:])
    prefix = args.out or args.tensor.rsplit(".", 1)[0]
    Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    paths = fileio.write_pgm_frames(prefix, arr)
    write_manifest(f"{prefix}_manifest.txt", None, "preview",
                   {"tensor": args.tensor, "frames": len(paths)})
    return f"wrote {len(paths)} frame(s)"
