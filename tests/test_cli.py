import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from tvmap import certificates, experiments, parallel
from tvmap.cli import build_parser, main
from tvmap.config import ExperimentConfig, parse_sections, render_sections
from tvmap.fileio import read_tensor, write_tensor
from tvmap.network import init_weights

README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_config(tmp_path, task="denoise", **overrides):
    base = {
        "task": task,
        "seed": 77,
        "outdir": str(tmp_path / "run"),
        "nx": 8, "ny": 8, "nt": 4,
        "train_count": 3, "val_count": 1, "test_count": 2,
        "sigma": 0.2,
        "t_solve": 8,
        "t_train": 4, "t_test": 8,
        "epochs": 2, "batch": 2, "validate_every": 1,
        "stages": 2, "filters": 2, "convs_per_stage": 1,
        "lr": 1e-2,
    }
    if task == "ct":
        base.update({"nx": 16, "ny": 16, "nt": 1, "angles": 12, "bins": 23,
                     "mu": 3.0, "n0": 1000.0, "side": 1.0,
                     "train_count": 1, "val_count": 1, "test_count": 1})
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    path = tmp_path / "exp.cfg"
    path.write_text(render_sections(cfg.to_sections()))
    return cfg, path


def test_gen_writes_data_and_manifest(tmp_path):
    cfg, path = tiny_config(tmp_path)
    assert main(["gen", "--config", str(path)]) == 0
    data = tmp_path / "run" / "data"
    assert (data / "train_000_true.tnsr").exists()
    assert (data / "test_001_z.tnsr").exists()
    manifest = tmp_path / "run" / "manifest.txt"
    assert manifest.exists()
    # the manifest is itself a loadable config describing the same run
    assert ExperimentConfig.load(manifest) == cfg


def test_gen_roundtrip_from_manifest(tmp_path):
    cfg, path = tiny_config(tmp_path)
    assert main(["gen", "--config", str(path)]) == 0
    first = (tmp_path / "run" / "data" / "train_000_z.tnsr").read_bytes()
    # rerun solely from the manifest
    manifest = tmp_path / "run" / "manifest.txt"
    assert main(["gen", "--config", str(manifest)]) == 0
    assert (tmp_path / "run" / "data" / "train_000_z.tnsr").read_bytes() == first


def test_solve_scalar_and_map(tmp_path):
    cfg, path = tiny_config(tmp_path)
    assert main(["solve", "--config", str(path), "--lambda", "0.15", "--T", "12"]) == 0
    out = tmp_path / "run" / "solve"
    rec = read_tensor(out / "recon_000.tnsr")
    assert rec.shape == (4, 8, 8)
    diag = (out / "diagnostics_000.csv").read_text().splitlines()
    assert diag[0] == "iter,objective,step_norm,data_residual"
    assert len(diag) == 13

    lam_field = np.full((3, 4, 8, 8), 0.15)
    map_path = tmp_path / "lam.tnsr"
    write_tensor(map_path, lam_field)
    assert main(["solve", "--config", str(path), "--map", str(map_path)]) == 0
    rec2 = read_tensor(out / "recon_000.tnsr")
    assert rec2.shape == (4, 8, 8)


@pytest.mark.parametrize("item", [-1, 2])
def test_solve_rejects_item_outside_test_split(tmp_path, capsys, item):
    _, path = tiny_config(tmp_path)  # test_count = 2
    assert main(["solve", "--config", str(path), "--item", str(item)]) == 2
    assert "range(2)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert main(["solve", "--config", str(path), "--item", "1", "--T", "2"]) == 0


def test_eval_rejects_empty_test_split(tmp_path, capsys, monkeypatch):
    _, path = tiny_config(tmp_path, epochs=1)
    assert main(["train", "--config", str(path)]) == 0
    _, empty = tiny_config(tmp_path, test_count=0)
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main(["eval", "--config", str(empty), "--checkpoint",
                 str(tmp_path / "run" / "checkpoint"), "--t-test", "4"]) == 2
    assert (f"config error: {empty}: eval needs test items, the config has test_count = 0\n"
            == capsys.readouterr().err)
    assert not (tmp_path / "run" / "eval").exists()


@pytest.mark.parametrize("field, words", [
    (np.full((2, 4, 8, 8), 0.1), "needs (3, 4, 8, 8)"),  # a static image's field
    (np.zeros((3, 4, 8, 8)), "strictly positive"),
    (np.full((3, 4, 8, 8), np.nan), "finite"),
])
def test_solve_rejects_map_naming_the_file(tmp_path, capsys, field, words):
    _, path = tiny_config(tmp_path)
    map_path = tmp_path / "lam.tnsr"
    write_tensor(map_path, field)
    assert main(["solve", "--config", str(path), "--map", str(map_path)]) == 2
    err = capsys.readouterr().err
    assert str(map_path) in err and words in err
    assert not (tmp_path / "run" / "solve").exists()


def test_solve_rejects_conflicting_flags(tmp_path):
    cfg, path = tiny_config(tmp_path)
    lam_path = tmp_path / "lam.tnsr"
    write_tensor(lam_path, np.full((3, 4, 8, 8), 0.1))
    code = main(["solve", "--config", str(path), "--lambda", "0.1",
                 "--map", str(lam_path)])
    assert code == 2
    assert not (tmp_path / "run").exists()


def test_gridsearch_cli(tmp_path, capsys):
    cfg, path = tiny_config(tmp_path)
    code = main(["gridsearch", "--config", str(path), "--mode", "xyt",
                 "--grid", "0.05,0.15,0.4", "--T", "8"])
    assert code == 0
    scores = (tmp_path / "run" / "gridsearch" / "scores_xyt.csv").read_text()
    assert scores.splitlines()[0] == "lam,mean_psnr"
    assert len(scores.splitlines()) == 4


@pytest.mark.parametrize("mode_flag", [["--mode", "xyt"], []])  # the config's mode is xyt
def test_gridsearch_rejects_grid_t_in_mode_xyt(tmp_path, capsys, mode_flag):
    _, path = tiny_config(tmp_path, mode="xyt")
    code = main(["gridsearch", "--config", str(path), *mode_flag,
                 "--grid", "0.1,0.2", "--grid-t", "0.5", "--T", "2"])
    assert code == 2
    assert "--grid-t" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_eval_pipeline(tmp_path):
    cfg, path = tiny_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    assert ExperimentConfig.load(ckpt / "manifest.txt") == cfg
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["checkpoint", "history.csv"]
    hist = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert hist[0] == "epoch,train_loss,val_loss"
    assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--t-test", "4,8"]) == 0
    metrics = (tmp_path / "run" / "eval" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "t_test,item,psnr,nrmse,ssim"
    assert len(metrics) == 1 + 2 * cfg.test_count


@pytest.mark.parametrize("mode, channels", [("xyt", 1), ("x_y_t", 3)])
def test_gen_train_eval_in_each_other_mode(tmp_path, mode, channels):
    # test_train_eval_pipeline runs mode xy_t; here one weight channel for
    # every direction, and one channel per direction
    cfg, path = tiny_config(tmp_path, mode=mode)
    assert main(["gen", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    weights, net_cfg, ckpt_mode = experiments.load_checkpoint(ckpt)
    assert ckpt_mode.value == mode and net_cfg.out_channels == channels
    assert weights.biases[-1].shape == (channels,)
    assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--t-test", "4,8"]) == 0
    rows = (tmp_path / "run" / "eval" / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * cfg.test_count
    assert all(np.isfinite([float(v) for v in row.split(",")]).all() for row in rows)


def test_eval_t_test_defaults_to_config(tmp_path):
    cfg, path = tiny_config(tmp_path, epochs=1)  # t_test = 8
    assert main(["train", "--config", str(path)]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint")
    metrics = tmp_path / "run" / "eval" / "metrics.csv"
    assert main(["eval", "--config", str(path), "--checkpoint", ckpt]) == 0
    default = metrics.read_bytes()
    rows = default.decode().splitlines()[1:]
    assert len(rows) == cfg.test_count and all(r.startswith("8.0,") for r in rows)
    assert main(["eval", "--config", str(path), "--checkpoint", ckpt, "--t-test", "8"]) == 0
    assert metrics.read_bytes() == default


@pytest.mark.parametrize("overrides, words", [
    (dict(task="mri", coils=2, accel=2.0), "in_channels = 1, the mri config needs 2"),
    (dict(task="ct"), "rank = 3, the ct config needs 2"),
    (dict(nt=1), "out_channels = 2, the denoise config needs 1"),  # resolves mode xyt
    (dict(nt=3), "stages = 2 needs image sizes divisible by 2"),
])
def test_eval_rejects_checkpoint_for_other_config(tmp_path, capsys, monkeypatch, overrides,
                                                  words):
    _, path = tiny_config(tmp_path, epochs=1)  # denoise, 4 frames, mode xy_t
    assert main(["train", "--config", str(path)]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint")
    other = tmp_path / "other"
    other.mkdir()
    _, other_path = tiny_config(other, **overrides)
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main(["eval", "--config", str(other_path), "--checkpoint", ckpt]) == 2
    err = capsys.readouterr().err
    assert ckpt in err and words in err
    assert not (other / "run" / "eval").exists()


def _eval_edited_checkpoint(tmp_path, edit) -> int:
    cfg, path = tiny_config(tmp_path, epochs=1)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    edit(ckpt)
    return main(["eval", "--config", str(path), "--checkpoint", str(ckpt), "--t-test", "4"])


def test_eval_rejects_checkpoint_layer_count(tmp_path, capsys):
    def add_stage(ckpt):
        info = ckpt / "manifest.txt"
        info.write_text(info.read_text().replace("stages = 2", "stages = 3"))

    assert _eval_edited_checkpoint(tmp_path, add_stage) == 2
    kernel = tmp_path / "run" / "checkpoint" / "w02_kernel.tnsr"
    assert (f"config error: {kernel}: shape (2, 6, 3, 3, 3), the layer plan needs "
            "(8, 4, 3, 3, 3)\n" == capsys.readouterr().err)


def test_eval_rejects_checkpoint_without_its_manifest(tmp_path, capsys):
    # the text file of an older checkpoint, checkpoint.txt, is not read
    def old_format(ckpt):
        (ckpt / "manifest.txt").rename(ckpt / "checkpoint.txt")

    assert _eval_edited_checkpoint(tmp_path, old_format) == 2
    manifest = tmp_path / "run" / "checkpoint" / "manifest.txt"
    assert f"No such file or directory: '{manifest}'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("seed = 77\n", "", "missing mandatory key 'seed' in [run]"),
    ("[train]", "[weights]", "unknown section [weights]"),
], ids=["key", "section"])
def test_eval_rejects_checkpoint_without_a_key(tmp_path, capsys, old, new, message):
    def edit_info(ckpt):
        info = ckpt / "manifest.txt"
        assert old in info.read_text()
        info.write_text(info.read_text().replace(old, new))

    assert _eval_edited_checkpoint(tmp_path, edit_info) == 2
    info = tmp_path / "run" / "checkpoint" / "manifest.txt"
    assert f"config error: {info}: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("filters = 2", "filters = two", "cannot parse filters = 'two'"),
    ("mode = xy_t", "mode = foo", "'foo' is not a valid SharingMode"),
    ("stages = 2", "stages = 0", "stages must be >= 1, got 0"),
    ("[run]\n", "[run]\nno pair here\n", "line 2: expected 'key = value'"),
], ids=["value", "mode", "stages", "line"])
def test_eval_checkpoint_error_names_the_file(tmp_path, capsys, old, new, message):
    def edit_info(ckpt):
        info = ckpt / "manifest.txt"
        assert old in info.read_text()
        info.write_text(info.read_text().replace(old, new))

    assert _eval_edited_checkpoint(tmp_path, edit_info) == 2
    info = tmp_path / "run" / "checkpoint" / "manifest.txt"
    assert f"config error: {info}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("nx = 8", "nx = eight", "cannot parse nx = 'eight'"),
    ("nx = 8", "nx = 8\nwidth = 8", "unknown key 'width' in [phantom]"),
], ids=["value", "key"])
def test_config_error_names_the_file(tmp_path, capsys, old, new, message):
    _, path = tiny_config(tmp_path)
    path.write_text(path.read_text().replace(old, new))
    assert main(["gen", "--config", str(path)]) == 2
    assert f"config error: {path}: {message}" in capsys.readouterr().err


def test_handler_key_error_is_not_a_config_error(monkeypatch):
    # a KeyError is our own bug, not the user's input: it shows a traceback
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(experiments, "cmd_gen", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["gen", "--config", "unused.cfg"])


@pytest.mark.parametrize("part", ["kernel", "bias"])
def test_eval_rejects_checkpoint_tensor_shape(tmp_path, capsys, part):
    def swap_layer(ckpt):
        write_tensor(ckpt / f"w01_{part}.tnsr", read_tensor(ckpt / f"w00_{part}.tnsr"))

    assert _eval_edited_checkpoint(tmp_path, swap_layer) == 2
    err = capsys.readouterr().err
    assert f"w01_{part}.tnsr" in err and "layer plan" in err


def test_train_divergence_is_numerical_failure(tmp_path):
    # an absurd learning rate overflows the weights after the first step
    _, path = tiny_config(tmp_path, lr=1e300)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 3
    assert not (tmp_path / "run" / "checkpoint").exists()


def test_train_divergence_in_two_workers_is_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    _, path = tiny_config(tmp_path, lr=1e300)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 3
    assert not (tmp_path / "run" / "checkpoint").exists()


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def test_train_eval_outputs_identical_for_any_worker_count(tmp_path, monkeypatch):
    _, path = tiny_config(tmp_path, train_count=5, batch=3)
    run = tmp_path / "run"
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert main(["gen", "--config", str(path)]) == 0
        assert main(["gridsearch", "--config", str(path), "--mode", "xy_t",
                     "--grid", "0.05,0.15,0.4", "--grid-t", "0.1,0.3", "--T", "8"]) == 0
        assert main(["train", "--config", str(path)]) == 0
        assert main(["eval", "--config", str(path), "--checkpoint", str(run / "checkpoint"),
                     "--t-test", "4,8"]) == 0
        trees.append(_tree_bytes(run))
        shutil.rmtree(run)
    assert trees[0] == trees[1]
    assert {"manifest.txt", "data/train_004_z.tnsr", "gridsearch/scores_xy_t.csv",
            "gridsearch/manifest.txt", "history.csv", "checkpoint/manifest.txt",
            "eval/metrics.csv", "eval/manifest.txt"} <= set(trees[0])
    assert not any(b"workers" in data for data in trees[0].values())


@pytest.mark.parametrize("command", ["gen", "gridsearch"])
def test_workers_option_rejected(tmp_path, capsys, command):
    _, path = tiny_config(tmp_path)
    extra = {"gridsearch": ["--grid", "0.1"]}
    argv = [command, "--config", str(path), "--workers", "1"] + extra.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_readme_command_lines_parse():
    # every documented command line is accepted by the parser, and every
    # subcommand is documented
    lines = [line.split("#")[0] for line in README.read_text().splitlines()
             if line.startswith("tvmap ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert commands == set(subparsers.choices)


def test_readme_configs_load():
    # every fenced README block with a [run] header is a config that loads
    blocks = README.read_text().split("```")[1::2]
    configs = [b for b in blocks if "[run]" in b.splitlines()]
    assert configs
    for text in configs:
        ExperimentConfig.from_text(text)


def test_full_pipeline_deterministic(tmp_path):
    outputs = []
    for attempt in range(2):
        root = tmp_path / f"a{attempt}"
        root.mkdir()
        cfg, path = tiny_config(root)
        assert main(["gen", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        ckpt = root / "run" / "checkpoint"
        assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                     "--t-test", "4,8"]) == 0
        outputs.append((root / "run" / "eval" / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_mri_pipeline_cli(tmp_path):
    cfg, path = tiny_config(
        tmp_path, task="mri", coils=2, accel=2.0, cg_iters=2,
        train_count=2, val_count=1, test_count=1, sigma=0.1, epochs=1,
    )
    assert main(["gen", "--config", str(path)]) == 0
    data = tmp_path / "run" / "data"
    z = read_tensor(data / "test_000_z.tnsr")
    assert z.dtype == np.complex128 and z.shape == (2, 4, 8, 8)
    assert (data / "test_000_masks.tnsr").exists()
    assert (data / "test_000_coils.tnsr").exists()
    assert main(["solve", "--config", str(path), "--lambda", "0.05", "--T", "10"]) == 0
    rec = read_tensor(tmp_path / "run" / "solve" / "recon_000.tnsr")
    assert rec.dtype == np.complex128 and rec.shape == (4, 8, 8)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--t-test", "4"]) == 0
    mean_lines = (tmp_path / "run" / "eval" / "metrics_mean.csv").read_text().splitlines()
    assert mean_lines[0] == "t_test,psnr,nrmse,ssim"
    assert len(mean_lines) == 2


@pytest.mark.parametrize("task", ["mri", "qmri"])
def test_default_size_config_runs(tmp_path, task):
    # README defaults: 32x32x8, 4 coils, R = 4 (qmri: the paper's 10 times)
    path = tmp_path / "exp.cfg"
    path.write_text(f"[run]\ntask = {task}\nseed = 3\noutdir = {tmp_path / 'run'}\n")
    assert main(["gen", "--config", str(path)]) == 0
    assert main(["solve", "--config", str(path)]) == 0
    rec = read_tensor(tmp_path / "run" / "solve" / "recon_000.tnsr")
    assert rec.shape[1:] == (32, 32) and np.isfinite(rec).all()


def test_qmri_gen_and_fit_cli(tmp_path):
    cfg, path = tiny_config(
        tmp_path, task="qmri", coils=2, accel=2.0, cg_iters=2,
        train_count=1, val_count=1, test_count=1, sigma=0.0,
        times=(0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    )
    assert main(["gen", "--config", str(path)]) == 0
    truth = read_tensor(tmp_path / "run" / "data" / "test_000_true.tnsr")
    assert truth.shape == (10, 8, 8) and truth.dtype == np.complex128
    # the synthesized series is directly fittable
    series_path = tmp_path / "run" / "data" / "test_000_true.tnsr"
    out = tmp_path / "maps"
    times = ",".join(str(t) for t in cfg.times)
    assert main(["fit-t1", "--series", str(series_path), "--times", times,
                 "--out", str(out)]) == 0
    t1 = read_tensor(out / "t1.tnsr")
    assert t1.shape == (8, 8)
    assert np.all(t1 > 0)


def test_qmri_config_without_times_rejected(tmp_path, capsys):
    _, path = tiny_config(tmp_path, task="qmri", coils=2)
    text = path.read_text()
    times = next(line for line in text.splitlines() if line.startswith("times ="))
    path.write_text(text.replace(times, "times ="))
    assert main(["gen", "--config", str(path)]) == 2
    assert "times lists none" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task, old, new, words", [
    ("denoise", "seed = 77", "seed = -3", "seed must be >= 0"),
    ("qmri", None, "times = 0.5,0.1,0.2", "times = 0.5,0.1,0.2"),
    ("mri", "accel = 4.0", "accel = 0.5", "accel must be finite and >= 1"),
])
def test_gen_error_leaves_no_directory(tmp_path, capsys, task, old, new, words):
    _, path = tiny_config(tmp_path, task=task, coils=2)
    text = path.read_text()
    old = old or next(line for line in text.splitlines() if line.startswith("times ="))
    path.write_text(text.replace(old, new))
    assert main(["gen", "--config", str(path)]) == 2
    assert words in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_numerical_failure_writes_nothing(tmp_path, capsys):
    # a head bias whose softplus underflows to a zero weight field
    cfg, path = tiny_config(tmp_path)
    net_cfg = experiments.net_config(cfg)
    weights = init_weights(net_cfg, seed=1)
    weights.biases[-1][:] = -1e4
    ckpt = tmp_path / "ckpt"
    experiments.save_checkpoint(ckpt, weights, cfg, 0.0)
    assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt)]) == 3
    assert "not finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_certify_error_leaves_no_directory(tmp_path, monkeypatch):
    def fail(rng):
        raise ValueError("M is not positive definite; reduce the step sizes")

    monkeypatch.setattr(certificates, "desk_rate_certificate", fail)
    out = tmp_path / "certify"
    assert main(["certify", "--rate", "--out", str(out)]) == 2
    assert not out.exists()


def test_ct_solve_cli(tmp_path):
    cfg, path = tiny_config(tmp_path, task="ct")
    assert main(["solve", "--config", str(path), "--lambda", "0.002", "--T", "6"]) == 0
    rec = read_tensor(tmp_path / "run" / "solve" / "recon_000.tnsr")
    assert rec.shape == (1, 16, 16)
    assert np.min(rec) >= 0.0


def test_ct_config_without_mode_runs_every_command(tmp_path):
    # a single frame resolves the sharing mode xyt
    _, path = tiny_config(tmp_path, task="ct")
    path.write_text(path.read_text().replace("mode = xyt\n", ""))
    assert "mode =" not in path.read_text()
    ckpt = str(tmp_path / "run" / "checkpoint")
    for argv in (["gen"], ["solve", "--T", "6"], ["gridsearch", "--grid", "0.01,0.1", "--T", "4"],
                 ["train"], ["eval", "--checkpoint", ckpt, "--t-test", "4"]):
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    for written in ("manifest.txt", "solve/manifest.txt", "gridsearch/manifest.txt",
                    "checkpoint/manifest.txt", "eval/manifest.txt"):
        assert "mode = xyt\n" in (tmp_path / "run" / written).read_text()


@pytest.mark.parametrize("command", ["gen", "solve", "gridsearch", "train", "eval"])
def test_temporal_mode_on_ct_config_exits_at_load(tmp_path, capsys, command):
    _, path = tiny_config(tmp_path, task="ct")
    path.write_text(path.read_text().replace("mode = xyt", "mode = xy_t"))
    extra = {"gridsearch": ["--grid", "0.1"], "eval": ["--checkpoint", str(tmp_path)]}
    assert main([command, "--config", str(path), *extra.get(command, [])]) == 2
    err = capsys.readouterr().err
    assert f"{path}: mode xy_t needs a dynamic image (nt > 1)" in err
    assert not (tmp_path / "run").exists()


# each [manifest] key that records an option with no config key
MANIFEST_OPTIONS = {"item": "--item", "map": "--map", "grid": "--grid", "grid_t": "--grid-t",
                    "split": "--split", "t_list": "--t-test", "checkpoint": "--checkpoint"}


def _rerun_argv(manifest: Path) -> list[str]:
    """The command a manifest records: ``--config`` the manifest itself, plus
    each option listed under its [manifest]."""
    info = parse_sections(manifest.read_text())["manifest"]
    argv = [info["command"], "--config", str(manifest)]
    for key, option in MANIFEST_OPTIONS.items():
        if key in info:
            argv += [option, info[key]]
    return argv


@pytest.mark.parametrize("overrides, argv", [
    ({}, ["solve", "--lambda", "0.37", "--T", "5"]),
    ({}, ["solve", "--map", "{tmp}/lam.tnsr", "--item", "1"]),
    ({"mode": "x_y_t"}, ["gridsearch", "--mode", "xyt", "--grid", "0.05,0.2", "--T", "4"]),
    ({}, ["gridsearch", "--mode", "xy_t", "--grid", "0.05,0.2", "--grid-t", "0.1",
          "--split", "val"]),
    ({}, ["train"]),  # its manifest is checkpoint/manifest.txt
], ids=["solve-lambda", "solve-map", "gridsearch-xyt-on-x_y_t", "gridsearch-xy_t", "train"])
def test_rerun_from_manifest_reproduces_every_file(tmp_path, overrides, argv):
    _, path = tiny_config(tmp_path, **overrides)
    write_tensor(tmp_path / "lam.tnsr", np.full((3, 4, 8, 8), 0.15))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    run = tmp_path / "run"
    first = _tree_bytes(run)
    (written,) = run.rglob("manifest.txt")
    manifest = tmp_path / "manifest.cfg"
    shutil.copy(written, manifest)
    shutil.rmtree(run)
    assert main(_rerun_argv(manifest)) == 0
    assert _tree_bytes(run) == first


def test_manifest_holds_the_options_in_the_config_sections(tmp_path):
    _, path = tiny_config(tmp_path)
    assert main(["solve", "--config", str(path), "--lambda", "0.37", "--T", "5"]) == 0
    sections = parse_sections((tmp_path / "run" / "solve" / "manifest.txt").read_text())
    assert sections["solver"] == {"t_solve": "5", "mode": "xy_t", "lam": "0.37"}
    assert list(sections["manifest"]) == ["command", "item", "psnr", "nrmse"]
    assert main(["gridsearch", "--config", str(path), "--mode", "xyt", "--grid", "0.1,0.2",
                 "--T", "3"]) == 0
    sections = parse_sections((tmp_path / "run" / "gridsearch" / "manifest.txt").read_text())
    assert sections["solver"] == {"t_solve": "3", "mode": "xyt", "lam": "0.1"}
    assert sections["manifest"] == {"command": "gridsearch", "grid": "0.1,0.2",
                                    "split": "train", "best": sections["manifest"]["best"]}


def test_gridsearch_rejects_config_mode_x_y_t_before_building(tmp_path, capsys, monkeypatch):
    _, path = tiny_config(tmp_path, mode="x_y_t")
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main(["gridsearch", "--config", str(path), "--grid", "0.1"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: grid search supports modes xyt and xy_t" in err
    assert "--mode picks xyt or xy_t" in err
    assert not (tmp_path / "run").exists()


def test_gridsearch_temporal_mode_option_on_ct_config_exits_before_building(tmp_path, capsys,
                                                                            monkeypatch):
    _, path = tiny_config(tmp_path, task="ct")
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main(["gridsearch", "--config", str(path), "--mode", "xy_t", "--grid", "0.1",
                 "--T", "2"]) == 2
    assert ("config error: --mode: mode xy_t needs a dynamic image (nt > 1)\n"
            == capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--T", "-1"], "--T: t_solve must be >= 0, got -1"),
    (["solve", "--lambda", "-1"], "--lambda: lam must be finite and > 0, got -1.0"),
    (["solve", "--lambda", "nan"], "--lambda: lam must be finite and > 0, got nan"),
    (["gridsearch", "--grid", "0.1", "--T", "-2"], "--T: t_solve must be >= 0, got -2"),
    (["gridsearch", "--grid", "0.1,-0.2"], "--grid: lam must be finite and > 0, got -0.2"),
    (["gridsearch", "--mode", "xy_t", "--grid", "0.1", "--grid-t", "0.2,0"],
     "--grid-t: lam must be finite and > 0, got 0.0"),
    (["eval", "--checkpoint", "unread", "--t-test=4,-1"], "--t-test: t_test must be >= 0, got -1"),
], ids=["solve-T", "solve-lambda", "solve-lambda-nan", "gridsearch-T", "gridsearch-grid",
        "gridsearch-grid-t", "eval-t-test"])
def test_option_that_sets_a_config_key_is_checked_by_the_config(tmp_path, capsys, monkeypatch,
                                                                 argv, message):
    _, path = tiny_config(tmp_path)
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
    assert f"config error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("old, new, message", [
    ("t_solve = 8", "t_solve = -1", "t_solve must be >= 0, got -1"),
    ("t_test = 8", "t_test = -1", "t_test must be >= 0, got -1"),
    ("lam = 0.1", "lam = 0", "lam must be finite and > 0, got 0.0"),
    ("t_train = 4", "t_train = 0", "t_train must be >= 1, got 0"),
    ("epochs = 2", "epochs = -1", "epochs must be >= 0, got -1"),
    ("batch = 2", "batch = 0", "batch must be >= 1, got 0"),
    ("validate_every = 1", "validate_every = 0", "validate_every must be >= 1, got 0"),
    ("stages = 2", "stages = 0", "stages must be >= 1, got 0"),
    ("filters = 2", "filters = 0", "filters must be >= 1, got 0"),
    ("convs_per_stage = 1", "convs_per_stage = 0", "convs_per_stage must be >= 1, got 0"),
    ("lr = 0.01", "lr = nan", "lr must be finite and >= 0, got nan"),
    # the Adam step applies only a positive decay, so either would train undecayed
    ("weight_decay = 0.0", "weight_decay = -0.5", "weight_decay must be finite and >= 0, got -0.5"),
    ("weight_decay = 0.0", "weight_decay = nan", "weight_decay must be finite and >= 0, got nan"),
], ids=["t_solve", "t_test", "lam", "t_train", "epochs", "batch", "validate_every", "stages",
        "filters", "convs_per_stage", "lr-nan", "weight_decay", "weight_decay-nan"])
@pytest.mark.parametrize("command", ["gen", "solve", "gridsearch", "train", "eval"])
def test_bad_solver_setting_exits_at_load(tmp_path, capsys, command, old, new, message):
    _, path = tiny_config(tmp_path)
    path.write_text(path.read_text().replace(old, new))
    extra = {"gridsearch": ["--grid", "0.1"], "eval": ["--checkpoint", str(tmp_path)]}
    assert main([command, "--config", str(path), *extra.get(command, [])]) == 2
    assert f"config error: {path}: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_rejects_stages_too_deep_for_the_images_before_building(tmp_path, capsys,
                                                                      monkeypatch):
    _, path = tiny_config(tmp_path, nx=12, ny=12, stages=4)
    monkeypatch.setattr(experiments, "build_split", None)  # not reached
    assert main(["train", "--config", str(path)]) == 2
    assert (f"config error: {path}: stages = 4 needs image sizes divisible by 8, "
            "the image is (4, 12, 12)\n" == capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_certify_cli(tmp_path):
    out = tmp_path / "cert"
    assert main(["certify", "--rate", "--lipschitz", "--out", str(out)]) == 0
    lines = (out / "certify.txt").read_text().splitlines()
    assert re.fullmatch(r"rate constants: c = \S+, C = \S+, c_za = \S+, start gap = \S+",
                        lines[0])
    assert lines[1] == "rate bound holds: True"
    assert re.fullmatch(r"lipschitz probes: 100 pairs, worst lhs/rhs = \S+", lines[2])
    assert (out / "rate_certificate.csv").exists()
    assert main(["certify", "--out", str(out)]) == 2  # needs a mode flag


def test_fit_t1_cli(tmp_path):
    from tvmap.qmri import PAPER_INVERSION_TIMES, concentric_region_labels, synth_qmri_series

    labels = concentric_region_labels(8, 3)
    series, truth = synth_qmri_series(labels, [(0.9, 1.1), (1.1, 0.6), (0.8, 2.2)])
    series_path = tmp_path / "series.tnsr"
    write_tensor(series_path, series.images)
    out = tmp_path / "maps"
    times = ",".join(str(t) for t in PAPER_INVERSION_TIMES)
    assert main(["fit-t1", "--series", str(series_path), "--times", times,
                 "--out", str(out)]) == 0
    t1 = read_tensor(out / "t1.tnsr")
    assert np.max(np.abs(t1 - truth.t1) / truth.t1) <= 5e-3


@pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 4, 4), (3, 1, 4, 4)])
def test_fit_t1_rejects_series_that_is_not_one_image_per_time(tmp_path, capsys, shape):
    path = tmp_path / "series.tnsr"
    write_tensor(path, np.ones(shape))
    out = tmp_path / "maps"
    assert main(["fit-t1", "--series", str(path), "--times", "0.1,0.2,0.3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: fit-t1 needs an (n_times, nx, ny) series" in err
    assert str(shape) in err and not out.exists()


def test_preview_cli(tmp_path, rng):
    arr = rng.random((2, 6, 5))
    path = tmp_path / "img.tnsr"
    write_tensor(path, arr)
    assert main(["preview", str(path), "--out", str(tmp_path / "prev")]) == 0
    assert (tmp_path / "prev_000.pgm").exists()
    assert (tmp_path / "prev_001.pgm").exists()


def test_preview_creates_missing_output_directory(tmp_path, rng):
    path = tmp_path / "img.tnsr"
    write_tensor(path, rng.random((2, 6, 5)))
    assert main(["preview", str(path), "--out", str(tmp_path / "a" / "b" / "prev")]) == 0
    assert (tmp_path / "a" / "b" / "prev_001.pgm").exists()
    assert (tmp_path / "a" / "b" / "prev_manifest.txt").exists()


@pytest.mark.parametrize("shape", [(), (5,), (2, 1, 2, 4, 4)])
def test_preview_rejects_tensor_that_is_not_an_image(tmp_path, capsys, shape):
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.ones(shape))
    assert main(["preview", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "2-, 3- or 4-D" in err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv, option", [
    (["eval", "--config", "{cfg}", "--checkpoint", "{tmp}/ckpt", "--t-test", ","], "--t-test"),
    (["gridsearch", "--config", "{cfg}", "--grid", ","], "--grid"),
    (["gridsearch", "--config", "{cfg}", "--mode", "xy_t", "--grid", "0.1,0.2",
      "--grid-t", ""], "--grid-t"),
    (["fit-t1", "--series", "{tmp}/s.tnsr", "--times", " , ", "--out", "{tmp}/run"], "--times"),
])
def test_empty_list_option_rejected(tmp_path, capsys, argv, option):
    _, path = tiny_config(tmp_path)
    write_tensor(tmp_path / "s.tnsr", np.ones((3, 4, 4)))
    assert main([a.format(cfg=path, tmp=tmp_path) for a in argv]) == 2
    assert f"config error: {option} lists no values" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, option, text", [
    (["eval", "--config", "{cfg}", "--checkpoint", "{tmp}/ckpt", "--t-test", "4,x"],
     "--t-test", "4,x"),
    (["gridsearch", "--config", "{cfg}", "--grid", "0.1,abc"], "--grid", "0.1,abc"),
    (["gridsearch", "--config", "{cfg}", "--mode", "xy_t", "--grid", "0.1,0.2",
      "--grid-t", "0.5,0.2.1"], "--grid-t", "0.5,0.2.1"),
    (["fit-t1", "--series", "{tmp}/s.tnsr", "--times", "0.1,zz", "--out", "{tmp}/run"],
     "--times", "0.1,zz"),
])
def test_unparsable_list_option_rejected(tmp_path, capsys, argv, option, text):
    _, path = tiny_config(tmp_path)
    write_tensor(tmp_path / "s.tnsr", np.ones((2, 4, 4)))
    assert main([a.format(cfg=path, tmp=tmp_path) for a in argv]) == 2
    assert f"config error: cannot parse {option} = {text!r}\n" == capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_config_is_config_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "none.cfg")]) == 2


def test_bad_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ntask = denoise\n")  # no seed
    assert main(["gen", "--config", str(bad)]) == 2
