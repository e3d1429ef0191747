import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from tvmap import certificates, experiments, parallel
from tvmap.cli import build_parser, main
from tvmap.config import ExperimentConfig, render_sections
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
                     "mode": "xyt", "mu": 3.0, "n0": 1000.0, "side": 1.0,
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


def test_eval_rejects_empty_test_split(tmp_path, capsys):
    _, path = tiny_config(tmp_path, epochs=1)
    assert main(["train", "--config", str(path)]) == 0
    _, empty = tiny_config(tmp_path, test_count=0)
    assert main(["eval", "--config", str(empty), "--checkpoint",
                 str(tmp_path / "run" / "checkpoint"), "--t-test", "4"]) == 2
    assert "test_count = 0" in capsys.readouterr().err
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
    assert (ckpt / "checkpoint.txt").exists()
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
    (dict(nt=1), "mode xy_t needs a dynamic image"),
    (dict(nt=3), "stages = 2 needs image sizes divisible by 2"),
])
def test_eval_rejects_checkpoint_for_other_config(tmp_path, capsys, overrides, words):
    _, path = tiny_config(tmp_path, epochs=1)  # denoise, 4 frames, mode xy_t
    assert main(["train", "--config", str(path)]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint")
    other = tmp_path / "other"
    other.mkdir()
    _, other_path = tiny_config(other, **overrides)
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
    def drop_layer(ckpt):
        info = ckpt / "checkpoint.txt"
        info.write_text(info.read_text().replace("n_layers = 4", "n_layers = 3"))

    assert _eval_edited_checkpoint(tmp_path, drop_layer) == 2
    err = capsys.readouterr().err
    assert "checkpoint.txt" in err and "n_layers = 3" in err


@pytest.mark.parametrize("old, new, message", [
    ("rank = 3\n", "", "missing key(s) rank"),
    ("[checkpoint]", "[weights]", "no [checkpoint] section"),
], ids=["key", "section"])
def test_eval_rejects_checkpoint_without_a_key(tmp_path, capsys, old, new, message):
    def edit_info(ckpt):
        info = ckpt / "checkpoint.txt"
        assert old in info.read_text()
        info.write_text(info.read_text().replace(old, new))

    assert _eval_edited_checkpoint(tmp_path, edit_info) == 2
    err = capsys.readouterr().err
    assert "checkpoint.txt" in err and message in err


@pytest.mark.parametrize("old, new, message", [
    ("n_layers = 4", "n_layers = four", "cannot parse n_layers = 'four'"),
    ("mode = xy_t", "mode = foo", "'foo' is not a valid SharingMode"),
    ("rank = 3", "rank = 5", "rank must be 2 or 3"),
    ("[checkpoint]\n", "[checkpoint]\nno pair here\n", "line 2: expected 'key = value'"),
], ids=["n_layers", "mode", "rank", "line"])
def test_eval_checkpoint_error_names_the_file(tmp_path, capsys, old, new, message):
    def edit_info(ckpt):
        info = ckpt / "checkpoint.txt"
        assert old in info.read_text()
        info.write_text(info.read_text().replace(old, new))

    assert _eval_edited_checkpoint(tmp_path, edit_info) == 2
    info = tmp_path / "run" / "checkpoint" / "checkpoint.txt"
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
            "gridsearch/manifest.txt", "history.csv", "train_manifest.txt",
            "checkpoint/checkpoint.txt", "eval/metrics.csv", "eval/manifest.txt"} <= set(trees[0])
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


@pytest.mark.parametrize(
    "key, value, field",
    [("validate_every", 0, "validate_every"), ("batch", 0, "batch_size"), ("epochs", -1, "epochs")],
)
def test_train_rejects_bad_loop_settings(tmp_path, capsys, key, value, field):
    _, path = tiny_config(tmp_path, **{key: value})
    assert main(["train", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint").exists()


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
    ("mri", "accel = 4.0", "accel = 0.5", "acceleration R must be >= 1"),
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
    experiments.save_checkpoint(ckpt, weights, net_cfg, cfg, 0.0)
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


def test_certify_cli(tmp_path):
    out = tmp_path / "cert"
    assert main(["certify", "--rate", "--lipschitz", "--out", str(out)]) == 0
    text = (out / "certify.txt").read_text()
    assert "rate bound holds: True" in text
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
