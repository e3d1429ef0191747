from dataclasses import fields

import pytest

from tvmap.config import ExperimentConfig, parse_sections, render_sections, write_manifest

MINIMAL = """
[run]
task = denoise
seed = 42
"""


def test_parse_minimal():
    cfg = ExperimentConfig.from_text(MINIMAL)
    assert cfg.task == "denoise"
    assert cfg.seed == 42
    assert cfg.nx == 32


def test_seed_mandatory():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("[run]\ntask = denoise\n")


def test_task_mandatory_and_validated():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("[run]\nseed = 1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("[run]\ntask = teleport\nseed = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text(MINIMAL + "\n[run]\nwhat = 1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text(MINIMAL + "\n[nosuch]\nx = 1\n")


def test_key_outside_section_rejected():
    with pytest.raises(ValueError):
        parse_sections("a = 1\n")
    with pytest.raises(ValueError):
        parse_sections("[s]\nnot a pair\n")


def test_comments_and_blanks_ignored():
    text = "# header\n\n[run]\n# inline section comment\ntask = ct\nseed = 7\n"
    cfg = ExperimentConfig.from_text(text)
    assert cfg.task == "ct"
    assert cfg.nt == 1  # static task forces a single frame


def test_roundtrip_through_text():
    cfg = ExperimentConfig.from_text(MINIMAL)
    again = ExperimentConfig.from_text(render_sections(cfg.to_sections()))
    assert cfg == again
    # a second render is byte-identical (stable formatting)
    assert render_sections(cfg.to_sections()) == render_sections(again.to_sections())


def test_typed_values():
    text = MINIMAL + "\n[noise]\nsigma = 0.3\n[train]\nlr = 0.0005\nepochs = 3\n"
    cfg = ExperimentConfig.from_text(text)
    assert cfg.sigma == 0.3
    assert cfg.lr == 5e-4
    assert cfg.epochs == 3
    with pytest.raises(ValueError):
        ExperimentConfig.from_text(MINIMAL + "\n[train]\nepochs = three\n")


def test_times_parse_and_render():
    text = MINIMAL + "\n[qmri]\ntimes = 0.1,0.2,0.4\n"
    cfg = ExperimentConfig.from_text(text)
    assert cfg.times == (0.1, 0.2, 0.4)
    again = ExperimentConfig.from_text(render_sections(cfg.to_sections()))
    assert again.times == cfg.times


def test_manifest_is_loadable_config(tmp_path):
    cfg = ExperimentConfig.from_text(MINIMAL)
    path = tmp_path / "manifest.txt"
    write_manifest(path, cfg, "gen", {"items": 3})
    back = ExperimentConfig.load(path)
    assert back == cfg
    assert "[manifest]" in path.read_text()


def test_manifest_without_config(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, None, "preview", {"tensor": "a.tnsr", "frames": 2})
    assert path.read_text() == "[manifest]\ncommand = preview\ntensor = a.tnsr\nframes = 2\n"


@pytest.mark.parametrize("key", ["train_count", "val_count", "test_count"])
def test_negative_split_count_rejected(key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(task="denoise", seed=1, **{key: -3})
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_text(MINIMAL + f"\n[phantom]\n{key} = -1\n")
    assert getattr(ExperimentConfig(task="denoise", seed=1, **{key: 0}), key) == 0


def test_render_sections_format():
    text = render_sections({"a": {"x": "1"}, "b": {"y": "2"}})
    assert text == "[a]\nx = 1\n\n[b]\ny = 2\n"


def test_mode_validated():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text(MINIMAL + "\n[solver]\nmode = diag\n")


def test_qmri_rejects_non_square_phantom():
    # the qMRI phantom is nx x nx while its coils and masks follow ny
    with pytest.raises(ValueError, match="nx = 8, ny = 12"):
        ExperimentConfig(task="qmri", seed=1, nx=8, ny=12)
    assert ExperimentConfig(task="mri", seed=1, nx=8, ny=12).ny == 12


def test_ct_rejects_non_square_phantom():
    # the CT phantom and the Radon grid are nx x nx; ny would go unread
    with pytest.raises(ValueError, match="task = ct needs a square phantom"):
        ExperimentConfig(task="ct", seed=1, nx=16, ny=40)


def test_sections_list_every_field_once_in_order():
    # a field missing here could not be loaded and would be left out of manifests
    listed = [key for keys in ExperimentConfig._SECTIONS.values() for key in keys]
    assert listed == [f.name for f in fields(ExperimentConfig)]
