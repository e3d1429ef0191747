import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmap.config import TASKS, ExperimentConfig, parse_sections, render_sections, write_manifest
from tvmap.tensors import SharingMode

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


@pytest.mark.parametrize("key, value, message", [
    ("t_solve", -1, "t_solve must be >= 0, got -1"),
    ("t_test", -1, "t_test must be >= 0, got -1"),
    ("lam", 0.0, "lam must be finite and > 0, got 0.0"),
    ("lam", -0.5, "lam must be finite and > 0, got -0.5"),
    ("lam", math.inf, "lam must be finite and > 0, got inf"),
    ("lam", math.nan, "lam must be finite and > 0, got nan"),
])
def test_solver_settings_checked(key, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(task="denoise", seed=1, **{key: value})
    # zero iterations is a valid budget: the solve returns its start
    assert ExperimentConfig(task="denoise", seed=1, t_solve=0, t_test=0).t_solve == 0


def test_negative_seed_rejected():
    # numpy's seed sequence would reject it later, naming neither the key nor the file
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        ExperimentConfig.from_text(MINIMAL.replace("seed = 42", "seed = -3"))
    assert ExperimentConfig(task="denoise", seed=0).seed == 0


@pytest.mark.parametrize("times", ["0.5,0.1,0.2", "-1,0.1,0.2", "0,0.1,0.2", "0.1,0.1,0.2",
                                   "nan,0.1,0.2"])
def test_qmri_times_must_be_positive_and_increasing(times):
    section = f"[qmri]\ntimes = {times}\n"
    with pytest.raises(ValueError, match="times = "):
        ExperimentConfig.from_text(MINIMAL.replace("denoise", "qmri") + section)
    # other tasks read no inversion times
    assert ExperimentConfig.from_text(MINIMAL + section).task == "denoise"
    assert ExperimentConfig(task="qmri", seed=1, times=(0.1, 0.2, 0.3)).times == (0.1, 0.2, 0.3)


def test_render_sections_format():
    text = render_sections({"a": {"x": "1"}, "b": {"y": "2"}})
    assert text == "[a]\nx = 1\n\n[b]\ny = 2\n"


def test_mode_validated():
    with pytest.raises(ValueError, match="'diag' is not a valid SharingMode"):
        ExperimentConfig.from_text(MINIMAL + "\n[solver]\nmode = diag\n")


@pytest.mark.parametrize("task, nt, mode", [
    ("denoise", 8, "xy_t"), ("denoise", 1, "xyt"), ("mri", 1, "xyt"),
    ("ct", 8, "xyt"), ("qmri", 1, "xy_t"),  # qMRI frames are its inversion times
])
def test_unset_mode_resolved_from_the_frame_count(task, nt, mode):
    cfg = ExperimentConfig(task=task, seed=1, nx=16, ny=16, nt=nt)
    assert cfg.mode is SharingMode(mode)
    assert f"mode = {mode}\n" in render_sections(cfg.to_sections())


def test_explicit_mode_checked_against_the_frame_count():
    assert ExperimentConfig(task="qmri", seed=1, nt=1, mode="xy_t").mode is SharingMode.XY_T
    assert ExperimentConfig(task="ct", seed=1, mode="xyt").mode is SharingMode.XYT
    for task, mode in [("ct", "xy_t"), ("ct", "x_y_t"), ("denoise", "xy_t")]:
        with pytest.raises(ValueError, match=f"mode {mode} needs a dynamic image"):
            ExperimentConfig(task=task, seed=1, nt=1, mode=mode)


@pytest.mark.parametrize("key, value, rule", [
    ("nx", 0, ">= 1"), ("ny", 0, ">= 1"), ("nt", 0, ">= 1"), ("disks", -1, ">= 1"),
    ("angles", 0, ">= 1"), ("bins", 0, ">= 1"),
    ("side", 0.0, "> 0"), ("side", -1.0, "> 0"), ("side", float("nan"), "> 0"),
])
def test_sizes_and_geometry_that_build_no_image_rejected(key, value, rule):
    # they built empty images, or died in the phantom or the Radon geometry
    with pytest.raises(ValueError, match=f"^{key} must be {rule}, got {value}$"):
        ExperimentConfig(task="denoise", seed=1, **{key: value})
    section = next(sec for sec, keys in ExperimentConfig._SECTIONS.items() if key in keys)
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_text(MINIMAL + f"\n[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("task, key, value, rule", [
    ("mri", "sigma", math.nan, "finite and >= 0"), ("mri", "sigma", -1.0, "finite and >= 0"),
    ("mri", "sigma", math.inf, "finite and >= 0"),
    ("mri", "accel", 0.5, "finite and >= 1"), ("mri", "accel", math.inf, "finite and >= 1"),
    ("mri", "coils", 0, ">= 1"), ("mri", "cg_iters", -1, ">= 0"),
    ("mri", "center_fraction", 2.0, "in [0, 1]"), ("mri", "center_fraction", -0.1, "in [0, 1]"),
    ("mri", "center_fraction", math.nan, "in [0, 1]"),
    ("ct", "mu", -1.0, "finite and > 0"), ("ct", "mu", math.inf, "finite and > 0"),
    ("ct", "n0", 0.0, "finite and > 0"), ("ct", "n0", math.nan, "finite and > 0"),
])
def test_noise_and_operator_keys_checked_at_load(tmp_path, task, key, value, rule):
    # they reached the noise draw, the masks, the coil maps, CG or the
    # Poisson counts, which failed later or not at all
    section = next(sec for sec, keys in ExperimentConfig._SECTIONS.items() if key in keys)
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL.replace("denoise", task) + f"\n[{section}]\n{key} = {value}\n")
    message = f"{path}: {key} must be {rule}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.load(path)


def test_unparsable_times_name_the_key():
    with pytest.raises(ValueError, match=r"^cannot parse times = '0.1,abc'$"):
        ExperimentConfig.from_text(MINIMAL + "\n[qmri]\ntimes = 0.1,abc\n")


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


# fuzzed config text: any text, or a [run] header or none, then known keys in
# their sections with plausible or any values, then a last line that may be
# malformed or unknown
_PAIRS = [(sec, key) for sec, keys in ExperimentConfig._SECTIONS.items() for key in keys]
_PAIR_LINES = st.builds(
    "[{0[0]}]\n{0[1]} = {1}".format, st.sampled_from(_PAIRS),
    st.integers(-2, 9).map(str) | st.floats().map(repr) | st.text(max_size=8)
    | st.sampled_from(["", "1,2", "0.2,0.1", "xyt", "xy_t", "x_y_t", *TASKS]))
_TEXTS = st.text() | st.builds(
    "{}\n{}\n{}".format,
    st.sampled_from(["", *(f"[run]\ntask = {t}\nseed = 1" for t in TASKS)]),
    st.lists(_PAIR_LINES, max_size=8).map("\n".join),
    st.just("") | st.sampled_from(["# note", "no pair here", "[manifest]", "[nosuch]", "[]",
                                   "what = 1"]))


@settings(max_examples=500, deadline=None)
@given(text=_TEXTS)
def test_load_returns_a_config_or_an_error_naming_the_file(tmp_path_factory, text):
    # every config, manifest and checkpoint is read by this one loader
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    try:
        cfg = ExperimentConfig.load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(cfg, ExperimentConfig)


_COUNT, _SIZE = st.integers(0, 2**40), st.integers(1, 64)
# each optional key, drawn within the range the config accepts
_VALID = {
    **dict.fromkeys(("train_count", "val_count", "test_count", "cg_iters", "t_solve",
                     "t_test", "epochs"), _COUNT),
    **dict.fromkeys(("nx", "ny", "nt", "disks", "coils", "angles", "bins", "t_train", "batch",
                     "validate_every", "stages", "filters", "convs_per_stage"), _SIZE),
    **dict.fromkeys(("side", "lam", "mu", "n0"),
                    st.floats(0, exclude_min=True, allow_infinity=False)),
    **dict.fromkeys(("sigma", "lr", "weight_decay"), st.floats(0, allow_infinity=False)),
    "accel": st.floats(1, allow_infinity=False),
    "center_fraction": st.floats(0, 1),
    "outdir": st.text("abc/_.-019", max_size=12),
    "mode": st.sampled_from(["", *(m.value for m in SharingMode)]),
    "times": st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12, unique=True)
                .map(sorted).map(tuple),
}


@st.composite
def _valid_configs(draw):
    values = draw(st.fixed_dictionaries({"task": st.sampled_from(TASKS), "seed": _COUNT},
                                        optional=_VALID))
    if values["task"] in ("ct", "qmri"):
        values["ny"] = values.get("nx", 32)
    if ExperimentConfig(**values | {"mode": "xyt"}).image_shape[0] == 1:
        values["mode"] = "xyt"  # the only mode of a single frame
    return ExperimentConfig(**values)


def test_valid_config_draws_cover_every_key():
    assert {"task", "seed", *_VALID} == {f.name for f in fields(ExperimentConfig)}


@settings(max_examples=200, deadline=None)
@given(cfg=_valid_configs())
def test_valid_config_round_trips_through_text(cfg):
    assert ExperimentConfig.from_text(render_sections(cfg.to_sections())) == cfg
