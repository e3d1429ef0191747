"""Experiment configuration: a flat key=value text format with bracketed
section headers, and the typed config object built from it.

Parse rules (bit-exact):

* lines are split on LF; surrounding whitespace is stripped per line;
* empty lines and lines starting with ``#`` are skipped;
* ``[name]`` opens a section; ``key = value`` pairs split on the first
  ``=`` with key and value stripped; values stay strings until typed;
* keys before any section header or unknown keys are errors;
* a ``[manifest]`` section is informational and ignored on load, so every
  manifest written by a command is itself a loadable config.

Randomness derivation: every random draw in a run seeds
``numpy.random.SeedSequence([seed, purpose, index])`` where ``purpose`` is a
fixed small integer per use (phantom, noise, masks, ...) and ``index`` the
item number, making results independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .qmri import PAPER_INVERSION_TIMES

TASKS = ("denoise", "mri", "ct", "qmri")

# purpose codes for the seed derivation
SEED_PHANTOM = 1
SEED_NOISE = 2
SEED_MASKS = 3


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ValueError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    return sections


def render_sections(sections: dict[str, dict[str, str]]) -> str:
    out = []
    for name, pairs in sections.items():
        out.append(f"[{name}]")
        for key, value in pairs.items():
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


def parse_value(kind, key: str, raw: str):
    """Type the text ``raw`` of ``key`` as ``kind`` (a dataclass field's
    annotation): int, float, a tuple of comma-separated floats, or str as given."""
    try:
        if kind is tuple:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if kind in (int, float):
            return kind(raw)
    except ValueError as exc:
        raise ValueError(f"cannot parse {key} = {raw!r}") from exc
    return raw


def format_value(value) -> str:
    """The text :func:`parse_value` reads back: floats by ``repr`` (exact
    round trip), tuples as comma-separated float reprs, the rest by ``str``."""
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class ExperimentConfig:
    task: str
    seed: int
    outdir: str = "runs/out"
    # phantom
    nx: int = 32
    ny: int = 32
    nt: int = 8
    disks: int = 3
    train_count: int = 24
    val_count: int = 4
    test_count: int = 8
    # noise
    sigma: float = 0.2
    # mri operator
    accel: float = 4.0
    coils: int = 4
    center_fraction: float = 0.08
    cg_iters: int = 4
    # ct operator
    angles: int = 180
    bins: int = 95
    side: float = 0.26
    mu: float = 81.35858
    n0: float = 4096.0
    # solver
    t_solve: int = 256
    mode: str = "xy_t"
    lam: float = 0.1
    # training
    t_train: int = 64
    t_test: int = 256
    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 40
    batch: int = 4
    validate_every: int = 2
    stages: int = 2
    filters: int = 8
    convs_per_stage: int = 2
    # qmri
    times: tuple = PAPER_INVERSION_TIMES

    _SECTIONS = {
        "run": ("task", "seed", "outdir"),
        "phantom": ("nx", "ny", "nt", "disks", "train_count", "val_count", "test_count"),
        "noise": ("sigma",),
        "operator": ("accel", "coils", "center_fraction", "cg_iters", "angles",
                     "bins", "side", "mu", "n0"),
        "solver": ("t_solve", "mode", "lam"),
        "train": ("t_train", "t_test", "lr", "weight_decay", "epochs", "batch",
                  "validate_every", "stages", "filters", "convs_per_stage"),
        "qmri": ("times",),
    }

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.task in ("ct",) and self.nt != 1:
            self.nt = 1
        if self.task in ("ct", "qmri") and self.ny != self.nx:
            raise ValueError(f"task = {self.task} needs a square phantom, ny = nx; "
                             f"got nx = {self.nx}, ny = {self.ny}")
        if self.task == "qmri" and not self.times:
            raise ValueError("task = qmri needs inversion times, times lists none")
        if self.mode not in ("xyt", "xy_t", "x_y_t"):
            raise ValueError(f"unknown sharing mode {self.mode!r}")
        for key in ("train_count", "val_count", "test_count"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        sections = parse_sections(text)
        sections.pop("manifest", None)
        values = {}
        for sec_name, pairs in sections.items():
            if sec_name not in cls._SECTIONS:
                raise ValueError(f"unknown section [{sec_name}]")
            for key, raw in pairs.items():
                if key not in cls._SECTIONS[sec_name]:
                    raise ValueError(f"unknown key {key!r} in [{sec_name}]")
                values[key] = raw
        if "task" not in values:
            raise ValueError("missing mandatory key 'task' in [run]")
        if "seed" not in values:
            raise ValueError("missing mandatory key 'seed' in [run]")
        kinds = get_type_hints(cls)
        return cls(**{key: parse_value(kinds[key], key, raw) for key, raw in values.items()})

    def to_sections(self) -> dict[str, dict[str, str]]:
        return {
            sec_name: {key: format_value(getattr(self, key)) for key in keys}
            for sec_name, keys in self._SECTIONS.items()
        }

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            return cls.from_text(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def item_seed(self, purpose: int, index: int):
        return [int(self.seed), int(purpose), int(index)]


def write_manifest(path, cfg: ExperimentConfig | None, command: str,
                   extra: dict | None = None) -> None:
    """Resolved config plus an informational [manifest] block; the file can
    be fed back to any command in place of the original config.  Commands
    that read no config (``cfg`` None) write the [manifest] block alone."""
    sections = cfg.to_sections() if cfg is not None else {}
    info = {"command": command}
    if extra:
        info.update({k: str(v) for k, v in extra.items()})
    sections["manifest"] = info
    Path(path).write_text(render_sections(sections))
