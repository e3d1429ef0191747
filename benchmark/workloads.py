"""The benchmark's workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
whole rounds of identical work in :meth:`round`: a fitting stage on the train
split (network training, or a scalar grid search) and reconstructions of the
test split with what was fitted.  Every round starts from the same inputs and
weights, so its outputs, and therefore ``psnr_db``, repeat exactly.

A round records the duration of every operation: each ``training.train``
call, each grid-search solve, each test reconstruction.  The end-to-end
rates are taken from the medians of these durations over the whole run.

tvmap is called through module attributes (``training.train``, not a name
imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import checks
from tvmap import experiments, metrics, network, solvers, training
from tvmap.config import ExperimentConfig
from tvmap.tensors import SharingMode


@dataclass
class Round:
    fit_s: list[float]     # one entry per fitting operation
    fit_items: int         # train-split items one fitting operation processes
    recon_s: list[float]   # one entry per test reconstruction
    psnr_db: float         # mean test PSNR (tvmap.metrics.psnr)

    @property
    def attempted(self) -> int:
        return len(self.fit_s) * self.fit_items + len(self.recon_s)

    @property
    def wall_s(self) -> float:
        return sum(self.fit_s) + sum(self.recon_s)


@contextmanager
def timed_calls(owner, attr: str):
    """Record the duration of every call to ``owner.attr`` inside the block."""
    original = getattr(owner, attr)
    durations: list[float] = []

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t)

    setattr(owner, attr, timed)
    try:
        yield durations
    finally:
        setattr(owner, attr, original)


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


class DenoiseTrain:
    """Train the acceptance-fixture network on moving-disk videos (one
    ``training.train`` call: one epoch of one batch, validation before and
    after), then evaluate it item by item on the test split at ``t_test``."""

    name = "denoise_train"
    SCALES = {
        "full": dict(n=32, nt=8, train=4, val=1, test=16, t_train=64, t_test=256),
        "tiny": dict(n=16, nt=4, train=2, val=1, test=1, t_train=4, t_test=32),
    }

    def __init__(self, seed: int, scale: str):
        p = self.SCALES[scale]
        self.cfg = ExperimentConfig(
            task="denoise", seed=seed, nx=p["n"], ny=p["n"], nt=p["nt"],
            train_count=p["train"], val_count=p["val"], test_count=p["test"],
            sigma=0.2, mode="xy_t", stages=2, filters=8, convs_per_stage=2,
        )
        self.tcfg = training.TrainConfig(
            t_train=p["t_train"], t_test=p["t_test"], lr=2e-3, epochs=1,
            batch_size=4, validate_every=1, seed=seed, mode=SharingMode.XY_T,
        )
        self.radon = None

    def setup(self) -> None:
        self.train_items = experiments.build_split(self.cfg, "train")
        self.val_items = experiments.build_split(self.cfg, "val")
        self.test_items = experiments.build_split(self.cfg, "test")
        self.net_cfg = experiments.net_config(self.cfg)
        self.w0 = network.init_weights(self.net_cfg, seed=self.cfg.seed)

    def round(self) -> Round:
        (self.best, _), fit_s = _timed(
            training.train, self.train_items, self.val_items, self.w0, self.net_cfg, self.tcfg
        )
        rows, recon_s = [], []
        for p in self.test_items:
            row, dt = _timed(
                training.evaluate, [p], self.best, self.net_cfg, self.tcfg.mode, self.tcfg.t_test
            )
            rows += row
            recon_s.append(dt)
        return Round(
            fit_s=[fit_s], fit_items=self.tcfg.epochs * len(self.train_items),
            recon_s=recon_s, psnr_db=float(np.mean([r[0] for r in rows])),
        )

    def _recon(self, prob, weights, T):
        return training.reconstruct(
            prob.init_image(), prob.z, prob.A, weights, self.net_cfg, self.tcfg.mode, T
        )

    def check(self, psnr_db: float) -> list[str]:
        """Validation MSE through the plain path must not rise over training;
        the learned reconstructions must beat the noisy input and match the
        reported PSNR."""
        problems = []

        def val_mse(weights) -> float:
            return float(np.mean([
                np.mean((self._recon(p, weights, self.tcfg.t_train) - p.x_true) ** 2)
                for p in self.val_items
            ]))

        start, end = val_mse(self.w0), val_mse(self.best)
        if not end <= start:
            problems.append(f"validation MSE rose from {start:.6e} to {end:.6e}")
        recs = [self._recon(p, self.best, self.tcfg.t_test) for p in self.test_items]
        truths = [p.x_true for p in self.test_items]
        own = checks.mean_psnr(recs, truths)
        noisy = checks.mean_psnr([p.z for p in self.test_items], truths)
        if not own > noisy:
            problems.append(f"learned PSNR {own:.3f} dB not above the noisy input's {noisy:.3f} dB")
        return problems + checks.check_reported_psnr(psnr_db, recs, truths)


def _pair_field(spatial: float, temporal: float, shape) -> np.ndarray:
    """Weight field of the xy_t sharing mode: (spatial, spatial, temporal)."""
    return np.stack([np.full(shape, spatial), np.full(shape, spatial), np.full(shape, temporal)])


class _ScalarSearch:
    """A round of the grid-search workloads: ``solvers.grid_search_scalar``
    over the train split, one sample per solve, then each test item solved
    with the chosen weight."""

    mode: SharingMode
    grid: object

    def setup(self) -> None:
        self.train_items = experiments.build_split(self.cfg, "train")
        self.test_items = experiments.build_split(self.cfg, "test")

    def weight(self, shape):
        raise NotImplementedError

    def round(self) -> Round:
        with timed_calls(solvers, "solve_problem") as fit_s:
            self.best, _ = solvers.grid_search_scalar(
                self.train_items, self.mode, self.grid, self.T, workers=1
            )
        self.reports, recon_s = [], []
        for p in self.test_items:
            rep, dt = _timed(solvers.solve_problem, p, self.weight(p.z.shape), self.T)
            self.reports.append(rep)
            recon_s.append(dt)
        return Round(
            fit_s=fit_s, fit_items=1, recon_s=recon_s,
            psnr_db=float(np.mean([
                metrics.psnr(r.image, p.x_true) for r, p in zip(self.reports, self.test_items)
            ])),
        )


class GridsearchStretch(_ScalarSearch):
    """Scalar xy_t grid search with PDHG at stretch scale, then the test
    split solved with the chosen pair."""

    name = "gridsearch_stretch"
    SCALES = {
        "full": dict(n=128, nt=8, train=1, test=4, T=256),
        "tiny": dict(n=16, nt=4, train=1, test=1, T=64),
    }
    MAX_GAP = 1e-2
    mode = SharingMode.XY_T
    grid = ((0.05, 0.1), (0.1, 0.2))  # spatial, temporal

    def __init__(self, seed: int, scale: str):
        p = self.SCALES[scale]
        self.T = p["T"]
        self.cfg = ExperimentConfig(
            task="denoise", seed=seed, nx=p["n"], ny=p["n"], nt=p["nt"],
            train_count=p["train"], test_count=p["test"], sigma=0.2, mode="xy_t",
        )
        self.radon = None

    def weight(self, shape):
        return _pair_field(*self.best, shape)

    def check(self, psnr_db: float) -> list[str]:
        """Each test solve must be near-optimal by its own duality gap."""
        problems = []
        for rep, p in zip(self.reports, self.test_items):
            problems += checks.check_denoise_solve(
                rep.image, rep.dual_q, p.z, self.weight(p.z.shape), self.MAX_GAP
            )
        return problems + checks.check_reported_psnr(
            psnr_db, [r.image for r in self.reports], [p.x_true for p in self.test_items]
        )


class CtLowdose(_ScalarSearch):
    """Static low-dose CT with Poisson counts: a scalar grid search with PD3O
    on the train split, then the test split solved with the chosen weight."""

    name = "ct_lowdose"
    SCALES = {
        "full": dict(n=64, angles=90, bins=95, train=2, test=4, T=256, grid=(10.0, 30.0, 100.0)),
        "tiny": dict(n=16, angles=12, bins=23, train=1, test=1, T=64, grid=(10.0, 100.0)),
    }
    mode = SharingMode.XYT

    def __init__(self, seed: int, scale: str):
        p = self.SCALES[scale]
        self.T = p["T"]
        self.grid = p["grid"]
        self.cfg = ExperimentConfig(
            task="ct", seed=seed, nx=p["n"], ny=p["n"], nt=1, angles=p["angles"],
            bins=p["bins"], mu=81.35858, n0=4096.0, train_count=p["train"],
            test_count=p["test"], mode="xyt",
        )

    def setup(self) -> None:
        # A fresh process assembles the system matrix once; clearing the memo
        # makes every repeated set-up pay for it the same way.
        getattr(experiments, "_RADON_MEMO", {}).clear()
        super().setup()
        self.radon = self.train_items[0].A
        self.radon.norm()  # the step-size estimate, cached on the operator

    def weight(self, shape):
        return self.best

    def check(self, psnr_db: float) -> list[str]:
        """Each test solve must be nonnegative and beat FBP on the KL+TV
        objective and on PSNR."""
        problems = []
        mu, n0 = self.cfg.mu, self.cfg.n0
        for rep, p in zip(self.reports, self.test_items):
            problems += checks.check_ct_recon(
                rep.image, p.x0, p.x_true, self.radon.forward(rep.image),
                self.radon.forward(p.x0), p.z, mu, n0, self.best,
            )
        return problems + checks.check_reported_psnr(
            psnr_db, [r.image for r in self.reports], [p.x_true for p in self.test_items]
        )


WORKLOADS = {w.name: w for w in (DenoiseTrain, GridsearchStretch, CtLowdose)}
