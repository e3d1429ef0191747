"""Acceptance suite: one test per criterion, each printing its measured
quantities before asserting the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The learned-map study (criteria 6 and 7) trains a
network once in a module fixture; everything is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from oracles import finite_diff_check, rof_denoise_oracle, zero_weights
from tvmap.certificates import lipschitz_probe, rate_certificate
from tvmap.cli import main as cli_main
from tvmap.config import ExperimentConfig, render_sections
from tvmap.experiments import build_split, net_config
from tvmap.metrics import psnr
from tvmap.network import OUTPUT_SCALE, UNetConfig, init_weights, weight_leaves
from tvmap.operators import (
    MriEncoder,
    RadonOp,
    equispaced_angles,
    fbp,
    identity_op,
    make_cartesian_mask,
    synth_coil_maps,
)
from tvmap.phantoms import ct_poisson_log, ellipse_ct
from tvmap.prox import KlParams, kl_value, nonneg_prox
from tvmap.qmri import InversionSeries, concentric_region_labels, fit_t1, synth_qmri_series
from tvmap.solvers import (
    Problem,
    _Pd3o,
    grid_search_scalar,
    solve_problem,
)
from tvmap.tensors import (
    SharingMode,
    constant_map,
    expand_map,
    grad,
    grad_adjoint,
    grad_norm_exact,
    weighted_tv,
)
from tvmap.training import TrainConfig, evaluate, loss_taped, loss_value, reconstruct, train

SEED = 2024


def scalar_field(value, mode, shape):
    chans = np.full((mode.channels,) + tuple(shape), float(value))
    return expand_map(chans, mode)


def pair_field(spatial, temporal, shape):
    chans = np.stack([np.full(shape, float(spatial)), np.full(shape, float(temporal))])
    return expand_map(chans, SharingMode.XY_T)


@pytest.fixture(scope="module")
def denoise_study():
    """24 moving-disk videos (32x32x8, sigma 0.2): scalar grid baselines and
    one trained parameter-map network, shared by criteria 6 and 7."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        task="denoise", seed=SEED, nx=32, ny=32, nt=8,
        train_count=24, val_count=4, test_count=8, sigma=0.2,
        stages=2, filters=8, convs_per_stage=2,
    )
    train_items = build_split(cfg, "train")
    val_items = build_split(cfg, "val")
    test_items = build_split(cfg, "test")
    t_eval = 256

    g_spatial = [0.04, 0.07, 0.12, 0.2, 0.33]
    g_temporal = [0.05, 0.12, 0.25, 0.5]
    lam_xyt, _ = grid_search_scalar(
        train_items, SharingMode.XYT, sorted(set(g_spatial + g_temporal)), t_eval
    )
    lam_pair, _ = grid_search_scalar(
        train_items, SharingMode.XY_T, (g_spatial, g_temporal), t_eval
    )

    ncfg = net_config(cfg)
    tcfg = TrainConfig(
        t_train=64, t_test=t_eval, lr=2e-3, epochs=30, batch_size=4,
        validate_every=2, seed=SEED, mode=SharingMode.XY_T,
    )
    w0 = init_weights(ncfg, seed=SEED)
    weights, history = train(train_items, val_items, w0, ncfg, tcfg)
    return {
        "cfg": cfg,
        "net_cfg": ncfg,
        "train_cfg": tcfg,
        "test_items": test_items,
        "lam_xyt": lam_xyt,
        "lam_pair": lam_pair,
        "weights": weights,
        "t_eval": t_eval,
        "train_seconds": time.perf_counter() - t0,
    }


def _adjoint_defect(forward, adjoint, x, y):
    lhs = np.vdot(y, forward(x))
    rhs = np.vdot(adjoint(y), x)
    scale = np.linalg.norm(np.ravel(x)) * np.linalg.norm(np.ravel(y))
    return abs(lhs - rhs) / scale


def test_criterion_01_adjoint_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    shape = (2, 12, 10)
    for _ in range(100):
        x = rng.standard_normal(shape)
        y = rng.standard_normal((3,) + shape)
        worst = max(worst, _adjoint_defect(grad, grad_adjoint, x, y))
    enc = MriEncoder(
        synth_coil_maps(16, 16, 4), make_cartesian_mask(16, 16, 3, 4.0, seed=1)
    )
    for _ in range(100):
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = rng.standard_normal(enc.codomain_shape) + 1j * rng.standard_normal(enc.codomain_shape)
        worst = max(worst, _adjoint_defect(enc.forward, enc.adjoint, x, y))
    radon = RadonOp(24, equispaced_angles(30), 35, side=1.0)
    for _ in range(100):
        x = rng.standard_normal(radon.domain_shape)
        y = rng.standard_normal(radon.codomain_shape)
        worst = max(worst, _adjoint_defect(radon.forward, radon.adjoint, x, y))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 1: worst adjoint defect {worst:.3e} (limit 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_rof_oracle():
    t0 = time.perf_counter()
    A = identity_op((1, 2, 1))
    z = np.array([0.0, 2.0]).reshape(1, 2, 1)
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.5, T=5000)
    err2 = float(np.max(np.abs(rep.image.ravel() - [0.5, 1.5])))
    rng = np.random.default_rng(SEED + 1)
    A8 = identity_op((1, 8, 1))
    err8 = 0.0
    for _ in range(5):
        z8 = rng.standard_normal((1, 8, 1))
        lam = float(rng.uniform(0.1, 0.5))
        x_star = rof_denoise_oracle(z8, lam)
        rep8 = solve_problem(Problem(A=A8, z=z8, x0=z8.copy()), lam, T=20000)
        err8 = max(err8, float(np.max(np.abs(rep8.image - x_star))))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 2: closed-form err {err2:.2e} (limit 1e-6), "
          f"oracle err {err8:.2e} (limit 1e-5), {elapsed:.1f}s")
    assert err2 <= 1e-6
    assert err8 <= 1e-5
    assert elapsed < 30.0


def test_criterion_03_rate_certificate():
    t0 = time.perf_counter()
    shape = (1, 4, 4)
    A = identity_op(shape)
    z = np.random.default_rng(SEED + 2).standard_normal(shape)
    cert = rate_certificate(
        A, z, constant_map(0.3, shape), z.copy(), T_list=[2**k for k in range(11)]
    )
    margin = min(b / max(m, 1e-300) for _, m, b in cert.entries)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 3: bound holds for T=1..1024, min bound/measured "
          f"{margin:.2e}, {elapsed:.1f}s")
    assert cert.holds()
    assert elapsed < 60.0


def test_criterion_04_lipschitz_probe():
    t0 = time.perf_counter()
    shape = (1, 8, 1)
    A = identity_op(shape)
    rng = np.random.default_rng(SEED + 3)
    z = rng.standard_normal(shape)
    worst = 0.0
    for _ in range(100):
        lam1 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lam2 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lhs, rhs = lipschitz_probe(A, z, lam1, lam2)
        worst = max(worst, lhs / rhs)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 4: 100 pairs all within bound, worst lhs/rhs "
          f"{worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1.0
    assert elapsed < 120.0


def test_criterion_05_gradient_check():
    t0 = time.perf_counter()
    shape = (1, 8, 8)
    ncfg = UNetConfig(rank=2, stages=2, convs_per_stage=1, base_filters=2,
                      out_channels=1, in_channels=1)
    tcfg = TrainConfig(t_train=4, mode=SharingMode.XYT)
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    coords = 0
    for seed in range(10):
        x_true = np.zeros(shape)
        x_true[0, 2:6, 2:6] = 1.0
        z = x_true + 0.2 * rng.standard_normal(shape)
        prob = Problem(A=identity_op(shape), z=z, x_true=x_true, x0=z)
        w = init_weights(ncfg, seed=seed)
        arrays = []
        for k, b in zip(w.kernels, w.biases):
            arrays.extend([k, b])

        def build(tape, leaves):
            wv = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(leaves) // 2)]
            return loss_taped(tape, prob, wv, ncfg, tcfg)

        worst = max(worst, finite_diff_check(build, arrays, trials=6, seed=seed))
        coords += 6
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 5: max relative FD error {worst:.3e} over {coords} "
          f"coordinates, 10 seeds (limit 1e-5), {elapsed:.1f}s")
    assert coords >= 50
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_criterion_06_gamma_consistency(denoise_study):
    t0 = time.perf_counter()
    s = denoise_study
    items = s["test_items"]
    ref = loss_value(items, s["weights"], s["net_cfg"], s["train_cfg"], T=10000)
    gaps = []
    for T in (8, 16, 32, 64, 128):
        lt = loss_value(items, s["weights"], s["net_cfg"], s["train_cfg"], T=T)
        gaps.append(abs(lt - ref))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 6: gaps over T=8..128: "
          f"{['%.3e' % g for g in gaps]} (slack 1e-6), {elapsed:.1f}s")
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-6
    assert elapsed < 600.0


def test_criterion_07_learned_map_ordering(denoise_study):
    s = denoise_study
    items = s["test_items"]
    t_eval = s["t_eval"]

    def mean_psnr_with(lam_field_fn):
        vals = []
        for prob in items:
            lam = lam_field_fn(prob.init_image().shape)
            rep = solve_problem(prob, lam, t_eval)
            vals.append(psnr(rep.image, prob.x_true))
        return float(np.mean(vals))

    p_xyt = mean_psnr_with(lambda sh: scalar_field(s["lam_xyt"], SharingMode.XYT, sh))
    p_pair = mean_psnr_with(lambda sh: pair_field(*s["lam_pair"], sh))
    rows = evaluate(items, s["weights"], s["net_cfg"], SharingMode.XY_T, t_eval)
    p_net = float(np.mean([r[0] for r in rows]))
    print(f"\ncriterion 7: learned {p_net:.3f} dB vs scalar {p_xyt:.3f} dB "
          f"(need +0.3) and pair {p_pair:.3f} dB (need >=), "
          f"study time {s['train_seconds']:.0f}s (limit 1800s)")
    assert s["train_seconds"] < 1800.0
    assert p_net >= p_xyt + 0.3
    assert p_net >= p_pair


def test_criterion_08_ct_solver():
    t0 = time.perf_counter()
    n = 64
    op = RadonOp(n, equispaced_angles(90), 95, side=0.26)
    kl = KlParams(mu=81.35858, n0=4096.0)
    x_true = ellipse_ct(n, seed=5)
    z = ct_poisson_log(op, x_true, kl, seed=7)
    x0 = fbp(op, z)
    prob = Problem(A=op, z=z, x_true=x_true, x0=x0, kl=kl)

    unreg = solve_problem(prob, 1e-8, 1024)
    p_unreg = psnr(unreg.image, x_true)
    best, _ = grid_search_scalar([prob], SharingMode.XYT, [10.0, 30.0, 50.0, 100.0, 300.0], 1024)
    rep = solve_problem(prob, best, 1024)
    p_best = psnr(rep.image, x_true)

    def objective(img):
        return kl_value(op.forward(img), z, kl) + weighted_tv(img, best)

    ref = solve_problem(prob, best, 20000)
    rel_gap = abs(objective(rep.image) - objective(ref.image)) / abs(objective(ref.image))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 8: objective rel gap {rel_gap:.3e} (limit 1e-4), "
          f"min {rep.image.min()}, best lam {best} gains "
          f"{p_best - p_unreg:.2f} dB (need >= 1), {elapsed:.0f}s")
    assert rel_gap <= 1e-4
    assert np.min(rep.image) >= 0.0
    assert np.min(unreg.image) >= 0.0
    assert p_best >= p_unreg + 1.0
    assert elapsed < 600.0


def test_criterion_09_qmri_roundtrip():
    t0 = time.perf_counter()
    labels = concentric_region_labels(24, 4)
    tissues = [
        (0.95 + 0.05j, 0.4),
        (0.85 + 0.1j, 0.8),
        (1.0 - 0.15j, 1.4),
        (0.7 + 0.3j, 2.6),
    ]
    series, truth = synth_qmri_series(labels, tissues)
    fit = fit_t1(series)
    rel = (fit.t1 - truth.t1) / truth.t1
    rel_rmse = float(np.sqrt(np.mean(rel**2)))

    noisy, _ = synth_qmri_series(labels, tissues, noise_sigma=0.02, seed=SEED)
    fit_n = fit_t1(noisy)
    rel_n = (fit_n.t1 - truth.t1) / truth.t1
    rel_rmse_n = float(np.sqrt(np.mean(rel_n**2)))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 9: noiseless T1 rel RMSE {rel_rmse:.2e} (limit 5e-3), "
          f"sigma=0.02 rel RMSE {rel_rmse_n:.2e} (limit 5e-2), {elapsed:.1f}s")
    assert rel_rmse <= 5e-3
    assert rel_rmse_n <= 5e-2
    assert elapsed < 120.0


def test_criterion_10_reduction_identities():
    # (a) zero network weights reduce the learned pipeline to the scalar solver
    rng = np.random.default_rng(SEED + 5)
    shape = (4, 8, 8)
    x_true = np.zeros(shape)
    x_true[:, 2:6, 2:6] = 1.0
    z = x_true + 0.2 * rng.standard_normal(shape)
    A = identity_op(shape)
    ncfg = UNetConfig(rank=3, stages=2, convs_per_stage=2, base_filters=4,
                      out_channels=2, in_channels=1)
    w = zero_weights(ncfg)
    lam_scalar = OUTPUT_SCALE * np.log(2.0)
    learned = reconstruct(z, z, A, w, ncfg, SharingMode.XY_T, 64)
    plain = solve_problem(Problem(A=A, z=z, x0=z.copy()), lam_scalar, 64)
    identical = np.array_equal(learned, plain.image)

    # (b) the gradient-step-free three-operator scheme equals the primal-dual
    # iteration with a nonnegativity prox, state by state
    shape4 = (1, 4, 1)
    x0 = np.abs(np.random.default_rng(SEED + 6).standard_normal(shape4)) + 0.1
    lam = constant_map(0.3, shape4)
    gn = grad_norm_exact(shape4)
    sigma = tau = 1.0 / gn
    it = _Pd3o(None, None, lam, None, x0, steps=(sigma, tau))
    x = x0.copy()
    xbar = x0.copy()
    q = np.zeros_like(grad(x0))
    max_dev = 0.0
    for k in range(12):
        q = np.clip(q + sigma * grad(xbar), -lam, lam)
        x_new = nonneg_prox(x - tau * grad_adjoint(q))
        xbar = x_new + 1.0 * (x_new - x)
        it.step()
        p_s, xb_s, q_s = it.image, it.xbar, it.sigma * it.r
        max_dev = max(
            max_dev,
            float(np.max(np.abs(p_s - x_new))),
            float(np.max(np.abs(xb_s - xbar))),
            float(np.max(np.abs(q_s - q))),
        )
        x = x_new
    print(f"\ncriterion 10: zero-weight reduction bit-identical: {identical}; "
          f"three-operator reduction max state deviation {max_dev:.2e}")
    assert identical
    assert max_dev <= 1e-13


def test_criterion_11_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for attempt in range(2):
        root = tmp_path / f"run{attempt}"
        root.mkdir()
        cfg = ExperimentConfig(
            task="denoise", seed=SEED, outdir=str(root / "out"),
            nx=8, ny=8, nt=4, train_count=3, val_count=1, test_count=2,
            sigma=0.2, t_train=4, epochs=2, batch=2, validate_every=1,
            stages=2, filters=2, convs_per_stage=1, lr=1e-2,
        )
        path = root / "exp.cfg"
        path.write_text(render_sections(cfg.to_sections()))
        assert cli_main(["gen", "--config", str(path)]) == 0
        assert cli_main(["train", "--config", str(path)]) == 0
        ckpt = root / "out" / "checkpoint"
        assert cli_main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                         "--t-test", "4,8"]) == 0
        outputs.append((root / "out" / "eval" / "metrics.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 11: two gen->train->eval pipelines byte-identical: "
          f"{identical}, {elapsed:.1f}s")
    assert identical
