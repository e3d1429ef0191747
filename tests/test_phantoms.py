import numpy as np

from tvmap.operators import RadonOp
from tvmap.phantoms import add_gaussian, ct_poisson_log, ellipse_ct, moving_disks
from tvmap.prox import KlParams


def test_disks_stay_inside_frame():
    for seed in range(5):
        video = moving_disks(24, 20, 10, n_disks=4, seed=seed)
        # nothing may touch the outermost pixel ring
        assert np.all(video[:, 0, :] == 0)
        assert np.all(video[:, -1, :] == 0)
        assert np.all(video[:, :, 0] == 0)
        assert np.all(video[:, :, -1] == 0)
        assert video.max() > 0


def test_disks_seeded_reproducible():
    a = moving_disks(16, 16, 4, seed=3)
    b = moving_disks(16, 16, 4, seed=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, moving_disks(16, 16, 4, seed=4))


def test_disks_move():
    video = moving_disks(32, 32, 8, n_disks=2, seed=1)
    assert any(not np.array_equal(video[0], video[t]) for t in range(1, 8))


def test_ellipse_ct_range():
    for seed in range(5):
        img = ellipse_ct(32, seed=seed)
        assert img.shape == (1, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_gaussian_noise_zero_sigma(rng):
    x = rng.standard_normal((2, 4, 4))
    np.testing.assert_array_equal(add_gaussian(x, 0.0, seed=1), x)


def test_gaussian_noise_std_real():
    x = np.zeros(1_000_000)
    noisy = add_gaussian(x, 0.37, seed=2)
    assert abs(np.std(noisy) - 0.37) / 0.37 <= 0.01


def test_gaussian_noise_std_complex():
    x = np.zeros(1_000_000, dtype=complex)
    noisy = add_gaussian(x, 0.25, seed=3, complex_noise=True)
    total = np.sqrt(np.mean(np.abs(noisy) ** 2))
    assert abs(total - 0.25) / 0.25 <= 0.01
    # variance split evenly between parts
    assert abs(np.std(noisy.real) - 0.25 / np.sqrt(2)) / 0.25 <= 0.01


def test_ct_poisson_log_concentrates_with_huge_counts():
    op = RadonOp(16, 12, 23, side=1.0)
    x = ellipse_ct(16, seed=1)
    kl = KlParams(mu=5.0, n0=1e9)
    z = ct_poisson_log(op, x, kl, seed=4)
    ax = op.forward(x)
    scale = max(np.max(np.abs(ax)), 1e-12)
    assert np.max(np.abs(z - ax)) / scale <= 1e-3


def test_ct_poisson_log_zero_count_clamp():
    op = RadonOp(16, 8, 23, side=1.0)
    x = ellipse_ct(16, seed=0) * 50.0  # absurd attenuation forces empty bins
    kl = KlParams(mu=10.0, n0=100.0)
    z = ct_poisson_log(op, x, kl, seed=5)
    cap = -np.log(0.1 / kl.n0) / kl.mu
    assert np.isfinite(z).all()
    assert np.max(z) <= cap + 1e-12
    assert np.any(np.isclose(z, cap))


def test_ct_poisson_log_reproducible():
    op = RadonOp(8, 6, 13, side=1.0)
    x = ellipse_ct(8, seed=2)
    kl = KlParams(mu=3.0, n0=500.0)
    z1 = ct_poisson_log(op, x, kl, seed=6)
    z2 = ct_poisson_log(op, x, kl, seed=6)
    np.testing.assert_array_equal(z1, z2)
