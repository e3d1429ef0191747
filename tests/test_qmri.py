import numpy as np
import pytest

from tvmap import qmri
from tvmap.phantoms import add_gaussian
from tvmap.qmri import (
    InversionSeries,
    PAPER_INVERSION_TIMES,
    concentric_region_labels,
    fit_t1,
    signal_model,
    synth_qmri_series,
)


def test_signal_model_null_crossing():
    t1 = 0.8
    assert abs(signal_model(1.0, t1, t1 * np.log(2.0))) <= 1e-15


def test_signal_model_limits():
    m0 = 2.0 - 1.0j
    assert signal_model(m0, 1.3, 0.0) == pytest.approx(-m0)
    assert signal_model(m0, 0.5, 50 * 0.5) == pytest.approx(m0, abs=1e-12)


def test_signal_model_validation():
    with pytest.raises(ValueError):
        signal_model(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        signal_model(1.0, 1.0, -1.0)


def test_synth_single_region_follows_curve():
    labels = np.zeros((4, 4), dtype=int)
    series, truth = synth_qmri_series(labels, [(1.5 + 0.5j, 0.9)])
    for i, t in enumerate(series.times):
        expected = signal_model(truth.m0, truth.t1, t)
        np.testing.assert_allclose(series.images[i], expected, atol=1e-14)


def test_synth_zero_crossing_time():
    labels = np.zeros((2, 2), dtype=int)
    series, _ = synth_qmri_series(labels, [(1.0, 1.0)], times=[np.log(2.0)])
    np.testing.assert_allclose(np.abs(series.images[0]), 0.0, atol=1e-14)


def test_synth_noise_reproducible():
    labels = concentric_region_labels(8, 3)
    params = [(0.8, 1.2), (1.0 + 0.2j, 0.7), (0.6, 2.0)]
    # the noisy series the tests fit: the noiseless series plus complex noise
    s1, s2 = (add_gaussian(synth_qmri_series(labels, params)[0].images, 0.05, 11,
                           complex_noise=True) for _ in range(2))
    np.testing.assert_array_equal(s1, s2)


def test_series_validation():
    with pytest.raises(ValueError):
        InversionSeries(times=np.array([0.2, 0.1]), images=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        InversionSeries(times=np.array([0.1]), images=np.zeros((2, 2, 2)))


def test_fit_recovers_noiseless_pixel():
    times = np.array(PAPER_INVERSION_TIMES)
    m0_true, t1_true = 1.0 + 0.0j, 0.8
    images = signal_model(m0_true, t1_true, times[:, None, None] * np.ones((1, 1, 1)))
    fit = fit_t1(InversionSeries(times=times, images=images.reshape(-1, 1, 1)))
    assert abs(fit.t1[0, 0] - t1_true) / t1_true <= 1e-3
    assert abs(fit.m0[0, 0] - m0_true) <= 1e-3


def test_fit_recovers_complex_phase():
    times = np.array(PAPER_INVERSION_TIMES)
    m0_true = np.exp(1j * np.pi / 3)
    images = signal_model(m0_true, 1.1, times[:, None, None] * np.ones((1, 1, 1)))
    fit = fit_t1(InversionSeries(times=times, images=images.reshape(-1, 1, 1)))
    assert abs(np.angle(fit.m0[0, 0]) - np.pi / 3) <= 1e-3


def test_fit_flags_zero_pixels():
    times = np.array(PAPER_INVERSION_TIMES)
    images = np.zeros((times.size, 2, 2), dtype=complex)
    images[:, 0, 0] = signal_model(1.0, 1.0, times)
    fit = fit_t1(InversionSeries(times=times, images=images))
    assert fit.degenerate[1, 1]
    assert not fit.degenerate[0, 0]
    assert fit.t1[1, 1] == 0.05
    assert fit.m0[1, 1] == 0.0


def test_fit_requires_three_times():
    with pytest.raises(ValueError):
        fit_t1(InversionSeries(times=np.array([0.1, 0.2]), images=np.zeros((2, 2, 2))))


def test_roundtrip_identity_within_half_percent(rng):
    labels = concentric_region_labels(12, 4)
    params = [
        (0.9 + 0.1j, 0.11),
        (1.2 - 0.3j, 0.55),
        (0.7 + 0.6j, 1.4),
        (1.0 + 0.0j, 2.9),
    ]
    series, truth = synth_qmri_series(labels, params)
    fit = fit_t1(series)
    rel_t1 = np.abs(fit.t1 - truth.t1) / truth.t1
    assert np.max(rel_t1) <= 5e-3
    assert np.max(np.abs(fit.m0 - truth.m0)) <= 5e-3 * np.max(np.abs(truth.m0))


def test_residual_not_worse_than_grid(rng, monkeypatch):
    monkeypatch.setattr(qmri, "FIT_GRID_SIZE", 24)
    times = np.array(PAPER_INVERSION_TIMES)
    imgs = (rng.standard_normal((times.size, 3, 3))
            + 1j * rng.standard_normal((times.size, 3, 3)))
    series = InversionSeries(times=times, images=imgs)
    fit = fit_t1(series)

    def residual(t1, pix):
        b = 1.0 - 2.0 * np.exp(-times / t1)
        x = series.images[:, pix[0], pix[1]]
        m0 = np.sum(b * x) / np.sum(b * b)
        return np.sum(np.abs(x - m0 * b) ** 2)

    grid = np.exp(np.linspace(np.log(0.05), np.log(6.0), 24))
    for i in range(3):
        for j in range(3):
            final = residual(fit.t1[i, j], (i, j))
            for g in grid:
                assert final <= residual(g, (i, j)) + 1e-12


def test_scaling_equivariance(rng):
    labels = concentric_region_labels(8, 3)
    params = [(0.8, 1.2), (1.0 + 0.2j, 0.7), (0.6, 2.0)]
    series, _ = synth_qmri_series(labels, params)
    alpha = 1.7 * np.exp(1j * 0.4)
    scaled = InversionSeries(times=series.times, images=alpha * series.images)
    f1 = fit_t1(series)
    f2 = fit_t1(scaled)
    np.testing.assert_allclose(f2.t1, f1.t1, rtol=1e-6)
    np.testing.assert_allclose(f2.m0, alpha * f1.m0, rtol=1e-6)
