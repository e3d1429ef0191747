import numpy as np
import pytest

from tvmap import certificates
from tvmap.certificates import (dense_matrix, desk_lipschitz_worst, desk_rate_certificate,
                                lipschitz_probe, rate_certificate)
from tvmap.cli import main
from tvmap.errors import ConvergenceError
from tvmap.solvers import StepParams
from tvmap.tensors import constant_map, grad, ndirs


def test_dense_matrix_matches_gradient(rng):
    shape = (1, 3, 3)
    g_mat = dense_matrix(lambda v: grad(v), shape, ndirs(shape) * 9)
    x = rng.standard_normal(shape)
    np.testing.assert_allclose(g_mat @ x.ravel(), grad(x).ravel(), atol=1e-14)


def test_rate_certificate_four_by_four(rng):
    shape = (1, 4, 4)
    z = rng.standard_normal(shape)
    lam = constant_map(0.3, shape)
    cert = rate_certificate(z, lam, T_list=[1, 4, 16, 64, 256])
    assert cert.holds()
    assert cert.c_lower > 0 and cert.c_upper > cert.c_lower
    # measured error shrinks from the smallest to the largest T
    assert cert.entries[-1][1] <= cert.entries[0][1] + 1e-12


def test_rate_certificate_constant_regime():
    # with A = I, mu_z = L_z = 1 and a tiny weight field, the constant
    # collapses to max(C, 2)
    shape = (1, 3, 3)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(shape)
    cert = rate_certificate(z, constant_map(1e-9, shape), T_list=[4])
    assert 4.0 * cert.c_upper * cert.lam_bar <= 1.0
    assert cert.c_za == pytest.approx(max(cert.c_upper, 2.0))


def test_rate_certificate_rejects_indefinite_m(rng):
    shape = (1, 3, 3)
    z = rng.standard_normal(shape)
    with pytest.raises(ValueError):
        rate_certificate(z, constant_map(0.3, shape), T_list=[2],
                         step=StepParams(sigma=5.0, tau=5.0))


def test_lipschitz_probe_equal_weights(rng):
    shape = (1, 8, 1)
    z = rng.standard_normal(shape)
    lam = constant_map(0.2, shape)
    lhs, rhs = lipschitz_probe(z, lam, lam.copy())
    assert lhs <= 1e-9
    assert rhs == 0.0 or rhs >= lhs


def test_lipschitz_probe_random_pairs(rng):
    shape = (1, 8, 1)
    z = rng.standard_normal(shape)
    for _ in range(10):
        lam1 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lam2 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lhs, rhs = lipschitz_probe(z, lam1, lam2)
        assert lhs <= rhs


def test_lipschitz_probe_scaled_pair(rng):
    shape = (1, 8, 1)
    z = rng.standard_normal(shape)
    lam1 = np.abs(rng.standard_normal((2,) + shape)) * 0.3 + 0.05
    lhs, rhs = lipschitz_probe(z, lam1, 2.0 * lam1)
    assert lhs <= rhs


def test_desk_certificate_figures():
    # the figures `tvmap certify --rate --lipschitz` prints at --seed 0; rel
    # 1e-9 leaves room for the last bits of another LAPACK build
    rng = np.random.default_rng(0)
    cert = desk_rate_certificate(rng)
    assert cert.c_lower == pytest.approx(0.5579235588755108, rel=1e-9)
    assert cert.c_upper == pytest.approx(2.430461684826968, rel=1e-9)
    assert cert.c_za == pytest.approx(16.49852101205021, rel=1e-9)
    assert cert.m_norm_gap == pytest.approx(4.656756687074181, rel=1e-9)
    assert desk_lipschitz_worst(rng, 100) == pytest.approx(0.2311995877403809, rel=1e-9)


def test_unconverged_reference_is_convergence_error(rng, monkeypatch, tmp_path, capsys):
    # a reference solve cut at 50 iterations stands for no limit point
    monkeypatch.setattr(certificates, "REF_T_MAX", 50)
    shape = (1, 8, 1)
    z = rng.standard_normal(shape)
    with pytest.raises(ConvergenceError, match="in 50 iterations"):
        rate_certificate(z, constant_map(0.3, shape), T_list=[2])
    lam = constant_map(0.2, shape)
    with pytest.raises(ConvergenceError, match="relative step of"):
        lipschitz_probe(z, lam, 2.0 * lam)
    assert main(["certify", "--rate", "--out", str(tmp_path)]) == 3
    assert "reference solve" in capsys.readouterr().err
