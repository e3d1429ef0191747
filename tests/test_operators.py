import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from tvmap import operators
from tvmap.errors import ConvergenceError
from tvmap.operators import (
    IdentityOp,
    LinearOperator,
    MriEncoder,
    RadonOp,
    cg_normal_init,
    fbp,
    make_cartesian_mask,
    op_norm,
    synth_coil_maps,
)
from tvmap.metrics import nrmse

from oracles import GradOp, radon_matrix_summed


class DiagOp(LinearOperator):
    def __init__(self, diag):
        super().__init__(diag.shape, diag.shape)
        self.diag = diag

    def forward(self, x):
        return self.diag * x

    def adjoint(self, y):
        return self.diag * y


class LineDiffOp(LinearOperator):
    """1-d forward difference with a zero trailing row, assembled by hand."""

    def __init__(self, n):
        super().__init__((n,), (n,))
        self.n = n

    def forward(self, x):
        out = np.zeros_like(x)
        out[:-1] = x[1:] - x[:-1]
        return out

    def adjoint(self, y):
        out = np.zeros_like(y)
        out[:-1] -= y[:-1]
        out[1:] += y[:-1]
        return out


def _random_probe_pair(op, rng, complex_domain):
    x = rng.standard_normal(op.domain_shape)
    if complex_domain:
        x = x + 1j * rng.standard_normal(op.domain_shape)
    y = op.forward(x)
    g = rng.standard_normal(np.shape(y))
    if np.iscomplexobj(y):
        g = g + 1j * rng.standard_normal(np.shape(y))
    return x, g


def assert_adjoint_contract(op, rng, complex_domain=False, probes=100, rel=1e-10):
    for _ in range(probes):
        x, g = _random_probe_pair(op, rng, complex_domain)
        lhs = np.vdot(g, op.forward(x))
        rhs = np.vdot(op.adjoint(g), x)
        scale = np.linalg.norm(np.ravel(x)) * np.linalg.norm(np.ravel(g))
        assert abs(lhs - rhs) <= rel * scale


def small_mri(rng, n=8, nt=2, nc=3, R=2.0, seed=5):
    coils = synth_coil_maps(n, n, nc)
    masks = make_cartesian_mask(n, n, nt, R, seed=seed)
    return MriEncoder(coils, masks)


def test_identity_op():
    op = IdentityOp((1, 4, 4))
    x = np.arange(16.0).reshape(1, 4, 4)
    np.testing.assert_array_equal(op.forward(x), x)
    np.testing.assert_array_equal(op.adjoint(x), x)
    assert op.norm() == 1.0


def test_adjoint_contract_identity(rng):
    assert_adjoint_contract(IdentityOp((2, 4, 4)), rng)


def test_adjoint_contract_gradop(rng):
    assert_adjoint_contract(GradOp((3, 5, 4)), rng)


def test_adjoint_contract_mri(rng):
    assert_adjoint_contract(small_mri(rng), rng, complex_domain=True)


def test_adjoint_contract_mri_r4(rng):
    enc = small_mri(rng, n=16, nt=3, nc=4, R=4.0)
    assert_adjoint_contract(enc, rng, complex_domain=True)


# odd and even angle counts, with orbits of one, two and four angles
ORBIT_ANGLE_COUNTS = (1, 2, 3, 4, 7, 10, 12)


def test_adjoint_contract_radon(rng):
    ops = [RadonOp(12, 10, 18, side=1.0)]
    ops += [RadonOp(9, n_angles, 11, side=1.0) for n_angles in ORBIT_ANGLE_COUNTS]
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.domain_shape)
            y = rng.standard_normal(op.codomain_shape)
            lhs = np.sum(op.forward(x) * y)
            rhs = np.sum(x * op.adjoint(y))
            scale = np.linalg.norm(x.ravel()) * np.linalg.norm(y.ravel())
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_mri_unitary_when_fully_sampled(rng):
    n = 8
    coils = np.ones((1, n, n), dtype=complex)
    masks = np.ones((2, n, n))
    enc = MriEncoder(coils, masks)
    x = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    back = enc.adjoint(enc.forward(x))
    assert np.max(np.abs(back - x)) <= 1e-12


def test_mri_impulse_is_flat_plane():
    n = 8
    enc = MriEncoder(np.ones((1, n, n), dtype=complex), np.ones((1, n, n)))
    x = np.zeros((1, n, n), dtype=complex)
    x[0, n // 2, n // 2] = 1.0
    k = enc.forward(x)
    np.testing.assert_allclose(np.abs(k), 1.0 / n, atol=1e-12)


def test_mri_shape_mismatch(rng):
    enc = small_mri(rng)
    with pytest.raises(ValueError):
        enc.forward(np.zeros((2, 4, 4), dtype=complex))
    with pytest.raises(ValueError):
        MriEncoder(np.ones((1, 4, 4), dtype=complex) * 2.0, np.ones((1, 4, 4)))


def test_mri_mask_must_be_zero_one():
    masks = np.ones((1, 4, 4))
    masks[0, 1, 2] = 2.0
    with pytest.raises(ValueError):
        MriEncoder(np.ones((1, 4, 4), dtype=complex), masks)


def test_mri_norm_bound_holds(rng):
    # the analytic bound |A| <= 1 needs no power iteration
    enc = small_mri(rng, n=16, nt=3, nc=4, R=4.0)
    assert enc.norm() == 1.0
    for _ in range(20):
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        assert np.linalg.norm(enc.forward(x)) <= np.linalg.norm(x) * (1.0 + 1e-12)


def test_op_norm_identity():
    assert op_norm(IdentityOp((1, 4, 4))) == pytest.approx(1.0, rel=1e-6)


def test_op_norm_diagonal(rng):
    op = DiagOp(np.array([1.0, 3.0]))
    assert op_norm(op) == pytest.approx(3.0, rel=1e-6)


def test_op_norm_line_difference():
    n = 64
    expected = 2.0 * abs(np.sin((n - 1) * np.pi / (2 * n)))
    assert op_norm(LineDiffOp(n)) == pytest.approx(expected, rel=1e-4)


def test_op_norm_rayleigh_lower_bound(rng):
    op = GradOp((2, 6, 5))
    est = op_norm(op)
    for _ in range(50):
        x = rng.standard_normal((2, 6, 5))
        rq = np.sum(op.adjoint(op.forward(x)) * x) / np.sum(x * x)
        assert est**2 >= rq - 1e-6 * abs(rq)


def test_op_norm_nonconvergence_carries_estimate(monkeypatch):
    monkeypatch.setattr(operators, "OP_NORM_TOL", 1e-14)
    monkeypatch.setattr(operators, "OP_NORM_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        op_norm(LineDiffOp(64))
    assert exc.value.estimate is not None
    assert 0.0 < exc.value.estimate <= 2.0


def test_radon_zero_image():
    op = RadonOp(8, 4, 12)
    assert np.all(op.forward(np.zeros((1, 8, 8))) == 0)


def test_radon_forward_takes_only_the_domain_shape():
    # a static image is (1, n, n), as for every operator; (n, n) is refused
    op = RadonOp(8, 4, 12)
    with pytest.raises(ValueError, match=re.escape("image shape (8, 8) != (1, 8, 8)")):
        op.forward(np.zeros((8, 8)))


def test_radon_disk_profiles_match_under_grid_symmetry():
    n = 32
    op = RadonOp(n, 2, 47, side=1.0)  # angles 0 and pi/2
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r2 = ((gx - (n - 1) / 2) ** 2 + (gy - (n - 1) / 2) ** 2)
    disk = (r2 <= (n / 4) ** 2).astype(float)[None]
    sino = op.forward(disk)
    dev = np.max(np.abs(sino[0] - sino[1]))
    assert dev <= 1e-6 * max(np.max(np.abs(sino)), 1e-300)


def _held_bytes(op):
    """Bytes of every array the operator holds: sparse matrices, index maps."""
    arrays = []
    for value in vars(op).values():
        if sparse.issparse(value):
            arrays += [value.data, value.indices, value.indptr]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, list):
            arrays += [a for entry in value for a in entry]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("n, n_angles, n_bins", [
    (9, 7, 9), (12, 10, 17), (16, 2, 23), *((9, k, 11) for k in ORBIT_ANGLE_COUNTS)])
def test_radon_matrix_matches_summed_assembly(n, n_angles, n_bins):
    # the dense action, forward on every unit image, against the full matrix;
    # the stored rows of one angle per orbit move at round-off only
    op = RadonOp(n, n_angles, n_bins)
    want = radon_matrix_summed(op).toarray()
    units = np.eye(n * n).reshape((n * n,) + op.domain_shape)
    got = np.stack([op.forward(e).ravel() for e in units], axis=1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_radon_holds_a_quarter_of_the_full_matrix_pair():
    # desk geometry: 23 of 90 angles are stored, with their transpose
    op = RadonOp(64, 90, 95, side=0.26)
    full = radon_matrix_summed(op)
    pair = sum(a.nbytes for m in (full, full.T.tocsr()) for a in (m.data, m.indices, m.indptr))
    assert _held_bytes(op) <= 0.3 * pair


def test_radon_assembly_peak_memory_near_held_matrices():
    tracemalloc.start()
    try:
        op = RadonOp(32, 45, 47)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _held_bytes(op)


def test_fbp_zero_sinogram():
    op = RadonOp(16, 12, 24)
    assert np.all(fbp(op, np.zeros(op.codomain_shape)) == 0)


def _blob(n, cx, cy, width):
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-(((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * width**2)))[None]


def test_fbp_blob_peak_location_and_value():
    n = 64
    op = RadonOp(n, 180, 95, side=1.0)
    x = _blob(n, 40.0, 25.0, 4.0)
    rec = fbp(op, op.forward(x))
    peak_idx = np.unravel_index(np.argmax(rec[0]), (n, n))
    assert peak_idx == (40, 25)
    assert abs(rec[0][peak_idx] - 1.0) <= 0.1


def test_fbp_disk_regression():
    # 128 bins over the diagonal; the desk default of 95 bins lands at 0.153
    # (detector resolution bound), well above the blur of the filter itself.
    n = 64
    op = RadonOp(n, 180, 128, side=1.0)
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r2 = (gx - (n - 1) / 2) ** 2 + (gy - (n - 1) / 2) ** 2
    disk = (r2 <= (n / 4) ** 2).astype(float)[None]
    rec = fbp(op, op.forward(disk))
    assert nrmse(rec, disk) <= 0.15


def test_cg_identity_one_iteration(rng):
    op = IdentityOp((1, 4, 4))
    z = rng.standard_normal((1, 4, 4))
    np.testing.assert_allclose(cg_normal_init(op, z, 1), z, atol=1e-14)


def test_cg_zero_iters_returns_adjoint(rng):
    enc = small_mri(rng)
    z = enc.forward(rng.standard_normal(enc.domain_shape) + 0j)
    np.testing.assert_array_equal(cg_normal_init(enc, z, 0), enc.adjoint(z))


def test_cg_unitary_mri_recovers_truth(rng):
    n = 8
    enc = MriEncoder(np.ones((1, n, n), dtype=complex), np.ones((1, n, n)))
    x_true = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
    z = enc.forward(x_true)
    rec = cg_normal_init(enc, z, 2)
    assert np.max(np.abs(rec - x_true)) <= 1e-8


def test_mask_full_sampling():
    masks = make_cartesian_mask(8, 8, 3, R=1.0, seed=0)
    assert np.all(masks == 1.0)


def test_mask_r4_row_count():
    masks = make_cartesian_mask(16, 32, 6, R=4.0, seed=3)
    for t in range(6):
        rows = int(masks[t, 0, :].sum())
        assert abs(rows - 8) <= 1
        # full ky lines: identical along the frequency-encode axis
        assert np.all(masks[t] == masks[t, :1, :])


def test_mask_frames_differ():
    masks = make_cartesian_mask(8, 32, 4, R=4.0, seed=9)
    assert not np.all(masks[0] == masks[1])


def test_mask_seeded_reproducible():
    a = make_cartesian_mask(8, 16, 2, R=2.0, seed=7)
    b = make_cartesian_mask(8, 16, 2, R=2.0, seed=7)
    np.testing.assert_array_equal(a, b)


def test_coil_maps_normalized():
    maps = synth_coil_maps(12, 10, 4)
    sos = np.sum(np.abs(maps) ** 2, axis=0)
    np.testing.assert_allclose(sos, 1.0, atol=1e-12)
