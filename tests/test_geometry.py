import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from reluapprox.conic import box_lsq_batch
from reluapprox.dataset import Dataset, generate_synthetic
from reluapprox.errors import SignViolation, TooLarge, WrongRegime
from reluapprox.geometry import (
    dual_constraint_maximin,
    hausdorff_distance,
    ortho_closed_form,
    zonotope_vertex_max,
)


def test_project_corner():
    B, dist = box_lsq_batch(np.eye(2), np.array([[2.0, 2.0]]))
    assert np.allclose(B[0], [1.0, 1.0])
    assert abs(dist[0] - math.sqrt(2.0)) < 1e-12


def test_project_interior():
    B, dist = box_lsq_batch(np.eye(2), np.array([[0.3, 0.7]]))
    assert dist[0] < 1e-12
    assert np.allclose(B[0], [0.3, 0.7])


def test_project_vs_grid():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    p = np.array([3.0, 0.0])
    dist = box_lsq_batch(A, p[None, :])[1][0]
    grid = np.linspace(0, 1, 51)
    mesh = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
    want = np.linalg.norm(mesh @ A.T - p, axis=1).min()
    assert abs(dist - want) < 1e-3


def test_vertex_max_single_generator():
    val, b = zonotope_vertex_max(np.array([[1.0], [0.0]]))
    assert abs(val - 1.0) < 1e-12
    assert b[0] == 1.0


def test_vertex_max_orthogonal_generators():
    val, b = zonotope_vertex_max(np.eye(2))
    assert abs(val - math.sqrt(2.0)) < 1e-12
    assert np.allclose(b, [1.0, 1.0])


def test_vertex_max_cancelling_generators():
    val, b = zonotope_vertex_max(np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert abs(val - 1.0) < 1e-12
    assert b.sum() == 1.0  # either single generator, never both


def test_vertex_max_no_generators():
    # the box [0,1]^0 has one vertex, the empty one
    val, b = zonotope_vertex_max(np.zeros((2, 0)))
    assert val == 0.0 and b.shape == (0,)


def test_vertex_max_cap():
    with pytest.raises(TooLarge):
        zonotope_vertex_max(np.ones((2, 25)))


def test_vertex_attainment_interior_never_beats_vertices():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.standard_normal((3, 5))
        vmax, _ = zonotope_vertex_max(A)
        samples = rng.random((10000, 5))
        interior = np.linalg.norm(samples @ A.T, axis=1).max()
        assert interior <= vmax + 1e-9


def test_hausdorff_zero_counterpart():
    Ap = np.array([[1.0, 0.3], [0.0, 1.0]])
    report = hausdorff_distance(Ap, np.zeros((2, 0)))
    vmax, b = zonotope_vertex_max(Ap)
    assert abs(report.value - vmax) < 1e-9
    assert np.array_equal(report.b_star, b)  # the forward side's vertex
    assert report.backward == 0.0  # the empty zonotope's one vertex is the origin


def test_hausdorff_identical_sets():
    A = np.array([[1.0, 0.5], [0.2, -0.4]])
    assert hausdorff_distance(A, A).value < 1e-8


def test_hausdorff_vs_grid_oracle():
    rng = np.random.default_rng(7)
    steps = np.linspace(0, 1, 21)
    for _ in range(3):
        Ap = rng.standard_normal((2, 3))
        Am = rng.standard_normal((2, 3))
        val = hausdorff_distance(Ap, Am).value
        mesh = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), -1).reshape(-1, 3)
        Pp = mesh @ Ap.T
        Pm = mesh @ Am.T
        # exact nearest grid neighbours, both ways, by k-d tree
        grid_val = max(cKDTree(Pm).query(Pp)[0].max(), cKDTree(Pp).query(Pm)[0].max())
        # the grid's inner min overestimates the true min, so the grid value
        # sits just above the exact Hausdorff distance
        assert val <= grid_val + 1e-9
        assert val >= grid_val - 0.3


def test_triangle_inequality_vs_origin():
    rng = np.random.default_rng(11)
    for _ in range(10):
        Ap = rng.standard_normal((2, 4))
        Am = rng.standard_normal((2, 4))
        h = hausdorff_distance(Ap, Am).value
        hp, _ = zonotope_vertex_max(Ap)
        hm, _ = zonotope_vertex_max(Am)
        assert h >= abs(hp - hm) - 1e-9


def test_maximin_sign_convention_fixture():
    # the 1-D fixture pins the lam_minus sign convention: value equals the
    # direct maximization of |lam'(Xu)_+| over u in {-1, 1}
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    lam = np.array([1.0, -1.0])
    report = dual_constraint_maximin(ds, lam)
    assert abs(report.value - 1.0) < 1e-12
    assert abs(report.forward - 1.0) < 1e-12
    assert abs(report.backward - 1.0) < 1e-12


def test_maximin_zero_dual():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    report = dual_constraint_maximin(ds, np.zeros(2))
    assert report.value == 0.0


def test_maximin_single_class_equals_vertex_max():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 2))
    ds = Dataset(X, np.ones(6, dtype=int))
    lam = rng.random(6)
    report = dual_constraint_maximin(ds, lam)
    vmax, _ = zonotope_vertex_max(X.T * lam[None, :])
    assert abs(report.value - vmax) < 1e-10


def test_maximin_sign_violation():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    with pytest.raises(SignViolation):
        dual_constraint_maximin(ds, np.array([1.0, 1.0]))


def test_maximin_vs_direct_sphere_sampling():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        lam = rng.random(n) * y
        val = dual_constraint_maximin(ds, lam).value
        u = rng.standard_normal((200000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        direct = np.abs(np.maximum(X @ u.T, 0.0).T @ lam).max()
        assert val >= direct - 1e-9
        assert val <= direct + 0.05 * (1 + val)  # sampling slack


def test_ortho_closed_form_fixture():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    fwd, bwd = ortho_closed_form(ds, np.array([1.0, -1.0]))
    assert abs(fwd - 1.0) < 1e-12 and abs(bwd - 1.0) < 1e-12


def test_ortho_closed_form_zero_block():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    fwd, bwd = ortho_closed_form(ds, np.array([0.0, -1.0]))
    assert fwd == 0.0 and abs(bwd - 1.0) < 1e-12


def test_ortho_closed_form_wrong_regime():
    ds = Dataset([[1.0, 0.0], [0.5, 0.866]], [1, -1])
    with pytest.raises(WrongRegime):
        ortho_closed_form(ds, np.array([1.0, -1.0]))


def test_ortho_closed_form_matches_enumeration():
    rng = np.random.default_rng(13)
    for seed in range(8):
        ds = generate_synthetic("orthogonal_separable", 8, 3, seed)
        lam_signed = rng.random(ds.n) * ds.y
        fwd, bwd = ortho_closed_form(ds, lam_signed)
        report = dual_constraint_maximin(ds, lam_signed)
        assert abs(fwd - report.forward) < 1e-8
        assert abs(bwd - report.backward) < 1e-8
