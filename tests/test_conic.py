import math

import numpy as np
import pytest

from reluapprox.conic import (
    EllipsoidConfig,
    MinSumNormsProblem,
    box_constrained_least_squares,
    box_lsq_batch,
    ellipsoid_maximize,
    project_polyhedral_cone,
    solve_min_sum_norms,
)
from reluapprox.dataset import LossModel
from reluapprox.errors import Infeasible, IterationExhausted


def grid_box_lsq(A, p, steps=51):
    """Brute-force oracle: dense grid over the box."""
    m = A.shape[1]
    axes = [np.linspace(0.0, 1.0, steps)] * m
    best = math.inf
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    vals = np.linalg.norm(mesh @ A.T - p, axis=1)
    return float(vals.min())


def test_bcls_clamps_to_corner():
    b, dist = box_constrained_least_squares(np.eye(2), np.array([2.0, 2.0]))
    assert np.allclose(b, [1.0, 1.0])
    assert abs(dist - math.sqrt(2)) < 1e-12


def test_bcls_interior_point():
    b, dist = box_constrained_least_squares(np.eye(2), np.array([0.3, 0.7]))
    assert np.allclose(b, [0.3, 0.7])
    assert dist < 1e-12


def test_bcls_matches_grid_oracle():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    p = np.array([3.0, 0.0])
    _, dist = box_constrained_least_squares(A, p)
    assert abs(dist - grid_box_lsq(A, p)) < 1e-3


def test_bcls_random_vs_grid():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        p = rng.standard_normal(2) * 2
        _, dist = box_constrained_least_squares(A, p)
        assert dist <= grid_box_lsq(A, p) + 1e-3


def test_bcls_batch_consistent():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 4))
    P = rng.standard_normal((6, 3))
    B, dists = box_lsq_batch(A, P)
    for i in range(6):
        _, d1 = box_constrained_least_squares(A, P[i])
        assert abs(d1 - dists[i]) < 1e-9


def test_cone_projection_against_sampling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        rows = rng.standard_normal((n, d))
        v = rng.standard_normal(d) * 2
        proj = project_polyhedral_cone(v, rows)
        assert np.all(rows @ proj >= -1e-9)
        # projection norm equals the cone-restricted support value
        u = rng.standard_normal((50000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ok = np.all(u @ rows.T >= 0, axis=1)
        if ok.any():
            direct = float((u[ok] @ v).max())
            assert np.linalg.norm(proj) >= direct - 1e-6


# --- min-sum-of-norms ------------------------------------------------------


def test_msn_single_active_constraint():
    prob = MinSumNormsProblem.from_masks(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    res = solve_min_sum_norms(prob)
    assert abs(res.value - 1.0) < 1e-8
    assert np.allclose(res.blocks, [[1.0, 0.0]], atol=1e-7)


def test_msn_two_blocks_hand_value():
    X = np.array([[1.0], [-1.0]])
    prob = MinSumNormsProblem.from_masks(X, np.array([[1.0, 0.0], [0.0, 1.0]]))
    res = solve_min_sum_norms(prob)
    assert abs(res.value - 2.0) < 1e-8
    assert abs(res.blocks[0, 0] - 1.0) < 1e-6
    assert abs(res.blocks[1, 0] + 1.0) < 1e-6


def test_msn_hinge_zero_network():
    X = np.array([[1.0], [-1.0]])
    loss = LossModel.hinge(beta=10.0)
    prob = MinSumNormsProblem.from_masks(X, np.array([[1.0, 1.0]]), loss=loss, mode="penalized")
    res = solve_min_sum_norms(prob)
    assert abs(res.value - 2.0) < 1e-8  # n * ell(0)
    assert np.linalg.norm(res.blocks) < 1e-6


def test_msn_duality_gap_certified():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n, d = 8, 3
        base = rng.standard_normal(d)
        base /= np.linalg.norm(base)
        X = 0.3 * rng.standard_normal((n, d)) + base
        prob = MinSumNormsProblem.from_masks(X, np.ones((1, n)))
        res = solve_min_sum_norms(prob, tol=1e-8)
        assert res.gap <= 1e-8 * (1.0 + abs(res.value))
        assert res.dual_value <= res.value + 1e-12


def test_msn_infeasible_margin_raises():
    # duplicate point with opposite required signs
    X = np.array([[1.0], [1.0]])
    prob = MinSumNormsProblem.from_masks(X, np.array([[1.0, -1.0]]))
    with pytest.raises(Infeasible):
        solve_min_sum_norms(prob)


# --- ellipsoid --------------------------------------------------------------


def _ball_oracle(r2=1.0):
    def test(lam):
        v = float(lam @ lam)
        if v <= r2:
            return None
        g = 2.0 * lam
        return g, float(g @ lam - (v - r2))

    return test


def test_ellipsoid_1d_interval():
    cfg = EllipsoidConfig(radius=10.0, eps=1e-6, dim=1)
    lam, info = ellipsoid_maximize(np.array([1.0]), _ball_oracle(), cfg)
    assert abs(lam[0] - 1.0) < 1e-5


def test_ellipsoid_unit_disk():
    cfg = EllipsoidConfig(radius=4.0, eps=1e-6, dim=2)
    lam, info = ellipsoid_maximize(np.array([1.0, 1.0]), _ball_oracle(), cfg)
    assert abs(float(lam.sum()) - math.sqrt(2.0)) < 1e-5


def test_ellipsoid_log_volume_monotone():
    cfg = EllipsoidConfig(radius=4.0, eps=1e-6, dim=2)
    _, info = ellipsoid_maximize(
        np.array([1.0, 1.0]), _ball_oracle(), cfg, track_volume=True
    )
    lv = info["log_volumes"]
    assert len(lv) > 5
    assert all(b < a for a, b in zip(lv, lv[1:]))


def test_ellipsoid_box_cut():
    cfg = EllipsoidConfig(radius=4.0, eps=1e-7, dim=2)
    lam, info = ellipsoid_maximize(
        np.array([1.0, 1.0]), _ball_oracle(4.0), cfg, box_upper=0.5
    )
    assert np.all(lam <= 0.5 + 1e-7)
    assert abs(info["value"] - 1.0) < 1e-5


def test_ellipsoid_config_iteration_bound():
    with pytest.raises(ValueError):
        EllipsoidConfig(radius=10.0, eps=1e-6, dim=4, max_iter=3)


def test_ellipsoid_three_point_grid_oracle():
    # body {lam >= 0 : max_b ||X' diag(lam) b||^2 <= 1} for a 3-point
    # dataset; the ellipsoid maximizer must match a 0.01-step grid search
    X = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    mask_mats = []
    for bits in range(1, 8):
        b = np.array([(bits >> j) & 1 for j in range(3)], dtype=float)
        B = X.T * b[None, :]
        mask_mats.append((b[:, None] * (X @ X.T) * b[None, :]))

    def constraint(lam):
        return max(float(lam @ M @ lam) for M in mask_mats)

    def oracle(lam):
        vals = [float(lam @ M @ lam) for M in mask_mats]
        j = int(np.argmax(vals))
        if vals[j] <= 1.0:
            return None
        g = 2.0 * mask_mats[j] @ lam
        return g, float(g @ lam - (vals[j] - 1.0))

    cfg = EllipsoidConfig(radius=4.0, eps=1e-4, dim=3)
    lam, info = ellipsoid_maximize(np.ones(3), oracle, cfg)
    # vectorized grid search over [0, 2]^3 at step 0.01
    ax = np.arange(0.0, 2.0001, 0.01)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    feas = np.ones(grid.shape[0], dtype=bool)
    for M in mask_mats:
        feas &= np.einsum("ij,jk,ik->i", grid, M, grid) <= 1.0
    best = float(grid[feas].sum(axis=1).max())
    assert info["value"] >= best - 1e-4 - 0.03  # ellipsoid eps + grid resolution
