import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reluapprox import oracle
from reluapprox.conic import CONE_FEAS_RTOL
from reluapprox.dataset import Dataset, LossModel, generate_synthetic
from reluapprox.errors import Unbounded
from reluapprox.geometry import dual_constraint_maximin
from reluapprox.oracle import (
    _candidate_directions,
    enumerate_patterns,
    exact_dual,
    exact_primal,
    pattern_constraint_value,
)


def test_patterns_one_dimensional():
    pats = enumerate_patterns(np.array([[1.0], [-1.0]]))
    masks = {tuple(int(v) for v in m) for m in pats.masks}
    assert masks == {(1, 0), (0, 1)}  # (1,1) needs the w=0 tie, which is no cell
    assert len(pats) == 2


def test_patterns_two_generic_lines():
    X = np.array([[1.0, 0.3], [0.2, -1.0]])
    pats = enumerate_patterns(X)
    assert len(pats) == 4  # two lines cut the plane into four cells


def test_patterns_realization_exact():
    rng = np.random.default_rng(0)
    for _ in range(6):
        n, d = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        pats = enumerate_patterns(X)
        for mask, w in zip(pats.masks, pats.realizers):
            assert np.array_equal((X @ w >= 0.0).astype(np.int8), mask)


def test_patterns_count_bound():
    rng = np.random.default_rng(1)
    for _ in range(6):
        n, d = int(rng.integers(3, 10)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        pats = enumerate_patterns(X)
        bound = 2 * sum(math.comb(n - 1, k) for k in range(d))
        assert len(pats) <= bound


def _patterns_one_by_one(X):
    """enumerate_patterns one candidate at a time, X @ (basis @ wr): the first strict one per mask."""
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > 1e-12 * s[0]))
    basis = vt[:r].T
    seen = {}
    for block in _candidate_directions(X @ basis, r, np.random.default_rng(0)):
        for wr in block:
            w = basis @ wr
            prods = X @ w
            mask = (prods >= 0.0).astype(np.int8)
            key = mask.tobytes()
            if np.all(prods != 0.0) and key not in seen:
                seen[key] = (mask, w)
    entries = sorted(seen.values(), key=lambda e: tuple(e[0]))
    masks = np.array([e[0] for e in entries], dtype=np.int8).reshape(-1, X.shape[0])
    return masks, np.array([e[1] for e in entries]).reshape(-1, X.shape[1])


def _arrangement_data(n, d, seed, kind):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if kind == "rounded":  # ties and repeated rows
        X = np.round(X, 1)
        X[0] += float(not X.any())
    elif kind == "antipodal":  # rows opposite to others up to 1e-9
        half = n // 2
        X[half : 2 * half] = -X[:half] + 1e-9 * rng.standard_normal((half, d))
    return X


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "rounded", "antipodal"]),
)
def test_patterns_batched_match_one_by_one(n, d, seed, kind):
    # the batched product must give every mask and realizer bit for bit
    X = _arrangement_data(n, d, seed, kind)
    pats = enumerate_patterns(X)
    masks, realizers = _patterns_one_by_one(X)
    assert pats.masks.dtype == masks.dtype and np.array_equal(pats.masks, masks)
    assert pats.realizers.shape == realizers.shape and pats.realizers.tobytes() == realizers.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["rounded", "antipodal"]),
)
@example(n=7, d=2, seed=33, kind="rounded")  # a tie mask beside 12 cells
@example(n=7, d=4, seed=33, kind="antipodal")  # a tie mask beside 82 cells
def test_patterns_realizers_lie_inside_cells(n, d, seed, kind):
    # tied data puts many candidates on a hyperplane; none of them may be kept
    X = _arrangement_data(n, d, seed, kind)
    for w in enumerate_patterns(X).realizers:
        assert np.all(X @ w != 0.0)


def test_patterns_top_up_only_below_zaslavsky_bound(monkeypatch):
    # the Gaussian top-up is drawn only when the sweep misses cells of the bound
    draws = []

    def spy(n, r, rng):
        draws.append((n, r))
        return real(n, r, rng)

    real = oracle._random_directions
    monkeypatch.setattr(oracle, "_random_directions", spy)
    X = np.random.default_rng(4).standard_normal((8, 3))
    pats = enumerate_patterns(X)
    assert len(pats) == 2 * sum(math.comb(7, k) for k in range(3)) and draws == []
    X[1] = 2.0 * X[0]  # one hyperplane twice: fewer cells than the bound
    enumerate_patterns(X)
    assert draws == [(8, 3)]


def test_exact_primal_single_point():
    ds = Dataset([[0.6, 0.8]], [1])
    assert abs(exact_primal(ds, arch="relu").value - 1.0) < 1e-7
    assert abs(exact_primal(ds, arch="gated").value - 1.0) < 1e-7


def test_exact_primal_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    assert abs(exact_primal(ds, arch="relu").value - 2.0) < 1e-7
    assert abs(exact_primal(ds, arch="gated").value - 2.0) < 1e-7


def test_exact_dual_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    D, lam = exact_dual(ds)
    assert abs(D - 2.0) < 1e-7
    assert np.allclose(lam, [1.0, -1.0], atol=1e-6)
    # optimality saturates the constraint
    assert abs(dual_constraint_maximin(ds, lam).value - 1.0) < 1e-6


def test_exact_dual_unbounded_when_infeasible():
    ds = Dataset([[1.0], [1.0]], [1, -1])
    with pytest.raises(Unbounded):
        exact_dual(ds)


def test_exact_primal_masks_line_up_with_blocks():
    # row i of masks is the pattern of blocks[i]: relu has one block per
    # nonzero pattern and output sign, gated one per nonzero pattern
    ds = generate_synthetic("general", 8, 3, seed=2)
    patterns = enumerate_patterns(ds.X)
    nonzero = patterns.masks[patterns.masks.any(axis=1)]
    gated = exact_primal(ds, arch="gated", patterns=patterns)
    assert np.array_equal(gated.masks, nonzero) and len(gated.blocks) == len(nonzero)
    relu = exact_primal(ds, arch="relu", patterns=patterns)
    assert np.array_equal(relu.masks, np.vstack([nonzero, nonzero])) and len(relu.blocks) == 2 * len(nonzero)
    # each nonzero relu block lies in its own mask's cone
    row_scale = 1.0 + np.linalg.norm(ds.X, axis=1).max()
    active = 0
    for mask, u in zip(relu.masks, relu.blocks):
        if np.any(u != 0.0):
            active += 1
            slack = (2.0 * mask - 1.0) * (ds.X @ u)
            assert slack.min() >= -CONE_FEAS_RTOL * row_scale * (1.0 + np.linalg.norm(u))
    assert active > 0


def test_gated_at_most_relu():
    rng = np.random.default_rng(2)
    for _ in range(4):
        n, d = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        pr = exact_primal(ds, arch="relu")
        pg = exact_primal(ds, arch="gated")
        assert pg.value <= pr.value + 1e-7


def test_strong_duality_relu():
    # exact_dual reads D off the cone-constrained primal, so checking the
    # returned lambda* against the enumerated constraint is the real test
    rng = np.random.default_rng(3)
    for _ in range(4):
        n, d = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        D, lam = exact_dual(ds, tol=1e-8)
        assert abs(float(lam @ y) - D) <= 1e-6 * (1 + D)
        assert dual_constraint_maximin(ds, lam).value <= 1.0 + 1e-7


def test_pattern_constraint_matches_maximin():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, d = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        lam = rng.random(n) * y
        v1 = dual_constraint_maximin(ds, lam).value
        v2 = pattern_constraint_value(ds, lam)
        assert abs(v1 - v2) < 1e-8


def test_cross_architecture_on_orthogonal_separable():
    # no duality gap: the ReLU pattern value equals the separated dual
    from reluapprox.dual import solve_dual_ortho

    for seed in range(4):
        ds = generate_synthetic("orthogonal_separable", 8, 3, seed)
        P = exact_primal(ds, arch="relu").value
        D = solve_dual_ortho(ds).objective
        assert abs(P - D) <= 1e-6 * (1 + D)


def test_hinge_oracle_well_posed_on_nonseparable():
    ds = Dataset([[1.0], [1.0]], [1, -1])  # max-margin infeasible
    res = exact_primal(ds, LossModel.hinge(0.5), arch="relu")
    assert math.isfinite(res.value)
