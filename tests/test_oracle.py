import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reluapprox import oracle
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
    assert masks == {(1, 0), (0, 1), (1, 1)}
    assert pats.strict_count == 2  # (1,1) needs the w=0 tie


def test_patterns_two_generic_lines():
    X = np.array([[1.0, 0.3], [0.2, -1.0]])
    pats = enumerate_patterns(X, include_boundary=False)
    assert pats.strict_count == 4  # two lines cut the plane into four cells


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
        pats = enumerate_patterns(X, include_boundary=False)
        bound = 2 * sum(math.comb(n - 1, k) for k in range(d))
        assert pats.strict_count <= bound


def _patterns_one_by_one(X, include_boundary):
    """enumerate_patterns as one product X @ (basis @ wr) per candidate, kept first-seen."""
    n, d = X.shape
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > 1e-12 * s[0]))
    basis = vt[:r].T
    seen = {}
    for block in _candidate_directions(X @ basis, r, np.random.default_rng(0)):
        for wr in block:
            w = basis @ wr
            prods = X @ w
            mask, strict = (prods >= 0.0).astype(np.int8), bool(np.all(prods != 0.0))
            key = mask.tobytes()
            if key not in seen or (strict and not seen[key][2]):
                seen[key] = (mask, w, strict)
    ones = np.ones(n, dtype=np.int8)
    if include_boundary and ones.tobytes() not in seen:
        seen[ones.tobytes()] = (ones, np.zeros(d), False)
    entries = sorted(seen.values(), key=lambda e: (not e[2], tuple(e[0])))
    masks = np.array([e[0] for e in entries], dtype=np.int8)
    return masks, np.array([e[1] for e in entries]), sum(e[2] for e in entries)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "rounded", "antipodal"]),
    include_boundary=st.booleans(),
)
def test_patterns_batched_match_one_by_one(n, d, seed, kind, include_boundary):
    # the batched product must give every mask, realizer and strict flag bit for bit
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if kind == "rounded":  # ties and repeated rows
        X = np.round(X, 1)
        X[0] += float(not X.any())
    elif kind == "antipodal":  # rows opposite to others up to 1e-9
        half = n // 2
        X[half : 2 * half] = -X[:half] + 1e-9 * rng.standard_normal((half, d))
    pats = enumerate_patterns(X, include_boundary=include_boundary)
    masks, realizers, strict_count = _patterns_one_by_one(X, include_boundary)
    assert pats.masks.dtype == masks.dtype and np.array_equal(pats.masks, masks)
    assert pats.realizers.shape == realizers.shape and pats.realizers.tobytes() == realizers.tobytes()
    assert pats.strict_count == strict_count


def test_patterns_top_up_only_below_zaslavsky_bound(monkeypatch):
    # the Gaussian top-up is drawn only when the sweep misses cells of the bound
    draws = []

    def spy(n, r, rng):
        draws.append((n, r))
        return real(n, r, rng)

    real = oracle._random_directions
    monkeypatch.setattr(oracle, "_random_directions", spy)
    X = np.random.default_rng(4).standard_normal((8, 3))
    pats = enumerate_patterns(X, include_boundary=False)
    assert pats.strict_count == 2 * sum(math.comb(7, k) for k in range(3)) and draws == []
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
