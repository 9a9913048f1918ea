import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reluapprox.maxcut as maxcut
from reluapprox import conic
from reluapprox.dataset import Dataset
from reluapprox.errors import CapExceeded, Unrealizable
from reluapprox.geometry import zonotope_vertex_max
from reluapprox.maxcut import (
    DROP_TOL,
    c1_value,
    c2_value_and_gradient,
    dual_quadratic,
    gw_round,
    maxcut_bruteforce,
    psd_factor,
    realize_mask_lp,
    realize_pattern,
    realize_patterns,
    sdp_relaxation,
)


@pytest.mark.parametrize("Q", [np.ones((3, 2)), np.zeros((0, 0)), []], ids=["3x2", "0x0", "empty-list"])
def test_sdp_needs_nonempty_square_matrix(Q):
    with pytest.raises(ValueError, match="nonempty square matrix"):
        sdp_relaxation(Q)


def test_psd_factor_rejects_indefinite_covariance():
    with pytest.raises(ValueError, match="PSD"):
        psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_brute_identity():
    val, _ = maxcut_bruteforce(np.eye(2))
    assert val == 2.0


def test_brute_rank_one():
    val, z = maxcut_bruteforce(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert val == 4.0
    assert z[0] == z[1]


def test_brute_cap():
    with pytest.raises(CapExceeded):
        maxcut_bruteforce(np.eye(23))


def test_sdp_identity():
    sol = sdp_relaxation(np.eye(2))
    assert abs(sol.objective - 2.0) < 1e-6
    assert abs(np.diag(sol.Z) - 1.0).max() < 1e-8
    assert np.linalg.eigvalsh(sol.Z).min() > -1e-8


def test_sdp_rank_one_optimum():
    Q = np.array([[1.0, 1.0], [1.0, 1.0]])
    sol = sdp_relaxation(Q)
    assert abs(sol.objective - 4.0) < 1e-6
    assert abs(sol.Z[0, 1] - 1.0) < 1e-6


def test_sdp_rejects_indefinite():
    with pytest.raises(ValueError):
        sdp_relaxation(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sdp_upper_bounds_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(6):
        m = int(rng.integers(3, 10))
        B = rng.standard_normal((m, m))
        Q = B @ B.T / m
        opt, _ = maxcut_bruteforce(Q)
        sol = sdp_relaxation(Q)
        assert opt <= sol.upper + 1e-6
        assert sol.lower <= sol.upper + 1e-9
        # complementary slackness: tr((Diag(zeta) - Q) Z) = upper - lower for unit-diagonal Z
        assert sol.upper - sol.lower <= 1e-5 * (1 + abs(sol.objective))


@st.composite
def _psd_with_zero_rows(draw):
    """Q = B B' with m <= 12, rank <= m and some all-zero rows and columns."""
    m = draw(st.integers(1, 12))
    r = draw(st.integers(1, m))
    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    B = np.array(draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m)))
    B[np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = 0.0
    return B @ B.T


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_psd_with_zero_rows())
def test_sdp_certified_property(Q):
    opt, _ = maxcut_bruteforce(Q)
    sol = sdp_relaxation(Q)
    assert sol.lower <= sol.upper
    assert opt <= sol.upper + 1e-12 * (1.0 + abs(sol.upper))
    assert (2.0 / math.pi) * sol.lower <= opt + 1e-12 * (1.0 + abs(opt))
    assert sol.upper - sol.lower <= 1e-9 * (1.0 + abs(sol.upper))
    assert np.abs(np.diag(sol.Z) - 1.0).max() <= 1e-12
    assert np.linalg.eigvalsh(sol.Z).min() >= -1e-12
    again = sdp_relaxation(Q)
    assert np.array_equal(again.Z, sol.Z)
    assert (again.lower, again.upper) == (sol.lower, sol.upper)


def test_gw_identity_covariance():
    batch = gw_round(np.eye(2), np.eye(2), k=50, seed=1)
    assert np.allclose(np.abs(batch.samples), 1.0)
    assert batch.mean == 2.0


def test_gw_perfect_correlation():
    Z = np.array([[1.0, 1.0], [1.0, 1.0]])
    batch = gw_round(Z, Z, k=100, seed=2)
    assert np.all(batch.samples[:, 0] == batch.samples[:, 1])


def test_gw_mask_formula():
    Z = np.eye(3)
    batch = gw_round(Z, Z, k=20, seed=3)
    want = (batch.samples[:, :-1] * batch.samples[:, -1:] + 1.0) / 2.0
    assert np.array_equal(batch.masks, want)


def test_gw_sandwich_on_dataset_quadratic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    lam = rng.random(6)
    Q = dual_quadratic(X, lam)
    opt, _ = maxcut_bruteforce(Q)
    sol = sdp_relaxation(Q)
    batch = gw_round(sol.Z, Q, k=10000, seed=7)
    assert batch.mean >= (2.0 / math.pi) * sol.objective - 3.0 * batch.stderr
    assert batch.mean <= opt + 1e-9
    assert opt <= sol.upper + 1e-7


def test_c1_fixtures():
    assert abs(c1_value(np.array([[1.0]]), np.array([1.0])) - 1.0) < 1e-12
    assert c1_value(np.array([[1.0], [2.0]]), np.zeros(2)) == 0.0


def test_c1_equals_vertex_max_squared():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n, d = 8, 3
        X = rng.standard_normal((n, d))
        lam = rng.random(n)
        vmax, _ = zonotope_vertex_max(X.T * lam[None, :])
        assert abs(c1_value(X, lam) - vmax**2) < 1e-10


def test_c2_fixtures():
    val, sol, grad = c2_value_and_gradient(np.array([[1.0]]), np.array([0.0]))
    assert val == 0.0 and np.all(grad == 0.0)
    val, sol, grad = c2_value_and_gradient(np.array([[1.0]]), np.array([1.0]))
    assert abs(val - 1.0) < 1e-7  # (1/4) max tr(Z [[1,1],[1,1]]) = 1


def test_c2_sandwich():
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((n, 3))
        lam = rng.random(n)
        c1 = c1_value(X, lam)
        c2, _, _ = c2_value_and_gradient(X, lam)
        assert (2.0 / math.pi) * c2 <= c1 + 1e-7
        assert c1 <= c2 + 1e-7 * (1 + c2)


def test_c2_gradient_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(3):
        n = 5
        X = rng.standard_normal((n, 2))
        lam = rng.random(n) + 0.2
        val, sol, grad = c2_value_and_gradient(X, lam)
        h = 1e-5
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            vp, *_ = c2_value_and_gradient(X, lam + e)
            vm, *_ = c2_value_and_gradient(X, lam - e)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))


def test_mask_sign_identity():
    # (1/4) z'Qz == ||X' diag(lam) b||^2 with b from the sign/mask formula
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 3))
    lam = rng.random(5)
    Q = dual_quadratic(X, lam)
    sol = sdp_relaxation(Q)
    batch = gw_round(sol.Z, Q, k=50, seed=12)
    for z, b in zip(batch.samples, batch.masks):
        lhs = 0.25 * float(z @ Q @ z)
        rhs = float(np.sum((X.T @ (lam * b)) ** 2))
        assert abs(lhs - rhs) < 1e-10


def test_binary_max_matches_box_max_small():
    # max over the box equals max over vertices: fine grid never exceeds
    rng = np.random.default_rng(13)
    X = rng.standard_normal((3, 2))
    lam = rng.random(3)
    binary = c1_value(X, lam)
    ax = np.linspace(0, 1, 21)
    mesh = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
    vals = np.sum((mesh * lam[None, :]) @ X @ X.T * (mesh * lam[None, :]), axis=1)
    grid = np.linalg.norm((mesh * lam[None, :]) @ X, axis=1) ** 2
    assert grid.max() <= binary + 1e-9


def test_realize_mask_lp_one_dimensional():
    X = np.array([[1.0], [-1.0]])
    w = realize_mask_lp(X, np.array([1, 0]))
    assert np.array_equal((X @ w >= 0), [True, False])
    w = realize_mask_lp(X, np.array([1, 1]))  # only w = 0 realizes all-ones
    assert np.all(w == 0.0)
    assert np.array_equal((X @ w >= 0), [True, True])


def test_realize_mask_lp_unrealizable():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(Unrealizable):
        realize_mask_lp(X, np.array([1, 0]))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(1, 8), st.integers(1, 4), st.integers(0, 2), st.integers(0, 10_000),
)
def test_realize_mask_lp_least_distance_property(n, d, ng, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    G = rng.standard_normal((ng, d))
    G *= -np.where(G @ w >= 0.0, 1.0, -1.0)[:, None]  # every guard row negative at w
    scale = np.linalg.norm(w) * max(np.abs(X).max(), np.abs(G).max(initial=0.0))
    assume(np.abs(X @ w).min() >= 1e-3 * scale and (G @ w).max(initial=-1.0) <= -1e-3 * scale)
    mask = X @ w >= 0.0
    guards = G if ng else None
    gate = realize_mask_lp(X, mask, guard_rows=guards)
    assert np.array_equal(X @ gate >= 0.0, mask)
    assert np.all(G @ gate < 0.0)
    # the least-distance program against an independent NNLS route
    A = np.vstack([np.where(mask[:, None], X, -X), -G])
    h = np.concatenate([np.ones(n), np.full(ng, maxcut._GUARD_SLACK)])
    u, _ = conic._least_distance(A, h)
    E = np.vstack([A.T, h])
    mu = scipy.optimize.lsq_linear(E, np.eye(1, d + 1, d)[0], bounds=(0, np.inf), method="bvls").x
    ref = A.T @ mu / (1.0 - h @ mu)
    assert np.linalg.norm(u - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
    assert np.allclose(gate, u / np.linalg.norm(u), rtol=0.0, atol=1e-12)
    # a mask that needs x and -x both active has no gate (but for the
    # all-ones mask without guards, which w = 0 realizes)
    X2, mask2 = np.vstack([X, -X[:1]]), np.append(mask, True)
    mask2[0] = True
    if guards is None and mask2.all():
        assert not realize_mask_lp(X2, mask2).any()
    else:
        with pytest.raises(Unrealizable):
            realize_mask_lp(X2, mask2, guard_rows=guards)


def test_realize_pattern_sampled_masks():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((8, 3))
    lam = rng.random(8) + 0.1
    Q = dual_quadratic(X, lam)
    sol = sdp_relaxation(Q)
    w_eig, V = np.linalg.eigh(sol.Z)
    L = V * np.sqrt(np.maximum(w_eig, 0.0))
    realized = 0
    for i in range(100):
        r = rng.standard_normal(9) @ L.T
        rp = realize_pattern(X, r, lam)
        assert np.array_equal(
            (X @ rp.w >= 0.0).astype(float), rp.mask
        )
        if np.array_equal(rp.mask, rp.mask_target):
            realized += 1
    assert realized == 100  # Lemma-style realizability holds on every draw


def test_realize_patterns_rows_match_single_draws(monkeypatch):
    # dropped rows (lam below DROP_TOL max lam) and a guard row that sends
    # some draws to the LP fallback, some of them unrealizable
    lp_targets = []
    lp = maxcut.realize_mask_lp

    def counted(X, mask, *args, **kwargs):
        lp_targets.append(np.asarray(mask).tobytes())
        return lp(X, mask, *args, **kwargs)

    monkeypatch.setattr(maxcut, "realize_mask_lp", counted)
    rng = np.random.default_rng(5)
    seen = set()
    fallbacks = lp_calls = 0
    for _ in range(4):
        n = int(rng.integers(5, 11))
        d = int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        lam = rng.random(n) + 0.1
        lam[rng.choice(n, 2, replace=False)] *= 1e-9
        assert np.sum(lam <= DROP_TOL * lam.max()) == 2
        G = -X[:1] + 0.5 * rng.standard_normal((1, d))
        sol = sdp_relaxation(dual_quadratic(X, lam))
        R = rng.standard_normal((50, n + 1)) @ psd_factor(sol.Z).T
        lp_targets.clear()
        targets, masks, W, method = realize_patterns(X, R, lam, guard_rows=G)
        assert len(set(lp_targets)) == len(lp_targets)  # one LP per distinct kept-row target
        lp_calls += len(lp_targets)
        fallbacks += int(np.sum(method != "algebraic"))
        seen.update(method.tolist())
        for i, r in enumerate(R):
            if method[i] == "unrealizable":
                with pytest.raises(Unrealizable):
                    realize_pattern(X, r, lam, guard_rows=G)
                continue
            rp = realize_pattern(X, r, lam, guard_rows=G)
            assert rp.method == method[i]
            assert np.array_equal(rp.mask_target, targets[i])
            assert np.array_equal(rp.mask, masks[i])
            assert np.abs(rp.w - W[i]).max() <= 1e-15 * np.linalg.norm(rp.w)
            assert np.array_equal((X @ W[i] >= 0.0).astype(float), masks[i])
    assert seen == {"algebraic", "lp", "unrealizable"}
    assert 0 < lp_calls < fallbacks
