import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reluapprox import conic
from reluapprox.conic import (
    MinSumNormsProblem,
    box_lsq_batch,
    solve_min_sum_norms,
)
from reluapprox.dataset import Dataset, LossModel, generate_synthetic
from reluapprox.dual import _block_ortho
from reluapprox.errors import Infeasible, NonConvergence
from reluapprox.geometry import binary_vertices
from reluapprox.oracle import _relu_problem, enumerate_patterns


def _box_lsq_cases(rng):
    """Generator matrices with parallel, antiparallel, zero and dependent
    columns and a 1e-4 scale, each with targets: the vertices of another
    zonotope (as the maximin builds them) and a few random points."""
    for kind in ("random", "parallel", "antiparallel", "zero", "dependent", "scaled") * 6:
        d, m = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        A = rng.standard_normal((d, m))
        if kind == "parallel" and m > 1:
            A[:, 1] = rng.random() * A[:, 0]
        if kind == "antiparallel" and m > 1:
            A[:, 1] = -rng.random() * A[:, 0]
        if kind == "zero":
            A[:, rng.integers(m)] = 0.0
        if kind == "dependent" and m > 2:
            A[:, 2] = A[:, 0] - 0.5 * A[:, 1]
        s = 1e-4 if kind == "scaled" else 1.0
        k = int(rng.integers(1, 5))
        V = next(binary_vertices(k)) @ (2.0 * rng.standard_normal((d, k))).T
        yield s * A, s * np.vstack([V, 3.0 * rng.standard_normal((4, d))])


def test_bcls_random_vs_grid():
    grid = np.linspace(0.0, 1.0, 51)
    mesh = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        p = rng.standard_normal(2) * 2
        _, dist = box_lsq_batch(A, p[None, :])
        assert dist[0] <= np.linalg.norm(mesh @ A.T - p, axis=1).min() + 1e-3


def test_box_lsq_batch_matches_scipy_bvls():
    rng = np.random.default_rng(12)
    for A, P in _box_lsq_cases(rng):
        B, dist = box_lsq_batch(A, P)
        assert B.min(initial=0.0) >= 0.0 and B.max(initial=1.0) <= 1.0
        # scipy's BVLS stops on absolute tolerances, so it solves the
        # problem rescaled to unit size; the minimizer is unchanged
        for p, dv in zip(P, dist):
            s = max(np.abs(A).max(), np.abs(p).max()) or 1.0
            b = scipy.optimize.lsq_linear(A / s, p / s, bounds=(0, 1), method="bvls").x
            ref = float(np.linalg.norm(A @ b - p))
            assert abs(dv - ref) <= 1e-12 * (1.0 + ref)


def test_box_lsq_batch_raises_typed_error(monkeypatch):
    # a pseudo-inverse of zeros never reaches a KKT point
    monkeypatch.setattr(np.linalg, "pinv", lambda M, rcond=None: np.zeros(M.shape[::-1]))
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonConvergence):
        box_lsq_batch(A, np.array([[0.5, 0.5], [2.0, 1.0]]))


def test_cone_projection_against_sampling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        rows = rng.standard_normal((n, d))
        v = rng.standard_normal(d) * 2
        proj = conic._project_cones(v[None, :], np.ones((1, n)), rows)[0]
        assert np.all(rows @ proj >= -1e-9)
        # projection norm equals the cone-restricted support value
        u = rng.standard_normal((50000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ok = np.all(u @ rows.T >= 0, axis=1)
        if ok.any():
            direct = float((u[ok] @ v).max())
            assert np.linalg.norm(proj) >= direct - 1e-6


def _cone_cases(rng):
    """Batches of vectors with their cone signs over data with duplicate,
    antiparallel and zero rows, vectors inside their cones and in the polar
    cones (projection 0), and one-dimensional data."""
    for kind in ("random", "duplicate", "antiparallel", "zero", "inside", "polar", "line") * 4:
        n, d, k = int(rng.integers(2, 9)), 1 if kind == "line" else int(rng.integers(2, 5)), int(rng.integers(1, 13))
        X = rng.standard_normal((n, d))
        if kind == "duplicate":
            X[1] = X[0]
        if kind == "antiparallel":
            X[1] = -rng.random() * X[0]
        if kind == "zero":
            X[rng.integers(n)] = 0.0
        signs = rng.choice([-1.0, 1.0], size=(k, n))
        V = rng.standard_normal((k, d))
        if kind == "inside":
            signs = np.where(V @ X.T >= 0.0, 1.0, -1.0)
        if kind == "polar":  # -(diag(signs_i) X)' mu with mu >= 0
            V = -np.einsum("kn,nd->kd", signs * rng.random((k, n)), X)
        yield kind, V, signs, X


def _nnls_by_enumeration(B, y):
    """Exact NNLS min ||B mu - y|| over mu >= 0 by its active sets.

    The optimum is attained on a set of at most d = rank-many columns, where
    mu is the least-squares solution; every column subset of size at most d
    is tried, and of those whose solution is nonnegative and meets the KKT
    conditions, the one with the smallest residual is kept.
    """
    d, p = B.shape
    tol = 1e-9 * (1.0 + np.abs(B).max() * (1.0 + np.abs(y).max()))
    best, best_res = None, math.inf
    for size in range(min(d, p) + 1):
        for cols in itertools.combinations(range(p), size):
            mu = np.zeros(p)
            if cols:
                mu[list(cols)] = np.linalg.lstsq(B[:, list(cols)], y, rcond=None)[0]
            r = y - B @ mu
            if mu.min() >= 0.0 and (B.T @ r).max() <= tol and np.linalg.norm(r) < best_res:
                best, best_res = mu, np.linalg.norm(r)
    assert best is not None
    return best


def test_project_cones_matches_per_block_and_enumeration():
    rng = np.random.default_rng(14)
    for kind, V, signs, X in _cone_cases(rng):
        P = conic._project_cones(V, signs, X)
        for v, s, p in zip(V, signs, P):
            rows = s[:, None] * X
            mu = _nnls_by_enumeration(rows.T, -v)
            # the batch must give each row's projection on its own
            for ref in (conic._project_cones(v[None, :], s[None, :], X)[0], v + rows.T @ mu):
                assert np.linalg.norm(p - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
            if kind == "inside":
                assert np.array_equal(p, v)
            if kind == "polar":
                assert np.linalg.norm(p) <= 1e-12


def test_project_cones_raises_typed_error(monkeypatch):
    # an NNLS answer of zeros misses the KKT conditions; an iteration limit
    # raises RuntimeError; both must surface as NonConvergence
    def zeros(A, b, **kwargs):
        return np.zeros(np.shape(A)[1]), float(np.linalg.norm(b))

    def stalled(A, b, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    v = np.array([-1.0, 0.5])
    for fault in (zeros, stalled):
        monkeypatch.setattr(scipy.optimize, "nnls", fault)
        with pytest.raises(NonConvergence):
            conic._nnls_small(X.T, -v)
        with pytest.raises(NonConvergence):
            conic._least_distance(X)
        with pytest.raises(NonConvergence):
            conic._project_cones(np.array([v, [1.0, 1.0]]), np.ones((2, 3)), X)


def _projected_block_values(prob, lam, budget):
    # every block projected onto its cone, whatever the budget
    V = (prob.row_weights * lam[None, :]) @ prob.X
    return np.linalg.norm(conic._project_cones(V, prob.cone_signs, prob.X), axis=1)


def test_dual_block_values_exact_above_budget(monkeypatch):
    # only blocks over the budget are projected: their values are those of
    # projecting every block bit for bit, the others lie between the
    # projected norm and the budget, and pricing and certification read the
    # same blocks and bounds either way
    rng = np.random.default_rng(23)
    over_seen = within_seen = priced = 0
    for _ in range(40):
        n, d, k = int(rng.integers(4, 11)), int(rng.integers(1, 4)), int(rng.integers(5, 41))
        X = rng.standard_normal((n, d))
        masks = rng.random((k, n)) < 0.5
        masks[np.arange(k), rng.integers(n, size=k)] = True
        weights = rng.choice([-1.0, 1.0], size=n) * masks
        lam = rng.exponential(size=n) * (rng.random(n) < 0.8)
        # scaled so that about a quarter of the projected values exceed a budget of 1
        prob = MinSumNormsProblem(X, weights, LossModel.max_margin(), 2.0 * masks - 1.0)
        values = _projected_block_values(prob, lam, 1.0)
        lam /= np.quantile(values[values > 0], 0.75) if np.any(values > 0) else 1.0
        for loss in (LossModel.max_margin(), LossModel.hinge(float(rng.uniform(0.2, 1.5)))):
            prob = MinSumNormsProblem(X=X, row_weights=weights, loss=loss, cone_signs=2.0 * masks - 1.0)
            beta = loss.beta
            lam_box = np.minimum(lam, loss.box_upper)
            theta = conic._dual_block_values(prob, lam_box, beta)
            full = _projected_block_values(prob, lam_box, beta)
            over = np.linalg.norm((weights * lam_box) @ X, axis=1) > beta
            over_seen, within_seen = over_seen + over.sum(), within_seen + (~over).sum()
            assert np.array_equal(theta[over], full[over])
            assert np.all(full[~over] <= theta[~over]) and np.all(theta[~over] <= beta)
            U = rng.standard_normal((k, d))
            W = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
            partial = conic._certify(prob, U, lam, beta), conic._price(prob, W, None, lam, beta)
            with monkeypatch.context() as m:
                m.setattr(conic, "_dual_block_values", _projected_block_values)
                reference = conic._certify(prob, U, lam, beta), conic._price(prob, W, None, lam, beta)
            (pval, dval, U_feas, lam_feas, _), new = partial
            (pval_ref, dval_ref, U_ref, lam_ref, _), new_ref = reference
            assert pval == pval_ref and dval == dval_ref
            assert np.array_equal(U_feas, U_ref) and np.array_equal(lam_feas, lam_ref)
            assert np.array_equal(new, new_ref)
            priced += new.size > 0
    assert over_seen > 200 and within_seen > 200 and priced > 20


# --- min-sum-of-norms ------------------------------------------------------


@pytest.mark.parametrize(
    "row_weights,cone_signs,message",
    [
        ([[1.0, 1.0, 1.0]], None, "one column per data row"),
        (np.zeros((0, 2)), None, "at least one block"),
        ([[1.0, 1.0], [0.0, 0.0]], None, "nonempty row coupling"),
        ([[1.0, 1.0], [1.0, 0.0]], [[1.0, 1.0]], "cone_signs must have one row per block"),
    ],
)
def test_msn_problem_rejects_malformed_input(row_weights, cone_signs, message):
    with pytest.raises(ValueError, match=message):
        MinSumNormsProblem(np.eye(2), row_weights, cone_signs=cone_signs)


def test_msn_single_active_constraint():
    prob = MinSumNormsProblem(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    res = solve_min_sum_norms(prob)
    assert abs(res.value - 1.0) < 1e-8
    assert np.allclose(res.blocks, [[1.0, 0.0]], atol=1e-7)


def test_msn_two_blocks_hand_value():
    X = np.array([[1.0], [-1.0]])
    prob = MinSumNormsProblem(X, np.array([[1.0, 0.0], [0.0, 1.0]]))
    res = solve_min_sum_norms(prob)
    assert abs(res.value - 2.0) < 1e-8
    assert abs(res.blocks[0, 0] - 1.0) < 1e-6
    assert abs(res.blocks[1, 0] + 1.0) < 1e-6


def test_msn_hinge_zero_network():
    X = np.array([[1.0], [-1.0]])
    loss = LossModel.hinge(beta=10.0)
    prob = MinSumNormsProblem(X, np.array([[1.0, 1.0]]), loss=loss)
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
        prob = MinSumNormsProblem(X, np.ones((1, n)))
        res = solve_min_sum_norms(prob, tol=1e-8)
        assert res.gap <= 1e-8 * (1.0 + abs(res.value))
        assert res.dual_value <= res.value + 1e-12


def _forbid(*args, **kwargs):
    raise AssertionError("called")


def test_msn_full_support_block_exact(monkeypatch):
    # min ||u|| s.t. X u >= 1 is a least-distance problem: no phase-1 LP, no interior-point master
    monkeypatch.setattr(conic, "_interior_point_socp", _forbid)
    monkeypatch.setattr(conic, "_phase1_feasible", _forbid)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    res = solve_min_sum_norms(MinSumNormsProblem(X, np.ones((1, 3))), tol=1e-9)
    assert abs(res.value - math.sqrt(2.0)) <= 1e-12
    assert res.iterations == 0
    assert res.gap <= 1e-9 * (1.0 + res.value)


def test_msn_full_support_block_feasible_not_optimal(monkeypatch):
    # the all-ones block needs |u| ~ 20; the two one-row blocks need 1 + 1/sqrt(1.01)
    monkeypatch.setattr(conic, "_phase1_feasible", _forbid)
    X = np.array([[1.0, 0.0], [-1.0, 0.1]])
    res = solve_min_sum_norms(MinSumNormsProblem(X, [[1, 1], [1, 0], [0, 1]]), tol=1e-9)
    assert abs(res.value - (1.0 + 1.0 / math.sqrt(1.01))) <= 1e-9 * (1.0 + res.value)
    assert res.iterations > 0


def test_msn_full_support_block_infeasible_program_feasible(monkeypatch):
    # u >= 1 and -u >= 1 together have no solution, so the phase-1 LP finds the working set
    calls = []
    phase1 = conic._phase1_feasible

    def counted(prob):
        calls.append(prob)
        return phase1(prob)

    monkeypatch.setattr(conic, "_phase1_feasible", counted)
    X = np.array([[1.0], [-1.0]])
    res = solve_min_sum_norms(MinSumNormsProblem(X, [[1, 1], [1, 0], [0, 1]]), tol=1e-9)
    assert abs(res.value - 2.0) <= 1e-9 * 3.0
    assert len(calls) == 1


def test_msn_infeasible_margin_raises():
    # duplicate point with opposite required signs
    X = np.array([[1.0], [1.0]])
    prob = MinSumNormsProblem(X, np.array([[1.0, -1.0]]))
    with pytest.raises(Infeasible):
        solve_min_sum_norms(prob)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_msn_rejects_tol_that_is_not_finite_positive(tol):
    prob = MinSumNormsProblem(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="tol"):
        solve_min_sum_norms(prob, tol=tol)


def _separable_value(loss, norms):
    """The value of the penalized program with row_weights = I, row by row.

    Each row j is its own block, and the best u_j points along x_j: with
    s = x_j'u_j >= 0 the row costs ell(s) + c s, c = beta / |x_j|, which is
    min(1, c) for the hinge, and c - c^2 / 4 for c <= 2, else 1, for the
    squared hinge.
    """
    c = loss.beta / norms
    if loss.name == "hinge":
        return float(np.minimum(1.0, c).sum())
    return float(np.where(c <= 2.0, c - c * c / 4.0, 1.0).sum())


@pytest.mark.parametrize("loss_name", ["hinge", "squared_hinge"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("cones", [False, True])
def test_msn_penalized_separable_known_answer(loss_name, d, cones):
    # rows of norms 0.4, 1 and 2.5: the betas fall on both sides of every
    # kink, beta = |x_j| for the hinge and beta = 2 |x_j| for the squared hinge
    rng = np.random.default_rng(d)
    X = rng.standard_normal((3, d))
    X *= (np.array([0.4, 1.0, 2.5]) / np.linalg.norm(X, axis=1))[:, None]
    # each block's cone holds its own direction x_j, so the cones leave the optimum
    signs = np.where(X @ X.T >= 0.0, 1.0, -1.0) if cones else None
    for beta in (0.3, 0.6, 1.5, 2.2, 4.0, 6.0):
        loss = LossModel.by_name(loss_name, beta)
        res = solve_min_sum_norms(MinSumNormsProblem(X, np.eye(3), loss=loss, cone_signs=signs))
        value = _separable_value(loss, np.linalg.norm(X, axis=1))
        assert abs(res.value - value) <= 1e-8 * (1.0 + value), beta


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 8),
    d=st.integers(1, 3),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    loss_name=st.sampled_from(["maxmargin", "hinge", "squared_hinge"]),
    beta=st.floats(0.05, 2.0),
    cones=st.booleans(),
)
# one-block max-margin programs that are feasible (the generated examples hold none)
@example(n=5, d=2, k=1, seed=3, loss_name="maxmargin", beta=1.0, cones=False)
@example(n=8, d=3, k=1, seed=5, loss_name="maxmargin", beta=1.0, cones=False)
def test_msn_certified_property(n, d, k, seed, loss_name, beta, cones):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    masks = rng.random((k, n)) < 0.5
    masks[rng.integers(k, size=n), np.arange(n)] = True  # every row in some block
    masks[np.arange(k), rng.integers(n, size=k)] = True  # every block has a row
    loss = LossModel.by_name(loss_name, beta)
    prob = MinSumNormsProblem(
        X=X,
        row_weights=y * masks,
        loss=loss,
        cone_signs=2.0 * masks - 1.0 if cones else None,
    )
    tol = 1e-8
    try:
        res = solve_min_sum_norms(prob, tol=tol)
    except Infeasible:
        assume(False)
    U, lam = res.blocks, res.lam
    s = np.einsum("kn,kn->n", prob.row_weights, U @ X.T)
    norms = np.linalg.norm(U, axis=1)
    if loss.penalized:
        budget = beta
        assert abs(np.sum(loss.ell(s)) + beta * norms.sum() - res.value) <= 1e-9 * (1 + abs(res.value))
        assert abs(np.sum(loss.g(lam)) - res.dual_value) <= 1e-9 * (1 + abs(res.dual_value))
    else:
        budget = 1.0
        assert s.min() >= 1.0 - 1e-9
        assert abs(norms.sum() - res.value) <= 1e-9 * (1 + res.value)
        assert abs(lam.sum() - res.dual_value) <= 1e-9 * (1 + res.dual_value)
    assert np.all(lam >= 0.0) and np.all(lam <= loss.box_upper)
    row_scale = 1.0 + np.linalg.norm(X, axis=1).max()
    for i in range(k):
        v = X.T @ (prob.row_weights[i] * lam)
        if cones:
            rows = prob.cone_signs[i][:, None] * X
            assert (rows @ U[i]).min() >= -1e-9 * row_scale * (1.0 + norms[i])
            v = v + rows.T @ _nnls_by_enumeration(rows.T, -v)
        assert np.linalg.norm(v) <= budget * (1.0 + 1e-9)
    assert res.value - res.dual_value <= tol * (1.0 + abs(res.value))
    if k == 1 and not cones and not loss.penalized:
        G = prob.row_weights[0][:, None] * X
        value = _block_ortho(G, loss, tol=1e-10)[0]
        assert abs(res.value - value) <= 1e-8 * (1 + value)
        # an independent NNLS route to the same least-distance program
        E = np.vstack([G.T, np.ones((1, n))])
        mu = scipy.optimize.lsq_linear(E, np.eye(1, d + 1, d)[0], bounds=(0, np.inf), method="bvls").x
        value = np.linalg.norm(G.T @ mu) / (1.0 - mu.sum())
        assert abs(res.value - value) <= 1e-8 * (1 + value)


# --- the interior-point master's Newton matrix -----------------------------


def _random_master(seed, loss_name, cones):
    # a feasible master shaped like the ReLU program's: the activation
    # patterns of three directions, the first two opposite so that every row
    # is active in one of them, each with weights of either sign
    rng = np.random.default_rng(seed)
    n, d = 6, 3
    X = rng.standard_normal((n, d))
    G = rng.standard_normal((3, d))
    G[1] = -G[0]
    masks = (G @ X.T > 0.0)[[0, 1, 2, 0, 1]]
    weights = np.array([1.0, 1.0, 1.0, -1.0, -1.0])[:, None] * masks
    keep = masks.any(axis=1)  # an all-off pattern couples to no row
    masks, weights = masks[keep], weights[keep]
    loss = LossModel.by_name(loss_name, 0.7)
    prob = MinSumNormsProblem(
        X=X,
        row_weights=weights,
        loss=loss,
        cone_signs=2.0 * masks - 1.0 if cones else None,
    )
    master = conic._Master(prob, X, np.arange(prob.k), loss.beta)
    W, _ = master.cones.nt_scaling(_interior(master.cones, rng), _interior(master.cones, rng))
    return master, W, rng


def _interior(K, rng):
    """A point of the cone's interior, within 0.4 of twice its identity."""
    return 2.0 * K.identity() + rng.uniform(-0.4, 0.4, K.identity().size) / math.sqrt(K.dim)


@pytest.mark.parametrize(
    "loss_name, cones",
    [("maxmargin", True), ("maxmargin", False), ("hinge", True), ("squared_hinge", True), ("squared_hinge", False)],
)
def test_normal_solve_matches_dense_qr(loss_name, cones):
    for seed in range(4):
        master, W, rng = _random_master(seed, loss_name, cones)
        K = master.cones
        T, B = master.scaled_rows(*K.winv(W))
        N = T.shape[0]
        assert T.shape == (N, N) and B.shape[1] == N
        assert np.array_equal(T, np.triu(T))
        assert B.shape[0] == master.n
        # T'T + B'B is A' W^{-2} A + P, formed column by column from the operators
        A = np.column_stack([master.A(col) for col in np.eye(N)])
        WinvA = np.column_stack([K.wmul(W, col, True) for col in A.T])
        H = WinvA.T @ WinvA + np.diag(master.P)
        assert np.allclose(T.T @ T + B.T @ B, H, rtol=1e-12, atol=1e-12 * np.abs(H).max())
        # the triangular-pentagonal solve against a dense QR of the stacked matrix
        R = scipy.linalg.qr(np.vstack([T, B]), mode="r")[0][:N]
        solve = conic._normal_solver(T, B)
        for r in rng.standard_normal((3, N)):
            ref = scipy.linalg.solve_triangular(R, scipy.linalg.solve_triangular(R, r, trans="T"))
            assert np.linalg.norm(solve(r) - ref) <= 1e-10 * np.linalg.norm(ref)


# The cone operators as they were first written: split a flat vector into its
# orthant part and a (count, dim) array of its cones, apply the formula to
# each part, and join the parts. The bound operators must give the same bits.


def _split(K, v):
    return [v[: K.nl], v[K.nl :].reshape(K.count, K.dim)]


def _join(parts):
    return np.concatenate([parts[0]] + [p.ravel() for p in parts[1:]])


def _ref_wmul(K, W, x, inv=False):
    wl, Wm, Winv = W
    xl, xq = _split(K, x)
    return _join([xl / wl if inv else xl * wl, np.matmul(Winv if inv else Wm, xq[:, :, None])[:, :, 0]])


def _ref_prod(K, x, y):
    xs, ys = _split(K, x), _split(K, y)
    parts = [xs[0] * ys[0]]
    for a, b in zip(xs[1:], ys[1:]):
        out = np.empty_like(a)
        out[:, 0] = np.einsum("ij,ij->i", a, b)
        out[:, 1:] = a[:, :1] * b[:, 1:] + b[:, :1] * a[:, 1:]
        parts.append(out)
    return _join(parts)


def _ref_div(K, lam, r):
    ls, rs = _split(K, lam), _split(K, r)
    parts = [rs[0] / ls[0]]
    for a, b in zip(ls[1:], rs[1:]):
        u = np.empty_like(b)
        u[:, 0] = (a[:, 0] * b[:, 0] - np.einsum("ij,ij->i", a[:, 1:], b[:, 1:])) / _ref_soc_det(a)
        u[:, 1:] = (b[:, 1:] - u[:, :1] * a[:, 1:]) / a[:, :1]
        parts.append(u)
    return _join(parts)


def _ref_soc_det(x):
    r = np.linalg.norm(x[:, 1:], axis=1)
    return (x[:, 0] - r) * (x[:, 0] + r)


def _ref_soc_step(x, dx):
    # per row, each real positive root of qa a^2 + 2 qb a + qc in turn
    qa, qc = _ref_soc_det(dx), _ref_soc_det(x)
    qb = x[:, 0] * dx[:, 0] - np.einsum("ij,ij->i", x[:, 1:], dx[:, 1:])
    disc = qb * qb - qa * qc
    q = -(qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    out = np.full(x.shape[0], math.inf)
    for root in (q / qa, qc / q):
        out = np.where((disc >= 0) & (root > 0) & (root < out), root, out)
    return out


def _ref_step(K, x, dx):
    xs, ds = _split(K, x), _split(K, dx)
    lp = np.where(ds[0] < 0, -xs[0] / ds[0], math.inf)
    cones = [_ref_soc_step(a, b).min(initial=math.inf) for a, b in zip(xs[1:], ds[1:])]
    return min([lp.min(initial=math.inf)] + cones)


def _ref_A(master, x):
    V = x[: master.nv].reshape(master.m, master.d + 1)
    parts = [master.AR @ x]
    if master.CS is not None:
        parts.append((master.CS * (V[:, 1:] @ master.X.T)).ravel())
    parts += [x[master.nv :], x[: master.nv]]
    return np.concatenate(parts)


@pytest.mark.parametrize(
    "loss_name, cones",
    [("maxmargin", True), ("maxmargin", False), ("hinge", True), ("squared_hinge", True), ("squared_hinge", False)],
)
def test_cone_operators_match_split_join(loss_name, cones):
    for seed in range(4):
        master, W, rng = _random_master(seed, loss_name, cones)
        K = master.cones
        size = K.identity().size
        for _ in range(3):
            v, r = rng.standard_normal((2, size))
            for inv in (False, True):
                assert np.array_equal(K.wmul(W, v, inv=inv), _ref_wmul(K, W, v, inv))
                twice = _ref_wmul(K, W, _ref_wmul(K, W, v, inv), inv)
                assert np.array_equal(K.wmul(W, v, inv=inv, times=2), twice)
            lam = _interior(K, rng)
            assert np.array_equal(K.prod(v, r), _ref_prod(K, v, r))
            assert np.array_equal(K.div(lam, r), _ref_div(K, lam, r))
            s, z = lam, _interior(K, rng)
            assert K.steps(s, v, z, r) == (_ref_step(K, s, v), _ref_step(K, z, r))
            x = rng.standard_normal(master.c.size)
            assert np.array_equal(master.A(x), _ref_A(master, x))


@pytest.mark.parametrize(
    "loss_name, cones",
    [("maxmargin", True), ("maxmargin", False), ("hinge", True), ("squared_hinge", True), ("squared_hinge", False)],
)
def test_interior_point_converges_with_few_solves(monkeypatch, loss_name, cones):
    # an unrefined predictor and refinement that stops once the residual is
    # small next to the iterate's error take at most 3.5 normal solves per
    # step, the start's two included
    solves, steps = [], 0
    factor = conic._normal_solver

    def counting(T, B):
        solve = factor(T, B)

        def counted(r):
            solves.append(r)
            return solve(r)

        return counted

    monkeypatch.setattr(conic, "_normal_solver", counting)
    for seed in range(4):
        master, _, _ = _random_master(seed, loss_name, cones)
        x, s, z, taken = conic._interior_point_socp(master)
        steps += taken
        A, AT, b, c, P = master.A, master.AT, master.b, master.c, master.P
        rp, rd = A(x) - b - s, AT(z) - c - P * x
        assert float(s @ z) / (1.0 + abs(float(c @ x + x @ (P * x) / 2))) <= conic.SOCP_STALL
        assert np.linalg.norm(rp) / (1.0 + np.linalg.norm(b)) <= conic.SOCP_STALL
        assert np.linalg.norm(rd) / (1.0 + np.linalg.norm(c)) <= conic.SOCP_STALL
        assert master.cones.min_eig(s) > 0.0 and master.cones.min_eig(z) > 0.0
    assert len(solves) <= 3.5 * steps


@pytest.mark.parametrize(
    "loss_name, cones",
    [("maxmargin", True), ("maxmargin", False), ("hinge", True), ("squared_hinge", True), ("squared_hinge", False)],
)
def test_interior_point_declined_price_changes_nothing(loss_name, cones):
    # a callback that declines the early iterate sees it once and leaves every bit as it was
    for seed in range(4):
        master, _, _ = _random_master(seed, loss_name, cones)
        calls = []

        def decline(x, z):
            calls.append(None)
            return False

        plain = conic._interior_point_socp(master)
        offered = conic._interior_point_socp(master, decline)
        assert len(calls) == 1
        assert plain[3] == offered[3]
        for a, b in zip(plain[:3], offered[:3]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("loss", [LossModel.max_margin(), LossModel.hinge(0.4)], ids=["maxmargin", "hinge"])
def test_msn_rounds_end_at_pricing_point(monkeypatch, loss):
    # general data, n = 10, d = 3: hundreds of cone-constrained blocks, several rounds
    ds = generate_synthetic("general", 10, 3, seed=4)
    prob = _relu_problem(ds, loss, enumerate_patterns(ds.X))
    offered = []  # per master: its block count and whether it was offered a pricing callback
    solve = conic._interior_point_socp

    def recording(master, price=None):
        offered.append((master.m, price is not None))
        return solve(master, price)

    monkeypatch.setattr(conic, "_interior_point_socp", recording)
    res = solve_min_sum_norms(prob, tol=1e-8)
    assert res.rounds == len(offered) and 1 <= res.early_rounds < res.rounds
    assert all(priced == (m < prob.k) for m, priced in offered)
    # blocks negligible at the pricing point leave the working set
    sizes = [m for m, _ in offered]
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    # the same program as one master over every block, certified the same way
    beta = loss.beta
    master = conic._Master(prob, prob.X, np.arange(prob.k), beta)
    x, _, z, _ = solve(master)
    value = conic._certify(prob, x[: master.nv].reshape(prob.k, -1)[:, 1:], z[: prob.X.shape[0]], beta)[0]
    assert abs(res.value - value) <= 1e-8 * abs(value)


def test_msn_dropped_block_priced_back_stays(monkeypatch):
    # dropping every block below 0.3 of the largest t_i evicts blocks the
    # optimum needs; without keeping a block once it is priced back, this
    # program cycled through them to NonConvergence
    ds = generate_synthetic("general", 10, 3, seed=4)
    prob = _relu_problem(ds, LossModel.max_margin(), enumerate_patterns(ds.X))
    value = solve_min_sum_norms(prob, tol=1e-8).value
    monkeypatch.setattr(conic, "MSN_DROP", 0.3)
    res = solve_min_sum_norms(prob, tol=1e-8)
    assert res.early_rounds >= 1
    assert abs(res.value - value) <= 1e-8 * abs(value)


def test_normal_solver_rejects_nonfinite_and_zero_columns():
    T = np.triu(np.ones((3, 3)))
    B = np.ones((2, 3))
    T0, B0 = T.copy(), B.copy()
    T0[:, 1] = B0[:, 1] = 0.0
    cases = [(T, np.where(np.eye(2, 3) > 0, np.nan, B)), (np.where(np.eye(3) > 0, np.inf, T), B), (T0, B0)]
    for bad_T, bad_B in cases:
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            conic._normal_solver(bad_T, bad_B)


# --- phase-1 LP -------------------------------------------------------------


def test_phase1_feasible_point_meets_every_row():
    rng = np.random.default_rng(11)
    ran = 0
    for _ in range(8):
        n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        # labels of a random ReLU network, so the program is feasible
        f = np.maximum(X @ rng.standard_normal((d, 8)), 0.0) @ rng.choice([-1.0, 1.0], size=8)
        if not np.all(f != 0.0):
            continue
        ran += 1
        ds = Dataset(X, np.sign(f).astype(int))
        prob = _relu_problem(ds, LossModel.max_margin(), enumerate_patterns(X))
        U = conic._phase1_feasible(prob)
        assert U is not None and U.shape == (prob.k, d)
        P = U @ X.T
        tol = 1e-6 * (1.0 + np.abs(U).max())
        assert np.einsum("kn,kn->n", prob.row_weights, P).min() >= 1.0 - tol
        assert (prob.cone_signs * P).min() >= -tol
    assert ran >= 6


def test_phase1_infeasible_returns_none():
    # u >= 1 and -u >= 1 on the one block coupled to both rows
    X = np.array([[1.0], [-1.0]])
    assert conic._phase1_feasible(MinSumNormsProblem(X, [[1, 1]])) is None
    # a relu program whose two rows are one point with both labels
    Xd = np.array([[1.0], [1.0]])
    ds = Dataset(Xd, [1, -1])
    prob = _relu_problem(ds, LossModel.max_margin(), enumerate_patterns(Xd))
    assert conic._phase1_feasible(prob) is None


# --- the SDP loop's step length ---------------------------------------------


def test_max_step_matches_generalized_eigh():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        for _ in range(20):
            G = rng.standard_normal((n, n))
            M = G @ G.T + 0.1 * np.eye(n)
            D = rng.standard_normal((n, n))
            dM = D + D.T
            w = scipy.linalg.eigh(dM, M, eigvals_only=True)
            assert conic._max_step(M, dM) == (-1.0 / w[0] if w[0] < 0.0 else math.inf)


def test_max_step_raises_on_indefinite_matrix():
    M = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        conic._max_step(M, np.eye(3))
