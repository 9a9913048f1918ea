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
    project_polyhedral_cone,
    solve_min_sum_norms,
)
from reluapprox.dataset import Dataset, LossModel
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
        proj = project_polyhedral_cone(v, rows)
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
            for ref in (project_polyhedral_cone(v, rows), v + rows.T @ mu):
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
            project_polyhedral_cone(v, X)
        with pytest.raises(NonConvergence):
            conic._project_cones(np.array([v, [1.0, 1.0]]), np.ones((2, 3)), X)


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


def _forbid(*args, **kwargs):
    raise AssertionError("called")


def test_msn_full_support_block_exact(monkeypatch):
    # min ||u|| s.t. X u >= 1 is a least-distance problem: no phase-1 LP, no interior-point master
    monkeypatch.setattr(conic, "_interior_point_socp", _forbid)
    monkeypatch.setattr(conic, "_phase1_feasible", _forbid)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    res = solve_min_sum_norms(MinSumNormsProblem.from_masks(X, np.ones((1, 3))), tol=1e-9)
    assert abs(res.value - math.sqrt(2.0)) <= 1e-12
    assert res.iterations == 0
    assert res.gap <= 1e-9 * (1.0 + res.value)


def test_msn_full_support_block_feasible_not_optimal(monkeypatch):
    # the all-ones block needs |u| ~ 20; the two one-row blocks need 1 + 1/sqrt(1.01)
    monkeypatch.setattr(conic, "_phase1_feasible", _forbid)
    X = np.array([[1.0, 0.0], [-1.0, 0.1]])
    res = solve_min_sum_norms(MinSumNormsProblem.from_masks(X, [[1, 1], [1, 0], [0, 1]]), tol=1e-9)
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
    res = solve_min_sum_norms(MinSumNormsProblem.from_masks(X, [[1, 1], [1, 0], [0, 1]]), tol=1e-9)
    assert abs(res.value - 2.0) <= 1e-9 * 3.0
    assert len(calls) == 1


def test_msn_infeasible_margin_raises():
    # duplicate point with opposite required signs
    X = np.array([[1.0], [1.0]])
    prob = MinSumNormsProblem.from_masks(X, np.array([[1.0, -1.0]]))
    with pytest.raises(Infeasible):
        solve_min_sum_norms(prob)


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
        mode="penalized" if loss.penalized else "margin",
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
            v = project_polyhedral_cone(v, rows)
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
        mode="penalized" if loss.penalized else "margin",
        cone_signs=2.0 * masks - 1.0 if cones else None,
    )
    master = conic._Master(prob, X, np.arange(prob.k), 1.0 if prob.mode == "margin" else loss.beta)
    W, _ = master.cones.nt_scaling(_interior(master.cones, rng), _interior(master.cones, rng))
    return master, W, rng


def _interior(K, rng):
    """A point of the cone's interior, within 0.4 of twice its identity."""
    dim = max([1] + [dim for _, dim in K.socs])
    return 2.0 * K.identity() + rng.uniform(-0.4, 0.4, K.identity().size) / math.sqrt(dim)


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
        assert B.shape[0] == master.n + (master.n + 2 if master.sq else 0)
        if master.sq:
            assert not T[-1].any()  # r has no triangular row; the epigraph rows in B carry it
        # T'T + B'B is A' W^{-2} A, formed column by column from the operators
        A = np.column_stack([master.A(col) for col in np.eye(N)])
        WinvA = np.column_stack([K.wmul(W, col, True) for col in A.T])
        H = WinvA.T @ WinvA
        assert np.allclose(T.T @ T + B.T @ B, H, rtol=1e-12, atol=1e-12 * np.abs(H).max())
        # the triangular-pentagonal solve against a dense QR of the stacked matrix
        R = scipy.linalg.qr(np.vstack([T, B]), mode="r")[0][:N]
        solve = conic._normal_solver(T, B)
        for r in rng.standard_normal((3, N)):
            ref = scipy.linalg.solve_triangular(R, scipy.linalg.solve_triangular(R, r, trans="T"))
            assert np.linalg.norm(solve(r) - ref) <= 1e-10 * np.linalg.norm(ref)


# The cone operators as they were first written: split a flat vector into its
# orthant part and one (count, dim) array per cone group, apply the formula
# per group, and join the parts. The bound operators must give the same bits.


def _split(K, v):
    parts, o = [v[: K.nl]], K.nl
    for count, dim in K.socs:
        parts.append(v[o : o + count * dim].reshape(count, dim))
        o += count * dim
    return parts


def _join(parts):
    return np.concatenate([parts[0]] + [p.ravel() for p in parts[1:]])


def _ref_wmul(K, W, x, inv=False):
    wl, mats = W
    xs = _split(K, x)
    cones = [np.matmul(Winv if inv else Wm, q[:, :, None])[:, :, 0] for (Wm, Winv), q in zip(mats, xs[1:])]
    return _join([xs[0] / wl if inv else xs[0] * wl] + cones)


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
        u[:, 0] = (a[:, 0] * b[:, 0] - np.einsum("ij,ij->i", a[:, 1:], b[:, 1:])) / conic._soc_det(a)
        u[:, 1:] = (b[:, 1:] - u[:, :1] * a[:, 1:]) / a[:, :1]
        parts.append(u)
    return _join(parts)


def _ref_step(K, x, dx):
    xs, ds = _split(K, x), _split(K, dx)
    lp = np.where(ds[0] < 0, -xs[0] / ds[0], math.inf)
    cones = [conic._soc_step(a, b).min(initial=math.inf) for a, b in zip(xs[1:], ds[1:])]
    return min([lp.min(initial=math.inf)] + cones)


def _ref_A(master, x):
    V = x[: master.nv].reshape(master.m, master.d + 1)
    parts = [master.AR @ x]
    if master.CS is not None:
        parts.append((master.CS * (V[:, 1:] @ master.X.T)).ravel())
    parts += [x[master.nv : master.nv + master.nxi], x[: master.nv]]
    if master.sq:
        parts.append(master.S @ x[master.nv :])
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
    # an unrefined predictor and refinement that stops at the rounding floor
    # take at most 4.5 normal solves per step, the start's two included
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
        A, AT, b, c = master.A, master.AT, master.b, master.c
        rp, rd = A(x) - b - s, AT(z) - c
        assert float(s @ z) / (1.0 + abs(float(c @ x))) <= conic.SOCP_STALL
        assert np.linalg.norm(rp) / (1.0 + np.linalg.norm(b)) <= conic.SOCP_STALL
        assert np.linalg.norm(rd) / (1.0 + np.linalg.norm(c)) <= conic.SOCP_STALL
        assert master.cones.min_eig(s) > 0.0 and master.cones.min_eig(z) > 0.0
    assert len(solves) <= 4.5 * steps


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
        prob = _relu_problem(ds, LossModel.max_margin(), enumerate_patterns(X, include_boundary=False))
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
    assert conic._phase1_feasible(MinSumNormsProblem.from_masks(X, [[1, 1]])) is None
    # a relu program whose two rows are one point with both labels
    Xd = np.array([[1.0], [1.0]])
    ds = Dataset(Xd, [1, -1])
    prob = _relu_problem(ds, LossModel.max_margin(), enumerate_patterns(Xd, include_boundary=False))
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
