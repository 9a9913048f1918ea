"""Solver kernels: box least squares, min-sum-of-norms programs, small SDPs.

All three kernels are deterministic and dependency-light (numpy plus
scipy for LP/NNLS plumbing and eigenvalues). The min-sum-of-norms solver
is an operator-splitting (ADMM) scheme whose stopping rule is a
*certified* duality gap: the primal iterate is repaired to exact
feasibility and the dual iterate is scaled into its constraint set, so the
reported gap is a true bound regardless of how far the splitting iteration
has converged. The semidefinite programs (the Max-Cut relaxation and the
block surrogate dual) share one primal-dual interior-point loop; its
callers certify what it returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
from scipy.linalg import cho_factor, cho_solve

from .dataset import LossModel
from .errors import Infeasible, NonConvergence

__all__ = [
    "box_constrained_least_squares",
    "box_lsq_batch",
    "project_polyhedral_cone",
    "MinSumNormsProblem",
    "MinSumNormsResult",
    "solve_min_sum_norms",
]


# ---------------------------------------------------------------------------
# box-constrained least squares
# ---------------------------------------------------------------------------


def box_lsq_batch(
    A: np.ndarray,
    targets: np.ndarray,
    lower: float = 0.0,
    upper: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||A b - p||_2 over the box for every row p of ``targets``.

    Projected gradient with the exact (Cauchy) step for the quadratic,
    followed by an active-set polish that solves the free subsystem by
    least squares. Returns (B, residuals) with one row of B per target.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    P = np.atleast_2d(np.asarray(targets, dtype=float))
    N, d = P.shape[0], A.shape[0]
    m = A.shape[1]
    if m == 0:
        return np.zeros((N, 0)), np.linalg.norm(P, axis=1)
    G = A.T @ A
    Atp = P @ A  # N x m
    B = np.clip(Atp @ np.linalg.pinv(G, rcond=1e-12), lower, upper)

    scale = 1.0 + np.abs(Atp).max(initial=0.0) + np.abs(G).max(initial=0.0)

    def kkt_residual(Bsub, Atpsub):
        grad = Bsub @ G - Atpsub
        return np.linalg.norm(Bsub - np.clip(Bsub - grad, lower, upper), axis=1)

    active = np.arange(N)
    for _ in range(max_iter):
        grad = B[active] @ G - Atp[active]
        step_num = np.einsum("ij,ij->i", grad, grad)
        step_den = np.einsum("ij,jk,ik->i", grad, G, grad)
        t = np.where(step_den > 0, step_num / np.maximum(step_den, 1e-300), 1.0)
        Bn = np.clip(B[active] - t[:, None] * grad, lower, upper)
        B[active] = Bn
        res = kkt_residual(B[active], Atp[active])
        still = res > tol * scale
        active = active[still]
        if active.size == 0:
            break

    # Ill-conditioned rows zig-zag under projected gradient; finish those
    # off with the exact bounded-variable least-squares active-set method.
    res = kkt_residual(B, Atp)
    for i in np.flatnonzero(res > tol * scale):
        sol = scipy.optimize.lsq_linear(A, P[i], bounds=(lower, upper), method="bvls")
        if sol.success or sol.cost <= 0.5 * np.linalg.norm(B[i] @ A.T - P[i]) ** 2:
            B[i] = np.clip(sol.x, lower, upper)

    res = kkt_residual(B, Atp)
    if np.any(res > 1000 * tol * scale):
        raise NonConvergence(
            f"box least squares stalled: max KKT residual {res.max():.3e}"
        )
    dist = np.linalg.norm(B @ A.T - P, axis=1)
    return B, dist


def box_constrained_least_squares(
    A: np.ndarray,
    p: np.ndarray,
    lower: float = 0.0,
    upper: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> tuple[np.ndarray, float]:
    """Single right-hand-side wrapper around :func:`box_lsq_batch`.

    Returns (b, residual) where b minimizes ||A b - p|| over the box.
    """
    B, dist = box_lsq_batch(A, np.asarray(p, float)[None, :], lower, upper, tol, max_iter)
    return B[0], float(dist[0])


def _nnls_small(B: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Lawson-Hanson NNLS min ||B mu - y|| over mu >= 0 for small dense B.

    scipy's nnls mishandles wide systems in some releases and its BVLS
    carries Python overhead that dominates at this size, so the textbook
    active-set loop is done directly in numpy.
    """
    d, p = B.shape
    mu = np.zeros(p)
    active = np.zeros(p, dtype=bool)
    resid = y.copy()
    scale = 1.0 + float(np.abs(B).max()) * (1.0 + float(np.abs(y).max()))
    for _ in range(3 * p + 10):
        w = B.T @ resid
        w[active] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol * scale:
            break
        active[j] = True
        while True:
            idx = np.flatnonzero(active)
            sol, *_ = np.linalg.lstsq(B[:, idx], y, rcond=None)
            if sol.min(initial=1.0) > 0.0:
                mu[:] = 0.0
                mu[idx] = sol
                break
            # step toward the new solution until a variable hits zero
            cur = mu[idx]
            neg = sol <= 0.0
            alphas = cur[neg] / (cur[neg] - sol[neg])
            alpha = float(alphas.min())
            mu[idx] = cur + alpha * (sol - cur)
            drop = idx[mu[idx] <= tol]
            if drop.size == 0:
                drop = idx[np.argmin(mu[idx])][None]
            mu[drop] = 0.0
            active[drop] = False
            if not active.any():
                return np.zeros(p)
        resid = y - B[:, idx] @ mu[idx]
    return mu


def project_polyhedral_cone(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the cone {u : rows @ u >= 0}.

    Via Moreau: the residual v - proj is the projection onto the polar cone
    {-rows.T @ mu : mu >= 0}, a nonnegative least-squares problem.
    """
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(rows)
    if rows.size == 0 or np.all(rows @ v >= 0):
        return v
    mu = _nnls_small(rows.T, -v)
    return v + rows.T @ mu


# ---------------------------------------------------------------------------
# min-sum-of-norms cone programs
# ---------------------------------------------------------------------------


@dataclass
class MinSumNormsProblem:
    """A group-norm cone program built on a shared data matrix X (n x d).

    Block i couples to the rows through ``row_weights[i]`` (an n-vector a_i,
    typically a 0/1 mask, or a label-folded +-1 mask), giving the linear map
    F_i u_i = a_i * (X u_i). The program is

        margin mode:     min  sum_i ||u_i||   s.t.  sum_i F_i u_i >= 1
        penalized mode:  min  sum_j loss(s_j) + beta * sum_i ||u_i||,
                              s = sum_i F_i u_i

    optionally with the cone constraints diag(cone_signs[i]) X u_i >= 0 on
    every block (cone_signs is k x n of +-1; None means no block has one).
    """

    X: np.ndarray
    row_weights: np.ndarray  # k x n
    loss: LossModel
    mode: str = "margin"  # "margin" | "penalized"
    cone_signs: Optional[np.ndarray] = None  # k x n of +-1

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.row_weights = np.atleast_2d(np.asarray(self.row_weights, dtype=float))
        if self.row_weights.shape[1] != self.X.shape[0]:
            raise ValueError("row_weights must have one column per data row")
        if self.row_weights.shape[0] == 0:
            raise ValueError("need at least one block")
        if not np.any(self.row_weights != 0, axis=1).all():
            raise ValueError("every block needs a nonempty row coupling")
        if self.mode not in ("margin", "penalized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cone_signs is not None:
            self.cone_signs = np.atleast_2d(np.asarray(self.cone_signs, dtype=float))
            if self.cone_signs.shape != self.row_weights.shape:
                raise ValueError("cone_signs must have one row per block and one column per data row")

    @property
    def k(self) -> int:
        return self.row_weights.shape[0]

    @staticmethod
    def from_masks(X, masks, loss: Optional[LossModel] = None, mode: str = "margin"):
        """Build the plain masked program sum_i diag(b_i) X u_i >= 1."""
        return MinSumNormsProblem(
            X=X,
            row_weights=np.atleast_2d(np.asarray(masks, dtype=float)),
            loss=loss or LossModel.max_margin(),
            mode=mode,
        )


@dataclass
class MinSumNormsResult:
    value: float
    blocks: np.ndarray  # k x d
    lam: np.ndarray  # n, margin/loss dual (nonnegative)
    gap: float
    iterations: int
    dual_value: float


def _phase1_feasible(prob: MinSumNormsProblem) -> bool:
    """LP feasibility check for the margin system (with cone rows)."""
    X, RW = prob.X, prob.row_weights
    n, d = X.shape
    k = prob.k
    nv = k * d + 1  # u blocks flattened + slack t
    # margin rows: -sum_i a_i*(X u_i) - t <= -1
    A_margin = scipy.sparse.hstack(
        [scipy.sparse.csr_matrix(-RW[i][:, None] * X) for i in range(k)]
        + [scipy.sparse.csr_matrix(-np.ones((n, 1)))],
        format="csr",
    )
    mats = [A_margin]
    rhs = [-np.ones(n)]
    if prob.cone_signs is not None:
        blocks = scipy.sparse.block_diag(
            [scipy.sparse.csr_matrix(-prob.cone_signs[i][:, None] * X) for i in range(k)],
            format="csr",
        )
        pad = scipy.sparse.csr_matrix((blocks.shape[0], 1))
        mats.append(scipy.sparse.hstack([blocks, pad], format="csr"))
        rhs.append(np.zeros(blocks.shape[0]))
    A_ub = scipy.sparse.vstack(mats, format="csr")
    b_ub = np.concatenate(rhs)
    c = np.zeros(nv)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * (nv - 1) + [(0, None)],
        method="highs",
    )
    return res.status == 0 and res.fun is not None and res.fun <= 1e-7


CONE_FEAS_RTOL = 1e-11


def _repair_cones(prob: MinSumNormsProblem, U: np.ndarray) -> np.ndarray:
    """Project the blocks of U onto their feasibility cones.

    Violations at roundoff scale (relative to the block) are left alone;
    the certification treats them as feasible.
    """
    if prob.cone_signs is None:
        return U
    X = prob.X
    row_scale = 1.0 + np.linalg.norm(X, axis=1).max()
    U = U.copy()
    vals = prob.cone_signs * (U @ X.T)
    for i in range(prob.k):
        scale = row_scale * (1.0 + np.linalg.norm(U[i]))
        if vals[i].min() < -CONE_FEAS_RTOL * scale:
            rows = prob.cone_signs[i][:, None] * X
            u = project_polyhedral_cone(U[i], rows)
            if (rows @ u).min() >= -CONE_FEAS_RTOL * scale:
                U[i] = u
    return U


def _dual_block_values(
    prob: MinSumNormsProblem, lam: np.ndarray, floor: float = 0.0
) -> np.ndarray:
    """Per-block dual constraint values theta_i = sup_{u in K_i, |u|<=1} lam' F_i u.

    Without cones these are ||F_i' lam||; with cones they need the
    projection onto each cone, computed in decreasing order of the
    unprojected norm so that blocks which cannot change the maximum are
    skipped. With ``floor`` set, blocks whose unprojected norm stays below
    it are never projected (the caller only cares about values above the
    floor, e.g. a dual budget).
    """
    X = prob.X
    V = (prob.row_weights * lam[None, :]) @ X  # k x d, rows F_i' lam
    theta = np.linalg.norm(V, axis=1)
    if prob.cone_signs is not None:
        tmax = floor
        for i in np.argsort(-theta):
            if theta[i] <= tmax:  # projection never increases the norm
                continue
            rows = prob.cone_signs[i][:, None] * X
            theta[i] = np.linalg.norm(project_polyhedral_cone(V[i], rows))
            tmax = max(tmax, theta[i])
    return theta


def _cone_violation(prob, U) -> float:
    if prob.cone_signs is None:
        return 0.0
    vals = prob.cone_signs * (U @ prob.X.T)
    row_scale = 1.0 + np.linalg.norm(prob.X, axis=1).max()
    scales = row_scale * (1.0 + np.linalg.norm(U, axis=1))
    rel = -(vals.min(axis=1)) / scales
    return float(max(rel.max(initial=0.0), 0.0))


def _certify(prob, U, lam_raw, beta_norm):
    """Return (primal value, dual value, feasible U, feasible lam)."""
    X, RW = prob.X, prob.row_weights
    loss = prob.loss
    U = _repair_cones(prob, U)
    cone_ok = _cone_violation(prob, U) <= 10 * CONE_FEAS_RTOL
    s = np.einsum("kn,kn->n", RW, U @ X.T)
    lam = np.maximum(lam_raw, 0.0)
    if prob.mode == "margin":
        smin = s.min() if s.size else 1.0
        if smin <= 1e-12 or not cone_ok:
            pval = math.inf
            U_feas = U
        else:
            U_feas = U / smin
            pval = float(np.linalg.norm(U_feas, axis=1).sum())
        theta = _dual_block_values(prob, lam)
        tmax = theta.max() if theta.size else 0.0
        lam_feas = lam / max(1.0, tmax)
        dval = float(lam_feas.sum())
        return pval, dval, U_feas, lam_feas
    # penalized
    if not cone_ok:
        return math.inf, -math.inf, U, lam
    pval = float(np.sum(loss.ell(s)) + beta_norm * np.linalg.norm(U, axis=1).sum())
    lam = np.minimum(lam, loss.box_upper)
    theta = _dual_block_values(prob, lam)
    tmax = theta.max() if theta.size else 0.0
    if tmax > beta_norm:
        lam = lam * (beta_norm / tmax)
    dval = float(np.sum(loss.g(lam)))
    return pval, dval, U, lam


def _block_support_direction(prob: MinSumNormsProblem, i: int, lam: np.ndarray):
    """The direction attaining sup_{u in K_i, |u|<=1} lam' F_i u."""
    v = prob.X.T @ (prob.row_weights[i] * lam)
    if prob.cone_signs is not None:
        rows = prob.cone_signs[i][:, None] * prob.X
        v = project_polyhedral_cone(v, rows)
    nv = np.linalg.norm(v)
    return (v / nv, nv) if nv > 0 else (None, 0.0)


def _polish_direction_lp(prob: MinSumNormsProblem, U, beta_norm, block_rtol):
    """Column generation over frozen block directions.

    With directions fixed, the margin program is the LP
    min sum t s.t. sum t_j (F_{i_j} v_j) >= 1, t >= 0 (the penalized hinge
    adds slack variables); its row duals lam price new directions. A block
    whose dual constraint sup_{u in K_i} lam' F_i u exceeds the budget
    contributes its maximizing direction as a fresh column, which is exact
    pricing, so the loop terminates at the true optimum of the full
    program whenever the splitting iterate seeded the right neighborhood.
    Directions are cone-feasible by construction, hence so is any
    nonnegative combination.
    """
    loss = prob.loss
    if prob.mode == "penalized" and loss.name != "hinge":
        return None
    X, RW = prob.X, prob.row_weights
    n = X.shape[0]
    unorms = np.linalg.norm(U, axis=1)
    act = np.flatnonzero(unorms > block_rtol * (1.0 + unorms.max()))
    if act.size == 0:
        return None
    Urep = _repair_cones(prob, U)
    cols: list[tuple[int, np.ndarray]] = []
    for i in act:
        nu = np.linalg.norm(Urep[i])
        if nu > 0:
            cols.append((int(i), Urep[i] / nu))
    if not cols:
        return None
    out = None
    for _ in range(60):
        M = np.stack([RW[i] * (X @ v) for i, v in cols], axis=1)  # n x ncols
        ncols = len(cols)
        if prob.mode == "margin":
            res = scipy.optimize.linprog(
                np.ones(ncols), A_ub=-M, b_ub=-np.ones(n),
                bounds=[(0, None)] * ncols, method="highs",
            )
            if res.status != 0:
                return out
            t = np.maximum(res.x, 0.0)
            lam = np.abs(np.asarray(res.ineqlin.marginals))
        else:
            c = np.concatenate([beta_norm * np.ones(ncols), np.ones(n)])
            res = scipy.optimize.linprog(
                c, A_ub=np.hstack([-M, -np.eye(n)]), b_ub=-np.ones(n),
                bounds=[(0, None)] * (ncols + n), method="highs",
            )
            if res.status != 0:
                return out
            t = np.maximum(res.x[:ncols], 0.0)
            lam = np.clip(np.abs(np.asarray(res.ineqlin.marginals)), 0.0, loss.box_upper)
        U_out = np.zeros_like(U)
        for (i, v), ti in zip(cols, t):
            U_out[i] += ti * v
        out = (U_out, lam)
        # exact pricing: add support directions of the most violated blocks
        budget = 1.0 if prob.mode == "margin" else beta_norm
        theta = _dual_block_values(prob, lam, floor=budget)
        worst = np.argsort(-theta)[:8]
        added = 0
        have = {(i, v.tobytes()) for i, v in cols}
        for i in worst:
            if theta[i] <= budget * (1.0 + 1e-12):
                continue
            v, nv = _block_support_direction(prob, int(i), lam)
            # nv is the exact constraint value; theta[i] may be a skipped
            # block's unprojected upper bound
            if v is None or nv <= budget * (1.0 + 1e-12):
                continue
            key = (int(i), v.tobytes())
            if key not in have and len(cols) < 400:
                cols.append((int(i), v))
                have.add(key)
                added += 1
        if added == 0:
            return out
    return out


def _polish_kkt(prob: MinSumNormsProblem, U, lam, muT, beta_norm, block_rtol, row_rtol, seen_keys):
    """Newton refinement of the KKT system on the active set ADMM identified.

    First-order splitting identifies which blocks, margin rows, and cone
    rows are active long before it reaches high accuracy; the KKT equations
    restricted to that structure are smooth and square, so a damped
    Gauss-Newton solve polishes the iterate to near machine precision.
    ``muT`` holds the splitting's cone multipliers (None without cones).
    Returns a refined (U, lam) pair or None when the guess fails.
    """
    X, RW = prob.X, prob.row_weights
    n, d = X.shape
    loss = prob.loss
    lam = np.maximum(lam, 0.0)
    unorms = np.linalg.norm(U, axis=1)
    act_blocks = np.flatnonzero(unorms > block_rtol * (1.0 + unorms.max()))
    if act_blocks.size == 0:
        return None
    nA = act_blocks.size
    mode = prob.mode
    s = np.einsum("kn,kn->n", RW, U @ X.T)

    if mode == "margin":
        act_rows = np.flatnonzero(lam > row_rtol * (1.0 + lam.max()))
        if act_rows.size == 0:
            return None
    elif loss.name == "hinge":
        # rows sitting on the hinge kink carry the free multipliers
        act_rows = np.flatnonzero(np.abs(s - 1.0) < 100 * row_rtol)
        lam = np.clip(lam, 0.0, 1.0)
    else:
        act_rows = np.zeros(0, dtype=int)
    key = (act_blocks.tobytes(), act_rows.tobytes())
    if key in seen_keys:
        return None
    seen_keys.add(key)
    if nA > 60:
        return None  # numeric-Jacobian Newton is not worth it at this size

    nlam = act_rows.size
    nvar = nA * d + nlam
    x0 = [U[act_blocks].ravel(), lam[act_rows]]
    cones = []  # (active-block index, matrix of its active cone rows, slice of x with their multipliers)
    if prob.cone_signs is not None:
        for idx, i in enumerate(act_blocks):
            vals = prob.cone_signs[i] * (X @ U[i])
            rows = np.flatnonzero(
                (np.abs(vals) < 1e-5 * (1.0 + unorms[i])) | (muT[i] > 1e-6 * (1.0 + muT[i].max()))
            )
            if rows.size:
                cones.append((idx, prob.cone_signs[i][rows][:, None] * X[rows], slice(nvar, nvar + rows.size)))
                x0.append(muT[i][rows])
                nvar += rows.size
    if nvar > 400:
        return None  # likewise
    x0 = np.concatenate(x0)

    def unpack(xv):
        lam_full = np.zeros(n)
        lam_full[act_rows] = xv[nA * d : nA * d + nlam]
        return xv[: nA * d].reshape(nA, d), lam_full

    def lam_of_s(sv, lam_full):
        if mode == "margin":
            return lam_full
        if loss.name == "hinge":
            out = np.where(sv < 1.0, 1.0, 0.0)
            out[act_rows] = lam_full[act_rows]
            return out
        return loss.dual_from_slope(sv)

    obj_scale = 1.0 if mode == "margin" else beta_norm
    RW_act = RW[act_blocks]

    def residual(xv):
        Ua, lam_full = unpack(xv)
        P = Ua @ X.T  # nA x n
        sv = np.einsum("kn,kn->n", RW_act, P)
        lamv = lam_of_s(sv, lam_full)
        G = (RW_act * lamv[None, :]) @ X  # nA x d, rows F_i' lam
        for idx, C, mu in cones:
            G[idx] = G[idx] + C.T @ xv[mu]
        nu = np.linalg.norm(Ua, axis=1)
        res = [(Ua - (nu / obj_scale)[:, None] * G).ravel(), sv[act_rows] - 1.0]
        res += [C @ Ua[idx] for idx, C, _ in cones]
        return np.concatenate(res)

    F = residual(x0)
    scale = 1.0 + np.abs(x0).max()
    x = x0
    stall = 0
    for _ in range(18):
        nrm = np.linalg.norm(F)
        if nrm <= 1e-12 * scale * math.sqrt(nvar):
            break
        J = np.empty((F.size, nvar))
        h = 1e-7 * scale
        for j in range(nvar):
            xp = x.copy()
            xp[j] += h
            J[:, j] = (residual(xp) - F) / h
        try:
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-4:
            Fn = residual(x + t * step)
            if np.linalg.norm(Fn) < nrm:
                break
            t *= 0.5
        else:
            return None
        stall = stall + 1 if np.linalg.norm(Fn) > 0.3 * nrm else 0
        if stall >= 4:
            return None
        x = x + t * step
        F = Fn
    if np.linalg.norm(F) > 1e-9 * scale * math.sqrt(nvar):
        return None
    Ua, lam_full = unpack(x)
    U_out = np.zeros_like(U)
    U_out[act_blocks] = Ua
    sv = np.einsum("kn,kn->n", RW, U_out @ X.T)
    lam_out = np.maximum(lam_of_s(sv, lam_full), 0.0)
    if prob.mode == "penalized" and loss.name == "hinge":
        lam_out = np.minimum(lam_out, 1.0)
    return U_out, lam_out


def solve_min_sum_norms(prob: MinSumNormsProblem, tol: float = 1e-8) -> MinSumNormsResult:
    """Solve a min-sum-of-norms program by operator splitting (ADMM).

    Stops when the certified duality gap drops below tol * (1 + |value|).
    Margin mode runs an LP feasibility phase first and raises
    :class:`Infeasible` when the margin system has no solution;
    :class:`NonConvergence` signals an exhausted iteration budget.
    """
    X = prob.X
    RW = prob.row_weights
    n, d = X.shape
    k = prob.k
    loss = prob.loss
    beta_norm = 1.0 if prob.mode == "margin" else loss.beta
    max_iter = 200000
    rho = 1.0
    check_every = 250 if k <= 512 else 1000  # certification cost grows with k
    if prob.mode == "margin" and not _phase1_feasible(prob):
        raise Infeasible("margin system has no feasible point")
    if prob.mode == "penalized" and (loss.ell is None or loss.prox is None):
        raise ValueError("penalized mode needs a LossModel with ell and prox")

    # Prefactor the block and coupling systems. With cones every block
    # solves with H = I + X'X (the cone sign matrix is orthogonal on rows)
    # and couples through K = X H^{-1} X'; without them H = I and K = X X'.
    CS = prob.cone_signs
    has_cone = CS is not None
    if has_cone:
        Hc = cho_factor(np.eye(d) + X.T @ X)
        K = X @ cho_solve(Hc, X.T)

        def hsolve(R):
            return cho_solve(Hc, R.T).T
    else:
        K = X @ X.T

        def hsolve(R):
            return R
    Sfac = cho_factor(np.eye(n) + K * (RW.T @ RW))

    U = np.zeros((k, d))
    w = np.zeros((k, d))
    z = np.ones(n) if prob.mode == "margin" else np.zeros(n)
    T = np.zeros((k, n)) if has_cone else None
    aw = np.zeros((k, d))
    az = np.zeros(n)
    aT = np.zeros((k, n)) if has_cone else None
    s = np.zeros(n)
    w_prev = w
    z_prev = z
    T_prev = T

    best = None  # (gap_rel, pval, dval, U_feas, lam_feas)
    thresh = beta_norm / rho
    next_polish = 6 * check_every  # let easy instances certify on their own first
    polish_tries = 0
    adapt_left = 60

    def accept(U_cand, lam_cand):
        """Certify a candidate, keep it if it is the best so far, and
        return the result once its gap is within ``tol``."""
        nonlocal best
        pval, dval, U_feas, lam_feas = _certify(prob, U_cand, lam_cand, beta_norm)
        if not math.isfinite(pval):
            return None
        gap = pval - dval
        rel = gap / (1.0 + abs(pval))
        if best is None or rel < best[0]:
            best = (rel, pval, dval, U_feas, lam_feas)
        if rel <= tol:
            return MinSumNormsResult(
                value=pval, blocks=U_feas, lam=lam_feas, gap=gap, iterations=it, dual_value=dval
            )
        return None

    it = 0
    while it < max_iter:
        it += 1
        # --- U step: coupled least squares via the (I + M) system
        zhat = z - az
        R = ((RW * zhat[None, :]) @ X) + (w - aw)
        if has_cone:
            R += (CS * (T - aT)) @ X
        Q = hsolve(R)
        b = np.einsum("kn,kn->n", RW, Q @ X.T)
        s = cho_solve(Sfac, b)
        U = Q - hsolve((RW * s[None, :]) @ X)
        s = np.einsum("kn,kn->n", RW, U @ X.T)

        # --- proximal steps
        w_prev, z_prev, T_prev = w, z, T
        p_in = U + aw
        norms = np.linalg.norm(p_in, axis=1)
        shrink = np.maximum(0.0, 1.0 - thresh / np.maximum(norms, 1e-300))
        w = p_in * shrink[:, None]
        zin = s + az
        if prob.mode == "margin":
            z = np.maximum(zin, 1.0)
        else:
            z = loss.prox(zin, rho)
        if has_cone:
            Vc = CS * (U @ X.T)
            T = np.maximum(Vc + aT, 0.0)

        # --- dual updates
        aw += U - w
        az += s - z
        if has_cone:
            aT += Vc - T

        if it % check_every == 0 or it == max_iter:
            done = accept(U, -rho * az)
            if done is not None:
                return done
            if best is not None and best[0] <= 0.2 and it >= next_polish:
                # the splitting has identified the active structure; polish
                # the best certified point so far, backing off on failure
                polish_tries += 1
                next_polish = it + 4 * check_every * min(polish_tries, 8)
                U_seed, lam_seed = best[3], best[4]
                muT = rho * aT if has_cone else None
                seen_keys: set = set()
                candidates = itertools.chain(
                    (_polish_direction_lp(prob, U_seed, beta_norm, br) for br in (1e-4, 1e-2)),
                    (
                        _polish_kkt(prob, U_seed, lam_seed, muT, beta_norm, br, rr, seen_keys)
                        for br, rr in itertools.product((1e-4, 1e-2, 1e-6), (1e-6, 1e-3, 1e-2))
                    ),
                )
                for cand in candidates:
                    done = None if cand is None else accept(*cand)
                    if done is not None:
                        return done
            # adapt the step scale by primal/dual residual balance; freeze
            # once the gap is closing so the contraction is not reset
            if adapt_left > 0 and (best is None or best[0] > 1e-3):
                r_pri = np.linalg.norm(U - w) + np.linalg.norm(s - z)
                r_dua = rho * (np.linalg.norm(w - w_prev) + np.linalg.norm(z - z_prev))
                if has_cone:
                    r_pri += np.linalg.norm(Vc - T)
                    r_dua += rho * np.linalg.norm(T - T_prev)
                new_rho = rho
                if r_pri > 10 * r_dua:
                    new_rho = min(rho * 2.0, 1e6)
                elif r_dua > 10 * r_pri:
                    new_rho = max(rho / 2.0, 1e-6)
                if new_rho != rho:
                    adapt_left -= 1
                    adj = rho / new_rho
                    aw *= adj
                    az *= adj
                    if has_cone:
                        aT *= adj
                    rho = new_rho
            thresh = beta_norm / rho

    if best is not None and best[0] <= 100 * tol:
        _, pval, dval, U_feas, lam_feas = best
        return MinSumNormsResult(
            value=pval,
            blocks=U_feas,
            lam=lam_feas,
            gap=pval - dval,
            iterations=max_iter,
            dual_value=dval,
        )
    raise NonConvergence(
        f"min-sum-of-norms splitting did not certify gap <= {tol:g} in {max_iter} iterations"
        + (f" (best relative gap {best[0]:.3e})" if best else "")
    )


# ---------------------------------------------------------------------------
# interior-point method for small semidefinite programs
# ---------------------------------------------------------------------------

SDP_GAP = 1e-10  # stop: tr(XZ) <= SDP_GAP * max(1, |b'y|)
SDP_MAX_ITER = 100


def _max_step(M: np.ndarray, dM: np.ndarray) -> float:
    """Largest t with M + t dM positive definite, for M positive definite."""
    w = scipy.linalg.eigh(dM, M, eigvals_only=True, check_finite=False)
    return -1.0 / w[0] if w[0] < 0.0 else math.inf


def _interior_point_sdp(C: np.ndarray, A: np.ndarray, b: np.ndarray, y: np.ndarray):
    """Solve max tr(CX) s.t. tr(A_i X) = b_i, X >= 0, and its dual, by interior points.

    This is the primal-dual iteration of Helmberg, Rendl, Vanderbei and
    Wolkowicz (1996). ``A`` is an (m, N, N) stack of symmetric matrices and
    ``y`` must make the dual slack Z = sum_i y_i A_i - C positive definite;
    X starts at the identity. Each step solves M dy = mu A(Z^-1) - b with
    M_ij = tr(A_i X A_j Z^-1), sets dX = mu Z^-1 - X - Z^-1 dZ X and moves
    0.95 of the way to the boundary, capped at a full step, so X and Z stay
    positive definite; the primal residual A(X) - b shrinks with each primal
    step and vanishes (to rounding) at the first full one. The loop stops
    once tr(XZ) <= 1e-10 max(1, |b'y|) or after 100 steps; a singular
    Newton system ends it early at the last (interior) iterate. Returns
    (X, y, Z, steps, met), ``met`` saying whether the gap target was met.
    """
    X = np.eye(C.shape[0])
    Z = np.tensordot(y, A, 1) - C
    step_p = step_d = 0.0
    for it in range(SDP_MAX_ITER + 1):
        gap = float(np.sum(X * Z))
        met = gap <= SDP_GAP * max(1.0, abs(float(np.sum(b * y))))
        if met or it == SDP_MAX_ITER:
            break
        # barrier parameter of HRVW: cut harder after long steps
        mu = gap / (2 * C.shape[0])
        if step_p + step_d > 1.6:
            mu *= 0.5
        if step_p + step_d > 1.9:
            mu /= 5.0
        try:
            Zi = np.linalg.inv(Z)
            Zi = 0.5 * (Zi + Zi.T)
            M = np.einsum("ikl,jlk->ij", A @ X, A @ Zi)
            dy = np.linalg.solve(M, mu * np.einsum("ikl,lk->i", A, Zi) - b)
            dZ = np.tensordot(dy, A, 1)
            dX = mu * Zi - X - (Zi @ dZ) @ X
            dX = 0.5 * (dX + dX.T)
            step_p = min(1.0, 0.95 * _max_step(X, dX))
            step_d = min(1.0, 0.95 * _max_step(Z, dZ))
        except np.linalg.LinAlgError:
            break  # the last iterate is interior; return it as it is
        X = X + step_p * dX
        y = y + step_d * dy
        Z = np.tensordot(y, A, 1) - C
    return X, y, Z, it, met
