"""Solver kernels: box least squares, min-sum-of-norms programs, small SDPs.

All three kernels are deterministic and need only numpy and scipy
(scipy for the phase-1 LP, the compiled NNLS and LAPACK routines). The
box least squares is the finite bounded-variable method of Stark and
Parker, batched over the target points of one generator matrix. The min-sum-of-norms solver is
column generation. A cone master over a working set of blocks, with one
orthant, one family of second-order cones and a diagonal quadratic
objective (nonzero only for the squared hinge's slacks), is solved by a
primal-dual interior-point method with Nesterov-Todd scaling; each Newton
step factors a square-root matrix that is upper triangular but for the n
dense margin rows, by LAPACK's triangular-pentagonal QR,
and applies the cone operators slice by slice on flat vectors. The master
is priced against every block's dual constraint, evaluated for all blocks
at once and exactly wherever it can exceed the budget (with cone rows, by
an NNLS projection of each such block onto its cone), and the solver
stops on a *certified* duality gap of the full program: the primal blocks
are scaled to exact feasibility and the master's multipliers into their
constraint set, so the reported gap is a true bound however accurately
the master was solved. A master is first offered for pricing at an early,
well-centred iterate (error 1e-2, as in the primal-dual column generation
of Gondzio, Gonzalez-Brevis and Munari, EJOR 224, 2013); a round that
prices new blocks there ends early and drops the blocks whose norm is
negligible at that iterate (column deletion), and only a master that
prices none runs to completion and is certified. A margin program without
cone rows first tries one block coupled to every row, a least-distance
problem solved exactly by Lawson and Hanson's NNLS; that block often
certifies alone, and otherwise keeps every master feasible without the
phase-1 LP. The semidefinite programs (the Max-Cut relaxation
and the block surrogate dual) share one primal-dual interior-point loop,
with a diagonal quadratic objective (nonzero only for the squared hinge's
lam); its callers certify what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .dataset import LossModel
from .errors import Infeasible, NonConvergence

__all__ = [
    "box_lsq_batch",
    "MinSumNormsProblem",
    "MinSumNormsResult",
    "solve_min_sum_norms",
]


# ---------------------------------------------------------------------------
# box-constrained least squares
# ---------------------------------------------------------------------------


def box_lsq_batch(A: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||A b - p||_2 over b in [0, 1]^m for every row p of ``targets``.

    Bounded-variable least squares (Stark and Parker, Comput. Stat. 10,
    1995), run on all rows at once. Each row starts at b = 0 with no free
    variable. An outer step frees the bound variable of steepest descent;
    the inner loop solves least squares over the free set with the bound
    variables held, and a solution that leaves the box steps to the first
    bound it hits and fixes the variables that hit it. Rows that share a
    free set share one pseudo-inverse. The method is finite; a KKT
    residual left above 1000 times its tolerance raises NonConvergence.
    Returns (B, distances) with one row of B per target.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    P = np.atleast_2d(np.asarray(targets, dtype=float))
    N, m = P.shape[0], A.shape[1]
    if m == 0:
        return np.zeros((N, 0)), np.linalg.norm(P, axis=1)
    G = A.T @ A
    Atp = P @ A  # N x m
    scale = np.abs(Atp).max(initial=0.0) + np.abs(G).max(initial=0.0)
    B = np.zeros((N, m))
    free = np.zeros((N, m), dtype=bool)
    rows = np.arange(N)
    for _ in range(3 * m + 10):
        W = Atp[rows] - B[rows] @ G
        W = np.where(free[rows], -np.inf, np.where(B[rows] == 1.0, -W, W))
        j = np.argmax(W, axis=1)
        keep = W[np.arange(rows.size), j] > 1e-10 * scale
        rows, j = rows[keep], j[keep]
        if rows.size == 0:
            break
        free[rows, j] = True
        todo = rows
        for _ in range(m + 1):
            Bt = B[todo]
            Z = Bt.copy()
            masks, group, counts = np.unique(free[todo], axis=0, return_inverse=True, return_counts=True)
            order = np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(counts)[:-1])
            for cols, idx in zip(masks, order):
                R = P[todo[idx]] - Bt[idx] @ (A * ~cols).T
                Z[np.ix_(idx, np.flatnonzero(cols))] = R @ np.linalg.pinv(A[:, cols], rcond=1e-12).T
            low, high = Z < 0.0, Z > 1.0
            out = (low | high).any(axis=1)
            B[todo[~out]] = Z[~out]
            todo, Bt, Z, low, high = todo[out], Bt[out], Z[out], low[out], high[out]
            if todo.size == 0:
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(low, Bt / (Bt - Z), np.where(high, (1.0 - Bt) / (Z - Bt), np.inf))
            alpha = step.min(axis=1, keepdims=True)
            Bt += alpha * (Z - Bt)
            hit = step <= alpha
            Bt[hit] = high[hit]  # exactly 1 at the upper bound, 0 at the lower
            B[todo] = Bt
            free[todo] &= ~hit

    grad = B @ G - Atp
    res = np.linalg.norm(B - np.clip(B - grad, 0.0, 1.0), axis=1)
    if not np.all(res <= 1000 * 1e-10 * (1.0 + scale)):
        raise NonConvergence(f"box least squares stalled: max KKT residual {res.max():.3e}")
    return B, np.linalg.norm(B @ A.T - P, axis=1)


def _nnls_small(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nonnegative least squares min ||B mu - y|| over mu >= 0, checked.

    B is d x p with y a d-vector, or a stack (t, d, p) of such problems
    with y (t, d), solved one by one. Each runs the compiled Lawson-Hanson
    active-set method of ``scipy.optimize.nnls`` (scipy >= 1.17; older
    releases mishandled wide systems), bounded at 3p + 10 iterations. One
    batched check then requires every answer to meet the KKT conditions,
    |mu - max(mu + B'(y - B mu), 0)| <= 1000 tol (1 + max|B| (1 + max|y|))
    with tol = 1e-12; a failed check, the iteration limit or a non-finite
    input raises NonConvergence, so a wrong answer never reaches a
    certificate.
    """
    p = B.shape[-1]
    mu = np.zeros(B.shape[:-2] + (p,))
    if B.size == 0:  # scipy's nnls does not handle an empty system
        return mu
    try:
        if B.ndim == 2:
            mu = scipy.optimize.nnls(B, y, maxiter=3 * p + 10)[0]
        else:
            for i in range(B.shape[0]):
                mu[i] = scipy.optimize.nnls(B[i], y[i], maxiter=3 * p + 10)[0]
    except (RuntimeError, ValueError) as exc:
        raise NonConvergence(f"NNLS failed: {exc}") from exc
    scale = 1.0 + np.abs(B).max(axis=(-2, -1)) * (1.0 + np.abs(y).max(axis=-1))
    r = y - (B @ mu[..., None])[..., 0]
    kkt = mu - np.maximum(mu + (r[..., None, :] @ B)[..., 0, :], 0.0)
    res = np.sqrt((kkt * kkt).sum(axis=-1))
    if not np.all(res <= 1000 * 1e-12 * scale):
        raise NonConvergence(f"NNLS missed its KKT conditions: max residual {res.max():.3e}")
    return mu


def _least_distance(G: np.ndarray, h: Optional[np.ndarray] = None) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Solve the least-distance program min ||u|| s.t. G u >= h exactly (h = 1 by default).

    Lawson and Hanson, *Solving Least Squares Problems*, ch. 23: the NNLS
    min ||E mu - e|| over mu >= 0, with E = [G'; h'] and e the last unit
    vector, gives the multipliers lam = mu / (1 - h'mu) and u = G' lam. The
    residual's last entry is -(1 - h'mu), so the system has no solution
    exactly when that vanishes; below 4 n eps this returns None. Otherwise
    it returns (u, lam), lam being the multipliers of min ||u||^2 / 2, so
    ||u||^2 = h'lam at the optimum.
    """
    n, d = G.shape
    h = np.ones(n) if h is None else h
    E = np.vstack([G.T, h])
    e = np.zeros(d + 1)
    e[-1] = 1.0
    mu = _nnls_small(E, e)
    denom = 1.0 - float(h @ mu)
    if denom <= 4.0 * n * np.finfo(float).eps:
        return None
    lam = mu / denom
    return G.T @ lam, lam


def _project_cones(V: np.ndarray, signs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project every row v_i of V onto its cone {u : signs_i * (X u) >= 0}.

    Rows that pass their cone check are returned as they are. For the
    others, by Moreau, v_i - proj_i is the projection onto the polar cone:
    the NNLS min ||B_i mu + v_i|| over mu >= 0, with generators
    B_i = (diag(signs_i) X)', all passed to :func:`_nnls_small` as one
    stack.
    """
    todo = np.flatnonzero(~np.all(signs * (V @ X.T) >= 0.0, axis=1))
    B = signs[todo][:, None, :] * X.T  # (t, d, n)
    P = V.copy()
    P[todo] += np.einsum("tdn,tn->td", B, _nnls_small(B, -V[todo]))
    return P


# ---------------------------------------------------------------------------
# min-sum-of-norms cone programs
# ---------------------------------------------------------------------------


@dataclass
class MinSumNormsProblem:
    """A group-norm cone program built on a shared data matrix X (n x d).

    Block i couples to the rows through ``row_weights[i]`` (an n-vector a_i,
    typically a 0/1 mask, or a label-folded +-1 mask), giving the linear map
    F_i u_i = a_i * (X u_i). The loss fixes the program: the max-margin
    loss gives the margin program, the (squared) hinge the penalized one,

        margin:     min  sum_i ||u_i||   s.t.  sum_i F_i u_i >= 1
        penalized:  min  sum_j loss(s_j) + beta * sum_i ||u_i||,
                         s = sum_i F_i u_i

    optionally with the cone constraints diag(cone_signs[i]) X u_i >= 0 on
    every block (cone_signs is k x n of +-1; None means no block has one).
    """

    X: np.ndarray
    row_weights: np.ndarray  # k x n
    loss: LossModel = LossModel.max_margin()
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
        if self.cone_signs is not None:
            self.cone_signs = np.atleast_2d(np.asarray(self.cone_signs, dtype=float))
            if self.cone_signs.shape != self.row_weights.shape:
                raise ValueError("cone_signs must have one row per block and one column per data row")

    @property
    def k(self) -> int:
        return self.row_weights.shape[0]


@dataclass
class MinSumNormsResult:
    value: float
    blocks: np.ndarray  # k x d
    lam: np.ndarray  # n, margin/loss dual (nonnegative)
    gap: float
    iterations: int  # interior-point steps, summed over the rounds
    dual_value: float
    rounds: int  # masters solved
    early_rounds: int  # rounds that ended at the pricing point, adding blocks


def _phase1_feasible(prob: MinSumNormsProblem) -> Optional[np.ndarray]:
    """LP feasibility check for the margin system (with cone rows).

    Returns the blocks (k x d) of a feasible point, or None when there is none.
    """
    X = prob.X
    n, d = X.shape
    k = prob.k
    nv = k * d + 1  # u blocks flattened + slack t
    # margin rows j: -sum_i a_ij x_j' u_i - t <= -1, then with cones rows
    # n + i n + j: -c_ij x_j' u_i <= 0; the zero coefficients are left out
    V = -prob.row_weights[:, :, None] * X
    i, j, col = np.nonzero(V)
    rows, cols, vals = [j, np.arange(n)], [i * d + col, np.full(n, nv - 1)], [V[i, j, col], -np.ones(n)]
    if prob.cone_signs is not None:
        V = -prob.cone_signs[:, :, None] * X
        i, j, col = np.nonzero(V)
        rows.append(n + i * n + j)
        cols.append(i * d + col)
        vals.append(V[i, j, col])
    nrows = n if prob.cone_signs is None else n + k * n
    A_ub = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nrows, nv)
    )
    b_ub = np.concatenate([-np.ones(n), np.zeros(nrows - n)])
    c = np.zeros(nv)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * (nv - 1) + [(0, None)],
        method="highs",
    )
    if res.status != 0 or res.fun is None or res.fun > 1e-7:
        return None
    return res.x[:-1].reshape(k, d)


CONE_FEAS_RTOL = 1e-11


def _repair_cones(prob: MinSumNormsProblem, U: np.ndarray) -> np.ndarray:
    """Project the blocks of U onto their feasibility cones.

    Violations at roundoff scale (relative to the block) are left alone;
    the certification treats them as feasible. A projection is kept only
    when it meets the same relative tolerance.
    """
    if prob.cone_signs is None:
        return U
    X, CS = prob.X, prob.cone_signs
    U = U.copy()
    scale = (1.0 + np.linalg.norm(X, axis=1).max()) * (1.0 + np.linalg.norm(U, axis=1))
    bad = np.flatnonzero((CS * (U @ X.T)).min(axis=1) < -CONE_FEAS_RTOL * scale)
    if bad.size:
        P = _project_cones(U[bad], CS[bad], X)
        ok = (CS[bad] * (P @ X.T)).min(axis=1) >= -CONE_FEAS_RTOL * scale[bad]
        U[bad[ok]] = P[ok]
    return U


def _dual_block_values(prob: MinSumNormsProblem, lam: np.ndarray, budget: float) -> np.ndarray:
    """Per-block dual constraint values theta_i = sup_{u in K_i, |u|<=1} lam' F_i u, exact above ``budget``.

    Without cones these are ||F_i' lam||. With cones, a block whose
    ||F_i' lam|| exceeds the budget gets the norm of the projection of
    F_i' lam onto its cone, by :func:`_project_cones`; the others keep
    ||F_i' lam||, an upper bound within the budget, since a projection never
    lengthens a vector. So the blocks above the budget and their values are
    those of projecting every block.
    """
    V = (prob.row_weights * lam[None, :]) @ prob.X  # k x d, rows F_i' lam
    theta = np.linalg.norm(V, axis=1)
    if prob.cone_signs is not None:
        over = np.flatnonzero(theta > budget)
        theta[over] = np.linalg.norm(_project_cones(V[over], prob.cone_signs[over], prob.X), axis=1)
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
    """Return (primal value, dual value, feasible U, feasible lam, theta).

    ``theta`` holds every block's :func:`_dual_block_values` at lam_raw
    clipped to [0, box_upper], before the scaling into the dual constraint,
    with the budget 1 of the margin program or beta_norm: exact above it,
    so the scaling is that of the exact values. It is None when a cone
    violation ends the penalized certification first.
    """
    X, RW = prob.X, prob.row_weights
    loss = prob.loss
    U = _repair_cones(prob, U)
    cone_ok = _cone_violation(prob, U) <= 10 * CONE_FEAS_RTOL
    s = np.einsum("kn,kn->n", RW, U @ X.T)
    lam = np.maximum(lam_raw, 0.0)
    if not loss.penalized:
        smin = s.min() if s.size else 1.0
        if smin <= 1e-12 or not cone_ok:
            pval = math.inf
            U_feas = U
        else:
            U_feas = U / smin
            pval = float(np.linalg.norm(U_feas, axis=1).sum())
        theta = _dual_block_values(prob, lam, 1.0)
        tmax = theta.max() if theta.size else 0.0
        lam_feas = lam / max(1.0, tmax)
        dval = float(lam_feas.sum())
        return pval, dval, U_feas, lam_feas, theta
    # penalized
    if not cone_ok:
        return math.inf, -math.inf, U, lam, None
    pval = float(np.sum(loss.ell(s)) + beta_norm * np.linalg.norm(U, axis=1).sum())
    lam = np.minimum(lam, loss.box_upper)
    theta = _dual_block_values(prob, lam, beta_norm)
    tmax = theta.max() if theta.size else 0.0
    if tmax > beta_norm:
        lam = lam * (beta_norm / tmax)
    dval = float(np.sum(loss.g(lam)))
    return pval, dval, U, lam, theta


# The master program is a cone program min c'x + x'Px/2 s.t. A x - b in K, with
# P diagonal and K a product of a nonnegative orthant and second-order cones of
# one dimension. Vectors in K's space are flat: the orthant part first, then
# the cones as one slice, viewed as a (count, dim) array whose rows are the cones.


def _soc_det(x):
    """x0^2 - |x1|^2 per row, factored to keep its precision near the boundary."""
    v = x[:, 1:]
    r = np.sqrt(np.add.reduce(v * v, axis=1))  # |x1| as np.linalg.norm computes it, without its overhead
    return (x[:, 0] - r) * (x[:, 0] + r)


def _soc_prod(x, y, out):
    """Jordan product x o y = (x'y, x0 y1 + y0 x1) per row, written into ``out``."""
    out[:, 0] = np.einsum("ij,ij->i", x, y)
    out[:, 1:] = x[:, :1] * y[:, 1:] + y[:, :1] * x[:, 1:]


def _soc_div(lam, r, out):
    """The u with lam o u = r per row, written into ``out``."""
    out[:, 0] = (lam[:, 0] * r[:, 0] - np.einsum("ij,ij->i", lam[:, 1:], r[:, 1:])) / _soc_det(lam)
    out[:, 1:] = (r[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]


def _soc_roots(x, dx):
    """Per row the two roots a of det(x + a dx) = qa a^2 + 2 qb a + qc = 0, stacked; nan where not real."""
    qa, qc = _soc_det(dx), _soc_det(x)
    qb = x[:, 0] * dx[:, 0] - np.einsum("ij,ij->i", x[:, 1:], dx[:, 1:])
    disc = qb * qb - qa * qc
    q = -(qb + np.copysign(np.sqrt(np.where(disc >= 0, disc, math.nan)), qb))
    return np.stack([q / qa, qc / q])


class _ConeProduct:
    """The cone R^nl_+ x (Q^dim)^count: an orthant, then ``count`` second-order cones of dimension ``dim``.

    Flat vectors hold the orthant part first, then the cones, which
    :meth:`split` views as a (count, dim) array whose rows are the cones.
    """

    def __init__(self, nl: int, count: int, dim: int):
        self.nl, self.count, self.dim = nl, count, dim
        self.degree = nl + count

    def split(self, v):
        """The orthant part of v and a (count, dim) view of its cones."""
        return v[: self.nl], v[self.nl :].reshape(self.count, self.dim)

    def identity(self):
        return np.concatenate([np.ones(self.nl), np.eye(1, self.dim).repeat(self.count, 0).ravel()])

    def prod(self, x, y):
        out = np.empty_like(x)
        (xl, xq), (yl, yq), (ol, oq) = self.split(x), self.split(y), self.split(out)
        ol[:] = xl * yl
        _soc_prod(xq, yq, oq)
        return out

    def div(self, lam, r):
        out = np.empty_like(r)
        (ll, lq), (rl, rq), (ol, oq) = self.split(lam), self.split(r), self.split(out)
        ol[:] = rl / ll
        _soc_div(lq, rq, oq)
        return out

    def steps(self, s, ds, z, dz):
        """The largest a_s with s + a_s ds in the cone and a_z with z + a_z dz (s, z interior).

        One pass over both pairs, stacked: the orthant's ratio test, then the
        least positive real root of det(x + a dx) = 0 over the cones. A
        minimum is exact, so each comes out as computed one at a time.
        """
        x, dx = np.stack([s, z]), np.stack([ds, dz])
        nl, dim, inf = self.nl, self.dim, math.inf
        a = np.where(dx[:, :nl] < 0, -x[:, :nl] / dx[:, :nl], inf).min(axis=1, initial=inf)
        roots = _soc_roots(x[:, nl:].reshape(-1, dim), dx[:, nl:].reshape(-1, dim)).reshape(2, 2, self.count)
        a = np.minimum(a, np.where(roots > 0, roots, inf).min(axis=(0, 2), initial=inf))  # nan > 0 is false
        return float(a[0]), float(a[1])

    def min_eig(self, x):
        xl, xq = self.split(x)
        return min(xl.min(initial=math.inf), (xq[:, 0] - np.linalg.norm(xq[:, 1:], axis=1)).min(initial=math.inf))

    def nt_scaling(self, s, z):
        """The Nesterov-Todd scaling W of the pair (s, z) and lam = W z = W^{-T} s.

        W is sqrt(s/z) on the orthant and beta (2 v v' - J) on each cone
        (Nesterov and Todd 1998, in the form of Vandenberghe 2010, sec. 4),
        kept with its inverse (2 J v v' J - J) / beta as (count, dim, dim)
        arrays: W = (sqrt(s/z), W_cones, W_cones^{-1}).
        """
        (sl, sq), (zl, zq) = self.split(s), self.split(z)
        J = np.where(np.arange(self.dim) == 0, 1.0, -1.0)
        sd, zd = np.sqrt(_soc_det(sq)), np.sqrt(_soc_det(zq))
        sb, zb = sq / sd[:, None], zq / zd[:, None]
        gamma = np.sqrt(0.5 * (1.0 + np.einsum("ij,ij->i", sb, zb)))
        wb = (sb + zb * J) / (2.0 * gamma[:, None])
        v = wb + np.eye(1, self.dim)
        v /= np.sqrt(2.0 * (wb[:, :1] + 1.0))
        beta = np.sqrt(sd / zd)[:, None, None]
        Wq = beta * (2.0 * v[:, :, None] * v[:, None, :] - np.diag(J))
        Winv = (2.0 * (v * J)[:, :, None] * (v * J)[:, None, :] - np.diag(J)) / beta
        lam = np.concatenate([np.sqrt(sl * zl), np.matmul(Wq, zq[:, :, None]).ravel()])
        return (np.sqrt(sl / zl), Wq, Winv), lam

    def wmul(self, W, x, inv=False, times=1):
        """W x, or W^{-1} x with ``inv``; with ``times=2`` the product is applied twice.

        A power of W is never formed: it loses the accuracy that the
        certification of the master's solution needs.
        """
        wl, Wq, Winv = W
        (xl, xq), out = self.split(x), np.empty_like(x)
        q = xl
        for _ in range(times):
            q = q / wl if inv else q * wl
        out[: self.nl] = q
        q = xq[:, :, None]
        for _ in range(times):
            q = np.matmul(Winv if inv else Wq, q)
        out[self.nl :] = q.ravel()
        return out

    def winv(self, W):
        """The diagonal sqrt(z/s) of the orthant and the (count, dim, dim) W^{-1} of the cones."""
        wl, _, Winv = W
        return 1.0 / wl, Winv


SOCP_MAX_STEPS = 80
SOCP_TOL = 1e-12  # stop: relative gap and residuals all below this
SOCP_STALL = 1e-8  # below this error, stop at the first step without a new best
SOCP_REFINE = 6  # refinement rounds at most, each while the residual halves and exceeds its floor
SOCP_FORCE = 1e-3  # the refinement floor's share of the error (an inexact-Newton forcing term)
SOCP_PRICE = 1e-2  # the error at which the master offers its iterate for pricing


def _normal_solver(T: np.ndarray, B: np.ndarray):
    """r -> (T'T + B'B)^{-1} r, by a QR of [T; B] with unit columns and two triangular solves.

    T is square and upper triangular, B dense. Raises ValueError when a
    column of [T; B] is zero or holds a non-finite entry (then a column
    scale is 0, inf or nan); the solve raises LinAlgError on an exactly
    singular factor.
    """
    scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", T, T) + np.einsum("ij,ij->j", B, B))
    if not np.all((scale > 0.0) & (scale < math.inf)):
        raise ValueError("non-finite or zero column in the Newton matrix")
    R = scipy.linalg.lapack.dtpqrt(0, min(8, len(scale)), T * scale, B * scale)[0]  # 8: block size

    def solve(r):
        y, info = scipy.linalg.lapack.dtrtrs(R, scale * r, trans=1)
        if info == 0:
            y, info = scipy.linalg.lapack.dtrtrs(R, y)
        if info:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        return scale * y

    return solve


@np.errstate(all="ignore")
def _interior_point_socp(master, price=None):
    """Solve the master's min c'x + x'Px/2 s.t. A x - b in K by a primal-dual interior-point method.

    Nesterov-Todd scaling with Mehrotra's predictor-corrector (Mehrotra
    1992); the diagonal P (``master.P``) enters the Newton system directly,
    as in the quadratic cone programs of Vandenberghe 2010. The start is
    x = (A'A + P)^{-1} A'b and z = A (A'A + P)^{-1} c, the least-squares x
    and least-norm z where P = 0, each shifted into the cone (Vandenberghe
    2010). Each step solves the reduced Newton system
    H dx = A' W^{-2} bz - bx with H = A' W^{-2} A + P = S'S, never forming
    H. ``master.scaled_rows`` gives S = [T; B] in two parts: T, square
    (N = len(x)) and already upper triangular, and B, the n dense margin
    rows. :func:`_normal_solver` factors [T; B] with unit
    columns by LAPACK's triangular-pentagonal QR (dtpqrt) in O(n N^2)
    flops, not the O(N^3) of a dense QR. It is the Householder QR of the
    same matrix, so the solve still sees the condition number of S, the
    square root of that of H. The affine predictor only sets sigma and
    Mehrotra's second-order term, so it is solved once, unrefined. The
    corrector, which moves the iterate, is refined on the full two-block
    system while the residual halves, at most SOCP_REFINE times, and stops
    once the residual is at its floor, max(16 eps, SOCP_FORCE err) times
    the right-hand side: a direction needs no more accuracy than the
    iterate's own error (an inexact-Newton forcing term, Dembo, Eisenstat
    and Steihaug, SIAM J. Numer. Anal. 19, 1982), and near the optimum the
    floor falls to rounding. The predictor's scaled pair (W^{-1} ds, W dz),
    which its direction computes on the way to ds, gives the second-order
    term. The step goes 0.99 of the way to the boundary.

    The error is the worst of the gap relative to the objective and the
    relative primal and dual residuals, the dual residual being
    A'z - c - Px. The loop stops when it falls below SOCP_TOL, at the
    first step without a new best once the best is below SOCP_STALL
    (rounding, not the central path, then drives the iterates), on a
    non-finite scaling or step, or after SOCP_MAX_STEPS; it returns the
    best iterate (x, s, z) and the number of steps taken. Callers certify
    what it returns.

    ``price``, if given, is called once, with (x, z), the first time the
    error falls to SOCP_PRICE: a well-centred early iterate, from which
    column generation can price new blocks (Gondzio, Gonzalez-Brevis and
    Munari, EJOR 224, 2013). If it returns True, that iterate and the steps
    so far are returned; otherwise the run goes on exactly as without it.
    """
    K = master.cones
    A, AT, c, b, P = master.A, master.AT, master.c, master.b, master.P
    e = K.identity()
    eye = np.broadcast_to(np.eye(K.dim), (K.count, K.dim, K.dim))
    normal_solve = _normal_solver(*master.scaled_rows(np.ones(K.nl), eye))
    x = normal_solve(AT(b))
    s = A(x) - b
    z = A(normal_solve(c))
    for v in (s, z):
        shift = -K.min_eig(v)
        if shift >= -1e-8 * (1.0 + np.abs(v).max()):
            v += (1.0 + max(shift, 0.0)) * e
    nb, nc = 1.0 + math.sqrt(b @ b), 1.0 + math.sqrt(c @ c)
    rounding = 16.0 * np.finfo(float).eps  # a residual this small relative to its right-hand side is rounding
    best = None
    for steps in range(SOCP_MAX_STEPS + 1):
        rp = A(x) - b - s
        rd = AT(z) - c - P * x
        gap = float(s @ z)
        obj = float(c @ x) + 0.5 * float(x @ (P * x))
        err = max(gap / (1.0 + abs(obj)), math.sqrt(rp @ rp) / nb, math.sqrt(rd @ rd) / nc)
        stale = best is not None and err >= best[0]
        if not stale:
            best = (err, x, s, z)
        if price is not None and err <= SOCP_PRICE:
            if price(x, z):
                return x, s, z, steps
            price = None
        if err <= SOCP_TOL or (stale and best[0] <= SOCP_STALL) or steps == SOCP_MAX_STEPS:
            break
        W, lam = K.nt_scaling(s, z)
        try:
            normal_solve = _normal_solver(*master.scaled_rows(*K.winv(W)))
        except ValueError:  # non-finite scaling
            break

        def solve_once(bx, bz):
            # A' dz - P dx = bx and A dx + W'W dz = bz
            dx = normal_solve(AT(K.wmul(W, bz, inv=True, times=2)) - bx)
            return dx, K.wmul(W, bz - A(dx), inv=True, times=2)

        def direction(q, rounds):
            # the Newton step with lam o (W dz + W^{-T} ds) = rs - lam o lam,
            # given q = lam \ rs - lam, since lam \ (lam o lam) = lam loses
            # all precision on a cone near its boundary when computed;
            # returns (dx, ds, dz) and the scaled pair (W^{-1} ds, W dz)
            bx, bz = -rd, K.wmul(W, q) - rp
            dx, dz = solve_once(bx, bz)
            last, floor = math.inf, max(rounding, SOCP_FORCE * err) * (math.sqrt(bx @ bx) + math.sqrt(bz @ bz))
            for _ in range(rounds):
                ex, ez = bx - AT(dz) + P * dx, bz - A(dx) - K.wmul(W, dz, times=2)
                size = math.sqrt(ex @ ex) + math.sqrt(ez @ ez)
                if not floor < size < 0.5 * last:
                    break
                cx, cz = solve_once(ex, ez)
                dx, dz, last = dx + cx, dz + cz, size
            wz = K.wmul(W, dz)
            ws = q - wz
            return dx, K.wmul(W, ws), dz, ws, wz

        dx, ds, dz, ws, wz = direction(-lam, 0)  # the affine step: rs = 0
        a = min(1.0, *K.steps(s, ds, z, dz))
        sigma = min(1.0, max(0.0, float((s + a * ds) @ (z + a * dz)) / gap)) ** 3
        corr = K.prod(ws, wz)
        dx, ds, dz, _, _ = direction(K.div(lam, sigma * gap / K.degree * e - corr) - lam, SOCP_REFINE)
        a_s, a_z = K.steps(s, ds, z, dz)
        a = min(1.0, 0.99 * a_s, 0.99 * a_z)
        if not (np.isfinite(a) and np.all(np.isfinite(dx)) and np.all(np.isfinite(dz))):
            break
        x, s, z = x + a * dx, s + a * ds, z + a * dz
    return best[1], best[2], best[3], steps


class _Master:
    """The min-sum-of-norms program restricted to the blocks ``W``, in conic form.

    ``X`` is the data in coordinates of a basis of its row space, and the
    blocks u_i are in the same coordinates. x holds (t_i, u_i) for each
    block of W, then for a penalized loss the slacks xi (n). A x - b
    stacks, in this order:

    * the n margin rows  sum_i a_i o (X u_i) (+ xi) - 1 >= 0, whose
      multipliers are the program's lam;
    * with cones, the n rows diag(cone_signs_i) X u_i >= 0 of each block;
    * for a penalized loss xi >= 0;
    * the second-order cones (t_i, u_i).

    The objective c'x + x'Px/2 is beta_norm sum t_i, plus 1'xi for the
    hinge or |xi|^2 for the squared hinge: P is the diagonal ``P``, 2 on xi
    for the squared hinge and 0 elsewhere.
    """

    def __init__(self, prob: MinSumNormsProblem, X: np.ndarray, W: np.ndarray, beta_norm: float):
        n, d = X.shape
        m = W.size
        self.X, self.n, self.m, self.d = X, n, m, d
        self.RW = prob.row_weights[W]
        self.CS = None if prob.cone_signs is None else prob.cone_signs[W]
        self.nv = m * (d + 1)
        self.nxi = n if prob.loss.penalized else 0
        N = self.nv + self.nxi
        nl = n + (0 if self.CS is None else m * n) + self.nxi
        self.cones = _ConeProduct(nl, m, d + 1)
        self.c = np.zeros(N)
        self.c[: self.nv : d + 1] = beta_norm
        self.P = np.zeros(N)
        if prob.loss.name == "squared_hinge":
            self.P[self.nv :] = 2.0
        else:
            self.c[self.nv :] = 1.0  # the hinge slacks (none in the margin program)
        self.b = np.zeros(nl + m * (d + 1))
        self.b[:n] = 1.0
        # the margin rows as a dense n x len(x) matrix
        self.AR = np.zeros((n, N))
        self.AR[:, : self.nv].reshape(n, m, d + 1)[:, :, 1:] = self.RW.T[:, :, None] * X[:, None, :]
        if self.nxi:
            self.AR[:, self.nv :] = np.eye(n)

    def A(self, x):
        n, m, nv = self.n, self.m, self.nv
        out = np.empty(self.b.size)
        out[:n] = self.AR @ x
        o = n
        if self.CS is not None:
            V = x[:nv].reshape(m, self.d + 1)
            out[o : o + m * n] = (self.CS * (V[:, 1:] @ self.X.T)).ravel()
            o += m * n
        out[o : o + self.nxi] = x[nv:]
        out[o + self.nxi :] = x[:nv]
        return out

    def AT(self, z):
        n, m, nv = self.n, self.m, self.nv
        out = self.AR.T @ z[:n]
        o = n
        G = np.zeros((m, self.d + 1))
        if self.CS is not None:
            G[:, 1:] = (self.CS * z[o : o + m * n].reshape(m, n)) @ self.X
            o += m * n
        out[nv:] += z[o : o + self.nxi]
        out[:nv] += G.ravel() + z[o + self.nxi :]
        return out

    def scaled_rows(self, wl, winv):
        """Factors (T, B) with T'T + B'B = A' W^{-2} A + P, from the orthant's sqrt(z/s) and the cones' W^{-1}.

        T is the len(x) x len(x) upper-triangular part: per block the
        triangular factor of its scaled cone rows stacked on W_i^{-1} (a
        batched QR, d + 1 rows each), then the diagonal of the scaled xi
        rows with P folded in, hypot(sqrt(z/s), sqrt(P)), which is exactly
        sqrt(z/s) where P = 0. B holds the n scaled margin rows.
        """
        n, m, nv, d = self.n, self.m, self.nv, self.d
        N = self.AR.shape[1]
        blocks = winv
        o = n
        if self.CS is not None:
            C = np.zeros((m, n, d + 1))
            C[:, :, 1:] = (wl[o : o + m * n].reshape(m, n) * self.CS)[:, :, None] * self.X
            blocks = np.concatenate([C, blocks], axis=1)
            o += m * n
        T = np.zeros((N, N))
        T[:nv, :nv].reshape(m, d + 1, m, d + 1)[np.arange(m), :, np.arange(m)] = np.linalg.qr(blocks, mode="r")
        T[nv:, nv:] = np.diag(np.hypot(wl[o:], np.sqrt(self.P[nv:])))  # empty without slacks
        return T, wl[:n, None] * self.AR


MSN_MAX_ROUNDS = 30
MSN_PRICE = 8  # blocks added per pricing round
MSN_DROP = 1e-2  # at the pricing point, blocks whose t_i is below this share of the largest leave W


def _price(prob, W, theta, lam, beta_norm):
    """The (up to MSN_PRICE) blocks outside W whose dual constraint value at lam is largest above the budget.

    ``theta`` holds every block's value as :func:`_certify` computed it, or
    None, and then the values at lam itself. Either is exact above the
    budget beta_norm, which is all that pricing reads.
    """
    if theta is None:
        theta = _dual_block_values(prob, lam, beta_norm)
    theta[W] = 0.0
    new = np.argsort(-theta, kind="stable")[:MSN_PRICE]
    return new[theta[new] > beta_norm]


def solve_min_sum_norms(prob: MinSumNormsProblem, tol: float = 1e-8) -> MinSumNormsResult:
    """Solve a min-sum-of-norms program by column generation over an interior-point master.

    The master is the program restricted to a working set W of blocks, a
    cone program with a diagonal quadratic objective (see :class:`_Master`) solved by
    :func:`_interior_point_socp`. W starts as the 2(n+1) blocks with the
    largest |F_i' 1|; in the margin program it also holds blocks of a feasible
    point, so no master is infeasible. Without cone rows the first try is
    the block with the largest |F_i' 1| among those whose row weights are
    nonzero on every row (only such a block can meet the margins alone):
    its one-block program min ||u|| s.t. F_i u >= 1 is solved exactly by
    :func:`_least_distance` and certified on the full program. If that
    certifies, the result is returned with ``iterations = rounds = 0``; if it is
    merely feasible, that block joins W. When no such block is feasible,
    or the program has cone rows, the phase-1 LP, which raises
    :class:`Infeasible` when the full margin system has no solution, adds
    the blocks of its feasible point instead. Each round certifies the
    master's blocks and margin multipliers lam on the full program
    (:func:`_certify`: the blocks scaled to feasibility, lam scaled into
    every block's dual constraint) and stops once the relative gap is
    within ``tol``. Otherwise pricing (:func:`_price`) adds the (up to 8)
    blocks whose dual constraint value at lam, as the certification
    computed it (exact for every block above the budget), is largest above
    the budget. No violated block left, or MSN_MAX_ROUNDS rounds, raise
    :class:`NonConvergence` with the best certified gap.

    Pricing is first tried early (Gondzio, Gonzalez-Brevis and Munari,
    EJOR 224, 2013): the master hands over its iterate once its error
    falls to SOCP_PRICE, and its blocks and lam go through the same
    certification and pricing. If that prices new blocks, the round ends and
    they join W; if not, the master runs on to its stop rule and the round
    goes on as above. A master over every block is not offered the early
    iterate. So every returned result comes from a completed master,
    certified at ``tol``.

    A round that ends early also deletes columns (Desrosiers and Lubbecke,
    *A Primer in Column Generation*, 2005): every block of W whose norm
    bound t_i at the iterate is below MSN_DROP times the largest leaves W
    before the new blocks join it. The blocks that keep every margin
    master feasible (the one-block exit's block or the phase-1 support)
    never leave, nor does a block once it is priced back after a drop, so
    each block leaves at most once and the rounds still end.

    ``iterations`` counts the interior-point steps summed over the rounds,
    ``rounds`` the masters solved and ``early_rounds`` those of them that
    ended at the pricing point. A ``tol`` that is not a finite positive
    number raises ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    X = prob.X
    n, d = X.shape
    k = prob.k
    beta_norm = prob.loss.beta
    order = np.argsort(-np.linalg.norm(prob.row_weights @ X, axis=1), kind="stable")
    W = order[: 2 * (n + 1)]
    best, steps = math.inf, 0  # best certified relative gap, interior-point steps
    kept = np.zeros(k, dtype=bool)  # blocks that never leave W
    if not prob.loss.penalized:
        # only a block coupled to every row can meet every margin alone
        full = order[np.all(prob.row_weights[order] != 0.0, axis=1)][:1]
        sol = None
        if full.size and prob.cone_signs is None:
            sol = _least_distance(prob.row_weights[full[0]][:, None] * X)
        pval = math.inf
        if sol is not None:
            U = np.zeros((k, d))
            U[full] = sol[0]
            # min ||u|| has the multipliers of min ||u||^2 / 2 divided by ||u||
            pval, dval, U_feas, lam_feas, _ = _certify(prob, U, sol[1] / np.linalg.norm(sol[0]), beta_norm)
            rel = (pval - dval) / (1.0 + abs(pval))
            if rel <= tol:
                return MinSumNormsResult(pval, U_feas, lam_feas, pval - dval, 0, dval, 0, 0)
            best = min(best, rel)
        if math.isfinite(pval):  # a certified feasible block keeps every master feasible
            support = full
        else:
            U0 = _phase1_feasible(prob)
            if U0 is None:
                raise Infeasible("margin system has no feasible point")
            support = np.flatnonzero(np.any(U0 != 0.0, axis=1))
        W = np.union1d(W, support)
        kept[support] = True
    # a block's component in the null space of X adds norm and nothing else,
    # so the master works in a basis of the row space (keeping it nonsingular)
    _, sv, Vt = np.linalg.svd(X, full_matrices=False)
    basis = Vt[sv > 1e-12 * max(n, d) * sv.max(initial=0.0)].T
    Xr = X @ basis
    early = 0  # rounds that ended at the pricing point
    for rounds in range(1, MSN_MAX_ROUNDS + 1):
        master = _Master(prob, Xr, W, beta_norm)
        new = None  # the blocks priced at the early iterate, if it is offered

        def blocks(x):
            U = np.zeros((k, d))
            U[W] = x[: master.nv].reshape(W.size, -1)[:, 1:] @ basis.T
            return U

        def price(x, z):
            nonlocal new
            new = _price(prob, W, _certify(prob, blocks(x), z[:n], beta_norm)[4], z[:n], beta_norm)
            return new.size > 0

        x, _, z, taken = _interior_point_socp(master, price if W.size < k else None)
        steps += taken
        if new is not None and new.size:
            early += 1
            t = x[: master.nv : master.d + 1]
            drop = (t < MSN_DROP * t.max()) & ~kept[W]
            kept[W[drop]] = True  # a block leaves W at most once, so the rounds end
            W = W[~drop]
        else:
            lam = z[:n]
            pval, dval, U_feas, lam_feas, theta = _certify(prob, blocks(x), lam, beta_norm)
            rel = (pval - dval) / (1.0 + abs(pval))  # nan or inf without a feasible point
            if rel <= tol:
                return MinSumNormsResult(pval, U_feas, lam_feas, pval - dval, steps, dval, rounds, early)
            best = min(best, rel)
            new = _price(prob, W, theta, lam, beta_norm)
            if new.size == 0:
                break
        W = np.concatenate([W, new])
    raise NonConvergence(
        f"min-sum-of-norms column generation did not certify gap <= {tol:g} "
        f"({steps} interior-point steps); best relative gap {best:.3e}"
    )


# ---------------------------------------------------------------------------
# interior-point method for small semidefinite programs
# ---------------------------------------------------------------------------

SDP_GAP = 1e-10  # stop: tr(XZ) <= SDP_GAP * max(1, |b'y + y'Py/2|)
SDP_MAX_ITER = 100


def _max_step(M: np.ndarray, dM: np.ndarray) -> float:
    """Largest t with M + t dM positive definite, for M positive definite.

    The eigenvalues of the pencil (dM, M) by LAPACK's dsygvd, the driver
    that scipy.linalg.eigh runs, called directly; a nonzero ``info`` (M not
    positive definite, or no convergence) raises LinAlgError as eigh does.
    """
    w, _, info = scipy.linalg.lapack.dsygvd(dM, M, itype=1, jobz="N", uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"generalized eigenproblem failed: dsygvd info {info}")
    return -1.0 / w[0] if w[0] < 0.0 else math.inf


def _interior_point_sdp(C: np.ndarray, A: np.ndarray, b: np.ndarray, P: np.ndarray, y: np.ndarray):
    """Solve min b'y + y'Py/2 s.t. sum_i y_i A_i - C >= 0, and its dual, by interior points.

    This is the primal-dual iteration of Helmberg, Rendl, Vanderbei and
    Wolkowicz (1996), with the diagonal quadratic objective ``P >= 0``
    (zeros give the linear SDP) entering the Newton system directly, as in
    Vandenberghe's cone QP solvers (2010). The dual is max tr(CX) - w'Pw/2
    s.t. A(X) = b + Pw, X >= 0, taken at w = y. ``A`` is an (m, N, N) stack
    of symmetric matrices and ``y`` must make the slack Z = sum_i y_i A_i - C
    positive definite; X starts at the identity. Each step solves
    (M + Diag P) dy = mu A(Z^-1) - b - P y with M_ij = tr(A_i X A_j Z^-1),
    sets dX = mu Z^-1 - X - Z^-1 dZ X and moves 0.95 of the way to the
    boundary, capped at a full step, so X and Z stay positive definite; the
    residual A(X) - b - P y shrinks with each step and vanishes (to
    rounding) once both steps are full. At that residual the duality gap is
    tr(XZ). The loop stops once tr(XZ) <= 1e-10 max(1, |b'y + y'Py/2|) or
    after 100 steps; a singular Newton system ends it early at the last
    (interior) iterate. Returns (X, y, Z, steps, met), ``met`` saying
    whether the gap target was met.
    """
    X = np.eye(C.shape[0])
    Z = np.tensordot(y, A, 1) - C
    step_p = step_d = 0.0
    for it in range(SDP_MAX_ITER + 1):
        gap = float(np.sum(X * Z))
        met = gap <= SDP_GAP * max(1.0, abs(float(np.sum(b * y)) + 0.5 * float(np.sum(P * y * y))))
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
            M = np.einsum("ikl,jlk->ij", A @ X, A @ Zi) + np.diag(P)
            dy = np.linalg.solve(M, mu * np.einsum("ikl,lk->i", A, Zi) - b - P * y)
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
