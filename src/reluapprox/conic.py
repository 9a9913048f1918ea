"""Solver kernels: box least squares, min-sum-of-norms programs, small SDPs.

All three kernels are deterministic and need only numpy and scipy
(scipy for the phase-1 LP, the compiled NNLS and LAPACK routines). The
box least squares is the finite bounded-variable method of Stark and
Parker, batched over the target points of one generator matrix. The min-sum-of-norms solver is
column generation. A second-order cone master over a working set of blocks
is solved by a primal-dual interior-point method with Nesterov-Todd
scaling; each Newton step factors a square-root matrix that is upper
triangular but for a few dense rows, by LAPACK's triangular-pentagonal QR,
and applies the cone operators slice by slice on flat vectors. The master
is priced against every block's dual constraint, evaluated exactly for all
blocks at once (with cone rows, by an NNLS projection of each block onto
its cone), and the solver stops on a *certified* duality gap of the
full program: the primal blocks are scaled to exact feasibility and the
master's multipliers into their constraint set, so the reported gap is a
true bound however accurately the master was solved. A margin program
without cone rows first tries one block coupled to every row, a
least-distance problem solved exactly by Lawson and Hanson's NNLS; that
block often certifies alone, and otherwise keeps every master feasible
without the phase-1 LP. The semidefinite programs (the Max-Cut relaxation
and the block surrogate dual) share one primal-dual interior-point loop;
its callers certify what it returns.
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
    "project_polyhedral_cone",
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


def _project_cones(V: np.ndarray, signs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project every row v_i of V onto its cone {u : signs_i * (X u) >= 0}.

    :func:`project_polyhedral_cone` for a batch of rows. Rows that pass
    their cone check are returned as they are. For the others, by Moreau,
    v_i - proj_i is the projection onto the polar cone: the NNLS
    min ||B_i mu + v_i|| over mu >= 0, with generators B_i = (diag(signs_i)
    X)', all passed to :func:`_nnls_small` as one stack.
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
        if self.mode == "penalized" and self.loss.name not in ("hinge", "squared_hinge"):
            raise ValueError(f"penalized mode needs the hinge or squared hinge loss, not {self.loss.name!r}")
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


def _dual_block_values(prob: MinSumNormsProblem, lam: np.ndarray) -> np.ndarray:
    """Per-block dual constraint values theta_i = sup_{u in K_i, |u|<=1} lam' F_i u.

    Without cones these are ||F_i' lam||; with cones, the norm of the
    projection of F_i' lam onto the block's cone, every block's exactly, by
    :func:`_project_cones`.
    """
    V = (prob.row_weights * lam[None, :]) @ prob.X  # k x d, rows F_i' lam
    if prob.cone_signs is not None:
        V = _project_cones(V, prob.cone_signs, prob.X)
    return np.linalg.norm(V, axis=1)


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

    ``theta`` holds every block's exact :func:`_dual_block_values` at
    lam_raw clipped to [0, box_upper], before the scaling into the dual
    constraint; it is None when a cone violation ends the penalized
    certification first.
    """
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
        return pval, dval, U_feas, lam_feas, theta
    # penalized
    if not cone_ok:
        return math.inf, -math.inf, U, lam, None
    pval = float(np.sum(loss.ell(s)) + beta_norm * np.linalg.norm(U, axis=1).sum())
    lam = np.minimum(lam, loss.box_upper)
    theta = _dual_block_values(prob, lam)
    tmax = theta.max() if theta.size else 0.0
    if tmax > beta_norm:
        lam = lam * (beta_norm / tmax)
    dval = float(np.sum(loss.g(lam)))
    return pval, dval, U, lam, theta


# The master program is a second-order cone program min c'x s.t. A x - b in K,
# K a product of a nonnegative orthant and second-order cones. Vectors in K's
# space are flat: the orthant part first, then each group of equal-sized
# cones as one slice, viewed as a (count, dim) array whose rows are the cones.


def _soc_det(x):
    """x0^2 - |x1|^2 per row, factored to keep its precision near the boundary."""
    r = np.linalg.norm(x[:, 1:], axis=1)
    return (x[:, 0] - r) * (x[:, 0] + r)


def _soc_prod(x, y, out):
    """Jordan product x o y = (x'y, x0 y1 + y0 x1) per row, written into ``out``."""
    out[:, 0] = np.einsum("ij,ij->i", x, y)
    out[:, 1:] = x[:, :1] * y[:, 1:] + y[:, :1] * x[:, 1:]


def _soc_div(lam, r, out):
    """The u with lam o u = r per row, written into ``out``."""
    out[:, 0] = (lam[:, 0] * r[:, 0] - np.einsum("ij,ij->i", lam[:, 1:], r[:, 1:])) / _soc_det(lam)
    out[:, 1:] = (r[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]


def _soc_step(x, dx):
    """Per row the largest a with x + a dx in the cone (x interior); inf if unbounded."""
    qa, qc = _soc_det(dx), _soc_det(x)
    qb = x[:, 0] * dx[:, 0] - np.einsum("ij,ij->i", x[:, 1:], dx[:, 1:])
    disc = qb * qb - qa * qc
    q = -(qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    out = np.full(x.shape[0], math.inf)
    for root in (q / qa, qc / q):  # the two roots of qa a^2 + 2 qb a + qc
        out = np.where((disc >= 0) & (root > 0) & (root < out), root, out)
    return out


class _ConeProduct:
    """The cone R^nl_+ x Q^{d_1} x ..., with ``socs`` a list of (count, dim) groups.

    ``groups`` holds each group's slice of the flat vectors and its
    (count, dim) shape; the operators fill one output by slice.
    """

    def __init__(self, nl: int, socs: list):
        self.nl = nl
        self.socs = socs
        self.degree = nl + sum(count for count, _ in socs)
        self.groups, o = [], nl
        for count, dim in socs:
            self.groups.append((slice(o, o + count * dim), (count, dim)))
            o += count * dim

    def split(self, v):
        """The orthant part of v, then a (count, dim) view of each group."""
        return [v[: self.nl]] + [v[sl].reshape(shape) for sl, shape in self.groups]

    def identity(self):
        cones = [np.eye(1, dim).repeat(count, 0).ravel() for count, dim in self.socs]
        return np.concatenate([np.ones(self.nl)] + cones)

    def prod(self, x, y):
        out = np.empty_like(x)
        out[: self.nl] = x[: self.nl] * y[: self.nl]
        for sl, shape in self.groups:
            _soc_prod(x[sl].reshape(shape), y[sl].reshape(shape), out[sl].reshape(shape))
        return out

    def div(self, lam, r):
        out = np.empty_like(r)
        out[: self.nl] = r[: self.nl] / lam[: self.nl]
        for sl, shape in self.groups:
            _soc_div(lam[sl].reshape(shape), r[sl].reshape(shape), out[sl].reshape(shape))
        return out

    def steps(self, s, ds, z, dz):
        """The largest a_s with s + a_s ds in the cone and a_z with z + a_z dz (s, z interior).

        Both pairs go through one stacked computation; each cone's step is
        found row by row, so the two come out as computed one at a time.
        """
        x, dx = np.stack([s, z]), np.stack([ds, dz])
        nl, inf = self.nl, math.inf
        lp = np.where(dx[:, :nl] < 0, -x[:, :nl] / dx[:, :nl], inf).min(axis=1, initial=inf)
        cones = [
            _soc_step(x[:, sl].reshape(-1, dim), dx[:, sl].reshape(-1, dim)).reshape(2, count).min(axis=1, initial=inf)
            for sl, (count, dim) in self.groups
        ]
        return tuple(min([float(lp[i])] + [float(c[i]) for c in cones]) for i in range(2))

    def min_eig(self, x):
        xs = self.split(x)
        cones = [(q[:, 0] - np.linalg.norm(q[:, 1:], axis=1)).min(initial=math.inf) for q in xs[1:]]
        return min([xs[0].min(initial=math.inf)] + cones)

    def nt_scaling(self, s, z):
        """The Nesterov-Todd scaling W of the pair (s, z) and lam = W z = W^{-T} s.

        W is sqrt(s/z) on the orthant and beta (2 v v' - J) on each cone
        (Nesterov and Todd 1998, in the form of Vandenberghe 2010, sec. 4),
        kept with its inverse (2 J v v' J - J) / beta as (count, dim, dim)
        arrays.
        """
        ss, zs = self.split(s), self.split(z)
        lam = np.empty_like(z)
        lam[: self.nl] = np.sqrt(ss[0] * zs[0])
        mats = []
        for (sl, _), sq, zq in zip(self.groups, ss[1:], zs[1:]):
            J = np.where(np.arange(sq.shape[1]) == 0, 1.0, -1.0)
            sd, zd = np.sqrt(_soc_det(sq)), np.sqrt(_soc_det(zq))
            sb, zb = sq / sd[:, None], zq / zd[:, None]
            gamma = np.sqrt(0.5 * (1.0 + np.einsum("ij,ij->i", sb, zb)))
            wb = (sb + zb * J) / (2.0 * gamma[:, None])
            v = wb + np.eye(1, wb.shape[1])
            v /= np.sqrt(2.0 * (wb[:, :1] + 1.0))
            beta = np.sqrt(sd / zd)[:, None, None]
            W = beta * (2.0 * v[:, :, None] * v[:, None, :] - np.diag(J))
            Winv = (2.0 * (v * J)[:, :, None] * (v * J)[:, None, :] - np.diag(J)) / beta
            mats.append((W, Winv))
            lam[sl] = np.matmul(W, zq[:, :, None]).ravel()
        return (np.sqrt(ss[0] / zs[0]), mats), lam

    def wmul(self, W, x, inv=False, times=1):
        """W x, or W^{-1} x with ``inv``; with ``times=2`` the product is applied twice.

        A power of W is never formed: it loses the accuracy that the
        certification of the master's solution needs.
        """
        wl, mats = W
        out = np.empty_like(x)
        q = x[: self.nl]
        for _ in range(times):
            q = q / wl if inv else q * wl
        out[: self.nl] = q
        for (sl, (count, dim)), (Wm, Winv) in zip(self.groups, mats):
            q = x[sl].reshape(count, dim, 1)
            for _ in range(times):
                q = np.matmul(Winv if inv else Wm, q)
            out[sl] = q.ravel()
        return out

    def winv(self, W):
        """The diagonal sqrt(z/s) of the orthant and the (count, dim, dim) W^{-1} of each group."""
        wl, mats = W
        return 1.0 / wl, [Winv for _, Winv in mats]


SOCP_MAX_STEPS = 80
SOCP_TOL = 1e-12  # stop: relative gap and residuals all below this
SOCP_STALL = 1e-8  # below this error, stop after two steps without a new best
SOCP_REFINE = 6  # refinement rounds at most, each while the residual halves


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
def _interior_point_socp(master):
    """Solve the master's min c'x s.t. A x - b in K by a primal-dual interior-point method.

    Nesterov-Todd scaling with Mehrotra's predictor-corrector (Mehrotra
    1992). The start is the least-squares x and the least-norm z under the
    identity scaling, each shifted into the cone (Vandenberghe 2010). Each
    step solves the reduced Newton system H dx = A' W^{-2} bz - bx with
    H = A' W^{-2} A = S'S, never forming H. ``master.scaled_rows`` gives
    S = [T; B] in two parts: T, square (N = len(x)) and already upper
    triangular, and B, the few dense rows (n margin rows, plus n + 2 for
    the squared hinge). :func:`_normal_solver` factors [T; B] with unit
    columns by LAPACK's triangular-pentagonal QR (dtpqrt) in O(n N^2)
    flops, not the O(N^3) of a dense QR. It is the Householder QR of the
    same matrix, so the solve still sees the condition number of S, the
    square root of that of H. The affine predictor only sets sigma and
    Mehrotra's second-order term, so it is solved once, unrefined. The
    corrector, which moves the iterate, is refined on the full two-block
    system while the residual halves, at most SOCP_REFINE times, and stops
    once the residual is at the rounding floor, 16 eps times the
    right-hand side. The predictor's scaled pair (W^{-1} ds, W dz), which
    its direction computes on the way to ds, gives the second-order term.
    The step goes 0.99 of the way to the boundary.

    The error is the worst of the relative gap and the relative primal and
    dual residuals. The loop stops when it falls below SOCP_TOL, after two
    steps without a new best once it is below SOCP_STALL (rounding, not the
    central path, then drives the iterates), on a non-finite step or after
    SOCP_MAX_STEPS; it returns the best iterate (x, s, z) and the number of
    steps taken. Callers certify what it returns.
    """
    K = master.cones
    A, AT, c, b = master.A, master.AT, master.c, master.b
    e = K.identity()
    eye = [np.broadcast_to(np.eye(dim), (count, dim, dim)) for count, dim in K.socs]
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
    best, stale = None, 0
    for steps in range(SOCP_MAX_STEPS + 1):
        rp = A(x) - b - s
        rd = AT(z) - c
        gap = float(s @ z)
        err = max(gap / (1.0 + abs(float(c @ x))), math.sqrt(rp @ rp) / nb, math.sqrt(rd @ rd) / nc)
        if best is None or err < best[0]:
            best, stale = (err, x, s, z), 0
        else:
            stale += 1
        if err <= SOCP_TOL or (stale == 2 and best[0] <= SOCP_STALL) or steps == SOCP_MAX_STEPS:
            break
        W, lam = K.nt_scaling(s, z)
        try:
            normal_solve = _normal_solver(*master.scaled_rows(*K.winv(W)))
        except ValueError:  # non-finite scaling
            break

        def solve_once(bx, bz):
            # A' dz = bx and A dx + W'W dz = bz
            dx = normal_solve(AT(K.wmul(W, bz, inv=True, times=2)) - bx)
            return dx, K.wmul(W, bz - A(dx), inv=True, times=2)

        def direction(q, rounds):
            # the Newton step with lam o (W dz + W^{-T} ds) = rs - lam o lam,
            # given q = lam \ rs - lam, since lam \ (lam o lam) = lam loses
            # all precision on a cone near its boundary when computed;
            # returns (dx, ds, dz) and the scaled pair (W^{-1} ds, W dz)
            bx, bz = -rd, K.wmul(W, q) - rp
            dx, dz = solve_once(bx, bz)
            last, floor = math.inf, rounding * (math.sqrt(bx @ bx) + math.sqrt(bz @ bz))
            for _ in range(rounds):
                ex, ez = bx - AT(dz), bz - A(dx) - K.wmul(W, dz, times=2)
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
    block of W, then in penalized mode the loss slacks xi (n), then for the
    squared hinge the epigraph variable r. A x - b stacks, in this order:

    * the n margin rows  sum_i a_i o (X u_i) (+ xi) - 1 >= 0, whose
      multipliers are the program's lam;
    * with cones, the n rows diag(cone_signs_i) X u_i >= 0 of each block;
    * in penalized mode xi >= 0;
    * the second-order cones (t_i, u_i);
    * for the squared hinge (r + 1, r - 1, 2 xi), a second-order cone that
      says r >= |xi|^2.

    The objective is beta_norm sum t_i, plus 1'xi for the hinge or r for the
    squared hinge.
    """

    def __init__(self, prob: MinSumNormsProblem, X: np.ndarray, W: np.ndarray, beta_norm: float):
        n, d = X.shape
        m = W.size
        self.X, self.n, self.m, self.d = X, n, m, d
        self.RW = prob.row_weights[W]
        self.CS = None if prob.cone_signs is None else prob.cone_signs[W]
        self.sq = prob.mode == "penalized" and prob.loss.name == "squared_hinge"
        self.nv = m * (d + 1)
        self.nxi = n if prob.mode == "penalized" else 0
        N = self.nv + self.nxi + self.sq
        nl = n + (0 if self.CS is None else m * n) + self.nxi
        socs = [(m, d + 1)] + ([(1, n + 2)] if self.sq else [])
        self.cones = _ConeProduct(nl, socs)
        self.c = np.zeros(N)
        self.c[: self.nv : d + 1] = beta_norm
        if self.sq:
            self.c[-1] = 1.0
        else:
            self.c[self.nv :] = 1.0  # the hinge slacks (none in margin mode)
        self.b = np.zeros(nl + m * (d + 1) + (n + 2 if self.sq else 0))
        self.b[:n] = 1.0
        if self.sq:
            self.b[-(n + 2) : -n] = (-1.0, 1.0)
        # the margin rows as a dense n x len(x) matrix
        self.AR = np.zeros((n, N))
        self.AR[:, : self.nv].reshape(n, m, d + 1)[:, :, 1:] = self.RW.T[:, :, None] * X[:, None, :]
        if self.nxi:
            self.AR[:, self.nv :] = np.eye(n, N - self.nv)
        if self.sq:  # the epigraph cone's rows over (xi, r)
            self.S = np.zeros((n + 2, n + 1))
            self.S[:2, -1] = 1.0
            self.S[2:, :n] = 2.0 * np.eye(n)

    def A(self, x):
        n, m, nv = self.n, self.m, self.nv
        out = np.empty(self.b.size)
        out[:n] = self.AR @ x
        o = n
        if self.CS is not None:
            V = x[:nv].reshape(m, self.d + 1)
            out[o : o + m * n] = (self.CS * (V[:, 1:] @ self.X.T)).ravel()
            o += m * n
        out[o : o + self.nxi] = x[nv : nv + self.nxi]
        o += self.nxi
        out[o : o + nv] = x[:nv]
        if self.sq:
            out[o + nv :] = self.S @ x[nv:]
        return out

    def AT(self, z):
        n, m, nv = self.n, self.m, self.nv
        out = self.AR.T @ z[:n]
        o = n
        G = np.zeros((m, self.d + 1))
        if self.CS is not None:
            G[:, 1:] = (self.CS * z[o : o + m * n].reshape(m, n)) @ self.X
            o += m * n
        out[nv : nv + self.nxi] += z[o : o + self.nxi]
        o += self.nxi
        out[:nv] += G.ravel() + z[o : o + nv]
        if self.sq:
            out[nv:] += self.S.T @ z[o + nv :]
        return out

    def scaled_rows(self, wl, winvs):
        """Factors (T, B) with T'T + B'B = A' W^{-2} A, from the orthant's sqrt(z/s) and the cones' W^{-1}.

        T is the len(x) x len(x) upper-triangular part: per block the
        triangular factor of its scaled cone rows stacked on W_i^{-1} (a
        batched QR, d + 1 rows each), then the diagonal of the scaled xi
        rows; the squared hinge's r has a zero row. B holds the dense rows:
        the n scaled margin rows, then the squared-hinge cone's n + 2 rows.
        """
        n, m, nv, d = self.n, self.m, self.nv, self.d
        N = self.AR.shape[1]
        blocks = winvs[0]
        o = n
        if self.CS is not None:
            C = np.zeros((m, n, d + 1))
            C[:, :, 1:] = (wl[o : o + m * n].reshape(m, n) * self.CS)[:, :, None] * self.X
            blocks = np.concatenate([C, blocks], axis=1)
            o += m * n
        T = np.zeros((N, N))
        T[:nv, :nv].reshape(m, d + 1, m, d + 1)[np.arange(m), :, np.arange(m)] = np.linalg.qr(blocks, mode="r")
        if self.nxi:
            T[nv : nv + n, nv : nv + n] = np.diag(wl[o:])
        B = wl[:n, None] * self.AR
        if self.sq:
            B = np.vstack([B, np.zeros((n + 2, N))])
            B[n:, nv:] = winvs[1][0] @ self.S
        return T, B


MSN_MAX_ROUNDS = 30
MSN_PRICE = 8  # blocks added per pricing round


def solve_min_sum_norms(prob: MinSumNormsProblem, tol: float = 1e-8) -> MinSumNormsResult:
    """Solve a min-sum-of-norms program by column generation over an interior-point master.

    The master is the program restricted to a working set W of blocks, a
    second-order cone program (see :class:`_Master`) solved by
    :func:`_interior_point_socp`. W starts as the 2(n+1) blocks with the
    largest |F_i' 1|; in margin mode it also holds blocks of a feasible
    point, so no master is infeasible. Without cone rows the first try is
    the block with the largest |F_i' 1| among those whose row weights are
    nonzero on every row (only such a block can meet the margins alone):
    its one-block program min ||u|| s.t. F_i u >= 1 is solved exactly by
    :func:`_least_distance` and certified on the full program. If that
    certifies, the result is returned with ``iterations = 0``; if it is
    merely feasible, that block joins W. When no such block is feasible,
    or the program has cone rows, the phase-1 LP, which raises
    :class:`Infeasible` when the full margin system has no solution, adds
    the blocks of its feasible point instead. Each round certifies the
    master's blocks and margin multipliers lam on the full program
    (:func:`_certify`: the blocks scaled to feasibility, lam scaled into
    every block's dual constraint) and stops once the relative gap is
    within ``tol``. Otherwise pricing adds the (up to 8) blocks whose dual
    constraint value at lam, exact for every block as the certification
    computed it, is largest above the budget. No violated block left, or
    MSN_MAX_ROUNDS rounds, raise :class:`NonConvergence` with the best
    certified gap.
    ``iterations`` counts the interior-point steps summed over the rounds.
    """
    X = prob.X
    n, d = X.shape
    k = prob.k
    beta_norm = 1.0 if prob.mode == "margin" else prob.loss.beta
    order = np.argsort(-np.linalg.norm(prob.row_weights @ X, axis=1), kind="stable")
    W = order[: 2 * (n + 1)]
    best, steps = math.inf, 0  # best certified relative gap, interior-point steps
    if prob.mode == "margin":
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
                return MinSumNormsResult(pval, U_feas, lam_feas, pval - dval, 0, dval)
            best = min(best, rel)
        if math.isfinite(pval):  # a certified feasible block keeps every master feasible
            W = np.union1d(W, full)
        else:
            U0 = _phase1_feasible(prob)
            if U0 is None:
                raise Infeasible("margin system has no feasible point")
            W = np.union1d(W, np.flatnonzero(np.any(U0 != 0.0, axis=1)))
    # a block's component in the null space of X adds norm and nothing else,
    # so the master works in a basis of the row space (keeping it nonsingular)
    _, sv, Vt = np.linalg.svd(X, full_matrices=False)
    basis = Vt[sv > 1e-12 * max(n, d) * sv.max(initial=0.0)].T
    Xr = X @ basis
    for _ in range(MSN_MAX_ROUNDS):
        master = _Master(prob, Xr, W, beta_norm)
        x, _, z, taken = _interior_point_socp(master)
        steps += taken
        U = np.zeros((k, d))
        U[W] = x[: master.nv].reshape(W.size, -1)[:, 1:] @ basis.T
        lam = z[:n]
        pval, dval, U_feas, lam_feas, theta = _certify(prob, U, lam, beta_norm)
        rel = (pval - dval) / (1.0 + abs(pval))  # nan or inf without a feasible point
        if rel <= tol:
            return MinSumNormsResult(pval, U_feas, lam_feas, pval - dval, steps, dval)
        best = min(best, rel)
        if theta is None:
            theta = _dual_block_values(prob, lam)
        theta[W] = 0.0
        new = np.argsort(-theta, kind="stable")[:MSN_PRICE]
        new = new[theta[new] > beta_norm]
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

SDP_GAP = 1e-10  # stop: tr(XZ) <= SDP_GAP * max(1, |b'y|)
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
