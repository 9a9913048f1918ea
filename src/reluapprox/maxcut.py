"""Max-Cut side of the pipeline: brute force, SDP relaxation, GW rounding.

The dual constraint of the margin problem restricts a binary quadratic
form, i.e. a Max-Cut value. The unit-diagonal SDP relaxation upper-bounds
it, Goemans-Williamson sign rounding recovers at least 2/pi of the SDP
value in expectation for PSD objectives, and the rounded signs map back to
activation patterns of the data's hyperplane arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from .errors import FactorizationFailure, NonConvergence, TooLarge, Unrealizable

BRUTE_CAP = 22

__all__ = [
    "SdpSolution",
    "RoundingBatch",
    "maxcut_bruteforce",
    "sdp_relaxation",
    "gw_round",
    "dual_quadratic",
    "c1_value",
    "c2_value_and_gradient",
    "realize_pattern",
    "realize_mask_lp",
    "RealizedPattern",
]


def sign_pm(x: np.ndarray) -> np.ndarray:
    """Sign with the global convention sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


@dataclass
class SdpSolution:
    """Unit-diagonal SDP optimum with its dual diagonal and residuals."""

    Z: np.ndarray
    objective: float
    zeta: np.ndarray
    primal_residual: float
    dual_residual: float
    comp_slack: float
    lower: float  # certified feasible objective
    upper: float  # certified dual bound
    iterations: int = 0
    polished: bool = False
    state: Optional[tuple] = None  # (S, L, rho) splitting state for warm restarts


@dataclass
class RoundingBatch:
    """Sign samples from N(0, Z) with their induced activation masks."""

    seed: int
    k: int
    samples: np.ndarray  # k x m of +-1
    masks: np.ndarray  # k x (m-1), b_j = (z_j z_m + 1)/2
    mean: float
    stderr: float


def maxcut_bruteforce(Q: np.ndarray, cap: int = BRUTE_CAP) -> tuple[float, np.ndarray]:
    """Exact max of z'Qz over z in {-1,1}^m (z and -z tie; z_m=+1 fixed)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    Q = 0.5 * (Q + Q.T)
    m = Q.shape[0]
    if m > cap:
        raise TooLarge(f"m={m} exceeds the brute-force cap {cap}")
    best_val, best_z = -math.inf, None
    free = m - 1
    total = 1 << free
    chunk = 1 << 14
    ar = np.arange(free, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        Zb = np.empty((idx.size, m))
        Zb[:, :free] = 2.0 * ((idx[:, None] >> ar[None, :]) & 1) - 1.0
        Zb[:, free] = 1.0
        vals = np.einsum("ij,jk,ik->i", Zb, Q, Zb)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_z = Zb[j].copy()
    return best_val, best_z


def _project_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _gn_polish(Q, Z, zeta, rank_tol=1e-7, max_steps=40):
    """Refine (Z, zeta) to machine precision by Gauss-Newton on the KKT system.

    Z = R R' with diag(R R') = 1 and (diag(zeta) - Q) R = 0; the rank of R
    comes from the eigen-gap of the splitting iterate. Returns None when
    the refinement does not converge (degenerate or wrong rank guess).
    """
    m = Q.shape[0]
    w, V = np.linalg.eigh(0.5 * (Z + Z.T))
    wmax = max(w.max(), 1e-30)
    r = max(1, int(np.sum(w > rank_tol * wmax)))
    R = V[:, m - r :] * np.sqrt(np.maximum(w[m - r :], 0.0))
    zeta = zeta.copy()

    def residual(zeta, R):
        F1 = (zeta[:, None] * R) - Q @ R
        F2 = np.einsum("ij,ij->i", R, R) - 1.0
        return np.concatenate([F1.ravel(), F2])

    nvar = m + m * r
    F = residual(zeta, R)
    scale = 1.0 + np.abs(Q).max()
    if np.linalg.norm(F) > 0.5 * scale * math.sqrt(m):
        return None  # rank guess clearly off; not worth a Newton attempt
    eye_r = np.eye(r)
    block_rows = np.repeat(np.arange(m) * r, r) + np.tile(np.arange(r), m)
    for _ in range(max_steps):
        nrm = np.linalg.norm(F)
        if nrm <= 1e-13 * scale * math.sqrt(m):
            break
        J = np.zeros((F.size, nvar))
        # dF1/dzeta_j touches only the rows of block j
        J[block_rows, np.repeat(np.arange(m), r)] = R.ravel()
        # dF1/dR: row-major vec of (diag(zeta) - Q) dR is a Kronecker block
        A = -Q.copy()
        A[np.arange(m), np.arange(m)] += zeta
        J[: m * r, m:] = np.kron(A, eye_r)
        # dF2/dR
        for j in range(m):
            J[m * r + j, m + j * r : m + (j + 1) * r] = 2.0 * R[j]
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        zeta_n = zeta + step[:m]
        R_n = R + step[m:].reshape(m, r)
        F_n = residual(zeta_n, R_n)
        if np.linalg.norm(F_n) > 0.9 * nrm:
            t = 0.5
            while t > 1e-4 and np.linalg.norm(residual(zeta + t * step[:m], R + t * step[m:].reshape(m, r))) > nrm:
                t *= 0.5
            zeta_n = zeta + t * step[:m]
            R_n = R + t * step[m:].reshape(m, r)
            F_n = residual(zeta_n, R_n)
        zeta, R, F = zeta_n, R_n, F_n
    else:
        return None
    if np.linalg.norm(F) > 1e-10 * scale * math.sqrt(m):
        return None
    S = zeta[:, None] * np.eye(m) - Q
    lam_min = float(np.linalg.eigvalsh(0.5 * (S + S.T)).min())
    if lam_min < -1e-9 * scale:
        return None
    Z_ref = R @ R.T
    return Z_ref, zeta, max(0.0, -lam_min)


def sdp_relaxation(Q: np.ndarray, tol: float = 1e-7, *, warm: Optional[tuple] = None) -> SdpSolution:
    """Solve max tr(ZQ) s.t. diag(Z)=1, Z >= 0 by splitting, then polish.

    ADMM alternates the unit-diagonal affine step with a PSD projection;
    a Gauss-Newton refinement of the KKT system then pushes the solution
    to near machine precision when the optimal face is nondegenerate.
    ``lower``/``upper`` are certified primal/dual bounds either way.
    ``warm`` is the ``state`` of an earlier :class:`SdpSolution`.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    Q = 0.5 * (Q + Q.T)
    m = Q.shape[0]
    eigmin = float(np.linalg.eigvalsh(Q).min()) if m else 0.0
    if eigmin < -1e-6 * max(1.0, np.abs(Q).max()):
        raise ValueError(f"Q must be PSD (min eigenvalue {eigmin:.3e})")
    scale = max(np.abs(Q).max(), 1e-12)
    rho = scale
    if warm is not None:
        S, L, rho = warm[0].copy(), warm[1].copy(), warm[2]
        # the optimal face usually persists across nearby objectives, so
        # Newton from the warm state often skips the splitting loop
        ref = _gn_polish(Q, S, np.diag(Q) - rho * np.diag(L))
        if ref is not None:
            return _package(Q, ref[0], ref[1] + ref[2], rho, 0.0, 0.0, 0, True)
    else:
        S, L = np.eye(m), np.zeros((m, m))
    Z = S.copy()
    max_iter = 100000
    it = 0
    adapt_left = 30
    pres = dres = math.inf
    while it < max_iter:
        it += 1
        Z = S - L + Q / rho
        np.fill_diagonal(Z, 1.0)
        S_prev = S
        S = _project_psd(Z + L)
        L = L + Z - S
        if it % 25 == 0 or it == max_iter:
            pres = np.linalg.norm(Z - S) / (1.0 + np.linalg.norm(Z))
            dres = rho * np.linalg.norm(S - S_prev) / (1.0 + rho)
            if pres <= tol and dres <= tol:
                break
            if adapt_left > 0:
                new_rho = rho
                if pres > 10 * dres:
                    new_rho = rho * 2.0
                elif dres > 10 * pres:
                    new_rho = rho / 2.0
                if new_rho != rho:
                    adapt_left -= 1
                    L *= rho / new_rho
                    rho = new_rho
    converged = pres <= tol and dres <= tol
    zeta = np.diag(Q) - rho * np.diag(L)
    ref = _gn_polish(Q, S, zeta)
    polished = ref is not None
    if polished:
        S, zeta = ref[0], ref[1] + ref[2]
    if not converged and not polished:
        raise NonConvergence(f"SDP splitting residuals ({pres:.2e}, {dres:.2e}) above {tol:g}")
    return _package(
        Q, S, zeta, rho,
        float(pres) if math.isfinite(pres) else 0.0,
        float(dres) if math.isfinite(dres) else 0.0,
        it, polished,
    )


def _package(Q, S, zeta, rho, pres, dres, it, polished) -> SdpSolution:
    m = Q.shape[0]
    # certified primal bound: normalize the PSD iterate to unit diagonal
    dg = np.diag(S).copy()
    if np.any(dg <= 0):
        Z_feas = np.eye(m)
    else:
        D = 1.0 / np.sqrt(dg)
        Z_feas = S * np.outer(D, D)
    lower = float(np.einsum("ij,ji->", Q, Z_feas))
    # certified dual bound: shift zeta until diag(zeta) - Q is PSD
    Sdual = np.diag(zeta) - Q
    lam_min = float(np.linalg.eigvalsh(0.5 * (Sdual + Sdual.T)).min())
    zeta_feas = zeta + max(0.0, -lam_min)
    upper = float(np.sum(zeta_feas))
    comp = float(np.linalg.norm((np.diag(zeta_feas) - Q) @ Z_feas))
    return SdpSolution(
        Z=Z_feas,
        objective=0.5 * (lower + upper) if upper >= lower else lower,
        zeta=zeta_feas,
        primal_residual=pres,
        dual_residual=dres,
        comp_slack=comp,
        lower=lower,
        upper=upper,
        iterations=it,
        polished=polished,
        state=(S, (Q - np.diag(zeta_feas)) / rho, rho),
    )


def gw_round(Z: np.ndarray, Q: np.ndarray, k: int, seed: int) -> RoundingBatch:
    """Draw k sign vectors z = sign(r), r ~ N(0, Z), and score z'Qz.

    Z is projected up to the PSD cone and renormalized to unit diagonal if
    slightly infeasible. Masks pair each coordinate with the last one:
    b_j = (z_j z_m + 1) / 2.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    m = Z.shape[0]
    w, V = np.linalg.eigh(0.5 * (Z + Z.T))
    if w.min() < -1e-6:
        Zc = (V * np.maximum(w, 0.0)) @ V.T
        dg = np.diag(Zc)
        if np.any(dg <= 1e-12):
            raise FactorizationFailure("covariance collapsed while projecting to PSD")
        D = 1.0 / np.sqrt(dg)
        Z = Zc * np.outer(D, D)
        w, V = np.linalg.eigh(Z)
    L = V * np.sqrt(np.maximum(w, 0.0))
    if not np.all(np.isfinite(L)):
        raise FactorizationFailure("non-finite factor")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((k, m))
    R = G @ L.T
    zs = sign_pm(R)
    vals = np.einsum("ij,jk,ik->i", zs, Q, zs)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    masks = ((zs[:, :-1] * zs[:, -1:]) + 1.0) / 2.0
    return RoundingBatch(seed=seed, k=k, samples=zs, masks=masks, mean=mean, stderr=stderr)


def dual_quadratic(X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The (n+1) x (n+1) form [I;1'] diag(lam) X X' diag(lam) [I 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam = np.asarray(lam, dtype=float)
    V = lam[:, None] * X  # diag(lam) X
    V = np.vstack([V, V.sum(axis=0, keepdims=True)])  # [I;1'] diag(lam) X
    return V @ V.T


def c1_value(X: np.ndarray, lam: np.ndarray, cap: int = BRUTE_CAP) -> float:
    """Exact (1/4) max_{z in \\{-1,1\\}^{n+1}} z' Q z for the dual quadratic.

    Equals max over binary masks b of ||X' diag(lam) b||^2; the zonotope
    vertex maximum provides the independent cross-check.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < -1e-12):
        raise ValueError("c1 is defined for lam >= 0")
    Q = dual_quadratic(X, lam)
    if Q.shape[0] > cap + 1:
        raise TooLarge(f"n={Q.shape[0] - 1} exceeds the cap {cap}")
    val, _ = maxcut_bruteforce(Q, cap=cap + 1)
    return 0.25 * val


def c2_value_and_gradient(
    X: np.ndarray,
    lam: np.ndarray,
    tol: float = 1e-8,
    warm: Optional[tuple] = None,
) -> tuple[float, SdpSolution, np.ndarray]:
    """SDP upper bound c2(lam) with its envelope gradient.

    c2(lam) = (1/4) max_Z tr(Z Q(lam)) over unit-diagonal PSD Z. At the
    maximizing Z the map lam -> (1/4) tr(Z Q(lam)) is a fixed quadratic
    form whose gradient, (1/2) (P o X X') lam with P the data-block
    compression of Z, is an envelope (super)gradient of c2.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam = np.asarray(lam, dtype=float)
    n = X.shape[0]
    if not np.any(lam != 0.0):
        sol = SdpSolution(
            Z=np.eye(n + 1), objective=0.0, zeta=np.zeros(n + 1),
            primal_residual=0.0, dual_residual=0.0, comp_slack=0.0,
            lower=0.0, upper=0.0,
        )
        return 0.0, sol, np.zeros(n)
    Q = dual_quadratic(X, lam)
    sol = sdp_relaxation(Q, tol=tol, warm=warm)
    value = 0.25 * sol.objective
    grad = c2_fixed_gradient(X, lam, sol.Z)
    return value, sol, grad


def c2_fixed_gradient(X: np.ndarray, lam: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Gradient of (1/4) tr(Z Q(lam)) in lam for fixed Z."""
    n = X.shape[0]
    K = X @ X.T
    P = Z[:n, :n] + np.outer(Z[:n, n], np.ones(n)) + np.outer(np.ones(n), Z[n, :n]) + Z[n, n]
    return 0.5 * (P * K) @ np.asarray(lam, dtype=float)


@dataclass
class RealizedPattern:
    mask_target: np.ndarray
    mask: np.ndarray  # actual mask of w on all rows (ties count as 1)
    w: np.ndarray
    method: str  # "algebraic" | "lp" | "zero"


def realize_mask_lp(
    X: np.ndarray,
    mask: np.ndarray,
    guard_rows: Optional[np.ndarray] = None,
    slack: float = 1.0,
    guard_slack: float = 0.0,
) -> np.ndarray:
    """Find w with I(X w >= 0) == mask by LP feasibility, or raise.

    Active rows get x'w >= slack, inactive rows x'w <= -slack (scaling
    makes any strictly realizable mask feasible at slack 1). Guard rows,
    when given, additionally require g'w <= -guard_slack. The all-ones
    mask falls back to w = 0, which realizes it exactly under the >= tie
    convention, provided no guard is requested.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mask = np.asarray(mask).astype(bool)
    n, d = X.shape
    rows = [np.where(mask[:, None], -X, X)]
    rhs = [np.full(n, -slack)]
    if guard_rows is not None and np.size(guard_rows):
        G = np.atleast_2d(np.asarray(guard_rows, dtype=float))
        rows.append(G)
        rhs.append(np.full(G.shape[0], -guard_slack))
    A_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    res = scipy.optimize.linprog(
        np.zeros(d), A_ub=A_ub, b_ub=b_ub, bounds=[(-1e6, 1e6)] * d, method="highs"
    )
    if res.status != 0:
        if mask.all() and guard_rows is None:
            return np.zeros(d)
        raise Unrealizable(f"no gate vector realizes mask {mask.astype(int).tolist()}")
    w = res.x / max(np.linalg.norm(res.x), 1e-30)
    chk = (X @ w >= 0.0)
    if not np.array_equal(chk, mask):
        # rescaling lost strictness; retry with the unnormalized witness
        w = res.x
        chk = (X @ w >= 0.0)
        if not np.array_equal(chk, mask):
            raise Unrealizable("LP witness failed the exact realization check")
    return w


def realize_pattern(
    X: np.ndarray,
    r: np.ndarray,
    lam_tilde: np.ndarray,
    guard_rows: Optional[np.ndarray] = None,
    drop_tol: float = 1e-12,
) -> RealizedPattern:
    """Map a Gaussian draw r ~ N(0, Z) to a realizable activation pattern.

    The target mask is b_j = (z_j z_{n+1} + 1)/2 with z = sign(r). At the
    exact SDP optimum the vector w = sign(r_{n+1}) X' diag(lam)(r_{1:n} +
    r_{n+1} 1) realizes it on every row with lam_j > 0; rows with lam_j
    below ``drop_tol`` are unconstrained and take whatever sign w gives
    them. When the algebraic vector fails numerically (or violates the
    guard), an LP feasibility solve with unit slack takes over.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam_tilde = np.asarray(lam_tilde, dtype=float)
    n = X.shape[0]
    r = np.asarray(r, dtype=float)
    z = sign_pm(r)
    b_target = ((z[:n] * z[n]) + 1.0) / 2.0
    keep = lam_tilde > drop_tol
    if not keep.any():
        return RealizedPattern(
            mask_target=b_target, mask=np.ones(n), w=np.zeros(X.shape[1]), method="zero"
        )
    w = z[n] * (X.T @ (lam_tilde * (r[:n] + r[n])))
    prods = X @ w
    ok = np.array_equal((prods[keep] >= 0.0), b_target[keep].astype(bool))
    if ok and guard_rows is not None and np.size(guard_rows):
        ok = bool(np.all(np.atleast_2d(guard_rows) @ w <= 0.0)) and np.linalg.norm(w) > 0
    if ok and np.linalg.norm(w) > 0:
        return RealizedPattern(
            mask_target=b_target,
            mask=(prods >= 0.0).astype(float),
            w=w / np.linalg.norm(w),
            method="algebraic",
        )
    # LP fallback on the kept rows only
    sub = realize_mask_lp(
        X[keep], b_target[keep], guard_rows=guard_rows,
        guard_slack=1e-9 if guard_rows is not None else 0.0,
    )
    if not np.any(sub != 0.0):
        method = "zero"
    else:
        method = "lp"
    prods = X @ sub
    return RealizedPattern(
        mask_target=b_target,
        mask=(prods >= 0.0).astype(float),
        w=sub,
        method=method,
    )
