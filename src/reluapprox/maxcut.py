"""Max-Cut side of the pipeline: brute force, SDP relaxation, GW rounding.

The dual constraint of the margin problem restricts a binary quadratic
form, i.e. a Max-Cut value. The unit-diagonal SDP relaxation upper-bounds
it, Goemans-Williamson sign rounding recovers at least 2/pi of the SDP
value in expectation for PSD objectives, and the rounded signs map back to
activation patterns of the data's hyperplane arrangement. :func:`gw_round`
and the negcorr primal's per-block rounding (``primal._round_block``) draw
from one Gaussian sampler; the primal maps its draws to gates with
:func:`realize_patterns`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conic import _interior_point_sdp, _least_distance
from .errors import CapExceeded, FactorizationFailure, NonConvergence, Unrealizable
from .geometry import binary_vertices

BRUTE_CAP = 22
SDP_CERT_GAP = 1e-7  # largest certified relative gap a solve may return
DROP_TOL = 1e-8  # rows with dual weight at most DROP_TOL * max(lam) are left out of pattern realization
_GUARD_SLACK = 1e-9  # guard rows of a least-distance gate need g'w <= -_GUARD_SLACK

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
    "realize_patterns",
    "realize_mask_lp",
    "RealizedPattern",
]


def sign_pm(x: np.ndarray) -> np.ndarray:
    """Sign with the global convention sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


@dataclass
class SdpSolution:
    """Unit-diagonal SDP optimum with its certified bounds.

    ``Z`` is unit-diagonal PSD with ``tr(ZQ) = lower``; ``upper`` is the sum
    of a dual diagonal zeta with ``Diag(zeta) - Q`` PSD. ``iterations``
    counts interior-point steps and ``polished`` says whether the solve met
    its duality-gap target.
    """

    Z: np.ndarray
    objective: float
    lower: float  # certified feasible objective
    upper: float  # certified dual bound
    iterations: int = 0
    polished: bool = False


@dataclass
class RoundingBatch:
    """Sign samples from N(0, Z) with their induced activation masks."""

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
        raise CapExceeded(f"m={m} exceeds the brute-force cap {cap}")
    best_val, best_z = -math.inf, None
    for B in binary_vertices(m - 1):
        Zb = np.empty((B.shape[0], m))
        Zb[:, : m - 1] = 2.0 * B - 1.0
        Zb[:, m - 1] = 1.0
        vals = np.einsum("ij,jk,ik->i", Zb, Q, Zb)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_z = Zb[j].copy()
    return best_val, best_z


def sdp_relaxation(Q: np.ndarray) -> SdpSolution:
    """Solve max tr(XQ) s.t. diag(X)=1, X >= 0 by a primal-dual interior-point method.

    This is the shared interior-point loop of Helmberg, Rendl, Vanderbei
    and Wolkowicz (1996) with A_i = e_i e_i': X stays positive definite with
    unit diagonal and the dual slack Z = Diag(y) - Q stays positive definite;
    each step solves (Z^-1 o X) dy = mu diag(Z^-1) - e. The loop stops once
    tr(XZ) <= 1e-10 max(1, e'y) or after 100 steps. ``lower``/``upper`` are
    certified primal/dual bounds; a certified relative gap above 1e-7
    raises NonConvergence. The result is a pure function of Q.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.size == 0:
        raise ValueError(f"Q must be a nonempty square matrix, got shape {Q.shape}")
    Q = 0.5 * (Q + Q.T)
    m = Q.shape[0]
    eigmin = float(np.linalg.eigvalsh(Q).min())
    if eigmin < -1e-6 * max(1.0, np.abs(Q).max()):
        raise ValueError(f"Q must be PSD (min eigenvalue {eigmin:.3e})")
    absQ = np.abs(Q)
    # strictly diagonally dominant, so Z is positive definite even where Q has zero rows
    y = 1.1 * absQ.sum(axis=1) + 0.1 * max(absQ.max(), 1e-12)
    A = np.zeros((m, m, m))
    A[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    X, y, _, it, gap_met = _interior_point_sdp(Q, A, np.ones(m), np.zeros(m), y)
    sol = _package(Q, X, y, it, gap_met)
    rel_gap = (sol.upper - sol.lower) / max(1.0, abs(sol.upper))
    if rel_gap > SDP_CERT_GAP:
        raise NonConvergence(f"SDP certified relative gap {rel_gap:.2e} above {SDP_CERT_GAP:g} after {it} steps")
    return sol


def _package(Q, S, zeta, it, polished) -> SdpSolution:
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
    upper = float(np.sum(zeta + max(0.0, -lam_min)))
    return SdpSolution(
        Z=Z_feas,
        objective=0.5 * (lower + upper) if upper >= lower else lower,
        lower=lower,
        upper=upper,
        iterations=it,
        polished=polished,
    )


def psd_factor(Z: np.ndarray) -> np.ndarray:
    """A factor L with L L' = Z, for drawing r = L g ~ N(0, Z).

    Z must be PSD: its callers pass the unit-diagonal positive definite
    rounding matrices of the SDP solves. An eigenvalue below -1e-6 raises
    ValueError; eigenvalues above it are clipped at zero.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    w, V = np.linalg.eigh(0.5 * (Z + Z.T))
    if w.min() < -1e-6:
        raise ValueError(f"covariance must be PSD (min eigenvalue {w.min():.3e})")
    L = V * np.sqrt(np.maximum(w, 0.0))
    if not np.all(np.isfinite(L)):
        raise FactorizationFailure("non-finite factor")
    return L


def _gaussian_draws(rng: np.random.Generator, Z: np.ndarray, k: int) -> np.ndarray:
    """k rows r ~ N(0, Z): standard normals times the factor of :func:`psd_factor`."""
    L = psd_factor(Z)
    return rng.standard_normal((k, L.shape[0])) @ L.T


def gw_round(Z: np.ndarray, Q: np.ndarray, k: int, seed: int) -> RoundingBatch:
    """Draw k sign vectors z = sign(r), r ~ N(0, Z), and score z'Qz.

    The draws are those of the negcorr primal's rounding
    (:func:`_gaussian_draws`). Masks pair each coordinate with the last
    one: b_j = (z_j z_m + 1) / 2.
    """
    zs = sign_pm(_gaussian_draws(np.random.default_rng(seed), Z, k))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    vals = np.einsum("ij,jk,ik->i", zs, Q, zs)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    masks = ((zs[:, :-1] * zs[:, -1:]) + 1.0) / 2.0
    return RoundingBatch(samples=zs, masks=masks, mean=mean, stderr=stderr)


def dual_quadratic(X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The (n+1) x (n+1) form [I;1'] diag(lam) X X' diag(lam) [I 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam = np.asarray(lam, dtype=float)
    V = lam[:, None] * X  # diag(lam) X
    V = np.vstack([V, V.sum(axis=0, keepdims=True)])  # [I;1'] diag(lam) X
    return V @ V.T


def c1_value(X: np.ndarray, lam: np.ndarray) -> float:
    """Exact (1/4) max_{z in \\{-1,1\\}^{n+1}} z' Q z for the dual quadratic.

    Equals max over binary masks b of ||X' diag(lam) b||^2; the zonotope
    vertex maximum provides the independent cross-check. More than
    BRUTE_CAP rows raise :class:`CapExceeded`.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < -1e-12):
        raise ValueError("c1 is defined for lam >= 0")
    val, _ = maxcut_bruteforce(dual_quadratic(X, lam), cap=BRUTE_CAP + 1)
    return 0.25 * val


def c2_value_and_gradient(X: np.ndarray, lam: np.ndarray) -> tuple[float, SdpSolution, np.ndarray]:
    """SDP upper bound c2(lam) with its envelope gradient.

    c2(lam) = (1/4) max_Z tr(Z Q(lam)) over unit-diagonal PSD Z. At the
    maximizing Z the map lam -> (1/4) tr(Z Q(lam)) is a fixed quadratic
    form whose gradient, (1/2) (P o X X') lam with P the data-block
    compression of Z, is an envelope (super)gradient of c2.

    A library function: no solver path calls it (the negcorr and geo duals
    solve one SDP in (lam, zeta) per block instead). The gradient is taken
    at the interior-point Z, not at an exact maximizer, so it is accurate
    only to about the square root of the SDP's duality gap.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam = np.asarray(lam, dtype=float)
    n = X.shape[0]
    if not np.any(lam != 0.0):
        return 0.0, SdpSolution(Z=np.eye(n + 1), objective=0.0, lower=0.0, upper=0.0), np.zeros(n)
    sol = sdp_relaxation(dual_quadratic(X, lam))
    Z = sol.Z
    P = Z[:n, :n] + Z[:n, n:] + Z[n:, :n] + Z[n, n]
    return 0.25 * sol.objective, sol, 0.5 * (P * (X @ X.T)) @ lam


@dataclass
class RealizedPattern:
    mask_target: np.ndarray
    mask: np.ndarray  # actual mask of w on all rows (ties count as 1)
    w: np.ndarray
    method: str  # "algebraic" | "lp" | "zero"


def realize_mask_lp(X: np.ndarray, mask: np.ndarray, guard_rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Find w with I(X w >= 0) == mask as the least-norm gate with unit margins, or raise.

    Active rows get x'w >= 1, inactive rows x'w <= -1 (scaling makes any
    strictly realizable mask feasible at unit slack). Guard rows, when
    given, additionally require g'w <= -``_GUARD_SLACK`` (1e-9), so the gate
    is strictly negative on every guard row. The gate is the least-distance
    program min ||w|| over these rows, solved exactly by
    Lawson and Hanson's NNLS (:func:`reluapprox.conic._least_distance`);
    it has no solution exactly when the mask is not realizable. The name and
    the ``"lp"`` method label of :func:`realize_patterns` remain from the LP
    feasibility solve this replaced, since callers and benchmark traces key
    on both. The all-ones mask falls back to w = 0, which realizes it
    exactly under the >= tie convention, provided no guard is requested.
    The returned w has unit norm and passes the exact mask check.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mask = np.asarray(mask).astype(bool)
    n, d = X.shape
    rows, rhs = [np.where(mask[:, None], X, -X)], [np.ones(n)]
    if guard_rows is not None and np.size(guard_rows):
        G = np.atleast_2d(np.asarray(guard_rows, dtype=float))
        rows.append(-G)
        rhs.append(np.full(G.shape[0], _GUARD_SLACK))
    sol = _least_distance(np.vstack(rows), np.concatenate(rhs))
    if sol is None:
        if mask.all() and guard_rows is None:
            return np.zeros(d)
        raise Unrealizable(f"no gate vector realizes mask {mask.astype(int).tolist()}")
    w = sol[0] / np.linalg.norm(sol[0])
    if not np.array_equal(X @ w >= 0.0, mask):
        raise Unrealizable("least-distance gate failed the exact realization check")
    return w


def realize_patterns(
    X: np.ndarray,
    R: np.ndarray,
    lam_tilde: np.ndarray,
    guard_rows: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map a batch of Gaussian draws (rows of R ~ N(0, Z)) to activation patterns.

    Row i of the k x (n+1) matrix R gives the target mask b_j = (z_j z_{n+1}
    + 1)/2 with z = sign(R_i). At the exact SDP optimum the vector
    w = z_{n+1} X' diag(lam)(r_{1:n} + r_{n+1} 1) realizes it on every row
    with lam_j > 0; rows with lam_j at most ``DROP_TOL`` max(lam) are
    unconstrained and take whatever sign w gives them. The gates of all k
    draws, their mask check on the kept rows and their guard check
    (``guard_rows @ w <= 0``) are three matrix products. A draw whose gate
    fails a check, or is zero, falls back to the least-norm gate with unit
    margins (:func:`realize_mask_lp`) on the kept rows; it runs once per
    distinct kept-row target in the call and its gate serves every draw
    with that target.

    Returns ``(mask_target, mask, W, method)``: k x n target masks, k x n
    realized masks of the gates on all rows (ties count as 1), k x d gates
    (unit norm on the algebraic route) and one method per draw,
    ``"algebraic"``, ``"lp"`` (the fallback's gate), ``"zero"`` (no kept
    row, or the fallback's all-ones w = 0) or ``"unrealizable"`` (no gate
    realizes the target; the mask and gate rows of such a draw are zero).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam_tilde = np.asarray(lam_tilde, dtype=float)
    n, d = X.shape
    R = np.atleast_2d(np.asarray(R, dtype=float))
    k = R.shape[0]
    Z = sign_pm(R)
    targets = ((Z[:, :n] * Z[:, n:]) + 1.0) / 2.0
    keep = lam_tilde > DROP_TOL * lam_tilde.max(initial=0.0)
    if not keep.any():
        return targets, np.ones((k, n)), np.zeros((k, d)), np.full(k, "zero", dtype="<U12")
    W = Z[:, n:] * ((lam_tilde * (R[:, :n] + R[:, n:])) @ X)
    P = W @ X.T
    norms = np.linalg.norm(W, axis=1)
    ok = np.all((P[:, keep] >= 0.0) == targets[:, keep].astype(bool), axis=1) & (norms > 0)
    if guard_rows is not None and np.size(guard_rows):
        ok &= np.all(W @ np.atleast_2d(guard_rows).T <= 0.0, axis=1)
    masks = (P >= 0.0).astype(float)
    W[ok] /= norms[ok, None]
    method = np.full(k, "algebraic", dtype="<U12")
    # least-distance fallback on the kept rows, once per distinct kept-row target
    kept_targets = targets[:, keep]
    fallback: dict[bytes, tuple] = {}  # kept-row target -> (method, mask, gate)
    for i in np.flatnonzero(~ok):
        key = kept_targets[i].tobytes()
        if key not in fallback:
            try:
                sub = realize_mask_lp(X[keep], kept_targets[i], guard_rows=guard_rows)
            except Unrealizable:
                fallback[key] = ("unrealizable", 0.0, 0.0)
            else:
                fallback[key] = ("lp" if np.any(sub != 0.0) else "zero", X @ sub >= 0.0, sub)
        method[i], masks[i], W[i] = fallback[key]
    return targets, masks, W, method


def realize_pattern(
    X: np.ndarray,
    r: np.ndarray,
    lam_tilde: np.ndarray,
    guard_rows: Optional[np.ndarray] = None,
) -> RealizedPattern:
    """Map one Gaussian draw r ~ N(0, Z) to a realizable activation pattern.

    The one-row case of :func:`realize_patterns`; raises ``Unrealizable``
    when no gate vector realizes the draw's target on the kept rows.
    """
    targets, masks, W, method = realize_patterns(X, r, lam_tilde, guard_rows=guard_rows)
    if method[0] == "unrealizable":
        raise Unrealizable(f"no gate vector realizes mask {targets[0].astype(int).tolist()}")
    return RealizedPattern(mask_target=targets[0], mask=masks[0], w=W[0], method=str(method[0]))
