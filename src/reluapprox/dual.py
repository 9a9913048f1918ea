"""Dual solvers for the three data regimes, plus feasibility certification.

Orthogonal-separable data splits the dual into two closed-form-constraint
cone programs solved exactly. Negative-correlation data replaces the
binary-max constraint with its SDP upper bound c2; by SDP duality and a
Schur complement, maximizing over c2(lam) <= r^2 is one semidefinite
program per label block, solved by the interior-point method, whose own
dual slack certifies the c2 bound and whose primal is the rounding
matrix. Because c2 dominates the true constraint, the returned vector is
feasible for the true dual and its objective is within a sqrt(2/pi)
factor of optimal.
General data runs the same two label-block SDPs at the same radius: the
merged vector is feasible on any data, and the geometric factor c only
sets the guaranteed fraction (1-c) sqrt(2/pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conic import MinSumNormsProblem, _interior_point_sdp, _least_distance, solve_min_sum_norms
from .dataset import (
    NEGATIVE_CORRELATION,
    ORTHO_SEPARABLE,
    Dataset,
    LossModel,
    classify_dataset,
)
from .errors import CertificateViolation, Infeasible, NonConvergence, WrongRegime, ZeroDenominator
from .geometry import ENUM_CAP, dual_constraint_maximin, zonotope_vertex_max
from .maxcut import _package, dual_quadratic

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

__all__ = [
    "DualCertificate",
    "GeoRatio",
    "FeasibilityReport",
    "solve_dual_ortho",
    "solve_dual_negcorr",
    "solve_dual_geo",
    "geometric_ratio",
    "check_dual_feasibility",
]


@dataclass
class DualCertificate:
    """A sign-feasible dual vector of ``dataset`` under ``loss``, with its certified quality factor.

    ``objective`` is lam' y for the max-margin loss and sum g((diag(y)
    lam)_i) otherwise; ``rho`` guarantees objective >= rho * D up to the
    additive solver accuracy recorded in ``eps``: the block duality gaps
    for ortho, and for negcorr and geo a bound on each block's distance to
    its surrogate optimum (the interior-point gap, corrected for the
    primal residual, plus the gain that scaling lam onto the certified
    c2 bound gave up). ``dataset`` and ``loss`` name what is certified:
    the objective is a lower bound for that dataset and loss only.
    """

    lam: np.ndarray
    objective: float
    constraint_value: Optional[float]
    dataset: Dataset
    loss: LossModel
    rho: float
    eps: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GeoRatio:
    """Ratio of the two dual zonotopes' vertex maxima at the dual optimum."""

    c_star: float


@dataclass(frozen=True)
class FeasibilityReport:
    constraint_value: float
    feasible: bool


def check_dual_feasibility(ds: Dataset, lam: np.ndarray, bound: float = 1.0) -> FeasibilityReport:
    """Exact dual-constraint value; feasible iff diag(y) lam >= 0 and the value is within ``bound``."""
    signed = ds.y * np.asarray(lam, dtype=float)
    value = dual_constraint_maximin(ds, ds.y * np.maximum(signed, 0.0)).value
    feasible = bool(signed.min(initial=0.0) >= -1e-10) and value <= bound * (1.0 + 1e-8)
    return FeasibilityReport(constraint_value=value, feasible=feasible)


def _checked_constraint(ds: Dataset, lam: np.ndarray, radius: float) -> Optional[float]:
    """Exact dual-constraint value of lam (None above the enumeration cap).

    Raises CertificateViolation when :func:`check_dual_feasibility` finds
    lam infeasible for the radius.
    """
    if max(ds.n_plus, ds.n_minus) > ENUM_CAP:
        return None
    report = check_dual_feasibility(ds, lam, bound=radius)
    if not report.feasible:
        raise CertificateViolation(
            f"exact dual constraint {report.constraint_value:.10g} exceeds the radius {radius:g}"
        )
    return report.constraint_value


def _block_ortho(X_block: np.ndarray, loss: LossModel, tol: float):
    """Solve one class block of the separable dual.

    Max-margin blocks are the least-distance program min ||u|| s.t.
    X u >= 1, solved exactly by the NNLS of :func:`_least_distance`
    (Lawson and Hanson, *Solving Least Squares Problems*, ch. 23), which
    reports a margin system without solution. The block is certified as
    the kernel certifies its points: u is scaled to primal feasibility,
    lam onto the unit dual sphere, and the relative gap must be within
    ``tol``. Penalized losses run the min-sum-of-norms kernel, which
    certifies the gap itself.

    Returns (block value, block dual, direction u, absolute duality gap).
    """
    nb, d = X_block.shape
    if nb == 0:
        return 0.0, np.zeros(0), np.zeros(d), 0.0
    if loss.penalized:
        prob = MinSumNormsProblem(X=X_block, row_weights=np.ones((1, nb)), loss=loss)
        res = solve_min_sum_norms(prob, tol=tol)
        return float(np.sum(loss.g(res.lam))), res.lam, res.blocks[0], res.gap
    sol = _least_distance(X_block)
    if sol is None:
        raise Infeasible("margin system X u >= 1 has no feasible point")
    u, lam = sol
    smin = float((X_block @ u).min())
    if smin <= 0.0:
        raise NonConvergence(f"least-distance block lost feasibility (min margin {smin:.3e})")
    unorm = float(np.linalg.norm(u))
    pval = unorm / smin
    lam = lam / unorm
    dval = float(lam.sum())
    gap = pval - dval
    if gap > tol * (1.0 + pval):
        raise NonConvergence(f"least-distance block gap {gap / (1.0 + pval):.3e} exceeds tol {tol:g}")
    return dval, lam, u / smin, gap


def solve_dual_ortho(ds: Dataset, loss: LossModel = LossModel.max_margin(), tol: float = 1e-8) -> DualCertificate:
    """Exact dual for orthogonal-separable data (two separated cone programs).

    The data are classified with exact Gram signs. For the max-margin loss
    each block's direction is then a nonnegative combination of its own
    class's rows, so its activations on the other class are <= 0 and the
    two-neuron network of :func:`build_network_ortho` reproduces the block
    margins exactly. A ``tol`` that is not a finite positive number raises
    ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    cls = classify_dataset(ds)
    if cls.tag != ORTHO_SEPARABLE:
        raise WrongRegime(f"dataset classifies as {cls.tag}")
    _, lam_p, u_plus, gap_p = _block_ortho(ds.X_plus, loss, tol)
    _, lam_m, u_minus, gap_m = _block_ortho(ds.X_minus, loss, tol)
    lam = ds.merge_dual(lam_p, lam_m)
    objective = loss.g_total(lam, ds.y)
    # the regime is known, so this is ortho_closed_form without its checks
    constraint = max(float(np.linalg.norm(ds.X_plus.T @ lam_p)), float(np.linalg.norm(ds.X_minus.T @ lam_m)))
    return DualCertificate(
        lam=lam,
        objective=objective,
        constraint_value=constraint,
        dataset=ds,
        loss=loss,
        rho=1.0,
        eps=gap_p + gap_m,
        meta={"u_plus": u_plus, "u_minus": u_minus},
    )


def _block_sdp(X_block: np.ndarray, loss: LossModel, radius: float):
    """The block surrogate dual as one SDP: data (C, A, b) and a strictly feasible y.

    The variables are y = (lam, zeta) and, for the squared hinge, t. The
    dual slack sum_i y_i A_i - C is block diagonal: the LMI
    [[Diag(zeta), V], [V', I_d]] with V = [I; 1'] diag(lam) X, then the
    diagonal entries lam, 4 r^2 - 1'zeta and (hinge) 1 - lam, then
    (squared hinge) [[t, lam'], [lam, I]]. Minimizing b'y maximizes 1'lam,
    or 1'lam - t/4. The start point scales lam = 1/|x_j| and a strictly
    diagonally dominant zeta so that half the budget 4 r^2 is used.
    """
    nb, d = X_block.shape
    box = loss.box_upper < math.inf
    sq = loss.name == "squared_hinge"
    j, k, e = np.arange(nb), np.arange(nb + 1), np.arange(d)
    # slack rows: zeta part and I_d part of the LMI, lam >= 0, the budget,
    # 1 - lam (hinge), then the squared-hinge block
    lmi = nb + 1 + d
    budget = lmi + nb
    top = budget + 1 + (nb if box else 0)
    order = top + (nb + 1 if sq else 0)
    A = np.zeros((2 * nb + 1 + sq, order, order))
    C = np.zeros((order, order))
    b = np.zeros(2 * nb + 1 + sq)
    b[:nb] = -1.0
    A[nb + k, k, k] = 1.0
    for row in (j, nb):  # rows j and 1' of V
        A[j, row, nb + 1:lmi] = X_block
        A[j, nb + 1:lmi, row] = X_block
    C[nb + 1 + e, nb + 1 + e] = -1.0
    A[j, lmi + j, lmi + j] = 1.0
    A[nb + k, budget, budget] = -1.0
    C[budget, budget] = -4.0 * radius**2
    if box:
        A[j, budget + 1 + j, budget + 1 + j] = -1.0
        C[budget + 1 + j, budget + 1 + j] = -loss.box_upper
    if sq:
        A[-1, top, top] = 1.0
        A[j, top, top + 1 + j] = A[j, top + 1 + j, top] = 1.0
        C[top + 1 + j, top + 1 + j] = -1.0
        b[-1] = 0.25
    norms = np.linalg.norm(X_block, axis=1)
    absQ = np.abs(dual_quadratic(X_block, 1.0 / norms))
    zeta = 1.1 * absQ.sum(axis=1) + 0.1 * absQ.max()
    s = radius * math.sqrt(2.0 / zeta.sum())
    if box:
        s = min(s, 0.5 * loss.box_upper * norms.min())
    lam = s / norms
    y = np.concatenate([lam, s * s * zeta, [1.0 + lam @ lam] if sq else []])
    return C, A, b, y


def _block_negcorr(X_block: np.ndarray, loss: LossModel, radius: float):
    """Maximize the block dual gain subject to c2(lam) <= radius^2.

    By SDP duality 4 c2(lam) is the least 1'zeta with Diag(zeta) >= Q(lam)
    = V V', and by a Schur complement that holds iff [[Diag(zeta), V],
    [V', I]] >= 0. So the block is the single SDP of :func:`_block_sdp`,
    solved by the shared interior-point loop from a strictly feasible point.
    Its returned zeta certifies 4 c2(lam) <= 1'zeta once shifted by the
    least eigenvalue of Diag(zeta) - Q(lam), and its primal's (nb+1) block,
    normalized to unit diagonal, is the rounding matrix ``Z``: the packaging
    of :func:`maxcut.sdp_relaxation`. A certified bound above radius^2
    scales lam once by sqrt(radius^2 / bound); c2 is degree-2 homogeneous,
    so the scaled zeta certifies radius^2. ``eps`` bounds the block's
    distance to the surrogate optimum: the final interior-point gap tr(XZ),
    plus (|y| + B) |A(X) - b| for the primal residual with B an a priori
    bound on the optimal |y|, plus the gain the scaling gave up.
    """
    nb = X_block.shape[0]
    if nb == 0:
        return np.zeros(0), {"eps": 0.0}
    C, A, b, y0 = _block_sdp(X_block, loss, radius)
    primal, y, slack, steps, met = _interior_point_sdp(C, A, b, y0)
    lam = y[:nb]
    solved = float(np.sum(loss.g(lam)))
    sol = _package(dual_quadratic(X_block, lam), primal[: nb + 1, : nb + 1], y[nb : 2 * nb + 1], steps, met)
    hi = 0.25 * sol.upper
    r2 = radius**2
    if hi > r2:
        lam = lam * math.sqrt(r2 / hi)
    # for the optimal y*, b'y - b'y* <= tr(XZ) - y'r + |y*| |r| with r = A(X) - b
    # (Jansson, Chaykin and Keil 2007). |y*| is bounded a priori: lam_j <= r/|x_j|
    # (c2(lam) >= lam_j^2 |x_j|^2) and <= 1 for the hinge, 1'zeta <= 4 r^2 with
    # zeta >= 0, and t = |lam|^2 for the squared hinge
    lam2 = float(np.sum(np.minimum(radius / np.linalg.norm(X_block, axis=1), loss.box_upper) ** 2))
    y_bound = math.sqrt(lam2 + (4.0 * r2) ** 2 + (lam2**2 if loss.name == "squared_hinge" else 0.0))
    residual = float(np.linalg.norm(np.einsum("ijk,jk->i", A, primal) - b))
    gap = float(np.sum(primal * slack)) + (float(np.linalg.norm(y)) + y_bound) * residual
    eps = gap + max(solved - float(np.sum(loss.g(lam))), 0.0)
    return lam, {"eps": eps, "Z": sol.Z}


def _label_block_dual(ds: Dataset, loss: LossModel, rho: float) -> DualCertificate:
    """Both label blocks at radius r = beta (1 for the max-margin loss), merged.

    ``eps`` is the sum of the blocks' bounds on their distance to the
    surrogate optimum; the constraint value is checked exactly by
    :func:`_checked_constraint`.
    """
    radius = loss.beta
    lam_p, info_p = _block_negcorr(ds.X_plus, loss, radius)
    lam_m, info_m = _block_negcorr(ds.X_minus, loss, radius)
    lam = ds.merge_dual(lam_p, lam_m)
    return DualCertificate(
        lam=lam,
        objective=loss.g_total(lam, ds.y),
        constraint_value=_checked_constraint(ds, lam, radius),
        dataset=ds,
        loss=loss,
        rho=rho,
        eps=info_p["eps"] + info_m["eps"],
        meta={"block_info": (info_p, info_m)},
    )


def solve_dual_negcorr(ds: Dataset, loss: LossModel = LossModel.max_margin()) -> DualCertificate:
    """Approximate dual for negative-correlation data via the SDP surrogate.

    Each label block is a one-class problem max sum g(lam) s.t.
    c2(lam) <= beta^2, solved as one semidefinite program (the Schur
    complement form of :func:`_block_negcorr`). The data are classified
    with exact Gram signs. The result is feasible for the true dual and its
    objective is at least sqrt(2/pi) * D - eps, with ``eps`` the sum of the
    blocks' bounds on their distance to the surrogate optimum.
    """
    cls = classify_dataset(ds)
    if cls.tag not in (ORTHO_SEPARABLE, NEGATIVE_CORRELATION):
        raise WrongRegime(f"dataset classifies as {cls.tag}")
    return _label_block_dual(ds, loss, SQRT_2_OVER_PI)


def geometric_ratio(ds: Dataset, lam_star: np.ndarray) -> GeoRatio:
    """c* = vertex max of the positive dual zonotope over the negative one."""
    lam_p, lam_m = ds.split_dual(lam_star)
    if ds.n_minus == 0:
        raise ZeroDenominator("no negative-label samples")
    num, _ = zonotope_vertex_max(ds.X_plus.T * lam_p[None, :])
    den, _ = zonotope_vertex_max(ds.X_minus.T * lam_m[None, :])
    if den <= 0.0:
        raise ZeroDenominator("negative-block vertex maximum is zero")
    return GeoRatio(c_star=num / den)


def solve_dual_geo(ds: Dataset, c: float, loss: LossModel = LossModel.max_margin()) -> DualCertificate:
    """Dual approximation for general data from the two radius-r block SDPs.

    Both label blocks are solved at radius r, as in
    :func:`solve_dual_negcorr`. The merged lam is feasible on any data:
    with A(u), B(u) >= 0 the two class sums of |lam_i| (x_i'u)_+,
    |lam'(Xu)_+| = |A(u) - B(u)| <= max(A(u), B(u)) <= r, since each block
    certifies max_u A(u)^2 = c1(lam_p) <= c2(lam_p) <= r^2, and likewise
    for B. The geometric factor c only sets rho = (1-c) sqrt(2/pi) and
    ``p_derived``. A block's optimum grows with its radius, so the
    objective is at least that of the c-weighted duals at radii (r, c r)
    and (c r, r), and objective >= rho D - eps wherever
    their bound holds, with ``eps`` the sum of the blocks' bounds on their
    distance to the surrogate optimum.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    rho = (1.0 - c) * SQRT_2_OVER_PI
    cert = _label_block_dual(ds, loss, rho)
    cert.meta["p_derived"] = cert.objective / rho if rho > 0 else math.inf
    return cert
