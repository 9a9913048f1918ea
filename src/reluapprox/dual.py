"""Dual solvers for the three data regimes, plus feasibility certification.

Orthogonal-separable data splits the dual into two closed-form-constraint
cone programs solved exactly. Negative-correlation data replaces the
binary-max constraint with its SDP upper bound c2 and maximizes by the
ellipsoid method; because c2 dominates the true constraint, the returned
vector is feasible for the true dual and its objective is within a
sqrt(2/pi) factor of optimal. General data runs the same machinery with
asymmetric radii governed by the geometric ratio of the two zonotopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conic import (
    EllipsoidConfig,
    MinSumNormsProblem,
    _nnls_small,
    ellipsoid_maximize,
    solve_min_sum_norms,
)
from .dataset import (
    NEGATIVE_CORRELATION,
    ORTHO_SEPARABLE,
    Dataset,
    LossModel,
    classify_dataset,
)
from .errors import CertificateViolation, Infeasible, NonConvergence, WrongRegime, ZeroDenominator
from .geometry import ENUM_CAP, dual_constraint_maximin, ortho_closed_form, zonotope_vertex_max
from .maxcut import c2_value_and_gradient

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
    """A sign-feasible dual vector with its certified quality factor.

    ``objective`` is lam' y for the max-margin loss and sum g((diag(y)
    lam)_i) otherwise; ``rho`` guarantees objective >= rho * D up to the
    additive solver accuracy recorded in ``eps``.
    """

    lam: np.ndarray
    objective: float
    constraint_value: Optional[float]
    regime: str
    rho: float
    eps: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GeoRatio:
    """Ratio of the two dual zonotopes' vertex maxima at the dual optimum."""

    c_star: float
    numerator: float
    denominator: float


@dataclass(frozen=True)
class FeasibilityReport:
    constraint_value: float
    bound: float
    sign_violation: float
    feasible: bool


def check_dual_feasibility(
    ds: Dataset, lam: np.ndarray, bound: float = 1.0, cap: int = ENUM_CAP
) -> FeasibilityReport:
    """Exact dual-constraint value and sign-condition violations."""
    lam = np.asarray(lam, dtype=float)
    signed = ds.y * lam
    sign_violation = float(max(0.0, -(signed.min(initial=0.0))))
    clipped = ds.y * np.maximum(signed, 0.0)
    report = dual_constraint_maximin(ds, clipped, cap=cap)
    value = report.value
    feasible = sign_violation <= 1e-10 and value <= bound * (1.0 + 1e-8)
    return FeasibilityReport(
        constraint_value=value, bound=bound, sign_violation=sign_violation, feasible=feasible
    )


def _checked_constraint(ds: Dataset, lam: np.ndarray, radius: float) -> Optional[float]:
    """Exact dual-constraint value of lam (None above the enumeration cap).

    Raises CertificateViolation when it exceeds the radius, by the rule
    of :func:`check_dual_feasibility`.
    """
    if max(ds.n_plus, ds.n_minus) > ENUM_CAP:
        return None
    value = dual_constraint_maximin(ds, lam).value
    if value > radius * (1.0 + 1e-8):
        raise CertificateViolation(f"exact dual constraint {value:.10g} exceeds the radius {radius:g}")
    return value


def _block_ortho(X_block: np.ndarray, loss: LossModel, tol: float):
    """Solve one class block of the separable dual.

    Max-margin blocks are the least-distance program min ||u|| s.t.
    X u >= 1, solved exactly (Lawson and Hanson, *Solving Least Squares
    Problems*, ch. 23): the NNLS min ||E mu - e|| over mu >= 0, with
    E = [X'; 1'] and e the last unit vector, gives the multipliers
    lam = mu / (1 - 1'mu) and u = X' lam. The residual's last entry is
    -||E mu - e||^2, so it is zero exactly when the margin system has no
    solution. The block is certified as the kernel certifies its points:
    u is scaled to primal feasibility, lam onto the unit dual sphere, and
    the relative gap must be within ``tol``. Penalized losses run the
    min-sum-of-norms kernel, which certifies the gap itself.

    Returns (block value, block dual, direction u, absolute duality gap).
    """
    nb, d = X_block.shape
    if nb == 0:
        return 0.0, np.zeros(0), np.zeros(d), 0.0
    if loss.penalized:
        prob = MinSumNormsProblem.from_masks(X_block, np.ones((1, nb)), loss=loss, mode="penalized")
        res = solve_min_sum_norms(prob, tol=tol)
        return float(np.sum(loss.g(res.lam))), res.lam, res.blocks[0], res.gap
    E = np.vstack([X_block.T, np.ones((1, nb))])
    e = np.zeros(d + 1)
    e[-1] = 1.0
    mu = _nnls_small(E, e)
    denom = 1.0 - float(mu.sum())  # minus the residual's last entry
    if denom <= 4.0 * nb * np.finfo(float).eps:
        raise Infeasible("margin system X u >= 1 has no feasible point")
    lam = mu / denom
    u = X_block.T @ lam
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


def solve_dual_ortho(
    ds: Dataset, loss: Optional[LossModel] = None, tol: float = 1e-8, class_tol: float = 0.0
) -> DualCertificate:
    """Exact dual for orthogonal-separable data (two separated cone programs).

    For the max-margin loss each block's direction is a nonnegative
    combination of its own class's rows, so with ``class_tol = 0`` its
    activations on the other class are <= 0 and the two-neuron network of
    :func:`build_network_ortho` reproduces the block margins exactly. With
    ``class_tol > 0`` the cross-class products may be positive up to
    ``class_tol``; the margins and the closed-form ``constraint_value`` are
    then not promised exact.
    """
    loss = loss or LossModel.max_margin()
    cls = classify_dataset(ds, tol=class_tol)
    if cls.tag != ORTHO_SEPARABLE:
        raise WrongRegime(f"dataset classifies as {cls.tag}")
    vp, lam_p, u_plus, gap_p = _block_ortho(ds.X_plus, loss, tol)
    vm, lam_m, u_minus, gap_m = _block_ortho(ds.X_minus, loss, tol)
    lam = ds.merge_dual(lam_p, lam_m)
    objective = loss.g_total(lam, ds.y)
    constraint = max(ortho_closed_form(ds, lam, tol=class_tol))
    return DualCertificate(
        lam=lam,
        objective=objective,
        constraint_value=constraint,
        regime="ortho",
        rho=1.0,
        eps=gap_p + gap_m,
        meta={
            "u_plus": u_plus,
            "u_minus": u_minus,
            "block_values": (vp, vm),
            "loss": loss.name,
        },
    )


class _C2Oracle:
    """Separation oracle for {lam >= 0 : c2(lam) <= radius^2}.

    Certified SDP bounds drive the answer: Inside needs the dual bound
    below radius^2, a cut needs the feasible (primal) bound above it; the
    cut is the envelope gradient at the feasible maximizer, which supports
    c2 from below and therefore separates the whole body. A bracket that
    straddles radius^2 counts as inside and is fixed by rescaling later.
    """

    def __init__(self, X_block: np.ndarray, radius: float):
        self.X = X_block
        self.r2 = radius**2
        self.calls = 0

    def value_bounds(self, lam: np.ndarray):
        _, sol, _ = c2_value_and_gradient(self.X, lam)
        return 0.25 * sol.lower, 0.25 * sol.upper, sol

    def __call__(self, lam: np.ndarray):
        self.calls += 1
        _, sol, grad = c2_value_and_gradient(self.X, lam)
        lo, hi = 0.25 * sol.lower, 0.25 * sol.upper
        if hi <= self.r2 * (1.0 + 1e-9) or lo <= self.r2:
            return None
        # support inequality: c2(x) >= lo + grad'(x - lam) for all x
        h = float(grad @ lam) + (self.r2 - lo)
        return grad, h


def _block_negcorr(
    X_block: np.ndarray,
    loss: LossModel,
    radius: float,
    eps: Optional[float],
):
    """Maximize the block dual gain subject to c2(lam) <= radius^2."""
    nb = X_block.shape[0]
    if nb == 0:
        return 0.0, np.zeros(0), {"iterations": 0, "eps": 0.0}
    norms = np.linalg.norm(X_block, axis=1)
    box = radius / norms
    if loss.box_upper < math.inf:
        box = np.minimum(box, loss.box_upper)
    R = float(radius * np.sum(1.0 / norms) + 1.0)
    bound0 = float(box.sum())
    if eps is None:
        eps = 1e-4 * max(bound0, 1.0)
    oracle = _C2Oracle(X_block, radius)
    cfg = EllipsoidConfig(radius=R, eps=eps, dim=nb)
    if loss.name in ("maxmargin", "hinge"):
        objective = np.ones(nb)
    else:
        objective = (lambda x: float(np.sum(loss.g(x))), lambda x: loss.gprime(x))
    box_upper = loss.box_upper if loss.box_upper < math.inf else None
    lam, info = ellipsoid_maximize(objective, oracle, cfg, box_upper=box_upper)
    lam = np.maximum(lam, 0.0)
    if box_upper is not None:
        lam = np.minimum(lam, box_upper)
    # rescale into certified feasibility for the surrogate (and so for the
    # true dual, since c1 <= c2); c2 is degree-2 homogeneous in lam. Every
    # rescaled point is checked again; at most three rescales are tried.
    # The SDP solution of the accepted check goes on to rounding.
    for rescales in range(4):
        _, hi, sol = oracle.value_bounds(lam)
        if hi <= oracle.r2:
            break
        if rescales == 3:
            raise NonConvergence(
                f"certified surrogate bound {hi:.6g} still above radius^2 = {oracle.r2:.6g} after 3 rescales"
            )
        lam = lam * math.sqrt(oracle.r2 / hi)
    value = float(np.sum(loss.g(lam))) if loss.penalized else float(lam.sum())
    return value, lam, {
        "iterations": info["iterations"],
        "eps": eps,
        "oracle_calls": oracle.calls,
        "sdp": sol,
    }


def solve_dual_negcorr(
    ds: Dataset,
    loss: Optional[LossModel] = None,
    eps: Optional[float] = None,
    class_tol: float = 0.0,
) -> DualCertificate:
    """Approximate dual for negative-correlation data via the SDP surrogate.

    Each label block is a one-class problem max sum g(lam) s.t.
    c2(lam) <= beta^2 solved by the ellipsoid method with the c2 separation
    oracle. The result is feasible for the true dual and its objective is
    at least sqrt(2/pi) * D - eps (times the loss constant C for general
    losses).
    """
    loss = loss or LossModel.max_margin()
    cls = classify_dataset(ds, tol=class_tol)
    if cls.tag not in (ORTHO_SEPARABLE, NEGATIVE_CORRELATION):
        raise WrongRegime(f"dataset classifies as {cls.tag}")
    radius = 1.0 if loss.name == "maxmargin" else loss.beta
    half = None if eps is None else 0.5 * eps
    vp, lam_p, info_p = _block_negcorr(ds.X_plus, loss, radius, half)
    vm, lam_m, info_m = _block_negcorr(ds.X_minus, loss, radius, half)
    lam = ds.merge_dual(lam_p, lam_m)
    objective = loss.g_total(lam, ds.y)
    rho = SQRT_2_OVER_PI * (loss.C if loss.name not in ("maxmargin", "hinge") else 1.0)
    constraint = _checked_constraint(ds, lam, radius)
    return DualCertificate(
        lam=lam,
        objective=objective,
        constraint_value=constraint,
        regime="negcorr",
        rho=rho,
        eps=info_p["eps"] + info_m["eps"],
        meta={
            "block_values": (vp, vm),
            "lam_blocks": (lam_p, lam_m),
            "block_info": (info_p, info_m),
            "loss": loss.name,
        },
    )


def geometric_ratio(ds: Dataset, lam_star: np.ndarray, cap: int = ENUM_CAP) -> GeoRatio:
    """c* = vertex max of the positive dual zonotope over the negative one."""
    lam_p, lam_m = ds.split_dual(lam_star)
    if ds.n_minus == 0:
        raise ZeroDenominator("no negative-label samples")
    num, _ = zonotope_vertex_max(ds.X_plus.T * lam_p[None, :], cap=cap)
    den, _ = zonotope_vertex_max(ds.X_minus.T * lam_m[None, :], cap=cap)
    if den <= 0.0:
        raise ZeroDenominator("negative-block vertex maximum is zero")
    return GeoRatio(c_star=num / den, numerator=num, denominator=den)


def solve_dual_geo(
    ds: Dataset,
    c: float,
    loss: Optional[LossModel] = None,
    eps: Optional[float] = None,
) -> DualCertificate:
    """Dual approximation for general data using radii (1, c) and (c, 1).

    The caller asserts c <= min(c*, 1/c*). Both asymmetric problems are
    solved (each block by the ellipsoid + SDP machinery) and the better
    feasible objective kept; the guarantee is objective >=
    sqrt(2/pi) (1-c) D - eps.
    """
    loss = loss or LossModel.max_margin()
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    radius = 1.0 if loss.name == "maxmargin" else loss.beta
    half = None if eps is None else 0.25 * eps
    homogeneous = loss.name == "maxmargin"
    if homogeneous:
        vp, lam_p, info_p = _block_negcorr(ds.X_plus, loss, radius, half)
        vm, lam_m, info_m = _block_negcorr(ds.X_minus, loss, radius, half)
        cand = [
            (vp + c * vm, lam_p, c * lam_m, "Dc1"),
            (c * vp + vm, c * lam_p, lam_m, "Dc2"),
        ]
        infos = (info_p, info_m)
    else:
        vp1, lp1, i1 = _block_negcorr(ds.X_plus, loss, radius, half)
        vm1, lm1, i2 = _block_negcorr(ds.X_minus, loss, c * radius, half)
        vp2, lp2, i3 = _block_negcorr(ds.X_plus, loss, c * radius, half)
        vm2, lm2, i4 = _block_negcorr(ds.X_minus, loss, radius, half)
        cand = [(vp1 + vm1, lp1, lm1, "Dc1"), (vp2 + vm2, lp2, lm2, "Dc2")]
        infos = (i1, i2, i3, i4)
    best = max(cand, key=lambda t: t[0])
    lam = ds.merge_dual(best[1], best[2])
    objective = loss.g_total(lam, ds.y)
    rho = (1.0 - c) * SQRT_2_OVER_PI
    if loss.name not in ("maxmargin", "hinge"):
        rho *= loss.C
    constraint = _checked_constraint(ds, lam, radius)
    p_derived = objective / rho if rho > 0 else math.inf
    return DualCertificate(
        lam=lam,
        objective=objective,
        constraint_value=constraint,
        regime="geo",
        rho=rho,
        eps=sum(i["eps"] for i in infos),
        meta={"c": c, "side": best[3], "p_derived": p_derived, "loss": loss.name},
    )
