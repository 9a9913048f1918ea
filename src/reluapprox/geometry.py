"""Zonotope geometry and exact maximin evaluation of the dual constraint.

A zonotope is the image of the unit box under its generator matrix,
{A b : b in [0,1]^m}. The dual constraint of the margin problem equals the
Hausdorff distance between two dual-weighted zonotopes; at desk scale both
one-sided distances are exact: the outer maximum of a convex function
over the box is attained at a 0/1 vertex, and the inner distance is a
finite bounded-variable least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .conic import box_lsq_batch
from .dataset import Dataset
from .errors import SignViolation, TooLarge

ENUM_CAP = 20

__all__ = [
    "Zonotope",
    "MaximinReport",
    "binary_vertices",
    "project_onto_zonotope",
    "zonotope_vertex_max",
    "hausdorff_distance",
    "dual_constraint_maximin",
    "ortho_closed_form",
]


@dataclass(frozen=True)
class Zonotope:
    """Generators stored as columns of a d x m matrix."""

    generators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "generators", np.atleast_2d(np.asarray(self.generators, dtype=float)))

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def m(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True)
class MaximinReport:
    """Both one-sided maximin values and the vertex attaining the larger one."""

    forward: float
    backward: float
    b_star: np.ndarray
    side: str = "forward"

    @property
    def value(self) -> float:
        return max(self.forward, self.backward)


def binary_vertices(m: int) -> Iterator[np.ndarray]:
    """Yield the 2^m vertices of the unit box in blocks of 2^14 float rows."""
    total, chunk = 1 << m, 1 << 14
    ar = np.arange(m, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        yield ((idx[:, None] >> ar[None, :]) & 1).astype(float)


def project_onto_zonotope(A: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance from p to the zonotope of A, with the minimizing box point.

    One row of :func:`box_lsq_batch`, the exact bounded-variable least
    squares over the unit box.
    """
    B, dist = box_lsq_batch(A, np.asarray(p, float)[None, :])
    return float(dist[0]), B[0]


def zonotope_vertex_max(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize ||A b||_2 over b in {0,1}^m by exact vertex enumeration.

    This equals the maximum over the whole box [0,1]^m because a convex
    function is maximized at an extreme point.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m = A.shape[1]
    if m > ENUM_CAP:
        raise TooLarge(f"{m} generators exceed the enumeration cap {ENUM_CAP}")
    if m == 0:
        return 0.0, np.zeros(0)
    best_val, best_b = -1.0, None
    for B in binary_vertices(m):
        norms = np.linalg.norm(B @ A.T, axis=1)
        j = int(np.argmax(norms))
        if norms[j] > best_val:
            best_val = float(norms[j])
            best_b = B[j].copy()
    return best_val, best_b


def _one_sided(A_from: np.ndarray, A_to: np.ndarray) -> tuple[float, np.ndarray]:
    """max over vertices v of Z(A_from) of dist(v, Z(A_to))."""
    m = A_from.shape[1]
    if m > ENUM_CAP:
        raise TooLarge(f"{m} generators exceed the enumeration cap {ENUM_CAP}")
    if m == 0:
        verts = [np.zeros((1, m))]
    else:
        verts = binary_vertices(m)
    best_val, best_b = -1.0, np.zeros(m)
    for B in verts:
        targets = B @ A_from.T
        _, dists = box_lsq_batch(A_to, targets)
        j = int(np.argmax(dists))
        if dists[j] > best_val:
            best_val = float(dists[j])
            best_b = B[j].copy()
    return best_val, best_b


def hausdorff_distance(Kp: Zonotope, Km: Zonotope) -> tuple[float, MaximinReport]:
    """Exact Hausdorff distance between two zonotopes at desk scale."""
    Ap, Am = Kp.generators, Km.generators
    fwd, b_fwd = _one_sided(Ap, Am)
    bwd, b_bwd = _one_sided(Am, Ap)
    if fwd >= bwd:
        report = MaximinReport(forward=fwd, backward=bwd, b_star=b_fwd, side="forward")
    else:
        report = MaximinReport(forward=fwd, backward=bwd, b_star=b_bwd, side="backward")
    return report.value, report


def dual_constraint_maximin(ds: Dataset, lam: np.ndarray) -> MaximinReport:
    """Evaluate the dual margin constraint exactly via the two maximin problems.

    Requires the sign condition diag(y) lam >= 0, to within 1e-10. The
    negative-label block is stored as the nonnegative vector {-lam_i}, so
    both zonotopes carry nonnegative weights; ``max(forward, backward)`` is
    the exact value of the constraint max_{|u|<=1} |lam' (X u)_+|.
    """
    lam = np.asarray(lam, dtype=float)
    signed = ds.y * lam
    if signed.min(initial=0.0) < -1e-10:
        j = int(np.argmin(signed))
        raise SignViolation(f"(diag(y) lam)[{j}] = {signed[j]:.3e} < 0")
    lam_p, lam_m = ds.split_dual(lam)
    lam_p = np.maximum(lam_p, 0.0)
    lam_m = np.maximum(lam_m, 0.0)
    Kp = Zonotope(ds.X_plus.T * lam_p[None, :])
    Km = Zonotope(ds.X_minus.T * lam_m[None, :])
    return hausdorff_distance(Kp, Km)[1]


def ortho_closed_form(ds: Dataset, lam: np.ndarray) -> tuple[float, float]:
    """Closed-form maximin values for orthogonal-separable data.

    The data are classified with exact Gram signs. Same-class Gram blocks
    are then entrywise nonnegative, so the forward maximin collapses to
    ||X_+' lam_+||_2 at the all-ones vertex (and symmetrically for the
    backward side).
    """
    from .dataset import ORTHO_SEPARABLE, classify_dataset
    from .errors import WrongRegime

    cls = classify_dataset(ds)
    if cls.tag != ORTHO_SEPARABLE:
        raise WrongRegime(f"dataset classifies as {cls.tag}, not orthogonal separable")
    lam_p, lam_m = ds.split_dual(lam)
    signed = ds.y * np.asarray(lam, dtype=float)
    if signed.min(initial=0.0) < -1e-10:
        raise SignViolation("diag(y) lam has a negative entry")
    return (
        float(np.linalg.norm(ds.X_plus.T @ lam_p)),
        float(np.linalg.norm(ds.X_minus.T @ lam_m)),
    )
