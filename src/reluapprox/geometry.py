"""Zonotope geometry and exact maximin evaluation of the dual constraint.

A zonotope is the image of the unit box under its generator matrix,
{A b : b in [0,1]^m}; every routine here takes the d x m matrix A itself.
The dual constraint of the margin problem equals the Hausdorff distance
between two dual-weighted zonotopes; at desk scale both one-sided
distances are exact: the outer maximum of a convex function over the box
is attained at a 0/1 vertex, and the inner distance is a finite
bounded-variable least squares (:func:`conic.box_lsq_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .conic import box_lsq_batch
from .dataset import ORTHO_SEPARABLE, Dataset, classify_dataset
from .errors import CapExceeded, SignViolation, WrongRegime

ENUM_CAP = 20

__all__ = [
    "MaximinReport",
    "binary_vertices",
    "zonotope_vertex_max",
    "hausdorff_distance",
    "dual_constraint_maximin",
    "ortho_closed_form",
]


@dataclass(frozen=True)
class MaximinReport:
    """Both one-sided maximin values and the vertex attaining the larger one."""

    forward: float
    backward: float
    b_star: np.ndarray

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


def _vertex_max(m: int, score: Callable[[np.ndarray], np.ndarray]) -> tuple[float, np.ndarray]:
    """The largest ``score`` over the vertices of [0,1]^m, with the first vertex attaining it.

    ``score`` maps a block of vertex rows to one value per row. For m = 0
    the only vertex is the empty one.
    """
    if m > ENUM_CAP:
        raise CapExceeded(f"{m} generators exceed the enumeration cap {ENUM_CAP}")
    best_val, best_b = -1.0, None
    for B in binary_vertices(m):
        vals = score(B)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_b = B[j].copy()
    return best_val, best_b


def zonotope_vertex_max(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize ||A b||_2 over b in {0,1}^m by exact vertex enumeration.

    This equals the maximum over the whole box [0,1]^m because a convex
    function is maximized at an extreme point.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _vertex_max(A.shape[1], lambda B: np.linalg.norm(B @ A.T, axis=1))


def _one_sided(A_from: np.ndarray, A_to: np.ndarray) -> tuple[float, np.ndarray]:
    """max over vertices v of Z(A_from) of dist(v, Z(A_to))."""
    return _vertex_max(A_from.shape[1], lambda B: box_lsq_batch(A_to, B @ A_from.T)[1])


def hausdorff_distance(Ap: np.ndarray, Am: np.ndarray) -> MaximinReport:
    """Exact Hausdorff distance between the zonotopes of two d x m matrices, at desk scale.

    The distance is the report's ``value``; ``b_star`` is the vertex
    attaining the larger one-sided distance (the forward one on a tie).
    """
    fwd, b_fwd = _one_sided(Ap, Am)
    bwd, b_bwd = _one_sided(Am, Ap)
    return MaximinReport(forward=fwd, backward=bwd, b_star=b_fwd if fwd >= bwd else b_bwd)


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
    return hausdorff_distance(ds.X_plus.T * lam_p[None, :], ds.X_minus.T * lam_m[None, :])


def ortho_closed_form(ds: Dataset, lam: np.ndarray) -> tuple[float, float]:
    """Closed-form maximin values for orthogonal-separable data.

    The data are classified with exact Gram signs. Same-class Gram blocks
    are then entrywise nonnegative, so the forward maximin collapses to
    ||X_+' lam_+||_2 at the all-ones vertex (and symmetrically for the
    backward side).
    """
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
