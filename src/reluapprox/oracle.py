"""Exact desk-scale ground truth via activation-pattern enumeration.

Enumerating the 0/1 patterns I(X w >= 0) of the hyperplane arrangement
turns the two-layer training problem into a finite convex program whose
value is exact for wide enough networks. These programs certify every
approximation module in the package; they do not scale past desk size and
are not meant to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conic import MinSumNormsProblem, project_polyhedral_cone, solve_min_sum_norms
from .dataset import Dataset, LossModel
from .errors import CapExceeded, CertificateViolation, Infeasible, Unbounded

PATTERN_CAP = 10_000

__all__ = [
    "PatternSet",
    "enumerate_patterns",
    "pattern_constraint_value",
    "exact_primal",
    "exact_dual",
]


@dataclass
class PatternSet:
    """Distinct activation masks with a verified realizing vector each.

    ``masks`` rows are 0/1; ``realizers`` rows satisfy
    I(X w >= 0) == mask exactly in floating point. Masks realized with all
    inequalities strict come first (``strict_count`` of them); any
    boundary-tie masks (realized only with exact zero products, e.g. w=0)
    follow.
    """

    masks: np.ndarray
    realizers: np.ndarray
    strict_count: int

    def __len__(self) -> int:
        return self.masks.shape[0]

    def strict(self) -> "PatternSet":
        k = self.strict_count
        return PatternSet(self.masks[:k], self.realizers[:k], k)


def _pattern_of(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, bool]:
    prods = X @ w
    mask = (prods >= 0.0).astype(np.int8)
    return mask, bool(np.all(prods != 0.0))


def _candidate_directions(Xr: np.ndarray, r: int, rng: np.random.Generator):
    """Yield blocks (rows) of direction candidates whose cells cover the arrangement.

    Every candidate :func:`enumerate_patterns` may classify: the arrangement
    sweep, then for r > 1 the random top-up as the last block.
    """
    yield from _sweep_directions(Xr, r)
    if r > 1:
        yield _random_directions(Xr.shape[0], r, rng)


def _random_directions(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """The random top-up: it guards against cells adjacent only to degenerate rays."""
    return rng.standard_normal((min(2000, 200 * r * n), r))


def _sweep_directions(Xr: np.ndarray, r: int):
    """Yield the arrangement sweep's blocks of direction candidates."""
    n = Xr.shape[0]
    if r == 1:
        yield np.array([[1.0], [-1.0]])
        return
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=r - 1)))
    for subset in itertools.combinations(range(n), r - 1):
        Xs = Xr[list(subset)]
        u, s, vt = np.linalg.svd(Xs)
        if s.size < r - 1 or s[-1] <= 1e-10 * max(s[0], 1.0):
            continue  # rows dependent; some other subset pins this line
        w0 = vt[-1]
        pinv = vt[: r - 1].T @ np.diag(1.0 / s) @ u.T
        a = np.abs(Xr @ w0)  # the same for t w0 on either side of the line
        steps = []
        for sg in signs:
            p = pinv @ sg
            bp = Xr @ p
            away = a > 1e-12 * (1.0 + np.abs(bp))
            if np.any(away):
                eps = 0.5 * np.min(a[away] / (1.0 + np.abs(bp[away])))
                eps = min(eps, 1.0)
            else:
                eps = 1.0
            steps.append(eps * p)
        for t in (1.0, -1.0):
            yield np.vstack([t * w0, t * w0 + np.array(steps)])


def _stacked(blocks, rows: int):
    """Stack consecutive blocks into arrays of at least ``rows`` rows (the last may have fewer)."""
    batch, count = [], 0
    for block in blocks:
        batch.append(block)
        count += len(block)
        if count >= rows:
            yield np.vstack(batch)
            batch, count = [], 0
    if batch:
        yield np.vstack(batch)


def enumerate_patterns(
    X: np.ndarray,
    cap: int = PATTERN_CAP,
    include_boundary: bool = True,
    seed: int = 0,
) -> PatternSet:
    """Enumerate the distinct masks I(X w >= 0) over all w.

    Works in the row space of X (patterns only depend on that component of
    w). Strict cells come from the arrangement sweep: for each independent
    (rank-1-deficient) subset of rows, perturb the null direction to both
    sides in all sign combinations. A random top-up of Gaussian directions
    guards degenerate arrangements; it is drawn only when the sweep found
    fewer strict cells than Zaslavsky's bound. Boundary masks are kept only
    when a float vector realizes them exactly; w = 0 always realizes the
    all-ones mask under the >= 0 tie convention.

    The candidates are classified in batches, one product
    P = (C basis') X' each (up to 8 MB of P), and the masks deduplicated
    with ``np.unique``: the first strict candidate of a mask is kept, else
    its first candidate. A candidate with a product near zero (within
    twice the rounding bound) is redone alone as X @ (basis @ wr), and each
    realizer is computed as basis @ wr, so the result is bit for bit that
    of classifying the candidates one at a time.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    if r == 0:
        raise ValueError("X has no nonzero rows")
    basis = vt[:r].T  # d x r
    Xr = X @ basis
    work = math.comb(n, r - 1) * (2 ** max(r - 1, 0)) * 2 if r >= 2 else 4
    if work > 50 * cap + 200000:
        raise CapExceeded(f"arrangement sweep needs ~{work} candidates (cap {cap})")

    # Both the batched and the one-candidate route (X @ (basis @ wr)) compute
    # x_i'w to within about (d + r^1.5) eps |x_i| |w|. An entry of P within
    # twice that (with margin: 4 (d + r^2) eps, and at least 64 eps) may
    # round to another sign, or to zero, one candidate at a time; such
    # candidates are redone that way, so every mask and strict flag is the
    # one-candidate result.
    tie = max(64, 4 * (d + r * r)) * np.finfo(float).eps * np.linalg.norm(X, axis=1)
    batch = max(1, 2**20 // n)  # candidates per product, so P stays within 8 MB
    bound = 2 * sum(math.comb(n - 1, kk) for kk in range(r))  # Zaslavsky: cells of n hyperplanes in R^r
    seen: dict[bytes, tuple[np.ndarray, np.ndarray, bool]] = {}

    def candidates():
        yield from _stacked(_sweep_directions(Xr, r), batch)
        # Only n hyperplanes in general position reach the bound, and there
        # every tie mask is also a strict cell's: the top-up could add no mask
        # and no strict flag, so it is drawn only below the bound.
        if r > 1 and sum(strict for _, _, strict in seen.values()) < bound:
            yield _random_directions(n, r, np.random.default_rng(seed))

    for C in candidates():
        W = C @ basis.T
        P = W @ X.T
        masks = (P >= 0.0).astype(np.int8)
        strict = np.ones(len(C), dtype=bool)
        for c in np.flatnonzero(np.any(np.abs(P) <= np.linalg.norm(W, axis=1)[:, None] * tie, axis=1)):
            masks[c], strict[c] = _pattern_of(X, basis @ C[c])
        # the first strict candidate of each mask, else its first candidate
        order = np.argsort(~strict, kind="stable")
        packed = np.packbits(masks[order], axis=1)  # one opaque item per row sorts fast
        for c in order[np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_index=True)[1]]:
            key = masks[c].tobytes()
            if key not in seen or (strict[c] and not seen[key][2]):
                seen[key] = (masks[c].copy(), C[c].copy(), bool(strict[c]))
        if len(seen) > cap:
            raise CapExceeded(f"more than {cap} patterns")
    # realizers in full space, each as one product: the stored pair must verify
    seen = {key: (mask, basis @ wr, strict) for key, (mask, wr, strict) in seen.items()}
    if include_boundary:
        w0 = np.zeros(d)
        mask, _ = _pattern_of(X, w0)  # all ones, exactly
        key = mask.tobytes()
        if key not in seen:
            seen[key] = (mask, w0, False)

    entries = sorted(seen.values(), key=lambda e: (not e[2], tuple(e[0])))
    strict_count = sum(1 for e in entries if e[2])
    masks = np.array([e[0] for e in entries], dtype=np.int8)
    realizers = np.array([e[1] for e in entries], dtype=float)
    # every stored pair must verify exactly
    for mask, w in zip(masks, realizers):
        chk = (X @ w >= 0.0).astype(np.int8)
        if not np.array_equal(chk, mask):
            raise CertificateViolation("pattern realization check failed")
    if strict_count > bound:
        raise CertificateViolation(f"{strict_count} strict cells exceed the arrangement bound {bound}")
    return PatternSet(masks=masks, realizers=realizers, strict_count=strict_count)


def pattern_constraint_value(ds: Dataset, lam: np.ndarray, patterns: Optional[PatternSet] = None) -> float:
    """Dual-constraint value max_u |lam'(Xu)_+| via cone-restricted patterns.

    For each strict pattern M the inner maximization of |lam' M X u| over
    the unit ball intersected with the cone (2M - I) X u >= 0 equals the
    norm of the projection of X'(m * lam) onto that cone; the overall value
    is the maximum over patterns and both signs. Independent of (and cross-
    checked against) the zonotope maximin route.
    """
    X = ds.X
    lam = np.asarray(lam, dtype=float)
    if patterns is None:
        patterns = enumerate_patterns(X, include_boundary=False)
    best = 0.0
    for mask in patterns.strict().masks:
        v = X.T @ (mask * lam)
        rows = (2.0 * mask - 1.0)[:, None] * X
        for sign in (1.0, -1.0):
            val = float(np.linalg.norm(project_polyhedral_cone(sign * v, rows)))
            best = max(best, val)
    return best


def _nonzero_masks(patterns: PatternSet) -> np.ndarray:
    masks = patterns.strict().masks.astype(float)
    return masks[np.any(masks != 0, axis=1)]  # the all-off pattern contributes nothing


def _relu_problem(ds: Dataset, loss: LossModel, patterns: PatternSet) -> MinSumNormsProblem:
    masks = _nonzero_masks(patterns)
    y = ds.y.astype(float)
    rw = np.vstack([y * masks, -(y * masks)])
    cone = np.vstack([2 * masks - 1, 2 * masks - 1])
    mode = "penalized" if loss.penalized else "margin"
    return MinSumNormsProblem(
        X=ds.X, row_weights=rw, loss=loss, mode=mode, cone_signs=cone
    )


def _gated_problem(ds: Dataset, loss: LossModel, patterns: PatternSet) -> MinSumNormsProblem:
    masks = _nonzero_masks(patterns)
    y = ds.y.astype(float)
    mode = "penalized" if loss.penalized else "margin"
    return MinSumNormsProblem(X=ds.X, row_weights=y * masks, loss=loss, mode=mode)


@dataclass
class ExactPrimal:
    value: float
    blocks: np.ndarray
    masks: np.ndarray
    lam: np.ndarray  # margin multipliers diag(y) lam >= 0
    arch: str
    gap: float


def exact_primal(
    ds: Dataset,
    loss: Optional[LossModel] = None,
    arch: str = "relu",
    patterns: Optional[PatternSet] = None,
    tol: float = 1e-9,
    cap: int = PATTERN_CAP,
) -> ExactPrimal:
    """Exact optimal value of the training problem by pattern enumeration.

    ``arch='relu'`` solves the cone-constrained program (the value of the
    nonconvex ReLU problem for wide enough networks); ``arch='gated'``
    drops the cone constraints, which can only decrease the value. Strict
    patterns are used: a gate that sits exactly on a hyperplane contributes
    zero on its tie rows, so strict cells already represent every network.
    """
    loss = loss or LossModel.max_margin()
    if patterns is None:
        patterns = enumerate_patterns(ds.X, cap=cap, include_boundary=False)
    if arch not in ("relu", "gated"):
        raise ValueError(f"arch must be 'relu' or 'gated', got {arch!r}")
    prob = _relu_problem(ds, loss, patterns) if arch == "relu" else _gated_problem(ds, loss, patterns)
    try:
        res = solve_min_sum_norms(prob, tol=tol)
    except Infeasible:
        raise Infeasible("max-margin problem infeasible on this dataset") from None
    return ExactPrimal(
        value=res.value,
        blocks=res.blocks,
        masks=patterns.strict().masks,
        lam=res.lam,
        arch=arch,
        gap=res.gap,
    )


def exact_dual(
    ds: Dataset,
    tol: float = 1e-9,
    cap: int = PATTERN_CAP,
    patterns: Optional[PatternSet] = None,
) -> tuple[float, np.ndarray]:
    """Exact dual optimum D and a maximizer lambda*.

    Solves the cone-constrained pattern primal (whose value equals D, there
    being no duality gap for wide networks) and reads lambda* off the
    margin multipliers: the per-pattern cone-restricted constraints
    reproduce exactly the dual constraint max_u |lam'(Xu)_+| <= 1.
    """
    try:
        res = exact_primal(ds, LossModel.max_margin(), arch="relu", patterns=patterns, tol=tol, cap=cap)
    except Infeasible:
        raise Unbounded("max-margin dual unbounded: primal margin system infeasible") from None
    lam_star = ds.y * res.lam  # kernel multipliers are diag(y) lam >= 0
    return res.value, lam_star
