"""Exact desk-scale ground truth via activation-pattern enumeration.

Enumerating the cells of the data's hyperplane arrangement, each as its
0/1 pattern I(X w >= 0) with a vector w strictly inside it, turns the
two-layer training problem into a finite convex program whose value is
exact for wide enough networks. These programs certify every
approximation module in the package; they do not scale past desk size and
are not meant to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conic import MinSumNormsProblem, _project_cones, solve_min_sum_norms
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
    """The cells of the arrangement, one activation mask and realizing vector each.

    ``masks`` rows are 0/1, in lexicographic order; each ``realizers`` row
    w gives I(X w >= 0) == mask with every product X w nonzero, exactly in
    floating point. ``len`` is the number of cells.
    """

    masks: np.ndarray
    realizers: np.ndarray

    def __len__(self) -> int:
        return self.masks.shape[0]


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


def enumerate_patterns(X: np.ndarray) -> PatternSet:
    """Enumerate the cells of the arrangement {x_i' w = 0}, as masks I(X w >= 0).

    A cell's w lies off every hyperplane. Works in the row space of X
    (patterns only depend on that component of w). Cells come from the
    arrangement sweep: for each independent (rank-1-deficient) subset of
    rows, perturb the null direction to both sides in all sign
    combinations. A random top-up of Gaussian directions guards degenerate
    arrangements; it is drawn only when the sweep found fewer cells than
    Zaslavsky's bound. A candidate with a zero product lies on a
    hyperplane and is dropped; a zero row of X leaves no cell at all. More
    than PATTERN_CAP cells, or a sweep too large for that cap, raise
    :class:`CapExceeded`.

    The candidates are classified in batches, one product
    P = (C basis') X' each (up to 8 MB of P), and the masks deduplicated
    with ``np.unique``, keeping the first candidate of each mask. A
    candidate with a product near zero (within twice the rounding bound)
    is redone alone as X @ (basis @ wr), and each realizer is computed as
    basis @ wr, so the result is bit for bit that of classifying the
    candidates one at a time.
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
    if work > 50 * PATTERN_CAP + 200000:
        raise CapExceeded(f"arrangement sweep needs ~{work} candidates (cap {PATTERN_CAP})")

    # Both the batched and the one-candidate route (X @ (basis @ wr)) compute
    # x_i'w to within about (d + r^1.5) eps |x_i| |w|. An entry of P within
    # twice that (with margin: 4 (d + r^2) eps, and at least 64 eps) may
    # round to another sign, or to zero, one candidate at a time; such
    # candidates are redone that way, so every mask and every drop is the
    # one-candidate result.
    tie = max(64, 4 * (d + r * r)) * np.finfo(float).eps * np.linalg.norm(X, axis=1)
    batch = max(1, 2**20 // n)  # candidates per product, so P stays within 8 MB
    bound = 2 * sum(math.comb(n - 1, kk) for kk in range(r))  # Zaslavsky: cells of n hyperplanes in R^r
    seen: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def candidates():
        yield from _stacked(_sweep_directions(Xr, r), batch)
        # n hyperplanes in general position cut R^r into exactly the bound's
        # count of cells: at the bound the top-up could add none, so it is
        # drawn only below it
        if r > 1 and len(seen) < bound:
            yield _random_directions(n, r, np.random.default_rng(0))

    for C in candidates():
        W = C @ basis.T
        P = W @ X.T
        masks = (P >= 0.0).astype(np.int8)
        strict = np.ones(len(C), dtype=bool)
        for c in np.flatnonzero(np.any(np.abs(P) <= np.linalg.norm(W, axis=1)[:, None] * tie, axis=1)):
            masks[c], strict[c] = _pattern_of(X, basis @ C[c])
        # the first candidate of each mask inside a cell
        inside = np.flatnonzero(strict)
        packed = np.packbits(masks[inside], axis=1)  # one opaque item per row sorts fast
        for c in inside[np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_index=True)[1]]:
            key = masks[c].tobytes()
            if key not in seen:
                seen[key] = (masks[c].copy(), C[c].copy())
        if len(seen) > PATTERN_CAP:
            raise CapExceeded(f"more than {PATTERN_CAP} patterns")

    entries = sorted(seen.values(), key=lambda e: tuple(e[0]))
    masks = np.array([mask for mask, _ in entries], dtype=np.int8).reshape(-1, n)  # (0, n) with no cell
    # realizers in full space, each as one product: every stored pair must
    # verify exactly, with each product X @ w nonzero and of its mask's sign
    realizers = np.array([basis @ wr for _, wr in entries], dtype=float).reshape(-1, d)
    prods = np.array([X @ w for w in realizers]).reshape(-1, n)
    if not np.array_equal(np.sign(prods), 2 * masks - 1):
        raise CertificateViolation("pattern realization check failed")
    if len(seen) > bound:
        raise CertificateViolation(f"{len(seen)} cells exceed the arrangement bound {bound}")
    return PatternSet(masks=masks, realizers=realizers)


def pattern_constraint_value(ds: Dataset, lam: np.ndarray) -> float:
    """Dual-constraint value max_u |lam'(Xu)_+| via cone-restricted patterns.

    For each cell's pattern M the inner maximization of |lam' M X u| over
    the unit ball intersected with the cone (2M - I) X u >= 0 equals the
    norm of the projection of X'(m * lam) onto that cone; the overall value
    is the maximum over patterns and both signs, every projection in one
    batch. Independent of (and cross-checked against) the zonotope maximin
    route.
    """
    X = ds.X
    lam = np.asarray(lam, dtype=float)
    M = enumerate_patterns(X).masks.astype(float)
    V = (M * lam) @ X
    S = 2.0 * M - 1.0
    P = _project_cones(np.vstack([V, -V]), np.vstack([S, S]), X)
    return float(np.linalg.norm(P, axis=1).max(initial=0.0))


def _nonzero_masks(patterns: PatternSet) -> np.ndarray:
    masks = patterns.masks.astype(float)
    return masks[np.any(masks != 0, axis=1)]  # the all-off pattern contributes nothing


def _relu_problem(ds: Dataset, loss: LossModel, patterns: PatternSet) -> MinSumNormsProblem:
    masks = _nonzero_masks(patterns)
    y = ds.y.astype(float)
    rw = np.vstack([y * masks, -(y * masks)])
    cone = np.vstack([2 * masks - 1, 2 * masks - 1])
    return MinSumNormsProblem(X=ds.X, row_weights=rw, loss=loss, cone_signs=cone)


def _gated_problem(ds: Dataset, loss: LossModel, patterns: PatternSet) -> MinSumNormsProblem:
    masks = _nonzero_masks(patterns)
    y = ds.y.astype(float)
    return MinSumNormsProblem(X=ds.X, row_weights=y * masks, loss=loss)


@dataclass
class ExactPrimal:
    value: float
    blocks: np.ndarray
    masks: np.ndarray  # the 0/1 pattern of each block, row for row
    lam: np.ndarray  # margin multipliers diag(y) lam >= 0


def exact_primal(
    ds: Dataset,
    loss: LossModel = LossModel.max_margin(),
    arch: str = "relu",
    patterns: Optional[PatternSet] = None,
    tol: float = 1e-9,
) -> ExactPrimal:
    """Exact optimal value of the training problem by pattern enumeration.

    ``arch='relu'`` solves the cone-constrained program (the value of the
    nonconvex ReLU problem for wide enough networks); ``arch='gated'``
    drops the cone constraints, which can only decrease the value. The
    cells' patterns are used: a gate that sits exactly on a hyperplane
    contributes zero on its tie rows, so the cells already represent every
    network. ``masks`` holds each block's pattern: for ``relu`` the nonzero
    patterns twice, for the blocks of either output sign.
    """
    if patterns is None:
        patterns = enumerate_patterns(ds.X)
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
        masks=(prob.row_weights != 0.0).astype(np.int8),
        lam=res.lam,
    )


def exact_dual(ds: Dataset, tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Exact dual optimum D and a maximizer lambda*.

    Solves the cone-constrained pattern primal (whose value equals D, there
    being no duality gap for wide networks) and reads lambda* off the
    margin multipliers: the per-pattern cone-restricted constraints
    reproduce exactly the dual constraint max_u |lam'(Xu)_+| <= 1.
    """
    try:
        res = exact_primal(ds, LossModel.max_margin(), arch="relu", tol=tol)
    except Infeasible:
        raise Unbounded("max-margin dual unbounded: primal margin system infeasible") from None
    lam_star = ds.y * res.lam  # kernel multipliers are diag(y) lam >= 0
    return res.value, lam_star
