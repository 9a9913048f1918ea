"""Dataset representation, I/O, synthetic generation, and regime classification.

A dataset is a feature matrix ``X`` (n x d) with labels ``y`` in {-1, +1}.
Datasets fall into three nested regimes, checked on the Gram matrix:

* orthogonal separable: same-class inner products >= 0 and cross-class <= 0,
* negative correlation: cross-class inner products <= 0,
* general: everything else.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadLabel, GenerationFailed, MalformedRow, ZeroSample

ORTHO_SEPARABLE = "orthogonal_separable"
NEGATIVE_CORRELATION = "negative_correlation"
GENERAL = "general"

_KINDS = (ORTHO_SEPARABLE, NEGATIVE_CORRELATION, GENERAL)
LOSS_NAMES = ("maxmargin", "hinge", "squared_hinge")
_GEN_TRIES = 200  # rejection-loop draws per generate_synthetic call


@dataclass(frozen=True)
class DatasetClass:
    """Regime tag plus, for non-strict regimes, a witness pair of row indices.

    The witness is a pair (i, j) whose inner product violates the
    next-stricter regime's sign condition.
    """

    tag: str
    witness: Optional[tuple[int, int]] = None

    def __str__(self) -> str:
        return self.tag


def _numbers(a, error: type, name: str, noun: str) -> np.ndarray:
    """``a`` as an array whose every entry is a real number, else raise ``error``.

    Numpy input of numeric dtype is taken by its dtype alone. Any other
    input is checked entry by entry, so the first string, boolean, null or
    object among numbers, or row of a ragged matrix, is named in the message
    "<name>[i]...=<value> is not <noun>".
    """
    if isinstance(a, np.ndarray) and a.dtype.kind in "iuf":
        return a
    for idx, v in np.ndenumerate(np.asarray(a, dtype=object)):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            where = "".join(f"[{i}]" for i in idx)
            raise error(f"{name}{where}={v!r} is not {noun}")
    return np.asarray(a)


class Dataset:
    """Training data: features ``X`` (n x d) and labels ``y`` in {-1, +1}.

    Rows are validated on construction: features and labels must be numbers
    (not strings, nulls or booleans), ``X`` a rectangular matrix, labels +-1,
    and no row may be all zeros (a zero sample makes the unit-margin
    constraint infeasible).
    """

    def __init__(self, X, y):
        X = np.asarray(_numbers(X, MalformedRow, "feature X", "a number"), dtype=float)
        y = _numbers(y, BadLabel, "label y", "the number -1 or +1")
        if X.ndim != 2:
            raise MalformedRow(f"X must be a 2-D matrix, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise MalformedRow(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        yi = np.asarray(np.rint(y), dtype=int)
        if not np.all((y == yi) & np.isin(yi, (-1, 1))):
            bad = int(np.flatnonzero(~(np.isin(yi, (-1, 1)) & (y == yi)))[0])
            raise BadLabel(f"label y[{bad}]={y[bad]!r} is not -1 or +1")
        if not np.all(np.isfinite(X)):
            raise MalformedRow("X contains non-finite entries")
        zero = ~np.any(X != 0.0, axis=1)
        if np.any(zero):
            raise ZeroSample(f"row {int(np.flatnonzero(zero)[0])} is all zeros")
        self.X = X
        self.y = yi
        self.pos_idx = np.flatnonzero(yi == 1)
        self.neg_idx = np.flatnonzero(yi == -1)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_plus(self) -> int:
        return self.pos_idx.size

    @property
    def n_minus(self) -> int:
        return self.neg_idx.size

    @property
    def X_plus(self) -> np.ndarray:
        return self.X[self.pos_idx]

    @property
    def X_minus(self) -> np.ndarray:
        return self.X[self.neg_idx]

    def split_dual(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Split a full dual vector into the nonnegative block pair.

        Returns (lam_plus, lam_minus) where lam_minus stores ``-lam[i]`` on
        the negative-label rows, so both blocks are >= 0 for a sign-feasible
        dual vector.
        """
        lam = np.asarray(lam, dtype=float)
        return lam[self.pos_idx], -lam[self.neg_idx]

    def merge_dual(self, lam_plus, lam_minus) -> np.ndarray:
        """Inverse of :meth:`split_dual`."""
        lam = np.zeros(self.n)
        lam[self.pos_idx] = lam_plus
        lam[self.neg_idx] = -np.asarray(lam_minus, dtype=float)
        return lam

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "d": self.d, "X": self.X.tolist(), "y": self.y.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        try:
            obj = json.loads(text)
            X = obj["X"]
            y = obj["y"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedRow(f"bad dataset JSON: {exc}") from exc
        ds = cls(X, y)
        for key, size, what in (("n", ds.n, "rows"), ("d", ds.d, "columns")):
            if key not in obj:
                continue
            if type(obj[key]) is not int:
                raise MalformedRow(f"declared {key}={obj[key]!r} is not an integer")
            if obj[key] != size:
                raise MalformedRow(f"declared {key}={obj[key]} but X has {size} {what}")
        return ds

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d}, n_plus={self.n_plus}, n_minus={self.n_minus})"


def _parse_label(token: str, where: str) -> int:
    try:
        val = float(token)
    except ValueError as exc:
        raise BadLabel(f"{where}: label {token!r} does not parse") from exc
    if val in (1.0, -1.0):
        return int(val)
    raise BadLabel(f"{where}: label {token!r} is not -1 or +1")


def load_dataset(path: str) -> Dataset:
    """Load a dataset from the JSON schema (a ``.json`` path) or CSV (header ``x1,...,xd,y``)."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return Dataset.from_json(fh.read())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise MalformedRow(f"{path}: header must be x1,...,xd,y, got {header}")
        d = len(header) - 1
        if header[:d] != [f"x{i + 1}" for i in range(d)]:
            raise MalformedRow(f"{path}: feature columns must be x1..x{d}")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != d + 1:
                raise MalformedRow(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                rows.append([float(tok) for tok in row[:d]])
            except ValueError as exc:
                raise MalformedRow(f"{path}:{lineno}: {exc}") from exc
            labels.append(_parse_label(row[d], f"{path}:{lineno}"))
    if not rows:
        raise MalformedRow(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


def save_dataset(ds: Dataset, path: str) -> None:
    """Write a dataset in the JSON schema (a ``.json`` path) or the canonical CSV layout."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            fh.write(ds.to_json())
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(ds.d)] + ["y"])
        for xi, yi in zip(ds.X, ds.y):
            writer.writerow([repr(float(v)) for v in xi] + [int(yi)])


def classify_dataset(ds: Dataset, tol: float = 0.0) -> DatasetClass:
    """Return the strictest regime whose Gram sign conditions hold.

    Entries within ``[-tol, tol]`` of zero count as satisfying either sign.
    Ties (exact zeros) satisfy both closed inequalities. A ``tol`` that is
    not a finite nonnegative number raises ValueError.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")
    Xp, Xm = ds.X_plus, ds.X_minus
    # the witness is the first violation in row-major order; argmax of a
    # boolean array finds it without listing every violation
    bad = Xm @ Xp.T > tol  # n_minus x n_plus
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        witness = (int(ds.neg_idx[i]), int(ds.pos_idx[j]))
        return DatasetClass(GENERAL, witness)
    for block, idx in ((Xp, ds.pos_idx), (Xm, ds.neg_idx)):
        bad = block @ block.T < -tol
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            return DatasetClass(NEGATIVE_CORRELATION, (int(idx[i]), int(idx[j])))
    return DatasetClass(ORTHO_SEPARABLE)


def _gen_ortho(rng: np.random.Generator, n: int, d: int) -> Dataset:
    # Positive samples take nonnegative coordinates, negative samples
    # nonpositive ones. Every pairwise product is then a sum of same-sign
    # terms, so the Gram sign conditions hold exactly in floating point.
    y = np.where(rng.random(n) < 0.5, 1, -1)
    if n >= 2:  # force both classes when possible
        y[0], y[1] = 1, -1
    X = np.abs(rng.standard_normal((n, d)))
    mask = rng.random((n, d)) < min(0.8, 2.0 / d) if d > 1 else np.ones((n, d), bool)
    keep = mask | (~mask.any(axis=1))[:, None]
    X = X * keep
    X[y == -1] *= -1.0
    scale = rng.uniform(0.5, 1.5, size=d)
    return Dataset(X * scale, y)


def _gen_negcorr(rng: np.random.Generator, n: int, d: int) -> Dataset:
    # Positive samples live in span(e1..e_k) with nonnegative first
    # coordinate, negative samples in span(e1, e_{k+1}..) with nonpositive
    # first coordinate. Cross-class products reduce to a product of a
    # nonnegative and a nonpositive number, hence are exactly <= 0, while
    # same-class products can go negative (so the class is not orthogonal
    # separable for generic draws). generate_synthetic rejects the (n, d)
    # where no class can.
    n_plus = max(1, n // 2)
    k = max(1, (d - 1) // 2)
    y = np.concatenate([np.ones(n_plus, int), -np.ones(n - n_plus, int)])
    X = np.zeros((n, d))
    X[:n_plus, 0] = np.abs(rng.standard_normal(n_plus)) + 0.1
    X[:n_plus, 1 : 1 + k] = rng.standard_normal((n_plus, k))
    X[n_plus:, 0] = -(np.abs(rng.standard_normal(n - n_plus)) + 0.1)
    X[n_plus:, 1 + k :] = rng.standard_normal((n - n_plus, d - 1 - k))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return Dataset(X / norms, y)


def _gen_general(rng: np.random.Generator, n: int, d: int) -> Optional[Dataset]:
    y = np.where(rng.random(n) < 0.5, 1, -1)
    if n >= 2:
        y[0], y[1] = 1, -1
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    ds = Dataset(X, y)
    if classify_dataset(ds, tol=0.0).tag != GENERAL:
        return None
    # keep opposite-label points separated so the unit-margin problem stays
    # well scaled (near-duplicates with opposite labels blow the optimum up)
    diff = X[y == 1][:, None, :] - X[y == -1][None, :, :]
    if diff.size and np.linalg.norm(diff, axis=2).min() < 0.3:
        return None
    return ds


def generate_synthetic(kind: str, n: int, d: int, seed: int) -> Dataset:
    """Generate a dataset that classifies as ``kind`` under tol=0.

    Deterministic per (kind, n, d, seed). Raises ValueError for an (n, d)
    whose construction can never give ``kind``, and
    :class:`GenerationFailed` if the rejection loop misses it otherwise.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if kind == NEGATIVE_CORRELATION:
        if d < 2:
            raise ValueError(
                "negative_correlation needs d >= 2: in one dimension, with both labels present, "
                "it coincides with orthogonal separability"
            )
        # a negative same-class product needs two rows of one class with a
        # coordinate beyond e1: the positive class has max(1, n // 2) rows
        # with k = max(1, (d - 1) // 2) such coordinates, the negative class
        # the other rows with d - 1 - k of them
        n_plus, k = max(1, n // 2), max(1, (d - 1) // 2)
        if n_plus < 2 and (n - n_plus < 2 or d - 1 - k < 1):
            raise ValueError(
                f"negative_correlation cannot be generated with n={n}, d={d}: "
                "no class has two rows with a coordinate beyond the first"
            )
    if kind == GENERAL and (n < 2 or d < 2):
        raise ValueError(
            "general needs n >= 2 and d >= 2: it needs both labels, and in one dimension a positive "
            "cross-class product puts opposite labels on one unit point, which the separation rule rejects"
        )
    rng = np.random.default_rng(np.random.SeedSequence([_KINDS.index(kind), n, d, seed]))
    for _ in range(_GEN_TRIES):
        if kind == ORTHO_SEPARABLE:
            ds = _gen_ortho(rng, n, d)
        elif kind == NEGATIVE_CORRELATION:
            ds = _gen_negcorr(rng, n, d)
        else:
            ds = _gen_general(rng, n, d)
        if ds is not None and classify_dataset(ds, tol=0.0).tag == kind:
            return ds
    raise GenerationFailed(f"could not generate a {kind} dataset with n={n}, d={d}, seed={seed}")


@dataclass(frozen=True)
class LossModel:
    """Per-sample loss ``ell`` with its concave dual gain g(lam) = -ell*(-lam).

    The name fixes everything else. ``g`` and ``ell`` act coordinatewise,
    ``box_upper`` bounds the dual block variables (1 for the hinge, inf
    otherwise), and every loss but max-margin is ``penalized`` with weight
    ``beta``, a finite positive number (the max-margin loss has beta = 1).
    Every loss has g(a*lam) >= a*g(lam) for a in (0, 1]: g is linear for
    max-margin and the hinge, and for the squared hinge a^2 <= a.
    """

    name: str
    beta: float = 1.0

    def __post_init__(self):
        if self.name not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.name!r}")
        if self.name == "maxmargin" and self.beta != 1.0:
            raise ValueError("the max-margin loss has beta = 1")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be a finite positive number, got {self.beta}")

    @property
    def penalized(self) -> bool:
        return self.name != "maxmargin"

    @property
    def box_upper(self) -> float:
        return 1.0 if self.name == "hinge" else math.inf

    def g(self, lam: np.ndarray) -> np.ndarray:
        if self.name == "squared_hinge":
            return lam - lam**2 / 4.0
        return lam

    def ell(self, z: np.ndarray) -> np.ndarray:
        if not self.penalized:
            raise ValueError("the max-margin loss has no per-sample loss")
        slack = np.maximum(0.0, 1.0 - z)
        return slack**2 if self.name == "squared_hinge" else slack

    @staticmethod
    def max_margin() -> "LossModel":
        return LossModel("maxmargin")

    @staticmethod
    def hinge(beta: float) -> "LossModel":
        return LossModel("hinge", beta)

    @staticmethod
    def squared_hinge(beta: float) -> "LossModel":
        return LossModel("squared_hinge", beta)

    @staticmethod
    def by_name(name: str, beta: float = 1.0) -> "LossModel":
        """The loss ``name``; the max-margin loss ignores ``beta``."""
        return LossModel(name, 1.0 if name == "maxmargin" else beta)

    def g_total(self, lam_signed: np.ndarray, y: np.ndarray) -> float:
        """Dual objective sum(g((diag(y) lam)_i)) for a full signed dual vector."""
        return float(np.sum(self.g(np.asarray(y) * np.asarray(lam_signed))))
