"""Constructing networks that achieve the primal values, and certifying them.

The orthogonal-separable construction is a two-neuron ReLU network read off
the separated cone programs. The negative-correlation pipeline runs one
routine per label block (``_round_block``): Gaussian draws from the block's
SDP matrix, realized as gate patterns, deduplicated, and the masked
group-norm program, with the draws doubled while it is infeasible. One loop
over the two blocks assembles a gated network whose weights reproduce the
solver value exactly; the certificate against the dual lower bound is
therefore machine-checkable end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .conic import MinSumNormsProblem, solve_min_sum_norms
from .dataset import Dataset, LossModel
from .dual import DualCertificate, solve_dual_negcorr
from .errors import (
    CertificateViolation,
    DimensionMismatch,
    Infeasible,
    Unrealizable,
    ZeroDirection,
)
from .maxcut import _gaussian_draws, realize_patterns

MAX_ROUNDS = 3  # rounding rounds per block, doubling the draws each time

__all__ = [
    "ReluNetwork",
    "GatedReluNetwork",
    "ApproxResult",
    "Certificate",
    "build_network_ortho",
    "solve_primal_negcorr",
    "evaluate_network",
    "certify",
    "network_to_json",
    "network_from_json",
]


@dataclass
class ReluNetwork:
    """f(x) = sum_i (x' W1[:,i])_+ w2[i], with weight decay (|W1|^2+|w2|^2)/2."""

    W1: np.ndarray  # d x m
    w2: np.ndarray  # m

    @property
    def width(self) -> int:
        return self.W1.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X @ self.W1, 0.0) @ self.w2

    def regularizer(self) -> float:
        return 0.5 * (float(np.sum(self.W1**2)) + float(np.sum(self.w2**2)))


@dataclass
class GatedReluNetwork:
    """f(x) = sum_i 1(x' H[:,i] >= 0) (x' W1[:,i]) w2[i]."""

    H: np.ndarray  # d x m
    W1: np.ndarray  # d x m
    w2: np.ndarray  # m

    def predict(self, X: np.ndarray) -> np.ndarray:
        gates = (X @ self.H >= 0.0).astype(float)
        return (gates * (X @ self.W1)) @ self.w2

    def regularizer(self) -> float:
        return 0.5 * (float(np.sum(self.W1**2)) + float(np.sum(self.w2**2)))


Network = Union[ReluNetwork, GatedReluNetwork]


def network_to_json(net: Network) -> str:
    obj = {
        "H": net.H.tolist() if isinstance(net, GatedReluNetwork) else None,
        "W1": net.W1.tolist(),
        "w2": np.asarray(net.w2).tolist(),
    }
    return json.dumps(obj)


def network_from_json(text: str) -> Network:
    """Inverse of :func:`network_to_json`; a malformed network raises ValueError."""
    try:
        obj = json.loads(text)
        W1 = np.array(obj["W1"], dtype=float)
        w2 = np.array(obj["w2"], dtype=float)
        H = None if obj.get("H") is None else np.array(obj["H"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad network JSON: {exc!r}") from exc
    if W1.ndim != 2 or w2.shape != W1.shape[1:] or (H is not None and H.shape != W1.shape):
        raise ValueError("bad network JSON: need W1 of d x m, w2 of m and H null or d x m")
    if H is not None:
        return GatedReluNetwork(H=H, W1=W1, w2=w2)
    return ReluNetwork(W1=W1, w2=w2)


@dataclass
class EvalReport:
    objective: float
    regularizer: float
    margins: np.ndarray  # y_i f(x_i)
    feasible: bool


def evaluate_network(net: Network, ds: Dataset, loss: LossModel = LossModel.max_margin()) -> EvalReport:
    """Exact forward pass: objective, weight decay, margins, feasibility."""
    if net.W1.shape[0] != ds.d:
        raise DimensionMismatch(f"network expects d={net.W1.shape[0]}, dataset has d={ds.d}")
    f = net.predict(ds.X)
    margins = ds.y * f
    reg = net.regularizer()
    if loss.name == "maxmargin":
        feasible = bool(np.all(margins >= 1.0 - 1e-9))
        objective = reg
    else:
        feasible = True
        objective = float(np.sum(loss.ell(margins)) + loss.beta * reg)
    return EvalReport(objective=objective, regularizer=reg, margins=margins, feasible=feasible)


def build_network_ortho(
    u_plus: Optional[np.ndarray], u_minus: Optional[np.ndarray]
) -> ReluNetwork:
    """Two-neuron ReLU network from the separated cone-program directions.

    Each direction u becomes a neuron with first-layer weight u/sqrt(|u|)
    and second-layer weight +-sqrt(|u|), so the weight decay equals
    |u_+| + |u_-| and, on orthogonal-separable data, the margins of the
    cone programs are reproduced exactly.
    """
    cols, outs = [], []
    for u, sign in ((u_plus, 1.0), (u_minus, -1.0)):
        if u is None:
            continue
        u = np.asarray(u, dtype=float)
        norm = float(np.linalg.norm(u))
        if norm <= 0.0:
            raise ZeroDirection("cannot build a neuron from a zero direction")
        cols.append(u / math.sqrt(norm))
        outs.append(sign * math.sqrt(norm))
    if not cols:
        raise ZeroDirection("need at least one direction")
    return ReluNetwork(W1=np.column_stack(cols), w2=np.array(outs))


@dataclass
class Certificate:
    accepted: bool
    p: float
    lower: float
    rho: float
    reason: str


def _below_lower(p: float, lower: float) -> bool:
    """Weak duality fails: p lies below lower by more than 1e-9 (1 + |lower|)."""
    return p < lower - 1e-9 * (1.0 + abs(lower))


def certify(p: float, lower: float, rho: float) -> Certificate:
    """Accept iff lower - 1e-9 (1 + |lower|) <= p <= lower / rho * (1 + 1e-8).

    A value below the dual lower bound signals a solver bug (weak duality
    cannot fail); a value above lower/rho exceeds the claimed ratio.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if _below_lower(p, lower):
        return Certificate(False, p, lower, rho, "p below the dual lower bound (weak duality violated)")
    if p > lower / rho * (1.0 + 1e-8):
        return Certificate(False, p, lower, rho, f"p exceeds lower/rho = {lower / rho:.6g}")
    return Certificate(True, p, lower, rho, "within certified ratio")


@dataclass
class ApproxResult:
    p: float
    lower: float
    network: Optional[Network]
    k: tuple
    C1: tuple
    C2: float
    dual: DualCertificate


def default_sample_count(n_block: int, eps0: float, delta: float) -> int:
    """k = ceil(0.5 eps0^-2 log((n+1)^2 / delta)), the Hoeffding count."""
    return int(math.ceil(0.5 * eps0**-2 * math.log((n_block + 1) ** 2 / delta)))


def _round_block(X_block, lam_block, Z, k, guard_rows, loss, rng):
    """Goemans-Williamson rounding of one label block, up to its masked program.

    Each round draws k Gaussian samples from N(0, Z), realizes them as gate
    patterns that stay off ``guard_rows`` (the other class), drops the
    draws the least-distance program cannot realize and zero gates, keeps
    the distinct nonzero masks in order of first occurrence and solves the
    masked group-norm program. An infeasible program, or no mask at all,
    doubles the draws (at least 8) for up to MAX_ROUNDS rounds. Returns the
    program's result with the gate of each kept mask.
    """
    masks, gates = np.empty((0, X_block.shape[0])), np.empty((0, X_block.shape[1]))
    for _ in range(MAX_ROUNDS):
        draws = _gaussian_draws(rng, Z, k)
        _, m_new, g_new, method = realize_patterns(X_block, draws, lam_block, guard_rows=guard_rows)
        ok = (method == "algebraic") | (method == "lp")
        masks, gates = np.vstack([masks, m_new[ok]]), np.vstack([gates, g_new[ok]])
        keep = np.sort(np.unique(masks, axis=0, return_index=True)[1])
        keep = keep[masks[keep].any(axis=1)]
        masks, gates = masks[keep], gates[keep]
        if len(masks):
            try:
                prob = MinSumNormsProblem(X=X_block, row_weights=masks, loss=loss)
                return solve_min_sum_norms(prob, tol=1e-9), gates
            except Infeasible:
                pass
        k = max(2 * k, 8)
    raise Unrealizable("no realizable mask family made the block program feasible")


def solve_primal_negcorr(
    ds: Dataset,
    loss: LossModel = LossModel.max_margin(),
    eps0: float = 0.1,
    delta: float = 0.05,
    seed: int = 0,
    k_override: Optional[int] = None,
    dual_cert: Optional[DualCertificate] = None,
) -> ApproxResult:
    """End-to-end primal pipeline for negative-correlation data.

    Each label block's lam and SDP matrix come from the label-block dual
    certificate (solved here unless ``dual_cert`` gives one; a certificate
    of another dataset or loss, or one without label blocks, raises
    ValueError). :func:`_round_block` rounds
    the block into gate patterns that stay off the other class and solves
    its masked group-norm program; the solution's balanced-scale neurons
    (dead ones dropped) form the gated network, which achieves exactly
    p = p_+ + p_-. A p below the dual lower bound raises
    CertificateViolation, by the rule of :func:`certify`.
    """
    if not (eps0 > 0.0 and 0.0 < delta < 1.0):
        raise ValueError("need eps0 > 0 and 0 < delta < 1")
    if k_override is not None and k_override < 1:
        raise ValueError("k_override must be a positive sample count")
    if dual_cert is None:
        dual_cert = solve_dual_negcorr(ds, loss)
    if dual_cert.dataset != ds or dual_cert.loss != loss:
        raise ValueError("dual_cert certifies another dataset or loss")
    if "block_info" not in dual_cert.meta:
        raise ValueError("dual_cert is not a label-block (negcorr or geo) certificate")
    lam_blocks = ds.split_dual(dual_cert.lam)
    if ds.n == 0:
        raise Unrealizable("empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence([982451653, seed]))

    H_cols, W_cols, w2, ks = [], [], [], []
    p_total = 0.0
    blocks = ((ds.X_plus, ds.X_minus, 1.0), (ds.X_minus, ds.X_plus, -1.0))  # rows, guard rows, output sign
    for (Xb, guard, sign), lam_b, info in zip(blocks, lam_blocks, dual_cert.meta["block_info"]):
        nb = Xb.shape[0]
        ks.append((k_override or default_sample_count(nb, eps0, delta / 2.0)) if nb else 0)
        if nb == 0:
            continue
        guard_rows = guard if guard.shape[0] else None
        res, gates = _round_block(Xb, lam_b, info["Z"], ks[-1], guard_rows, loss, rng)
        p_total += res.value
        for h, u in zip(gates, res.blocks):
            norm = float(np.linalg.norm(u))
            if norm > 1e-12:
                H_cols.append(h)
                W_cols.append(u / math.sqrt(norm))
                w2.append(sign * math.sqrt(norm))
    if not H_cols:
        # the optimum is the zero network (possible for penalized losses)
        H_cols, W_cols, w2 = [np.zeros(ds.d)], [np.zeros(ds.d)], [0.0]
    net = GatedReluNetwork(H=np.column_stack(H_cols), W1=np.column_stack(W_cols), w2=np.array(w2))

    lower = dual_cert.objective
    if _below_lower(p_total, lower):
        raise CertificateViolation(
            f"weak duality violated: p={p_total} below dual bound {lower} (solver bug)"
        )
    C1 = tuple(
        4.0 / max(float(np.sum(lam_b)), 1e-300) ** 2 if lam_b.size else math.inf
        for lam_b in lam_blocks
    )
    C2 = float(np.max(np.sum(ds.X**2, axis=1)))
    return ApproxResult(p=p_total, lower=lower, network=net, k=tuple(ks), C1=C1, C2=C2, dual=dual_cert)
