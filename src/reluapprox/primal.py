"""Constructing networks that achieve the primal values, and certifying them.

The orthogonal-separable construction is a two-neuron ReLU network read off
the separated cone programs. The negative-correlation pipeline rounds the
block SDP solutions into activation masks, solves the masked group-norm
program, and assembles a gated network whose weights reproduce the solver
value exactly; the certificate against the dual lower bound is therefore
machine-checkable end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
from .maxcut import psd_factor, realize_patterns

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

    @property
    def width(self) -> int:
        return self.W1.shape[1]

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
    obj = json.loads(text)
    W1 = np.array(obj["W1"], dtype=float)
    w2 = np.array(obj["w2"], dtype=float)
    if obj.get("H") is not None:
        return GatedReluNetwork(H=np.array(obj["H"], dtype=float), W1=W1, w2=w2)
    return ReluNetwork(W1=W1, w2=w2)


@dataclass
class EvalReport:
    objective: float
    regularizer: float
    margins: np.ndarray  # y_i f(x_i)
    feasible: bool


def evaluate_network(net: Network, ds: Dataset, loss: Optional[LossModel] = None) -> EvalReport:
    """Exact forward pass: objective, weight decay, margins, feasibility."""
    loss = loss or LossModel.max_margin()
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


def certify(p: float, lower: float, rho: float, weak_tol: float = 1e-9) -> Certificate:
    """Accept iff lower <= p <= lower / rho * (1 + 1e-8).

    A value below the dual lower bound signals a solver bug (weak duality
    cannot fail); a value above lower/rho exceeds the claimed ratio.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if p < lower - weak_tol * (1.0 + abs(lower)):
        return Certificate(False, p, lower, rho, "p below the dual lower bound (weak duality violated)")
    if p > lower / rho * (1.0 + 1e-8):
        return Certificate(False, p, lower, rho, f"p exceeds lower/rho = {lower / rho:.6g}")
    return Certificate(True, p, lower, rho, "within certified ratio")


@dataclass
class ApproxResult:
    p: float
    lower: float
    factor: float  # certified p / lower
    network: Optional[Network]
    regime: str
    k: tuple
    eps0: float
    delta: float
    seed: int
    C1: tuple
    C2: float
    dual: DualCertificate
    meta: dict = field(default_factory=dict)


def default_sample_count(n_block: int, eps0: float, delta: float) -> int:
    """k = ceil(0.5 eps0^-2 log((n+1)^2 / delta)), the Hoeffding count."""
    if n_block == 0:
        return 0
    return int(math.ceil(0.5 * eps0**-2 * math.log((n_block + 1) ** 2 / delta)))


def _round_block_masks(X_block, lam_block, sdp, k, guard, rng):
    """Draw k Gaussian rounding samples and realize them as gate patterns.

    Draws the LP cannot realize, and zero gates, are dropped.
    """
    L = psd_factor(sdp.Z)
    draws = rng.standard_normal((k, L.shape[0])) @ L.T
    _, masks, gates, method = realize_patterns(X_block, draws, lam_block, guard_rows=guard)
    ok = (method == "algebraic") | (method == "lp")
    return masks[ok], gates[ok]


def _solve_block_primal(X_block, masks, loss):
    mode = "penalized" if loss.penalized else "margin"
    prob = MinSumNormsProblem(
        X=X_block, row_weights=np.array(masks, dtype=float), loss=loss, mode=mode
    )
    return solve_min_sum_norms(prob, tol=1e-9)


def _assemble_block(masks, gates, blocks_u):
    """Balanced-scale neurons from the block solution; dead neurons dropped."""
    H_cols, W_cols, w2 = [], [], []
    for mask, h, u in zip(masks, gates, blocks_u):
        norm = float(np.linalg.norm(u))
        if norm <= 1e-12:
            continue
        H_cols.append(h)
        W_cols.append(u / math.sqrt(norm))
        w2.append(math.sqrt(norm))
    return H_cols, W_cols, w2


def solve_primal_negcorr(
    ds: Dataset,
    loss: Optional[LossModel] = None,
    eps0: float = 0.1,
    delta: float = 0.05,
    seed: int = 0,
    k_override: Optional[int] = None,
    dual_cert: Optional[DualCertificate] = None,
) -> ApproxResult:
    """End-to-end primal pipeline for negative-correlation data.

    Per label block: solve the SDP-surrogate dual, draw Gaussian rounding
    samples from the optimal SDP matrix, realize each sign pattern as a
    gate vector (constrained to stay off the other class), deduplicate,
    and solve the masked group-norm program. The assembled gated network
    achieves exactly p = p_+ + p_-, which is certified against the dual
    lower bound.
    """
    if not (eps0 > 0.0 and 0.0 < delta < 1.0):
        raise ValueError("need eps0 > 0 and 0 < delta < 1")
    if k_override is not None and k_override < 1:
        raise ValueError("k_override must be a positive sample count")
    loss = loss or LossModel.max_margin()
    if dual_cert is None:
        dual_cert = solve_dual_negcorr(ds, loss)
    lam_p, lam_m = dual_cert.meta["lam_blocks"]
    info_p, info_m = dual_cert.meta["block_info"]
    rng = np.random.default_rng(np.random.SeedSequence([982451653, seed]))

    sides = []
    ks = []
    for side, (Xb, idx, lam_b, info, guard) in enumerate(
        (
            (ds.X_plus, ds.pos_idx, lam_p, info_p, ds.X_minus),
            (ds.X_minus, ds.neg_idx, lam_m, info_m, ds.X_plus),
        )
    ):
        nb = Xb.shape[0]
        if nb == 0:
            sides.append(None)
            ks.append(0)
            continue
        k = k_override or default_sample_count(nb, eps0, delta / 2.0)
        ks.append(k)
        sdp = info["sdp"]
        guard_rows = guard if guard.shape[0] else None
        masks, gates = np.empty((0, nb)), np.empty((0, ds.d))
        k_round = k
        for _ in range(MAX_ROUNDS):
            m_new, g_new = _round_block_masks(Xb, lam_b, sdp, k_round, guard_rows, rng)
            masks, gates = np.vstack([masks, m_new]), np.vstack([gates, g_new])
            # distinct nonzero masks, in order of first occurrence
            keep = np.sort(np.unique(masks, axis=0, return_index=True)[1])
            keep = keep[masks[keep].any(axis=1)]
            masks, gates = masks[keep], gates[keep]
            if len(masks):
                try:
                    res = _solve_block_primal(Xb, masks, loss)
                    break
                except Infeasible:
                    pass
            k_round = max(2 * k_round, 8)
        else:
            raise Unrealizable(
                f"block {side}: no realizable mask family made the program feasible"
            )
        sides.append((res, masks, gates))
    if all(s is None for s in sides):
        raise Unrealizable("empty dataset")

    H_cols, W_cols, w2 = [], [], []
    p_total = 0.0
    for side, pack in enumerate(sides):
        if pack is None:
            continue
        res, masks, gates = pack
        p_total += res.value
        h, wcols, wouts = _assemble_block(masks, gates, res.blocks)
        sign = 1.0 if side == 0 else -1.0
        H_cols.extend(h)
        W_cols.extend(wcols)
        w2.extend(sign * np.array(wouts))
    if not H_cols:
        # the optimum is the zero network (possible for penalized losses)
        net: Network = GatedReluNetwork(
            H=np.zeros((ds.d, 1)), W1=np.zeros((ds.d, 1)), w2=np.zeros(1)
        )
    else:
        net = GatedReluNetwork(
            H=np.column_stack(H_cols), W1=np.column_stack(W_cols), w2=np.array(w2)
        )

    lower = dual_cert.objective
    if p_total < lower - 1e-7 * (1.0 + abs(lower)):
        raise CertificateViolation(
            f"weak duality violated: p={p_total} below dual bound {lower} (solver bug)"
        )
    C1 = tuple(
        4.0 / max(float(np.sum(lam_b)), 1e-300) ** 2 if lam_b.size else math.inf
        for lam_b in (lam_p, lam_m)
    )
    C2 = float(np.max(np.sum(ds.X**2, axis=1)))
    return ApproxResult(
        p=p_total,
        lower=lower,
        factor=p_total / lower if lower > 0 else math.inf,
        network=net,
        regime="negcorr",
        k=tuple(ks),
        eps0=eps0,
        delta=delta,
        seed=seed,
        C1=C1,
        C2=C2,
        dual=dual_cert,
        meta={"loss": loss.name},
    )
