"""The three closed-loop workloads: instance suites, requests, output checks.

Each workload runs a fixed suite of datasets that ``generate_synthetic``
draws from ``SUITE_SEED`` over the workload's (n, d) cells, one dataset per
cell in a fixed cell order. The run's ``--seed`` draws the order of every
cycle through the suite and every randomized solver input (the rounding
seeds), so the same seed gives the same request sequence. Per-request cost
varies by a log-sd of about 0.8 between datasets of one (n, d) cell, so a
suite that changed with the seed made the per-run medians swing by 35-47%;
a fixed suite, run in whole cycles, keeps every run on the same work.

``setup`` builds the suite; the library sees
only the generated ``Dataset``s. ``run`` is the timed request. ``check``
verifies its output by a route independent of the solver that produced it
and returns the certified factor ``p / lower`` (or ``None``); it raises
:class:`CheckFailed` when an output is wrong. ``digest`` hashes an output
bit for bit, so traced and untraced runs can be compared.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ORTHO = "orthogonal_separable"
NEGCORR = "negative_correlation"
GENERAL = "general"
SUITE_SEED = 0


class CheckFailed(Exception):
    """An output failed its independent check."""


@dataclass
class Request:
    rid: int
    ds: object  # reluapprox.Dataset
    fingerprint: str
    params: dict = field(default_factory=dict)


def fingerprint(ds, **params) -> str:
    h = hashlib.sha256()
    h.update(repr((ds.X.shape, sorted(params.items()))).encode())
    h.update(np.ascontiguousarray(ds.X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ds.y, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h.hexdigest()[:16]


def size_cycle(n_range, d_range):
    """Every (n, d) cell of the ranges, in a fixed seed-independent order."""
    cells = list(itertools.product(range(n_range[0], n_range[1] + 1), range(d_range[0], d_range[1] + 1)))
    order = np.random.default_rng(0).permutation(len(cells))
    return [cells[i] for i in order]


def _relu_margins(ra, net, ds) -> tuple[np.ndarray, float]:
    """Margins and weight decay of a network, computed here from its weights."""
    if isinstance(net, ra.GatedReluNetwork):
        f = ((ds.X @ net.H >= 0.0) * (ds.X @ net.W1)) @ net.w2
    else:
        f = np.maximum(ds.X @ net.W1, 0.0) @ net.w2
    reg = 0.5 * (float(np.sum(net.W1**2)) + float(np.sum(np.asarray(net.w2) ** 2)))
    return ds.y * f, reg


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    name = ""
    why = ""
    kind = ""
    n_range = (0, 0)
    d_range = (0, 0)
    tail_pct = 90  # highest percentile with >= 10 requests beyond it in a 30 s run

    def __init__(self, ra, seed: int):
        self.ra = ra
        self.seed = seed
        self.suite: list = []

    def setup(self) -> str:
        """Build the suite; return its fingerprint."""
        cells = size_cycle(self.n_range, self.d_range)
        seeds = np.random.default_rng(SUITE_SEED).integers(0, 2**31, size=len(cells))
        self.suite = [
            self.ra.generate_synthetic(self.kind, n, d, seed=int(s)) for (n, d), s in zip(cells, seeds)
        ]
        return digest(*(a for ds in self.suite for a in (ds.X, ds.y)))

    def cycle(self, c: int) -> list[Request]:
        """Cycle ``c``: the suite in a seeded order, one request per dataset."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, c]))
        order = rng.permutation(len(self.suite))
        draws = rng.integers(0, 2**31, size=len(order))
        base = c * len(order)
        return [
            self._request(base + i, int(j), int(s)) for i, (j, s) in enumerate(zip(order, draws))
        ]

    def _request(self, rid: int, j: int, draw: int) -> Request:
        ds = self.suite[j]
        return Request(rid, ds, fingerprint(ds), {"set": j})

    def run(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> Optional[float]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


class Ortho(Workload):
    name = "ortho"
    why = (
        "max-margin ortho-separable data (criterion-1 sizes): one-block margin program plus the eager "
        "exponential maximin; heavy tail; no SDP or ellipsoid, so it bypasses SDP changes"
    )
    kind = ORTHO
    n_range = (4, 20)
    d_range = (2, 5)
    tail_pct = 90

    def run(self, req):
        ra, ds = self.ra, req.ds
        cert = ra.solve_dual_ortho(ds, tol=1e-9)
        net = ra.build_network_ortho(
            cert.meta["u_plus"] if ds.n_plus else None,
            cert.meta["u_minus"] if ds.n_minus else None,
        )
        ev = ra.evaluate_network(net, ds)
        return cert, net, ev

    def check(self, req, out):
        cert, net, ev = out
        margins, reg = _relu_margins(self.ra, net, req.ds)
        D = cert.objective
        _require(abs(reg - D) / (1.0 + D) <= 1e-6, "relative gap above 1e-6")
        _require(float(margins.min()) >= 1.0 - 1e-6, "margin below 1 - 1e-6")
        return reg / D

    def digest(self, out):
        cert, net, ev = out
        return digest(cert.lam, net.W1, net.w2, [ev.objective])


class Negcorr(Workload):
    name = "negcorr"
    why = (
        "cold solve_primal_negcorr as `solve --method negcorr` runs it: ellipsoid plus ~190 warm-started "
        "SDP calls per request (~84%), then rounding, pattern realization, gated program"
    )
    kind = NEGCORR
    n_range = (6, 10)
    d_range = (2, 3)
    tail_pct = 66
    eps0 = 0.1
    delta = 0.05

    def _request(self, rid, j, draw):
        ds = self.suite[j]
        return Request(rid, ds, fingerprint(ds, seed=draw), {"set": j, "seed": draw})

    def run(self, req):
        return self.ra.solve_primal_negcorr(
            req.ds, eps0=self.eps0, delta=self.delta, seed=req.params["seed"]
        )

    def check(self, req, res):
        ra, ds = self.ra, req.ds
        tol = 1e-9 * (1.0 + abs(res.lower))
        _require(res.p >= res.lower - tol, "weak duality p >= lower violated")
        rho = (2.0 / math.pi) / (1.0 + self.eps0)
        _require(ra.certify(res.p, res.lower, rho).accepted, "certify rejected p / lower")
        margins, reg = _relu_margins(ra, res.network, ds)
        _require(abs(reg - res.p) <= 1e-6 * (1.0 + res.p), "network does not reproduce p")
        _require(float(margins.min()) >= 1.0 - 1e-6, "network infeasible")
        _require(ra.check_dual_feasibility(ds, res.dual.lam).feasible, "dual infeasible by exact maximin")
        return res.p / res.lower

    def digest(self, res):
        net = res.network
        return digest([res.p, res.lower], res.dual.lam, net.H, net.W1, net.w2)


class Oracle(Workload):
    name = "oracle"
    why = (
        "general data, exact_dual then exact_primal(hinge) per dataset: the cone-constrained kernel with "
        "hundreds of blocks, thousands of polyhedral-cone projections per request"
    )
    kind = GENERAL
    n_range = (7, 10)
    d_range = (2, 3)
    tail_pct = 65

    def cycle(self, c):
        """Each dataset of the cycle as a pair: exact dual, then hinge primal."""
        out = []
        for req in super().cycle(c):
            for step in ("dual", "primal"):
                rid = 2 * req.rid + len(out) % 2
                out.append(Request(rid, req.ds, fingerprint(req.ds, step=step), {"set": req.params["set"], "step": step}))
        return out

    def setup(self):
        self.lam = {}
        return super().setup()

    def run(self, req):
        ra, ds = self.ra, req.ds
        if req.params["step"] == "dual":
            D, lam = ra.exact_dual(ds, tol=1e-8)
            self.lam[req.params["set"]] = (D, lam)
            return D, lam
        D, lam = self.lam[req.params["set"]]
        beta = 0.5 / float(np.abs(lam).max())
        res = ra.exact_primal(ds, ra.LossModel.hinge(beta), arch="relu", tol=1e-8)
        return D, beta, res

    def check(self, req, out):
        if req.params["step"] == "dual":
            D, lam = out
            _require(self.ra.check_dual_feasibility(req.ds, lam).feasible, "lambda* infeasible by exact maximin")
            return None
        D, beta, res = out
        _require(abs(res.value - beta * D) / (1.0 + D) <= 1e-6, "D_hinge != beta D")
        return res.value / (beta * D)

    def digest(self, out):
        if len(out) == 2:
            return digest([out[0]], out[1])
        D, beta, res = out
        return digest([D, beta, res.value], res.blocks, res.lam)


WORKLOADS = {w.name: w for w in (Ortho, Negcorr, Oracle)}
