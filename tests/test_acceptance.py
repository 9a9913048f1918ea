"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from reluapprox.dataset import Dataset, LossModel, generate_synthetic
from reluapprox.dual import (
    check_dual_feasibility,
    geometric_ratio,
    solve_dual_geo,
    solve_dual_negcorr,
    solve_dual_ortho,
)
from reluapprox.errors import NonConvergence
from reluapprox.geometry import dual_constraint_maximin, ortho_closed_form, zonotope_vertex_max
from reluapprox.maxcut import (
    c1_value,
    c2_value_and_gradient,
    dual_quadratic,
    gw_round,
    maxcut_bruteforce,
    realize_pattern,
    sdp_relaxation,
)
from reluapprox.oracle import exact_dual, exact_primal, pattern_constraint_value
from reluapprox.primal import build_network_ortho, evaluate_network, solve_primal_negcorr

SQ2PI = math.sqrt(2.0 / math.pi)
SQPI2 = math.sqrt(math.pi / 2.0)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} {detail}")
    return ok


def test_criterion_1_strong_duality_ortho():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_margin = 1.0
    for i in range(50):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(2, 6))
        ds = generate_synthetic("orthogonal_separable", n, d, seed=1000 + i)
        cert = solve_dual_ortho(ds, tol=1e-9)
        net = build_network_ortho(
            cert.meta["u_plus"] if ds.n_plus else None,
            cert.meta["u_minus"] if ds.n_minus else None,
        )
        ev = evaluate_network(net, ds)
        D = cert.objective
        worst_gap = max(worst_gap, abs(ev.regularizer - D) / (1.0 + D))
        worst_margin = min(worst_margin, float(ev.margins.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_margin >= 1.0 - 1e-6 and elapsed < 10.0
    assert _report(
        1,
        "strong duality on orthogonal-separable data",
        ok,
        f"(max rel gap {worst_gap:.2e}, min margin {worst_margin:.9f}, {elapsed:.1f}s)",
    )


def test_criterion_2_maximin_equals_pattern_enumeration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        lam = rng.random(n) * y
        v1 = dual_constraint_maximin(ds, lam).value
        v2 = pattern_constraint_value(ds, lam)
        worst = max(worst, abs(v1 - v2))
    ok = worst <= 1e-8
    assert _report(2, "maximin equals pattern enumeration", ok, f"(max |diff| {worst:.2e})")


def test_criterion_3_closed_forms_ortho():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(2, 4))
        ds = generate_synthetic("orthogonal_separable", n, d, seed=3000 + i)
        lam = rng.random(ds.n) * ds.y
        fwd, bwd = ortho_closed_form(ds, lam)
        rep = dual_constraint_maximin(ds, lam)
        worst = max(worst, abs(fwd - rep.forward), abs(bwd - rep.backward))
    ok = worst <= 1e-8
    assert _report(3, "closed forms match enumerated maximin", ok, f"(max |diff| {worst:.2e})")


def test_criterion_4_gw_sandwich():
    rng = np.random.default_rng(404)
    ok = True
    detail = ""
    for i in range(30):
        m = int(rng.integers(3, 13))
        B = rng.standard_normal((m, m + 1))
        Q = B @ B.T / m
        opt, _ = maxcut_bruteforce(Q)
        sol = sdp_relaxation(Q)
        batch = gw_round(sol.Z, Q, k=100000, seed=4000 + i)
        if not (opt <= sol.upper + 1e-6 * (1 + abs(opt))):
            ok, detail = False, f"(instance {i}: OPT {opt} > SDP {sol.upper})"
            break
        if not ((2.0 / math.pi) * sol.lower <= opt + 1e-6 * (1 + abs(opt))):
            ok, detail = False, f"(instance {i}: 2/pi SDP above brute value)"
            break
        if not (batch.mean >= (2.0 / math.pi) * sol.objective - 4.0 * batch.stderr):
            ok, detail = False, f"(instance {i}: GW mean {batch.mean} too small)"
            break
    assert _report(4, "Goemans-Williamson sandwich", ok, detail or "(30 instances)")


def test_criterion_5_pattern_realizability():
    rng = np.random.default_rng(505)
    realized = 0
    total = 0
    for i in range(10):
        n = int(rng.integers(5, 10))
        d = int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        lam = rng.random(n) + 0.1
        sol = sdp_relaxation(dual_quadratic(X, lam))
        w_eig, V = np.linalg.eigh(sol.Z)
        L = V * np.sqrt(np.maximum(w_eig, 0.0))
        for _ in range(10):
            r = rng.standard_normal(n + 1) @ L.T
            rp = realize_pattern(X, r, lam)
            total += 1
            if np.array_equal(rp.mask, rp.mask_target) and np.array_equal(
                (X @ rp.w >= 0.0).astype(float), rp.mask
            ):
                realized += 1
    ok = realized == total == 100
    assert _report(5, "sampled patterns realizable", ok, f"({realized}/{total})")


def test_criterion_6_negcorr_end_to_end():
    t0 = time.perf_counter()
    sizes = [(12, 3), (14, 4), (16, 4), (10, 3), (16, 3)]
    good = 0
    runs = 0
    weak_ok = True
    for di, (n, d) in enumerate(sizes):
        ds = generate_synthetic("negative_correlation", n, d, seed=600 + di)
        P = exact_primal(ds, arch="relu", tol=1e-7).value
        dual_cert = solve_dual_negcorr(ds)
        for seed in range(20):
            res = solve_primal_negcorr(
                ds, eps0=0.1, delta=0.1, seed=seed, dual_cert=dual_cert
            )
            runs += 1
            if res.p < P - 1e-6 * (1 + P):
                weak_ok = False
            if P - 1e-6 * (1 + P) <= res.p <= SQPI2 * 1.1 * P + 1e-9:
                good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 0.9 * runs and weak_ok and elapsed < 300.0
    assert _report(
        6,
        "negative-correlation end-to-end",
        ok,
        f"({good}/{runs} in band, weak duality ok={weak_ok}, {elapsed:.0f}s)",
    )


def test_criterion_7_geometric_ratio_bound():
    # NOTE: the stated choice c = 0.9 * min(c*, 1/c*) sits on the wrong
    # side of the triangle-inequality argument, which needs
    # c >= min(c*, 1/c*); the band below provably fails on instances with
    # c* near 1 whose dual constraint is tight. Implemented as stated; see
    # the corrected-condition test in tests/test_dual.py.
    rng = np.random.default_rng(707)
    failures = []
    for i in range(20):
        ds = generate_synthetic("general", 8, 3, seed=i)
        D = None
        for tol in (1e-7, 3e-6):
            try:
                D, lam_star = exact_dual(ds, tol=tol)
                break
            except NonConvergence:
                continue
        if D is None:
            failures.append((i, "oracle"))
            continue
        gr = geometric_ratio(ds, lam_star)
        c = 0.9 * min(gr.c_star, 1.0 / gr.c_star)
        cert = solve_dual_geo(ds, c=c)
        eps_total = 2 * cert.eps + 1e-5 * (1 + D)
        lo = SQ2PI * (1.0 - c) * D - eps_total
        band_ok = lo <= cert.objective <= D + 1e-6 * (1 + D)
        p = cert.meta["p_derived"]
        p_ok = (P_lo := D - 1e-6 * (1 + D)) <= p <= (1.0 / (1.0 - c)) * SQPI2 * D + 1e-6
        feas_ok = check_dual_feasibility(ds, cert.lam).feasible
        if not (band_ok and p_ok and feas_ok):
            failures.append((i, round(gr.c_star, 3), round(D, 3), round(cert.objective, 3), round(lo, 3)))
    ok = not failures
    assert _report(
        7,
        "geometric-ratio band at c = 0.9 min(c*, 1/c*)",
        ok,
        f"({20 - len(failures)}/20; failures {failures})",
    )


def test_criterion_8_hinge_reduction():
    worst = 0.0
    for i in range(20):
        ds = generate_synthetic("general", 7, 2, seed=800 + i)
        D, lam_star = exact_dual(ds, tol=1e-8)
        beta = 0.5 / float(np.abs(lam_star).max())
        Dh = exact_primal(ds, LossModel.hinge(beta), arch="relu", tol=1e-8).value
        worst = max(worst, abs(Dh - beta * D) / (1.0 + D))
    ok = worst <= 1e-6
    assert _report(8, "hinge reduction D_hinge = beta D", ok, f"(max rel err {worst:.2e})")


def test_criterion_9_sdp_gradient_finite_differences():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        lam = rng.random(n) + 0.2
        _, _, grad = c2_value_and_gradient(X, lam)
        h = 1e-5
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            vp, *_ = c2_value_and_gradient(X, lam + e)
            vm, *_ = c2_value_and_gradient(X, lam - e)
            fd = (vp - vm) / (2.0 * h)
            worst = max(worst, abs(fd - grad[j]) / max(1.0, abs(grad[j])))
    ok = worst <= 1e-5
    assert _report(9, "c2 envelope gradient vs finite differences", ok, f"(max rel err {worst:.2e})")


def test_criterion_10_maxcut_equals_vertex_max():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        lam = rng.random(n)
        via_cut = c1_value(X, lam)
        vmax, _ = zonotope_vertex_max(X.T * lam[None, :])
        worst = max(worst, abs(via_cut - vmax**2))
    ok = worst <= 1e-10
    assert _report(
        10,
        "Max-Cut brute force equals zonotope vertex max squared",
        ok,
        f"(max |diff| {worst:.2e})",
    )
