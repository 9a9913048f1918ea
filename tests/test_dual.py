import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from reluapprox import dual
from reluapprox.dataset import Dataset, LossModel, generate_synthetic
from reluapprox.dual import (
    _block_ortho,
    check_dual_feasibility,
    geometric_ratio,
    solve_dual_geo,
    solve_dual_negcorr,
    solve_dual_ortho,
)
from reluapprox.errors import (
    CertificateViolation,
    Infeasible,
    WrongRegime,
    ZeroDenominator,
)
from reluapprox.geometry import dual_constraint_maximin
from reluapprox.maxcut import dual_quadratic, psd_factor, sdp_relaxation
from reluapprox.oracle import exact_dual
from reluapprox.primal import certify, solve_primal_negcorr

SQ2PI = math.sqrt(2.0 / math.pi)


def test_ortho_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    cert = solve_dual_ortho(ds)
    assert abs(cert.objective - 2.0) < 1e-7
    lp, lm = ds.split_dual(cert.lam)
    assert abs(lp[0] - 1.0) < 1e-6 and abs(lm[0] - 1.0) < 1e-6


def test_ortho_single_point():
    ds = Dataset([[0.6, 0.8]], [1])
    cert = solve_dual_ortho(ds)
    assert abs(cert.objective - 1.0) < 1e-7


def test_ortho_hinge_box_top():
    # beta large enough that lam = 1 is feasible: D_hinge = n
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    cert = solve_dual_ortho(ds, LossModel.hinge(beta=5.0))
    assert abs(cert.objective - 2.0) < 1e-7  # n = 2


def test_ortho_infeasible_margin_raises():
    # x and -x in one block: no u has both margins >= 1
    with pytest.raises(Infeasible):
        _block_ortho(np.array([[1.0], [-1.0]]), LossModel.max_margin(), 1e-8)


def test_ortho_constraint_value_is_closed_form():
    ds = generate_synthetic("orthogonal_separable", 10, 3, 5)
    cert = solve_dual_ortho(ds, tol=1e-9)
    exact = dual_constraint_maximin(ds, cert.lam).value
    assert abs(cert.constraint_value - exact) <= 1e-8
    assert abs(cert.constraint_value - 1.0) <= 1e-9


def test_ortho_wrong_regime():
    ds = Dataset([[1.0, 0.0], [0.5, 0.866]], [1, -1])
    with pytest.raises(WrongRegime):
        solve_dual_ortho(ds)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_ortho_rejects_tol_that_is_not_finite_positive(tol):
    # a nan tol made the block gap check always pass
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    with pytest.raises(ValueError, match="tol"):
        solve_dual_ortho(ds, tol=tol)


def test_negcorr_two_point_line_exact():
    # one-point blocks make the SDP surrogate exact: objective -> 2
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    cert = solve_dual_negcorr(ds)
    assert cert.objective >= 2.0 - 1e-4
    assert check_dual_feasibility(ds, cert.lam).feasible


def test_negcorr_solves_no_maxcut_sdp(monkeypatch):
    # each block certifies c2 from its own SDP's dual slack and rounds from
    # its primal, so the negcorr pipeline never solves a Max-Cut relaxation
    def refuse(Q):
        raise AssertionError("sdp_relaxation reached from the negcorr pipeline")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reluapprox" and hasattr(module, "sdp_relaxation"):
            monkeypatch.setattr(module, "sdp_relaxation", refuse)
    ds = generate_synthetic("negative_correlation", 8, 3, seed=2)
    res = solve_primal_negcorr(ds, seed=0)
    assert certify(res.p, res.lower, res.dual.rho).accepted
    assert check_dual_feasibility(ds, res.dual.lam).feasible


@pytest.mark.parametrize("loss", [LossModel.max_margin(), LossModel.hinge(0.5)], ids=lambda l: l.name)
def test_negcorr_forced_scale_stays_certified(monkeypatch, loss):
    # a certified bound reported at 4x forces the one scale, lam -> lam / 2
    # where the budget is tight; the scaled lam stays feasible and eps takes
    # up the gain the scale gave up, so it still bounds the distance to D
    ds = generate_synthetic("orthogonal_separable", 8, 3, seed=1)
    D = solve_dual_ortho(ds, loss).objective
    base = solve_dual_negcorr(ds, loss)
    package = dual._package

    def inflated(*args):
        sol = package(*args)
        return dataclasses.replace(sol, upper=4.0 * sol.upper)

    monkeypatch.setattr(dual, "_package", inflated)
    cert = solve_dual_negcorr(ds, loss)
    assert cert.objective <= 0.5 * base.objective * (1 + 1e-6)
    assert check_dual_feasibility(ds, cert.lam).feasible
    given_up = base.objective - cert.objective
    assert abs((cert.eps - base.eps) - given_up) <= 1e-9 * (1 + D)
    assert 0.0 <= D - cert.objective <= cert.eps + 1e-12 * (1 + D)


@pytest.mark.parametrize("kind", ["negative_correlation", "general"])
@pytest.mark.parametrize(
    "loss", [LossModel.max_margin(), LossModel.hinge(0.7), LossModel.squared_hinge(0.7)], ids=lambda l: l.name
)
def test_block_negcorr_vs_maxcut_sdp_oracle(kind, loss):
    # an independent Max-Cut SDP solve at the returned lam must certify the
    # block's c2 bound by the rule of _checked_constraint, and the rounding
    # matrix handed to the primal must be a unit-diagonal PSD matrix
    r = 1.0 if loss.name == "maxmargin" else loss.beta
    for seed in range(2):
        ds = generate_synthetic(kind, 8, 3, seed=seed)
        for Xb in (ds.X_plus, ds.X_minus):
            for radius in (r, 0.3 * r):
                lam, info = dual._block_negcorr(Xb, loss, radius)
                upper = sdp_relaxation(dual_quadratic(Xb, lam)).upper
                assert 0.25 * upper <= radius**2 * (1.0 + 1e-8)
                Z = info["Z"]
                assert Z.shape == (len(lam) + 1, len(lam) + 1)
                assert np.abs(np.diag(Z) - 1.0).max() <= 1e-12
                L = psd_factor(Z)
                assert np.abs(L @ L.T - Z).max() <= 1e-6


def test_negcorr_constraint_above_radius_raises(monkeypatch):
    # the exact maximin is the independent check of the returned dual
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    monkeypatch.setattr(dual, "dual_constraint_maximin", lambda ds, lam: SimpleNamespace(value=1.0 + 1e-6))
    with pytest.raises(CertificateViolation, match="exceeds the radius"):
        solve_dual_negcorr(ds)


def test_negcorr_feasible_and_near_optimal_on_ortho_subset():
    for seed in range(3):
        ds = generate_synthetic("orthogonal_separable", 8, 3, seed)
        D = solve_dual_ortho(ds).objective
        cert = solve_dual_negcorr(ds)
        assert cert.objective >= SQ2PI * D - 1e-3
        assert cert.objective <= D * (1 + 1e-6) + cert.eps
        assert check_dual_feasibility(ds, cert.lam).feasible


@pytest.mark.parametrize(
    "loss", [LossModel.max_margin(), LossModel.hinge(0.5), LossModel.squared_hinge(2.0)], ids=lambda l: l.name
)
def test_negcorr_exact_on_ortho_data(loss):
    # orthogonal-separable blocks have an entrywise nonnegative Q(lam), for
    # which Z = 11' is optimal: the SDP surrogate is exact and the
    # surrogate dual must reach the exact ortho dual
    for seed in range(3):
        ds = generate_synthetic("orthogonal_separable", 8, 3, seed)
        D = solve_dual_ortho(ds, loss).objective
        cert = solve_dual_negcorr(ds, loss)
        assert abs(cert.objective - D) <= 1e-7 * (1 + D)
        # eps bounds the distance to the surrogate optimum, which is D here
        assert 0.0 <= D - cert.objective <= cert.eps + 1e-12 * (1 + D)


def test_negcorr_wrong_regime():
    ds = Dataset([[1.0, 0.0], [0.5, 0.866]], [1, -1])
    with pytest.raises(WrongRegime):
        solve_dual_negcorr(ds)


def test_constraint_homogeneous_in_lam():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, d = 6, 2
        X = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        ds = Dataset(X, y)
        lam = rng.random(n) * y
        v1 = dual_constraint_maximin(ds, lam).value
        for a in (0.5, 2.0, 7.0):
            va = dual_constraint_maximin(ds, a * lam).value
            assert abs(va - a * v1) <= 1e-9 * (1 + va)


def test_check_dual_feasibility_scaling():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    lam = np.array([1.0, -1.0])
    rep = check_dual_feasibility(ds, lam)
    assert rep.feasible and abs(rep.constraint_value - 1.0) < 1e-12
    rep2 = check_dual_feasibility(ds, 2.0 * lam / rep.constraint_value)
    assert not rep2.feasible and abs(rep2.constraint_value - 2.0) < 1e-12
    rep0 = check_dual_feasibility(ds, np.zeros(2))
    assert rep0.feasible and rep0.constraint_value == 0.0


def test_geometric_ratio_symmetric():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    gr = geometric_ratio(ds, np.array([1.0, -1.0]))
    assert abs(gr.c_star - 1.0) < 1e-12


def test_geometric_ratio_scaled_denominator():
    ds = Dataset([[1.0], [-0.5]], [1, -1])
    gr = geometric_ratio(ds, np.array([1.0, -1.0]))
    assert abs(gr.c_star - 2.0) < 1e-12


def test_geometric_ratio_zero_denominator():
    ds = Dataset([[1.0], [2.0]], [1, 1])
    with pytest.raises(ZeroDenominator):
        geometric_ratio(ds, np.array([1.0, 1.0]))


def test_geo_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    cert = solve_dual_geo(ds, c=0.5)
    assert abs(cert.objective - 2.0) <= 1e-6  # D: both blocks reach radius 1
    assert check_dual_feasibility(ds, cert.lam).feasible


def test_geo_constraint_above_radius_raises(monkeypatch):
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    monkeypatch.setattr(dual, "dual_constraint_maximin", lambda ds, lam: SimpleNamespace(value=1.0 + 1e-6))
    with pytest.raises(CertificateViolation, match="exceeds the radius"):
        solve_dual_geo(ds, c=0.5)


@pytest.mark.parametrize(
    "loss",
    [LossModel.max_margin(), LossModel.hinge(1.0), LossModel.hinge(0.3), LossModel.squared_hinge(0.3)],
    ids=lambda l: f"{l.name}-{l.beta:g}",
)
def test_geo_feasible_on_general_data(monkeypatch, loss):
    # the two radius-r blocks are feasible on any data, and their objective
    # dominates the c-weighted duals at radii (r, c r) and (c r, r), which
    # this test keeps as its reference
    ds = generate_synthetic("general", 7, 2, seed=0)
    c, r = 0.5, (1.0 if loss.name == "maxmargin" else loss.beta)
    reference = []
    for r_plus, r_minus in ((r, c * r), (c * r, r)):
        lam_p, _ = dual._block_negcorr(ds.X_plus, loss, r_plus)
        lam_m, _ = dual._block_negcorr(ds.X_minus, loss, r_minus)
        reference.append(loss.g_total(ds.merge_dual(lam_p, lam_m), ds.y))
    calls = []
    block = dual._block_negcorr

    def counted(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(dual, "_block_negcorr", counted)
    cert = solve_dual_geo(ds, c=c, loss=loss)
    assert len(calls) == 2
    assert check_dual_feasibility(ds, cert.lam, bound=r).feasible
    assert cert.objective >= max(reference) - cert.eps
    assert cert.meta["p_derived"] >= cert.objective


@pytest.mark.parametrize("loss", [LossModel.max_margin(), LossModel.squared_hinge(0.3)], ids=lambda l: l.name)
def test_geo_matches_negcorr_on_negcorr_data(loss):
    # geo runs the negcorr block path: only rho and p_derived tell them apart
    for seed in range(2):
        ds = generate_synthetic("negative_correlation", 8, 3, seed=seed)
        nc = solve_dual_negcorr(ds, loss)
        geo = solve_dual_geo(ds, c=0.4, loss=loss)
        assert np.array_equal(geo.lam, nc.lam) and geo.eps == nc.eps
        for a, b in zip(geo.meta["block_info"], nc.meta["block_info"]):
            assert np.array_equal(a["Z"], b["Z"])


def test_geo_corrected_ratio_condition():
    # with c at least min(c*, 1/c*) the triangle-inequality argument is
    # valid and the (1-c) band must hold (the spec inherits the paper's
    # flipped direction; this test pins the working one)
    for seed in (0, 1, 8):
        ds = generate_synthetic("general", 7, 2, seed=seed)
        D, lam_star = exact_dual(ds, tol=1e-7)
        gr = geometric_ratio(ds, lam_star)
        m = min(gr.c_star, 1.0 / gr.c_star)
        c = min(0.999, m + 0.05 * (1 - m))
        cert = solve_dual_geo(ds, c=c)
        assert cert.objective >= SQ2PI * (1 - c) * D - 2 * cert.eps - 1e-9
        assert cert.objective <= D * (1 + 1e-6) + cert.eps


def test_hinge_reduction_identity():
    # for beta < 1/|lam*|_inf the hinge dual equals beta * D
    from reluapprox.oracle import exact_primal

    for seed in range(3):
        ds = generate_synthetic("general", 6, 2, seed=seed + 30)
        D, lam_star = exact_dual(ds, tol=1e-8)
        beta = 0.5 / np.abs(lam_star).max()
        Dh = exact_primal(ds, LossModel.hinge(beta), arch="relu", tol=1e-8).value
        assert abs(Dh - beta * D) <= 1e-6 * (1 + D)
