import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reluapprox.maxcut as maxcut
from reluapprox.dataset import Dataset, LossModel, generate_synthetic
from reluapprox.dual import check_dual_feasibility, solve_dual_negcorr, solve_dual_ortho
from reluapprox import primal
from reluapprox.errors import CertificateViolation, DimensionMismatch, GenerationFailed, Infeasible, ZeroDirection
from reluapprox.oracle import exact_primal
from reluapprox.primal import (
    GatedReluNetwork,
    ReluNetwork,
    build_network_ortho,
    certify,
    evaluate_network,
    network_from_json,
    network_to_json,
    solve_primal_negcorr,
)


def test_build_single_neuron():
    net = build_network_ortho(np.array([1.0, 0.0]), None)
    assert net.width == 1
    assert abs(net.regularizer() - 1.0) < 1e-12
    assert abs(net.predict(np.array([[1.0, 0.0]]))[0] - 1.0) < 1e-12


def test_build_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    net = build_network_ortho(np.array([1.0]), np.array([-1.0]))
    ev = evaluate_network(net, ds)
    assert abs(ev.regularizer - 2.0) < 1e-12
    assert np.allclose(ev.margins, 1.0)
    assert ev.feasible


def test_build_zero_direction():
    with pytest.raises(ZeroDirection):
        build_network_ortho(np.zeros(2), None)


def test_ortho_network_matches_dual_objective():
    for seed in range(6):
        ds = generate_synthetic("orthogonal_separable", 10, 3, seed)
        cert = solve_dual_ortho(ds)
        net = build_network_ortho(
            cert.meta["u_plus"] if ds.n_plus else None,
            cert.meta["u_minus"] if ds.n_minus else None,
        )
        ev = evaluate_network(net, ds)
        assert ev.feasible
        assert abs(ev.regularizer - cert.objective) <= 1e-6 * (1 + cert.objective)


def test_ortho_network_exact_margins_regression():
    # each direction is a nonnegative combination of its own class's rows,
    # so it never activates on the other class and the margins stay exact
    ds = generate_synthetic("orthogonal_separable", 8, 4, seed=1440696408)
    cert = solve_dual_ortho(ds, tol=1e-9)
    u_plus, u_minus = cert.meta["u_plus"], cert.meta["u_minus"]
    ev = evaluate_network(build_network_ortho(u_plus, u_minus), ds)
    assert ev.feasible
    assert float(ev.margins.min()) >= 1.0 - 1e-9
    scale = float(np.abs(ds.X).max()) * max(np.linalg.norm(u_plus), np.linalg.norm(u_minus))
    assert float(np.max(ds.X_minus @ u_plus)) <= 1e-12 * scale
    assert float(np.max(ds.X_plus @ u_minus)) <= 1e-12 * scale


def test_evaluate_hinge_zero_network():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    net = ReluNetwork(W1=np.zeros((1, 1)), w2=np.zeros(1))
    ev = evaluate_network(net, ds, LossModel.hinge(2.0))
    assert abs(ev.objective - 2.0) < 1e-12  # n * ell(0)


def test_evaluate_dimension_mismatch():
    ds = Dataset([[1.0, 0.0]], [1])
    net = ReluNetwork(W1=np.zeros((3, 1)), w2=np.zeros(1))
    with pytest.raises(DimensionMismatch):
        evaluate_network(net, ds)


def test_relu_homogeneity_changes_reg_not_function():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((5, 2)), np.where(rng.random(5) < 0.5, 1, -1))
    W1 = rng.standard_normal((2, 3))
    w2 = rng.standard_normal(3)
    net = ReluNetwork(W1=W1, w2=w2)
    scaled = ReluNetwork(W1=2.0 * W1, w2=0.5 * w2)
    assert np.allclose(net.predict(ds.X), scaled.predict(ds.X))
    assert abs(net.regularizer() - scaled.regularizer()) > 1e-9


def test_certify_fixtures():
    assert certify(2.0, 2.0, 1.0).accepted
    # 2.6 > 2 * sqrt(pi/2) = 2.5066, so the sqrt(2/pi) certificate rejects
    assert not certify(2.6, 2.0, math.sqrt(2.0 / math.pi)).accepted
    assert certify(2.5, 2.0, math.sqrt(2.0 / math.pi)).accepted
    assert not certify(1.9, 2.0, 1.0).accepted  # weak-duality violation


def test_network_json_round_trip():
    net = GatedReluNetwork(
        H=np.array([[1.0, 0.0]]).T @ np.ones((1, 2)),
        W1=np.array([[0.5], [1.0]]) @ np.ones((1, 2)),
        w2=np.array([1.0, -2.0]),
    )
    back = network_from_json(network_to_json(net))
    assert isinstance(back, GatedReluNetwork)
    X = np.random.default_rng(1).standard_normal((4, 2))
    assert np.allclose(net.predict(X), back.predict(X))


def test_negcorr_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    res = solve_primal_negcorr(ds, seed=0)
    assert abs(res.p - 2.0) < 1e-6
    ev = evaluate_network(res.network, ds)
    assert ev.feasible and np.all(ev.margins >= 1.0 - 1e-9)


def test_negcorr_hinge_large_beta_zero_network():
    ds = generate_synthetic("negative_correlation", 8, 3, seed=2)
    res = solve_primal_negcorr(ds, LossModel.hinge(beta=50.0), seed=0)
    assert abs(res.p - ds.n) < 1e-6
    ev = evaluate_network(res.network, ds, LossModel.hinge(beta=50.0))
    assert abs(ev.objective - res.p) < 1e-8


def test_negcorr_objective_reproduced_by_network():
    for seed in range(3):
        ds = generate_synthetic("negative_correlation", 10, 3, seed=seed)
        res = solve_primal_negcorr(ds, seed=seed)
        ev = evaluate_network(res.network, ds)
        assert abs(ev.regularizer - res.p) <= 1e-9 * (1 + res.p)
        assert ev.feasible


def test_negcorr_gate_sign_split():
    # gates built from one class stay non-activating on the other class
    ds = generate_synthetic("negative_correlation", 12, 3, seed=4)
    res = solve_primal_negcorr(ds, seed=1)
    net = res.network
    pos_gates = net.w2 > 0
    if pos_gates.any():
        vals = ds.X_minus @ net.H[:, pos_gates]
        assert np.all(vals <= 1e-9)
    neg_gates = net.w2 < 0
    if neg_gates.any():
        vals = ds.X_plus @ net.H[:, neg_gates]
        assert np.all(vals <= 1e-9)


def test_negcorr_vs_oracle_bounds():
    for seed in range(3):
        ds = generate_synthetic("negative_correlation", 10, 3, seed=seed + 10)
        P = exact_primal(ds, arch="relu", tol=1e-8).value
        res = solve_primal_negcorr(ds, eps0=0.1, delta=0.05, seed=seed)
        assert res.p >= P - 1e-6 * (1 + P)
        assert res.p <= math.sqrt(math.pi / 2.0) * 1.1 * P + 1e-6


def test_negcorr_rounding_no_cross_call_state(monkeypatch):
    # A, then B, then A again with the same seed: A's outputs repeat bit for
    # bit, so nothing from the rounding of one call reaches the next
    lp_calls = []
    lp = maxcut.realize_mask_lp

    def counted(*args, **kwargs):
        lp_calls.append(1)
        return lp(*args, **kwargs)

    monkeypatch.setattr(maxcut, "realize_mask_lp", counted)
    ds_a = generate_synthetic("negative_correlation", 10, 3, seed=7)
    ds_b = generate_synthetic("negative_correlation", 10, 3, seed=1)
    first = solve_primal_negcorr(ds_a, seed=3)
    assert lp_calls  # A's rounding reaches the LP fallback
    solve_primal_negcorr(ds_b, seed=3)
    again = solve_primal_negcorr(ds_a, seed=3)
    assert again.p == first.p
    for name in ("H", "W1", "w2"):
        assert np.array_equal(getattr(again.network, name), getattr(first.network, name))


def test_weak_duality_lower_bound():
    ds = generate_synthetic("negative_correlation", 10, 3, seed=21)
    res = solve_primal_negcorr(ds, seed=3)
    assert res.lower <= res.p + 1e-9 * (1 + res.p)


def test_negcorr_weak_duality_rule_matches_certify():
    # a lower bound 1e-8 (1 + p) above p passes a 1e-7 slack but not the
    # 1e-9 rule; the solver and certify must both reject it
    ds = generate_synthetic("negative_correlation", 8, 3, seed=5)
    cert = solve_dual_negcorr(ds)
    p = solve_primal_negcorr(ds, seed=1, dual_cert=cert).p
    lifted = dataclasses.replace(cert, objective=p + 1e-8 * (1.0 + p))
    assert not certify(p, lifted.objective, 1.0).accepted
    with pytest.raises(CertificateViolation, match="weak duality"):
        solve_primal_negcorr(ds, seed=1, dual_cert=lifted)


def test_negcorr_rejects_certificate_without_block_info():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    with pytest.raises(ValueError, match="label-block"):
        solve_primal_negcorr(ds, dual_cert=solve_dual_ortho(ds))


def test_negcorr_rejects_certificate_of_other_size():
    ds = generate_synthetic("negative_correlation", 8, 3, seed=5)
    other = generate_synthetic("negative_correlation", 9, 3, seed=5)
    with pytest.raises(ValueError, match="another dataset"):
        solve_primal_negcorr(ds, dual_cert=solve_dual_negcorr(other))


def test_negcorr_rejects_sign_infeasible_certificate():
    # the mirrored dataset has every label flipped, so its lam has the wrong
    # sign on every row of ds
    ds = generate_synthetic("negative_correlation", 8, 3, seed=5)
    mirrored = Dataset(-ds.X, -ds.y)
    with pytest.raises(ValueError, match="another dataset"):
        solve_primal_negcorr(ds, dual_cert=solve_dual_negcorr(mirrored))


def test_negcorr_rejects_certificate_of_rescaled_data():
    # same size and labels, so lam has the right shape and signs: only the
    # recorded dataset tells the certificate apart
    ds = generate_synthetic("negative_correlation", 8, 3, seed=0)
    with pytest.raises(ValueError, match="another dataset"):
        solve_primal_negcorr(ds, dual_cert=solve_dual_negcorr(Dataset(ds.X * 0.5, ds.y)))


def test_negcorr_rejects_certificate_of_other_loss():
    ds = generate_synthetic("negative_correlation", 8, 3, seed=0)
    cert = solve_dual_negcorr(ds)
    assert cert.dataset == ds and cert.loss == LossModel.max_margin()
    with pytest.raises(ValueError, match="another dataset or loss"):
        solve_primal_negcorr(ds, LossModel.hinge(0.5), dual_cert=cert)


def test_negcorr_doubling_retry_certifies(monkeypatch):
    # one draw per block: the first masked program is infeasible, so the
    # block doubles its draws and the retry certifies
    raised = []
    solve = primal.solve_min_sum_norms

    def counted(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except Infeasible:
            raised.append(args)
            raise

    monkeypatch.setattr(primal, "solve_min_sum_norms", counted)
    ds = generate_synthetic("negative_correlation", 10, 3, seed=2)
    res = solve_primal_negcorr(ds, seed=2, k_override=1)
    assert raised
    assert res.k == (1, 1)
    assert res.p >= res.lower - 1e-9 * (1 + res.lower)
    ev = evaluate_network(res.network, ds)
    assert ev.feasible
    assert abs(ev.objective - res.p) <= 1e-9 * (1 + res.p)


@pytest.mark.parametrize("loss", [LossModel.max_margin(), LossModel.hinge(0.5)], ids=lambda l: l.name)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("label", [1, -1])
def test_negcorr_one_label_data(loss, seed, label):
    # one block is empty: its dual block is empty and the primal skips it
    X = np.random.default_rng(seed).standard_normal((6, 3))
    ds = Dataset(X, np.full(6, label))
    cert = solve_dual_negcorr(ds, loss)
    assert cert.meta["block_info"][label == 1] == {"eps": 0.0}
    res = solve_primal_negcorr(ds, loss, seed=seed)
    assert res.k[label == 1] == 0
    assert res.p >= res.lower - 1e-9 * (1 + res.lower)
    P = exact_primal(ds, loss).value
    assert res.p >= P - 1e-6 * (1 + P)
    ev = evaluate_network(res.network, ds, loss)
    assert ev.feasible
    assert abs(ev.objective - res.p) <= 1e-9 * (1 + res.p)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(4, 8), st.integers(2, 3), st.integers(0, 10_000))
def test_negcorr_certified_property(n, d, seed):
    try:
        ds = generate_synthetic("negative_correlation", n, d, seed)
    except GenerationFailed:
        assume(False)
    res = solve_primal_negcorr(ds, seed=seed)
    assert res.p >= res.lower - 1e-9 * (1 + abs(res.lower))
    ev = evaluate_network(res.network, ds)
    assert abs(ev.regularizer - res.p) <= 1e-6 * (1 + res.p)
    assert ev.margins.min() >= 1.0 - 1e-6
    assert check_dual_feasibility(ds, res.dual.lam).feasible
