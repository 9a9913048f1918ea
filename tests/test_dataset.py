import json

import numpy as np
import pytest

from reluapprox.dataset import (
    GENERAL,
    LOSS_NAMES,
    NEGATIVE_CORRELATION,
    ORTHO_SEPARABLE,
    Dataset,
    LossModel,
    classify_dataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from reluapprox.errors import BadLabel, MalformedRow, ZeroSample


def test_load_two_point_line(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,y\n1,1\n-1,-1\n")
    ds = load_dataset(str(path))
    assert (ds.n, ds.d) == (2, 1)
    assert np.array_equal(ds.X_plus, [[1.0]])
    assert np.array_equal(ds.X_minus, [[-1.0]])


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1,1\n0.5,0\n")
    with pytest.raises(BadLabel):
        load_dataset(str(path))


def test_load_rejects_wrong_arity(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1,2,1\n1,1\n")
    with pytest.raises(MalformedRow):
        load_dataset(str(path))


def test_zero_row_rejected():
    with pytest.raises(ZeroSample):
        Dataset([[0.0, 0.0], [1.0, 0.0]], [1, -1])


def test_json_round_trip(tmp_path):
    ds = generate_synthetic(NEGATIVE_CORRELATION, 8, 3, seed=4)
    path = tmp_path / "ds.json"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_csv_round_trip(tmp_path):
    ds = generate_synthetic(GENERAL, 6, 2, seed=1)
    path = tmp_path / "ds.csv"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_json_schema_fields():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    obj = json.loads(ds.to_json())
    assert set(obj) == {"n", "d", "X", "y"}


def test_classify_two_point_line():
    ds = Dataset([[1.0], [-1.0]], [1, -1])
    assert classify_dataset(ds, 0.0).tag == ORTHO_SEPARABLE


def test_classify_general_with_witness():
    ds = Dataset([[1.0, 0.0], [0.5, 0.866]], [1, -1])
    cls = classify_dataset(ds, 0.0)
    assert cls.tag == GENERAL
    assert cls.witness == (1, 0)  # cross product 0.5 > 0


def test_classify_three_point_gram():
    # x1'x2 = 1 >= 0, x1'x3 = -1 <= 0, x2'x3 = -0.8 <= 0: every Gram block
    # satisfies its sign condition, hence orthogonal separable
    ds = Dataset([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.2]], [1, 1, -1])
    assert classify_dataset(ds, 0.0).tag == ORTHO_SEPARABLE


def test_classify_monotone_in_tol():
    order = {ORTHO_SEPARABLE: 0, NEGATIVE_CORRELATION: 1, GENERAL: 2}
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        ds = Dataset(rng.standard_normal((n, d)) + 0.1, np.where(rng.random(n) < 0.5, 1, -1))
        tols = [0.0, 0.01, 0.1, 1.0, 10.0]
        ranks = [order[classify_dataset(ds, t).tag] for t in tols]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def _classify_by_argwhere(ds, tol):
    # the reference: list every violation, report the first
    bad = np.argwhere(ds.X_minus @ ds.X_plus.T > tol)
    if bad.size:
        return GENERAL, (int(ds.neg_idx[bad[0][0]]), int(ds.pos_idx[bad[0][1]]))
    for block, idx in ((ds.X_plus, ds.pos_idx), (ds.X_minus, ds.neg_idx)):
        bad = np.argwhere(block @ block.T < -tol)
        if bad.size:
            return NEGATIVE_CORRELATION, (int(idx[bad[0][0]]), int(idx[bad[0][1]]))
    return ORTHO_SEPARABLE, None


def test_classify_witness_matches_argwhere():
    # small integer entries make Gram entries exact integers, so many sit
    # exactly at the threshold tol and many are tied with each other
    rng = np.random.default_rng(11)
    tags = set()
    for _ in range(400):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = (1, -1)
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
        X[~X.any(axis=1), 0] = 1.0  # no zero sample
        if rng.random() < 0.5:  # every cross product negative: the negatives on -e1 only
            X[:, 0] = np.abs(X[:, 0]) + 1.0
            X[y == -1, 1:] = 0.0
            X[y == -1, 0] *= -1.0
        ds = Dataset(X, y)
        for tol in (0.0, 1.0, 2.0):
            cls = classify_dataset(ds, tol)
            assert (cls.tag, cls.witness) == _classify_by_argwhere(ds, tol)
            tags.add(cls.tag)
    assert tags == {ORTHO_SEPARABLE, NEGATIVE_CORRELATION, GENERAL}


@pytest.mark.parametrize("kind,n,d,seed", [
    (ORTHO_SEPARABLE, 8, 3, 7),
    (GENERAL, 6, 2, 1),
    (NEGATIVE_CORRELATION, 10, 3, 2),
])
def test_generate_classifies_as_requested(kind, n, d, seed):
    ds = generate_synthetic(kind, n, d, seed)
    assert classify_dataset(ds, tol=0.0).tag == kind


def test_generate_rejects_cells_it_cannot_fill():
    # negative correlation needs a class with two rows that can meet at an
    # obtuse angle; general data needs both labels and a second dimension.
    # Every other cell of the grid is filled.
    for n in range(1, 7):
        for d in range(1, 5):
            never = {
                ORTHO_SEPARABLE: False,
                NEGATIVE_CORRELATION: d == 1 or n <= 2 or (n, d) == (3, 2),
                GENERAL: n == 1 or d == 1,
            }
            for kind, impossible in never.items():
                if impossible:
                    with pytest.raises(ValueError, match=kind):
                        generate_synthetic(kind, n, d, seed=0)
                else:
                    assert classify_dataset(generate_synthetic(kind, n, d, seed=0)).tag == kind


def test_generate_deterministic():
    a = generate_synthetic(ORTHO_SEPARABLE, 8, 3, 7)
    b = generate_synthetic(ORTHO_SEPARABLE, 8, 3, 7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_generated_ortho_gram_signs_exact():
    for seed in range(10):
        ds = generate_synthetic(ORTHO_SEPARABLE, 9, 4, seed)
        Xp, Xm = ds.X_plus, ds.X_minus
        assert np.all(Xp @ Xp.T >= 0.0)
        assert np.all(Xm @ Xm.T >= 0.0)
        assert np.all(Xm @ Xp.T <= 0.0)


def test_split_merge_dual_round_trip():
    ds = generate_synthetic(GENERAL, 7, 2, seed=9)
    rng = np.random.default_rng(0)
    lam = rng.random(ds.n) * ds.y
    lp, lm = ds.split_dual(lam)
    assert np.all(lp >= 0) and np.all(lm >= 0)
    # exact both ways: callers recover the label blocks from the merged lam
    assert np.array_equal(ds.merge_dual(lp, lm), lam)
    back_p, back_m = ds.split_dual(ds.merge_dual(lp, lm))
    assert np.array_equal(back_p, lp) and np.array_equal(back_m, lm)


def test_loss_models():
    hinge = LossModel.hinge(0.5)
    assert hinge.box_upper == 1.0
    z = np.array([-1.0, 0.0, 0.5, 2.0])
    assert np.allclose(hinge.ell(z), [2.0, 1.0, 0.5, 0.0])
    sq = LossModel.squared_hinge(0.5)
    assert np.allclose(sq.ell(z), [4.0, 1.0, 0.25, 0.0])


def test_squared_hinge_g_matches_conjugate():
    # g(lam) = -ell*(-lam) = -sup_z(-lam z - ell(z)), checked on a grid
    sq = LossModel.squared_hinge(1.0)
    z = np.linspace(-30, 30, 300001)
    for lam in (0.0, 0.4, 1.0, 1.7):
        g_direct = -np.max(-lam * z - sq.ell(z))
        assert abs(float(sq.g(np.array([lam]))[0]) - g_direct) < 1e-6


def test_g_scaling_every_loss():
    # g(a lam) >= a g(lam) for a in (0, 1]: linear g, and for the squared hinge a^2 <= a
    lam = np.array([0.0, 0.3, 0.9, 1.7, 3.5])
    for name in LOSS_NAMES:
        loss = LossModel.by_name(name, 1.0)
        for a in (0.2, 0.7, 1.0):
            assert np.all(loss.g(a * lam) >= a * loss.g(lam) - 1e-12), name


def test_loss_model_is_its_name_and_beta():
    for name in LOSS_NAMES:
        assert LossModel.by_name(name, 0.5) == LossModel.by_name(name, 0.5)
    assert LossModel.by_name("maxmargin", 0.5) == LossModel.max_margin()
    assert LossModel.max_margin().beta == 1.0 and not LossModel.max_margin().penalized
    for name, beta in (("squared-hinge", 1.0), ("logistic", 1.0), ("maxmargin", 2.0), ("hinge", 0.0)):
        with pytest.raises(ValueError):
            LossModel(name, beta)
