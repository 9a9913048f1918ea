import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reluapprox import cli, errors, oracle
from reluapprox.cli import main
from reluapprox.dataset import generate_synthetic, save_dataset
from reluapprox.errors import CertificateViolation
from reluapprox.oracle import exact_dual


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,y\n1,1\n-1,-1\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify(capsys, toy_csv):
    code, out = run_cli(capsys, "classify", "--input", toy_csv)
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "orthogonal_separable"
    assert report["schema"] == "v1"


def test_solve_auto_two_point_line(capsys, toy_csv):
    code, out = run_cli(capsys, "solve", "--input", toy_csv, "--method", "auto", "--loss", "maxmargin")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "ortho"
    assert abs(report["p"] - 2.0) < 1e-6
    assert abs(report["factor"] - 1.0) < 1e-6
    assert report["certified"]


def test_solve_regime_mismatch_exit_3(capsys, tmp_path):
    path = tmp_path / "gen.csv"
    path.write_text("x1,x2,y\n1,0,1\n0.5,0.866,-1\n")
    code, out = run_cli(capsys, "solve", "--input", str(path), "--method", "ortho")
    assert code == 3
    report = json.loads(out)
    assert report["error"]["type"] == "WrongRegime"


def test_solve_deterministic_modulo_wall_time(capsys, tmp_path):
    ds = generate_synthetic("negative_correlation", 8, 2, seed=6)
    path = tmp_path / "nc.csv"
    save_dataset(ds, str(path))
    argv = ["solve", "--input", str(path), "--method", "negcorr", "--seed", "3", "--k", "40"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_solve_auto_never_selects_rejected_regime(capsys, tmp_path):
    for kind, expect in [
        ("orthogonal_separable", "ortho"),
        ("negative_correlation", "negcorr"),
        ("general", "geo"),
    ]:
        ds = generate_synthetic(kind, 8, 2, seed=1)
        path = tmp_path / f"{kind}.csv"
        save_dataset(ds, str(path))
        code, out = run_cli(
            capsys, "solve", "--input", str(path), "--method", "auto", "--seed", "0", "--k", "30"
        )
        assert code == 0, out
        assert json.loads(out)["method"] == expect


def test_verify_tampered_network(capsys, tmp_path, toy_csv):
    net_path = tmp_path / "net.json"
    code, out = run_cli(capsys, "solve", "--input", toy_csv, "--output", str(net_path))
    assert code == 0
    net = json.loads(net_path.read_text())
    net["w2"] = [0.1 * v for v in net["w2"]]  # tamper: margins collapse
    net_path.write_text(json.dumps(net))
    code, out = run_cli(capsys, "verify", "--network", str(net_path), "--input", toy_csv)
    assert code == 0  # verification is a query, not an error
    report = json.loads(out)
    assert report["feasible"] is False


def test_oracle_command(capsys, toy_csv):
    code, out = run_cli(capsys, "oracle", "--input", toy_csv)
    assert code == 0
    report = json.loads(out)
    assert abs(report["D"] - 2.0) < 1e-6
    assert abs(report["P_relu"] - 2.0) < 1e-6
    assert abs(report["c_star"] - 1.0) < 1e-6


def test_oracle_enumerates_patterns_once(capsys, tmp_path, monkeypatch):
    calls = []
    enumerate_patterns = oracle.enumerate_patterns

    def counted(X):
        calls.append(X.shape)
        return enumerate_patterns(X)

    monkeypatch.setattr(cli, "enumerate_patterns", counted)
    monkeypatch.setattr(oracle, "enumerate_patterns", counted)
    ds = generate_synthetic("general", 7, 2, seed=0)
    path = tmp_path / "gen.csv"
    save_dataset(ds, str(path))
    code, out = run_cli(capsys, "oracle", "--input", str(path))
    assert code == 0, out
    assert "D" in json.loads(out)  # both primals and the dual ran
    assert calls == [(7, 2)]


def test_oracle_solves_the_relu_program_once(capsys, tmp_path, monkeypatch):
    # the max-margin ReLU program gives P_relu, D and lambda*; the gated one P_gated
    calls = []
    solve = oracle.solve_min_sum_norms

    def counted(prob, **kwargs):
        calls.append(prob.k)
        return solve(prob, **kwargs)

    monkeypatch.setattr(oracle, "solve_min_sum_norms", counted)
    ds = generate_synthetic("general", 7, 2, seed=0)
    path = tmp_path / "gen.csv"
    save_dataset(ds, str(path))
    code, out = run_cli(capsys, "oracle", "--input", str(path))
    assert code == 0, out
    report = json.loads(out)
    assert len(calls) == 2
    D, lam_star = exact_dual(ds, tol=1e-8)
    assert report["D"] == D
    assert report["lam_star"] == lam_star.tolist()


_FLAGS = {
    "classify": {"--input", "--tol-class"},
    "solve": {
        "--input", "--loss", "--beta", "--tol", "--seed", "--output",
        "--method", "--c", "--eps0", "--delta", "--k",
    },
    "verify": {"--input", "--loss", "--beta", "--network", "--p", "--lower", "--rho"},
    "oracle": {"--input", "--loss", "--beta", "--tol"},
    "maxcut": {"--matrix", "--k", "--seed"},
    "experiment": {"--n", "--d", "--seeds", "--eps0", "--delta", "--loss", "--beta", "--output"},
}


def test_parser_flags_per_subcommand():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert flags == _FLAGS
    assert sum(map(len, flags.values())) == 35


@pytest.mark.parametrize("flags", [["--p", "1"], ["--lower", "1"]])
def test_verify_needs_p_and_lower_together(capsys, tmp_path, toy_csv, flags):
    net_path = tmp_path / "net.json"
    assert run_cli(capsys, "solve", "--input", toy_csv, "--output", str(net_path))[0] == 0
    code = main(["verify", "--network", str(net_path), "--input", toy_csv, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "ValueError"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("network", [[[1.0, 2.0]], {"W1": 1.0, "w2": [1.0]}, {"W1": [[1.0]]}, "net"])
def test_verify_malformed_network_exit_2(capsys, tmp_path, toy_csv, network):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(network))
    code = main(["verify", "--network", str(net_path), "--input", toy_csv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "ValueError"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("k", ["0", "1"])
def test_maxcut_needs_two_samples(capsys, tmp_path, k):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([[2.0, 1.0], [1.0, 2.0]]))
    code, out = run_cli(capsys, "maxcut", "--matrix", str(path), "--k", k)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("matrix", [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], []], ids=["3x2", "empty"])
def test_maxcut_needs_nonempty_square_matrix(capsys, tmp_path, matrix):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(matrix))
    code, out = run_cli(capsys, "maxcut", "--matrix", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert "nonempty square matrix" in error["message"]


def test_verify_accepts_consistent_bounds(capsys, tmp_path, toy_csv):
    net_path = tmp_path / "net.json"
    code, out = run_cli(capsys, "solve", "--input", toy_csv, "--output", str(net_path))
    assert code == 0
    solved = json.loads(out)
    code, out = run_cli(
        capsys, "verify", "--network", str(net_path), "--input", toy_csv,
        "--p", repr(solved["p"]), "--lower", repr(solved["lower"]),
    )
    assert code == 0
    gate = json.loads(out)["certificate"]
    assert gate["accepted"] is True
    assert gate["reason"] == "within certified ratio"


# exit 3 for a regime mismatch, 4 for a solver failure, 2 for every other error
_EXIT_CODES = {
    "WrongRegime": 3,
    **dict.fromkeys(
        [
            "SolverFailure", "NonConvergence", "Unrealizable", "Infeasible", "Unbounded",
            "CapExceeded", "FactorizationFailure", "GenerationFailed", "ZeroDenominator", "CertificateViolation",
        ],
        4,
    ),
}


@pytest.mark.parametrize(
    "exc_type",
    [obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, errors.ReluApproxError)],
    ids=lambda cls: cls.__name__,
)
def test_error_exit_codes(capsys, toy_csv, monkeypatch, exc_type):
    def failing(args, argv):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "_cmd_classify", failing)
    code, out = run_cli(capsys, "classify", "--input", toy_csv)
    assert code == _EXIT_CODES.get(exc_type.__name__, 2)
    report = json.loads(out)
    assert report["error"] == {"type": exc_type.__name__, "message": "boom"}
    assert report["command"] == ["classify", "--input", toy_csv]


def test_solve_classifies_with_exact_signs(capsys, tmp_path):
    # within 0.01 these rows look orthogonal separable, but (1, 0) and (-0.001, 1)
    # share a label and have a negative product
    path = tmp_path / "near.csv"
    path.write_text("x1,x2,y\n1,0,1\n-0.001,1,1\n-1,-0.5,-1\n")
    code, out = run_cli(capsys, "solve", "--input", str(path))
    assert code == 0, out
    report = json.loads(out)
    assert report["class"] == "negative_correlation" and report["method"] == "negcorr"
    assert report["certified"] is True
    code, out = run_cli(capsys, "classify", "--input", str(path), "--tol-class", "0.01")
    assert code == 0 and json.loads(out)["class"] == "orthogonal_separable"
    assert main(["solve", "--input", str(path), "--tol-class", "0.01"]) == 2


def test_maxcut_command(capsys, tmp_path):
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 5))
    Q = (B @ B.T / 5).tolist()
    path = tmp_path / "q.json"
    path.write_text(json.dumps(Q))
    code, out = run_cli(capsys, "maxcut", "--matrix", str(path), "--k", "2000")
    assert code == 0
    report = json.loads(out)
    assert report["opt"] <= report["sdp_bounds"][1] + 1e-6
    assert report["gw_lower_bound_check"]


def test_experiment_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "experiment", "--n", "6", "--d", "2",
        "--seeds", "2", "--eps0", "0.1", "--output", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "seed,p,P_exact,ratio,feasible"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) >= 1.0 - 1e-9  # p >= P


def test_usage_error_exit_2(capsys):
    code = main(["solve"])  # missing --input
    assert code == 2


@pytest.mark.parametrize("cmd,tol", [("solve", "nan"), ("solve", "0"), ("solve", "-1"), ("oracle", "-1")])
def test_tol_not_finite_positive_exit_2(capsys, toy_csv, cmd, tol):
    # solve --tol nan certified without a gap check; a negative tol ran a
    # full solve and then exited 4 with NonConvergence
    code, out = run_cli(capsys, cmd, "--input", toy_csv, "--tol", tol)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and "tol" in error["message"]


_GENERAL = json.loads(generate_synthetic("general", 8, 3, 0).to_json())


@pytest.mark.parametrize(
    "data, flags, error",
    [
        ({"X": [[1.0]], "y": ["1"]}, ["classify"], "BadLabel"),
        ({"X": [[1.0]], "y": [None]}, ["classify"], "BadLabel"),
        ({"X": [[1.0]], "y": [{}]}, ["solve"], "BadLabel"),
        ({"X": [[1.0]], "y": [1], "n": "1"}, ["classify"], "MalformedRow"),
        (_GENERAL, ["classify", "--tol-class", "nan"], "ValueError"),
        (_GENERAL, ["solve", "--loss", "hinge", "--beta", "inf"], "ValueError"),
        ({"X": [[1.0], [-1.0]], "y": [1, True]}, ["classify"], "BadLabel"),
        ({"X": [["1"], ["-1"]], "y": [1, -1]}, ["classify"], "MalformedRow"),
        ({"X": [[True], [-1.0]], "y": [1, -1]}, ["solve"], "MalformedRow"),
        ({"X": [[1.0, 2.0], [1.0]], "y": [1, -1]}, ["classify"], "MalformedRow"),
    ],
)
def test_bad_json_input_exit_2(capsys, tmp_path, data, flags, error):
    # a string, null or object label raised a TypeError traceback (exit 1);
    # a boolean label among numbers, and a string or boolean feature, were read
    # as numbers (exit 0); a ragged X raised numpy's ValueError;
    # --tol-class nan reported general data as orthogonal separable (exit 0);
    # --beta inf ran no interior-point step and exited 4 with NonConvergence
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, flags[0], "--input", str(path), *flags[1:])
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


@pytest.mark.parametrize("method", ["negcorr", "geo", "auto"])
@pytest.mark.parametrize("tol", ["nan", "1e-4"])
def test_solve_tol_with_method_that_ignores_it_exit_2(capsys, tmp_path, monkeypatch, method, tol):
    # negcorr and geo read no tolerance: --tol nan exited 0 with "certified": true
    def solved(*args, **kwargs):
        raise AssertionError("solver ran")

    monkeypatch.setattr(cli, "solve_primal_negcorr", solved)
    monkeypatch.setattr(cli, "solve_dual_geo", solved)
    ds = generate_synthetic("negative_correlation", 6, 2, seed=0)
    path = tmp_path / "nc.csv"
    save_dataset(ds, str(path))
    code, out = run_cli(capsys, "solve", "--input", str(path), "--method", method, "--tol", tol)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and "--tol" in error["message"]


def test_removed_eps_flag_is_usage_error(capsys, tmp_path):
    # --eps is gone; it must not be taken as an abbreviation of --eps0
    ds = generate_synthetic("general", 7, 2, seed=0)
    path = tmp_path / "gen.csv"
    save_dataset(ds, str(path))
    assert main(["solve", "--input", str(path), "--eps", "1e-3"]) == 2


def test_solve_geo_reports_certified_null(capsys, tmp_path):
    # geo builds no network and p is objective / rho, which the ratio
    # check would accept by construction
    ds = generate_synthetic("general", 7, 2, seed=0)
    path = tmp_path / "gen.csv"
    save_dataset(ds, str(path))
    code, out = run_cli(capsys, "solve", "--input", str(path), "--method", "geo")
    assert code == 0, out
    report = json.loads(out)
    assert report["method"] == "geo"
    assert report["network"] is None
    assert report["certified"] is None
    assert "side" not in report["diagnostics"]


def test_certificate_violation_exit_4(capsys, tmp_path, monkeypatch):
    def violated(*args, **kwargs):
        raise CertificateViolation("weak duality violated: p=0.5 below dual bound 1.0")

    monkeypatch.setattr(cli, "solve_primal_negcorr", violated)
    ds = generate_synthetic("negative_correlation", 6, 2, seed=1)
    path = tmp_path / "nc.csv"
    save_dataset(ds, str(path))
    code = main(["solve", "--input", str(path), "--method", "negcorr"])
    captured = capsys.readouterr()
    assert code == 4
    report = json.loads(captured.out)
    assert report["error"]["type"] == "CertificateViolation"
    assert "weak duality" in report["error"]["message"]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("flags", [["--delta", "0"], ["--eps0", "0"], ["--k", "-3"]])
def test_solve_bad_rounding_parameters_exit_2(capsys, tmp_path, flags):
    # found by the property test below: --delta 0 divided by zero in the sample count
    ds = generate_synthetic("negative_correlation", 6, 2, seed=0)
    path = tmp_path / "nc.csv"
    save_dataset(ds, str(path))
    code, out = run_cli(capsys, "solve", "--input", str(path), "--method", "negcorr", *flags)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


@settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    edits=st.sampled_from(["none", "duplicate", "zero"]),
    cmd=st.sampled_from(["classify", "solve", "oracle"]),
    loss=st.sampled_from(["maxmargin", "hinge", "squared_hinge"]),
    beta=st.sampled_from(["1", "0.3", "2", "0", "-1"]),
    tol=st.sampled_from([None, "1e-8", "1e-4", "0", "1e-15"]),
    method=st.sampled_from(["auto", "ortho", "negcorr", "geo"]),
    c=st.sampled_from(["0.5", "0.9", "0", "1", "-0.5"]),
    eps0=st.sampled_from(["0.3", "1", "0", "-0.1"]),
    delta=st.sampled_from(["0.1", "0.9", "0", "1", "-1"]),
    k=st.sampled_from([None, "5", "1", "0", "-3"]),
)
def test_cli_never_raises_property(tmp_path, n, d, seed, edits, cmd, loss, beta, tol, method, c, eps0, delta, k):
    rng = np.random.default_rng(seed)
    X = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=(n, d))
    y = rng.choice([-1, 1], size=n)
    if edits == "duplicate":
        X[-1], y[-1] = X[0], -y[0]
    elif edits == "zero":
        X[-1] = 0.0
    path = tmp_path / "data.csv"
    path.write_text(
        ",".join([f"x{i + 1}" for i in range(d)] + ["y"]) + "\n"
        + "".join(",".join([repr(float(v)) for v in row] + [str(int(lab))]) + "\n" for row, lab in zip(X, y))
    )
    argv = [cmd, "--input", str(path)]
    if cmd == "classify":
        argv += ["--tol-class", tol] if tol is not None else []
    else:
        argv += ["--loss", loss, "--beta", beta] + (["--tol", tol] if tol is not None else [])
    if cmd == "solve":
        argv += ["--method", method, "--c", c, "--eps0", eps0, "--delta", delta]
        argv += ["--k", k] if k is not None else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code != 2:
        report = json.loads(out.getvalue())
        assert isinstance(report, dict)
        assert ("error" in report) == (code != 0)
