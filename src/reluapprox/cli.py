"""Command-line front end: classify, solve, verify, oracle, maxcut, experiment.

Every command prints a machine-readable JSON report (schema v1) on stdout;
``experiment`` emits CSV rows for plotting instead. Exit codes: 0 success,
2 usage, 3 regime mismatch, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .dataset import LOSS_NAMES, Dataset, LossModel, classify_dataset, generate_synthetic, load_dataset
from .dual import (
    check_dual_feasibility,
    geometric_ratio,
    solve_dual_geo,
    solve_dual_ortho,
)
from .errors import ReluApproxError, SolverFailure, WrongRegime, ZeroDenominator
from .maxcut import BRUTE_CAP, gw_round, maxcut_bruteforce, sdp_relaxation
from .oracle import enumerate_patterns, exact_primal
from .primal import (
    build_network_ortho,
    certify,
    evaluate_network,
    network_from_json,
    network_to_json,
    solve_primal_negcorr,
)

def _fingerprint(ds: Dataset) -> dict:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.X).tobytes())
    h.update(np.ascontiguousarray(ds.y).tobytes())
    return {"n": ds.n, "d": ds.d, "sha256": h.hexdigest()}


def _emit(argv, fields: dict, code: int = 0) -> int:
    """Print one JSON report: the schema, the command line, then ``fields``."""
    print(json.dumps({"schema": "v1", "command": list(argv), **fields}, sort_keys=True))
    return code


def _error_report(argv, exc, code) -> int:
    return _emit(argv, {"error": {"type": type(exc).__name__, "message": str(exc)}}, code)


def _loss_from_args(args) -> LossModel:
    return LossModel.by_name(args.loss, beta=args.beta)


def _cmd_classify(args, argv) -> int:
    ds = load_dataset(args.input)
    cls = classify_dataset(ds, tol=args.tol_class)
    return _emit(
        argv,
        {
            "dataset": _fingerprint(ds),
            "class": cls.tag,
            "witness": list(cls.witness) if cls.witness else None,
        },
    )


def _solve_ortho(ds, loss, args):
    cert = solve_dual_ortho(ds, loss, tol=1e-8 if args.tol is None else args.tol)
    u_plus = cert.meta["u_plus"] if ds.n_plus else None
    u_minus = cert.meta["u_minus"] if ds.n_minus else None
    net = build_network_ortho(u_plus, u_minus)
    ev = evaluate_network(net, ds, loss)
    p = ev.objective
    return p, cert, net, 1.0, {"margins_min": float(ev.margins.min())}


def _solve_negcorr(ds, loss, args):
    res = solve_primal_negcorr(
        ds, loss, eps0=args.eps0, delta=args.delta, seed=args.seed, k_override=args.k
    )
    ev = evaluate_network(res.network, ds, loss)
    rho_claim = (2.0 / math.pi) / (1.0 + args.eps0)
    return (
        res.p,
        res.dual,
        res.network,
        rho_claim,
        {
            "k": list(res.k),
            "C1": [v if math.isfinite(v) else None for v in res.C1],
            "C2": res.C2,
            "margins_min": float(ev.margins.min()),
            "feasible": ev.feasible,
        },
    )


def _solve_geo(ds, loss, args):
    cert = solve_dual_geo(ds, c=args.c, loss=loss)
    p = cert.meta["p_derived"]
    return p, cert, None, cert.rho, {"c": args.c}


def _cmd_solve(args, argv) -> int:
    ds = load_dataset(args.input)
    loss = _loss_from_args(args)
    # exact signs, as the solvers classify: a method outside its regime
    # raises WrongRegime there
    cls = classify_dataset(ds)
    method = args.method
    if method == "auto":
        method = {"orthogonal_separable": "ortho", "negative_correlation": "negcorr"}.get(
            cls.tag, "geo"
        )
    if args.tol is not None and method != "ortho":
        # only the cone programs of --method ortho read a gap tolerance
        raise ValueError(f"--tol applies to --method ortho only; --method {method} takes no tolerance")
    t0 = time.perf_counter()
    solver = {"ortho": _solve_ortho, "negcorr": _solve_negcorr, "geo": _solve_geo}[method]
    p, cert, net, rho_claim, diag = solver(ds, loss, args)
    wall = time.perf_counter() - t0
    # with no network (geo) p is the dual objective over rho, which the
    # ratio check accepts by construction: nothing is certified
    certified = certify(p, cert.objective, rho_claim).accepted if net is not None else None
    net_json = json.loads(network_to_json(net)) if net is not None else None
    if args.output and net is not None:
        with open(args.output, "w") as fh:
            fh.write(network_to_json(net))
    report = {
        "dataset": _fingerprint(ds),
        "class": cls.tag,
        "method": method,
        "loss": loss.name,
        "p": p,
        "lower": cert.objective,
        "factor": p / cert.objective if cert.objective > 0 else None,
        "rho_claimed": rho_claim,
        "certified": certified,
        "seed": args.seed,
        "wall_time_s": wall,
        "diagnostics": diag,
        "network": net_json,
    }
    return _emit(argv, report)


def _cmd_verify(args, argv) -> int:
    if (args.p is None) != (args.lower is None):
        raise ValueError("--p and --lower must be given together")
    ds = load_dataset(args.input)
    loss = _loss_from_args(args)
    with open(args.network) as fh:
        net = network_from_json(fh.read())
    ev = evaluate_network(net, ds, loss)
    report = {
        "dataset": _fingerprint(ds),
        "objective": ev.objective,
        "regularizer": ev.regularizer,
        "margins_min": float(ev.margins.min()) if ev.margins.size else None,
        "feasible": ev.feasible,
    }
    if args.p is not None:
        gate = certify(args.p, args.lower, args.rho)
        report["certificate"] = {
            "accepted": gate.accepted,
            "reason": gate.reason,
            "p": args.p,
            "lower": args.lower,
            "rho": args.rho,
        }
    return _emit(argv, report)


def _cmd_oracle(args, argv) -> int:
    ds = load_dataset(args.input)
    loss = _loss_from_args(args)
    patterns = enumerate_patterns(ds.X)
    pr = exact_primal(ds, loss, arch="relu", patterns=patterns, tol=args.tol)
    pg = exact_primal(ds, loss, arch="gated", patterns=patterns, tol=args.tol)
    report = {
        "dataset": _fingerprint(ds),
        "P_relu": pr.value,
        "P_gated": pg.value,
    }
    if loss.name == "maxmargin":
        # the max-margin ReLU program is the exact dual's: D is its value and
        # lambda* its label-signed multipliers, as exact_dual reads them
        D, lam_star = pr.value, ds.y * pr.lam
        report["D"] = D
        report["lam_star"] = lam_star.tolist()
        report["constraint_value"] = check_dual_feasibility(ds, lam_star).constraint_value
        if ds.n_minus > 0:
            try:
                gr = geometric_ratio(ds, lam_star)
                report["c_star"] = gr.c_star
            except ZeroDenominator:
                report["c_star"] = None
    return _emit(argv, report)


def _cmd_maxcut(args, argv) -> int:
    if args.k < 2:
        raise ValueError("--k must be at least 2: the standard error needs two samples")
    with open(args.matrix) as fh:
        Q = np.array(json.load(fh), dtype=float)
    report = {"m": int(Q.shape[0])}
    sol = sdp_relaxation(Q)
    report["sdp"] = sol.objective
    report["sdp_bounds"] = [sol.lower, sol.upper]
    if Q.shape[0] <= BRUTE_CAP:
        opt, z = maxcut_bruteforce(Q)
        report["opt"] = opt
        report["z_star"] = [int(v) for v in z]
    batch = gw_round(sol.Z, Q, k=args.k, seed=args.seed)
    report["gw_mean"] = batch.mean
    report["gw_stderr"] = batch.stderr
    report["gw_lower_bound_check"] = batch.mean >= (2.0 / math.pi) * sol.objective - 4 * batch.stderr
    return _emit(argv, report)


def _cmd_experiment(args, argv) -> int:
    loss = _loss_from_args(args)
    rows = []
    for seed in range(args.seeds):
        ds = generate_synthetic("negative_correlation", args.n, args.d, seed=seed)
        P = exact_primal(ds, loss, arch="relu", tol=1e-8).value
        res = solve_primal_negcorr(ds, loss, eps0=args.eps0, delta=args.delta, seed=seed)
        ev = evaluate_network(res.network, ds, loss)
        rows.append(
            {
                "seed": seed,
                "p": res.p,
                "P_exact": P,
                "ratio": res.p / P,
                "feasible": ev.feasible,
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["seed", "p", "P_exact", "ratio", "feasible"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reluapprox",
        description="Convex-duality solvers and certified approximations for two-layer ReLU training",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # no abbreviated flags: a removed flag (say --eps) must not turn into another (--eps0)
    sub = parser.add_subparsers(dest="cmd", required=True)
    # each subcommand takes only the flags its handler reads

    def loss_flags(p):
        p.add_argument("--loss", default="maxmargin", choices=LOSS_NAMES)
        p.add_argument("--beta", type=float, default=1.0)

    p = sub.add_parser("classify", help="report the dataset regime", allow_abbrev=False)
    p.add_argument("--input", required=True, help="dataset CSV or JSON")
    p.add_argument("--tol-class", type=float, default=0.0, dest="tol_class")

    p = sub.add_parser("solve", help="solve by regime and emit a certified result", allow_abbrev=False)
    p.add_argument("--input", required=True, help="dataset CSV or JSON")
    loss_flags(p)
    p.add_argument("--tol", type=float, default=None, help="certified relative gap for --method ortho (default 1e-8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--method", default="auto", choices=["auto", "ortho", "negcorr", "geo"])
    p.add_argument("--c", type=float, default=0.5, help="geometric-ratio parameter for --method geo")
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--k", type=int, default=None, help="override the rounding sample count")

    p = sub.add_parser("verify", help="recompute a saved network against a dataset", allow_abbrev=False)
    p.add_argument("--input", required=True, help="dataset CSV or JSON")
    loss_flags(p)
    p.add_argument("--network", required=True)
    p.add_argument("--p", type=float, default=None, help="with --lower: check p against the bound")
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--rho", type=float, default=1.0)

    p = sub.add_parser("oracle", help="exact desk-scale values by pattern enumeration", allow_abbrev=False)
    p.add_argument("--input", required=True, help="dataset CSV or JSON")
    loss_flags(p)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("maxcut", help="brute force, SDP, and GW rounding on a matrix", allow_abbrev=False)
    p.add_argument("--matrix", required=True, help="JSON file with a symmetric PSD matrix")
    p.add_argument("--k", type=int, default=10000, help="rounding samples, at least 2")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("experiment", help="seed sweep emitting CSV of (seed, p, P, ratio)", allow_abbrev=False)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    loss_flags(p)
    p.add_argument("--output", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "classify": _cmd_classify,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "maxcut": _cmd_maxcut,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.cmd](args, argv)
    except WrongRegime as exc:
        return _error_report(argv, exc, 3)
    except SolverFailure as exc:
        return _error_report(argv, exc, 4)
    except (OSError, ValueError, ReluApproxError) as exc:
        return _error_report(argv, exc, 2)


if __name__ == "__main__":
    sys.exit(main())
