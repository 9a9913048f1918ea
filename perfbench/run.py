"""Closed-loop benchmark of the reluapprox solver pipeline.

    python3 perfbench/run.py --workload ortho --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client sends each request after the previous one returned,
BLAS runs on one thread, and every output is checked outside the timed
region. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The lines before it record the environment, the input
fingerprint and each failed request.

``--trace 1`` runs a fixed number of requests, each once untraced and once
traced (alternating which goes first), so its counts repeat exactly for a
seed, the outputs of both runs can be compared bit for bit, and the
throughput ratio of the two is the tracing overhead. Spans are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5  # imports and set-ups per untraced run; setup_s sums their medians
# Failures known at commit 66d9d8b, by input fingerprint and type: an ortho
# instance (n=8, d=4) whose network has minimum margin 0.9999986 < 1 - 1e-6.
# They are counted and listed on every run; any other failure makes the run
# report correct: false.
KNOWN_FAILURES = {"300894558ca2d24c": "CheckFailed"}
HELD_OUT_SEED = 9001  # kept out of tuning; confirm claims on it

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "throughput_rps": "1/s",
    "factor.p50": "ratio",
    "peak_rss_mb": "MiB",
}

_LAYER_STATS = {
    "conic.solve_min_sum_norms": ("calls", "self_share", "iters", "blocks", "raised"),
    "conic.project_polyhedral_cone": ("calls", "self_share"),
    "conic.linprog": ("calls", "self_share"),
    "conic.ellipsoid_maximize": ("calls", "self_share", "iters"),
    "conic.box_lsq_batch": ("calls", "self_share", "rows"),
    "maxcut.sdp_relaxation": ("calls", "self_share", "iters", "warm_calls", "warm_hit_frac", "polished_frac"),
    "maxcut.c2_value_and_gradient": ("calls", "self_share"),
    "maxcut.realize_pattern": ("calls", "self_share", "lp_frac", "unrealizable"),
    "maxcut.realize_mask_lp": ("calls", "self_share"),
    "geometry.dual_constraint_maximin": ("calls", "self_share"),
    "oracle.enumerate_patterns": ("calls", "self_share", "patterns"),
    "oracle.exact_primal": ("self_share",),
    "dual.solve_dual_ortho": ("self_share",),
    "dual.solve_dual_negcorr": ("self_share",),
    "primal.solve_primal_negcorr": ("self_share",),
}
# Self time is reported as a share of the traced wall time: a layer that a
# workload never calls then reads 0 as a ratio, not as a time of 0 s.
_UNITS = {"self_share": "ratio", "warm_hit_frac": "ratio", "polished_frac": "ratio", "lp_frac": "ratio"}
PER_LAYER = {
    f"{layer}.{stat}": _UNITS.get(stat, "count")
    for layer, stats in _LAYER_STATS.items()
    for stat in stats
}
PER_LAYER.update({
    "other.self_share": "ratio",
    "trace.requests": "count",
    "trace.wall_s": "s",
    "trace.throughput_ratio": "ratio",
})


def blas_threads() -> str:
    """Thread count OpenBLAS reports, read through its C API."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "env:" + os.environ["OPENBLAS_NUM_THREADS"]


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A beta-weighted mean of all order statistics. Request costs cluster by
    dataset, so a single order statistic often sits in the gap between two
    clusters and jumps with one slow sample; this estimate moves far less.
    """
    from scipy.special import betainc

    n = len(values)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    weights = [betainc(a, b, (i + 1) / n) - betainc(a, b, i / n) for i in range(n)]
    return math.fsum(w * v for w, v in zip(weights, sorted(values)))


def import_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter importing numpy, scipy and the package."""
    code = (
        "import time; t = time.perf_counter(); "
        "import numpy, scipy.linalg, scipy.optimize, reluapprox; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(reps)
    ]
    return statistics.median(times)


def input_fingerprint(wl, suite: str, cycles: int = 64) -> str:
    """The suite plus the seeded request sequence of the first ``cycles`` cycles."""
    h = hashlib.sha256(suite.encode())
    for c in range(cycles):
        for req in wl.cycle(c):
            h.update(f"{req.rid}:{req.fingerprint};".encode())
    return h.hexdigest()[:16]


def do_setup(wl, reps: int) -> tuple[float, str]:
    """Build the suite ``reps`` times; every build must agree."""
    times, prints = [], set()
    for _ in range(reps):
        t0 = time.perf_counter()
        prints.add(wl.setup())
        times.append(time.perf_counter() - t0)
    if len(prints) != 1:
        raise RuntimeError(f"set-up is not deterministic: fingerprints {sorted(prints)}")
    return statistics.median(times), input_fingerprint(wl, prints.pop())


def attempt(wl, req):
    """Run one request; return (output, seconds, error)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(req)
    except Exception as exc:  # every failure, typed or not, is counted
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


def checked(wl, req, out):
    """Independent output check; return (factor, error)."""
    try:
        return wl.check(req, out), None
    except Exception as exc:
        return None, exc


def failure_record(req, exc) -> dict:
    kind = type(exc).__name__
    return {"rid": req.rid, "input": req.fingerprint, "type": kind, "message": str(exc)[:160],
            "known": KNOWN_FAILURES.get(req.fingerprint) == kind}


def is_correct(loop: dict) -> bool:
    """No failure beyond the known ones, and, in a traced run, a sound trace."""
    return (all(f["known"] for f in loop["failures"])
            and not loop.get("mismatches") and not loop.get("span_errors"))


def timed_loop(wl, seconds: float) -> dict:
    """Closed loop, one client, in whole cycles.

    A cycle starts only while the timed wall time plus half a mean cycle
    stays within ``seconds``, so the run measures about ``seconds``.
    """
    attempt(wl, wl.cycle(0)[0])  # warm-up: lazy imports and first-call costs
    latencies, factors, failures = [], [], []
    timed = 0.0
    attempted = cycles = 0
    while cycles == 0 or timed + 0.5 * timed / cycles <= seconds:
        for req in wl.cycle(cycles):
            attempted += 1
            out, dt, err = attempt(wl, req)
            timed += dt
            factor = None
            if err is None:
                factor, err = checked(wl, req, out)
            if err is not None:
                failures.append(failure_record(req, err))
                continue
            latencies.append(dt)
            if factor is not None:
                factors.append(factor)
        cycles += 1
    return {"attempted": attempted, "cycles": cycles, "latencies": latencies, "factors": factors,
            "failures": failures, "timed_s": timed}


def end_to_end(wl, loop: dict, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(loop["latencies"])
    metrics = {
        "setup_s": setup_s,
        "latency_s.p50": quantile(lat, 0.5) if lat else math.nan,
        "latency_s.tail": quantile(lat, wl.tail_pct / 100.0) if lat else math.nan,
        "throughput_rps": len(lat) / loop["timed_s"],
        "factor.p50": statistics.median(loop["factors"]) if loop["factors"] else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = len(lat) - max(1, math.ceil(wl.tail_pct / 100.0 * len(lat))) if lat else 0
    extra = {
        "fail_frac": len(loop["failures"]) / loop["attempted"],
        "latency_s.tail_pct": wl.tail_pct,
        "latency_s.tail_beyond": beyond,
        "completed": len(lat),
        "cycles": loop["cycles"],
        "timed_s": loop["timed_s"],
    }
    return metrics, extra


def traced_loop(wl, ra) -> dict:
    """Each request of the first cycle, untraced and traced."""
    from tracing import Patched, Tracer, layer_totals, span_errors

    tracer = Tracer()
    times = {False: 0.0, True: 0.0}
    failures, mismatches = [], []
    inside = {}  # rid -> traced wall time measured by attempt(), inside the root span
    todo = wl.cycle(0)
    for req in todo:
        outs = {}
        # Alternate by dataset, so each request type runs traced first on
        # half the datasets (on oracle the rid parity is the request type).
        for traced in ((False, True) if req.params["set"] % 2 == 0 else (True, False)):
            if traced:
                with Patched(tracer, ra), tracer.request(req.rid) as root:
                    outs[traced] = attempt(wl, req)
                times[True] += root.end - root.start
                inside[req.rid] = outs[traced][1]
            else:
                outs[traced] = attempt(wl, req)
                times[False] += outs[traced][1]
        (out, _, err), (out_t, _, err_t) = outs[False], outs[True]
        if err is None and err_t is None and wl.digest(out) != wl.digest(out_t):
            err = RuntimeError("output differs with tracing on")
            mismatches.append(req.rid)
        elif err is None and err_t is not None:
            err = err_t
        if err is None:
            err = checked(wl, req, out)[1]
        if err is not None:
            failures.append(failure_record(req, err))
    return {
        "attempted": len(todo),
        "failures": failures,
        "mismatches": mismatches,
        "tracer": tracer,
        "totals": layer_totals(tracer),
        "span_errors": span_errors(tracer, inside),
        "wall": times[True],
        "ratio": times[False] / times[True] if times[True] > 0 else math.nan,
    }


def per_layer(loop: dict) -> dict:
    totals = loop["totals"]
    metrics = {}
    for layer, stats in _LAYER_STATS.items():
        t = totals.get(layer, {})
        for stat in stats:
            if stat == "warm_hit_frac":
                value = t.get("warm_hits", 0.0) / t["warm_calls"] if t.get("warm_calls") else 0.0
            elif stat == "polished_frac":
                value = t.get("polished", 0.0) / t["calls"] if t.get("calls") else 0.0
            elif stat == "lp_frac":
                value = t.get("lp", 0.0) / t["calls"] if t.get("calls") else 0.0
            elif stat == "self_share":
                value = t.get("self_s", 0.0) / loop["wall"]
            elif stat == "unrealizable":
                value = t.get("raised.Unrealizable", 0.0)
            else:
                value = t.get(stat, 0.0)
            metrics[f"{layer}.{stat}"] = value
    metrics["other.self_share"] = sum(
        t["self_s"] for layer, t in totals.items() if layer not in _LAYER_STATS
    ) / loop["wall"]
    metrics["trace.requests"] = loop["attempted"]
    metrics["trace.wall_s"] = loop["wall"]
    metrics["trace.throughput_ratio"] = loop["ratio"]
    return metrics


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    selfs = tracer.self_times()
    with open(path, "w") as fh:
        for span, own in zip(tracer.spans, selfs):
            fh.write(json.dumps({
                "rid": span.rid, "id": span.sid, "parent": span.parent, "name": span.name,
                "start": span.start, "end": span.end, "self": own, "stats": span.stats,
            }) + "\n")
    return path


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "reluapprox" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'reluapprox'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reluapprox as ra

    if Path(ra.__file__).resolve().parent != (SRC / "reluapprox").resolve():
        print(f"error: imported reluapprox from {ra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    wl = WORKLOADS[args.workload](ra, args.seed)
    build_s, inputs = do_setup(wl, 1 if args.trace else SETUP_REPS)
    header = {"workload": wl.name, "why": wl.why, "env": environment(args.seed),
              "inputs": {"sha256_16": inputs, "suite": len(wl.suite)}}
    print(json.dumps(header))

    if args.trace:
        loop = traced_loop(wl, ra)
        metrics = per_layer(loop)
        units = PER_LAYER
        spans = write_spans(loop["tracer"], wl.name, args.seed)
        print(json.dumps({"trace": {"spans_file": str(spans.relative_to(ROOT)),
                                    "mismatched_requests": loop["mismatches"],
                                    "span_errors": loop["span_errors"][:20],
                                    "span_error_count": len(loop["span_errors"])}}))
    else:
        import_s = import_seconds(SETUP_REPS)
        loop = timed_loop(wl, args.seconds)
        metrics, extra = end_to_end(wl, loop, import_s + build_s)
        units = END_TO_END
        extra["import_s"] = import_s
        print(json.dumps({"extra": extra}))
        for name, value in metrics.items():
            print(f"{name:>16} {value:.6g} {units[name]}")
        print(f"{'fail_frac':>16} {extra['fail_frac']:.6g} ratio")
    for f in loop["failures"]:
        print(json.dumps({"failure": f}))
    failed = len(loop["failures"])
    print(json.dumps({
        "correct": is_correct(loop),
        "attempted": loop["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
