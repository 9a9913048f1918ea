"""Self-tests of the benchmark at toy size.

    python3 perfbench/selftest.py

They shrink every workload's sizes, then check that the command prints
every metric with its unit, that inputs and outputs follow the seed, that a
failing request is counted without ending the run, that only the known
failures keep a run correct, that the span checks catch a broken trace,
that a traced run repeats its counts exactly and leaves outputs
bit-identical, and that ``BENCHMARK.json`` names the workloads and metrics
the command emits.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import reluapprox as ra  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Request  # noqa: E402

TOY = {
    "ortho": {"n_range": (4, 5), "d_range": (2, 3)},
    "negcorr": {"n_range": (4, 5), "d_range": (2, 2)},
    "oracle": {"n_range": (5, 6), "d_range": (2, 2)},
}


@contextlib.contextmanager
def toy_sizes():
    saved = {name: {k: getattr(cls, k) for k in TOY[name]} for name, cls in WORKLOADS.items()}
    try:
        for name, cls in WORKLOADS.items():
            for k, v in TOY[name].items():
                setattr(cls, k, v)
        yield
    finally:
        for name, cls in WORKLOADS.items():
            for k, v in saved[name].items():
                setattr(cls, k, v)


def run_command(*args) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(args))
    assert code == 0, code
    return buf.getvalue().strip().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self._sizes = toy_sizes()
        self._sizes.__enter__()

    def tearDown(self):
        self._sizes.__exit__(None, None, None)

    def test_every_metric_with_unit_on_every_workload(self):
        for name in WORKLOADS:
            for trace, spec in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                lines = run_command("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace))
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(result["metrics"]), set(spec), name)
                for metric, unit in spec.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertIsInstance(result["metrics"][metric]["value"], (int, float))
                self.assertGreaterEqual(result["attempted"], 1)
                header = json.loads(lines[0])
                self.assertEqual(header["env"]["seed"], 3)
                self.assertEqual(header["env"]["blas_threads"], "1")

    def test_benchmark_json_matches_the_command(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: cls.why for name, cls in WORKLOADS.items()})
        for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, emitted, key)

    def test_seed_fixes_inputs_and_outputs(self):
        for name, cls in WORKLOADS.items():
            a, b, c = cls(ra, 5), cls(ra, 5), cls(ra, 6)
            fa, fb, fc = (run.input_fingerprint(w, w.setup()) for w in (a, b, c))
            self.assertEqual(fa, fb, name)
            self.assertNotEqual(fa, fc, name)
            for req_a, req_b in zip(a.cycle(0)[:2], b.cycle(0)[:2]):
                self.assertEqual(req_a.fingerprint, req_b.fingerprint, name)
                self.assertEqual(a.digest(a.run(req_a)), b.digest(b.run(req_b)), name)

    def test_injected_failure_is_counted_not_fatal(self):
        wl = WORKLOADS["ortho"](ra, 7)
        wl.setup()
        plain_run, plain_check = wl.run, wl.check

        def failing_run(req):
            if req.rid == 1:
                raise AssertionError("injected")
            return plain_run(req)

        def failing_check(req, out):
            if req.rid == 2:
                raise CheckFailed("injected")
            return plain_check(req, out)

        wl.run, wl.check = failing_run, failing_check
        loop = run.timed_loop(wl, seconds=0.5)
        kinds = {f["rid"]: f["type"] for f in loop["failures"]}
        self.assertEqual(kinds.get(1), "AssertionError")
        self.assertEqual(kinds.get(2), "CheckFailed")
        self.assertGreater(loop["attempted"], 3)
        _, extra = run.end_to_end(wl, loop, setup_s=1.0)
        self.assertAlmostEqual(extra["fail_frac"], len(loop["failures"]) / loop["attempted"])
        self.assertFalse(run.is_correct(loop))

    def test_only_known_failures_keep_the_run_correct(self):
        (known_input, known_type), = run.KNOWN_FAILURES.items()
        known = run.failure_record(Request(0, None, known_input), CheckFailed("margin"))
        other_type = run.failure_record(Request(1, None, known_input), AssertionError())
        other_input = run.failure_record(Request(2, None, "0" * 16), CheckFailed("margin"))
        self.assertEqual(known_type, "CheckFailed")
        self.assertTrue(run.is_correct({"failures": [known, known]}))
        self.assertFalse(run.is_correct({"failures": [known, other_type]}))
        self.assertFalse(run.is_correct({"failures": [other_input]}))

    def test_span_errors_catch_a_broken_trace(self):
        tracer = tracing.Tracer()
        with tracer.request(0) as root:
            time.sleep(0.01)
        wall = root.end - root.start
        self.assertEqual(tracing.span_errors(tracer, {0: wall}), [])
        self.assertEqual(len(tracing.span_errors(tracer, {0: wall + 0.1})), 1)  # root misses time
        self.assertEqual(len(tracing.span_errors(tracer, {0: wall, 1: 0.01})), 1)  # request with no spans
        tracer.spans.append(tracing.Span(0, 1, 0, "conic.x", root.start - 1.0, root.end))
        tracer.spans.append(tracing.Span(0, 2, 0, "conic.y", root.start))  # never closed
        self.assertEqual(len(tracing.span_errors(tracer, {})), 2)

    def test_trace_counts_repeat_and_outputs_match(self):
        for name, cls in WORKLOADS.items():
            runs = []
            for _ in range(2):
                wl = cls(ra, 11)
                wl.setup()
                loop = run.traced_loop(wl, ra)
                self.assertEqual(loop["mismatches"], [], name)
                self.assertEqual(loop["span_errors"], [], name)
                metrics = run.per_layer(loop)
                runs.append({
                    k: v for k, v in metrics.items()
                    if run.PER_LAYER[k] == "count" or k.endswith("_frac")
                })
            self.assertEqual(runs[0], runs[1], name)


if __name__ == "__main__":
    unittest.main()
