"""Tests of perfbench_ab.py on fake perfbench binaries.

Run with: python3 -m unittest discover -s .github/scripts
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perfbench_ab  # noqa: E402

# A stand-in for tiscc-perfbench. It reads what to report from fake.json
# next to it and scales every metric by the noise factor of its seed.
FAKE = """
import json, pathlib, sys
conf = json.loads((pathlib.Path(__file__).parent / "fake.json").read_text())
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--workload"] not in conf["workloads"]:
    sys.exit("unknown workload " + args["--workload"])
noise = conf["noise"][int(args["--seed"]) % len(conf["noise"])]
metrics = {k: {"value": v * noise} for k, v in conf["metrics"].items()}
print(json.dumps({"failed": conf["failed"], "metrics": metrics}))
"""

SPEC = {
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "requests_per_s", "better": "higher", "bound": 0.2},
    ],
}

METRICS = {"wall_s": 1.0, "requests_per_s": 100.0}


class PerfbenchAbTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def checkout(self, side, spec=SPEC, workloads=("w",), metrics=METRICS,
                 noise=(1.0,), failed=0):
        """A checkout with BENCHMARK.json and a fake binary two levels below it."""
        root = Path(self.tmp.name) / side
        binary = root / "target" / "release" / "perfbench"
        binary.parent.mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
        (binary.parent / "fake.json").write_text(json.dumps({
            "workloads": list(workloads), "metrics": metrics,
            "noise": list(noise), "failed": failed}))
        binary.write_text(f"#!{sys.executable}\n{FAKE}")
        binary.chmod(0o755)
        return os.fspath(binary)

    def gate(self, base, head):
        """Runs the gate; returns (its stdout, its exit message or None)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                perfbench_ab.main([base, head])
                message = None
            except SystemExit as exit:
                message = str(exit)
        return out.getvalue(), message

    def test_the_same_build_passes(self):
        base = self.checkout("base")
        out, message = self.gate(base, base)
        self.assertIsNone(message)
        self.assertEqual(out.count("  ok"), 2, out)

    def test_a_slower_head_fails(self):
        base = self.checkout("base")
        head = self.checkout("head", metrics={"wall_s": 1.5, "requests_per_s": 100.0})
        out, message = self.gate(base, head)
        self.assertIn("1 metric(s) worse than their bound", message)
        self.assertRegex(out, r"wall_s .* \+50\.0% .*WORSE")

    def test_a_failed_check_fails(self):
        base = self.checkout("base")
        head = self.checkout("head", failed=1)
        _, message = self.gate(base, head)
        self.assertIn("failed=1", message)

    def test_a_base_that_spreads_wider_than_the_bound_is_unresolved(self):
        base = self.checkout("base", noise=(0.5, 1.0, 1.5, 2.0))
        head = self.checkout("head", metrics={"wall_s": 2.0, "requests_per_s": 100.0})
        out, message = self.gate(base, head)
        self.assertIsNone(message)
        self.assertRegex(out, r"wall_s .* unresolved")
        self.assertIn("2 unresolved", out)

    def test_the_base_bounds_judge_the_head(self):
        loose = json.loads(json.dumps(SPEC))
        loose["end_to_end"][0]["bound"] = 10.0
        base = self.checkout("base")
        head = self.checkout("head", spec=loose,
                             metrics={"wall_s": 1.5, "requests_per_s": 100.0})
        _, message = self.gate(base, head)
        self.assertIn("1 metric(s) worse than their bound", message)

    def test_new_workloads_and_metrics_are_not_compared(self):
        grown = json.loads(json.dumps(SPEC))
        grown["workloads"].append({"name": "w2"})
        grown["end_to_end"].append({"name": "latency_ms", "better": "lower", "bound": 0.25})
        base = self.checkout("base")
        head = self.checkout("head", spec=grown, workloads=("w", "w2"),
                             metrics={**METRICS, "latency_ms": 3.0})
        out, message = self.gate(base, head)
        self.assertIsNone(message)
        self.assertRegex(out, r"w +latency_ms +new in the head, not compared")
        self.assertRegex(out, r"w2 +- +new in the head, not compared")

    def test_dropped_workloads_and_metrics_are_not_compared(self):
        grown = json.loads(json.dumps(SPEC))
        grown["workloads"].append({"name": "w2"})
        base = self.checkout("base", spec=grown, workloads=("w", "w2"))
        head = self.checkout("head", metrics={"wall_s": 1.0})
        out, message = self.gate(base, head)
        self.assertIsNone(message)
        self.assertRegex(out, r"w +requests_per_s +not reported by both sides")
        self.assertRegex(out, r"w2 +- +dropped by the head, not compared")

    def test_a_binary_outside_a_checkout_is_refused(self):
        lone = Path(self.tmp.name) / "perfbench"
        lone.touch()
        _, message = self.gate(os.fspath(lone), os.fspath(lone))
        self.assertIn("no BENCHMARK.json above", message)


if __name__ == "__main__":
    unittest.main()
