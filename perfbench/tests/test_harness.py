"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench/tests

Also runs the C++ self-test (due-time latency accounting on a fake clock)
when run.py has already built it.
"""

import copy
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import harness  # noqa: E402
import run  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 99), 99)
        self.assertEqual(harness.percentile(values, 100), 100)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertFalse(harness.supports_percentile(999, 99.0))
        self.assertTrue(harness.supports_percentile(1000, 99.0))
        self.assertIsNone(harness.tail_percentile(list(range(999)), 99.0))
        self.assertEqual(harness.tail_percentile(list(range(1000)), 99.0), 989)

    def test_support_scales_with_the_tail(self):
        self.assertTrue(harness.supports_percentile(10000, 99.9))
        self.assertFalse(harness.supports_percentile(9999, 99.9))
        self.assertTrue(harness.supports_percentile(200, 95.0))
        self.assertFalse(harness.supports_percentile(19, 50.0))

    def test_windows_must_support_the_percentile(self):
        samples = [(t, 1.0) for t in range(2000)]
        out = harness.windowed_percentiles(samples, 0, 2000, 2, (50.0, 99.0))
        self.assertEqual(out[99.0], [1.0, 1.0])
        with self.assertRaises(ValueError):
            harness.windowed_percentiles(samples, 0, 2000, 4, (99.0,))

    def test_one_slow_window_does_not_move_the_median(self):
        samples = [(t, 1.0) for t in range(3000)] + [(t, 50.0) for t in range(0, 1000, 50)]
        out = harness.windowed_percentiles(samples, 0, 3000, 3, (99.0,))
        self.assertEqual(out[99.0][0], 50.0)
        self.assertEqual(statistics.median(out[99.0]), 1.0)


class DueTimeAccounting(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        req = {"due_us": 1000, "sent_us": 9000, "start_us": 9500, "done_us": 10000,
               "status": run.STATUS_OK}
        self.assertEqual(run.read_latency_ms(req, 50.0), 9.0)

    def test_rejection_misses_the_limit(self):
        req = {"due_us": 0, "sent_us": 0, "start_us": 0, "done_us": 100, "status": 1}
        self.assertGreater(run.read_latency_ms(req, 50.0), 50.0)

    def test_fake_clock_selftest(self):
        binary = os.path.join(run.build_dir(), "perfbench_selftest")
        if not os.path.exists(binary):
            self.skipTest("perfbench_selftest not built (run perfbench/run.py once)")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class BacklogGrowth(unittest.TestCase):
    @staticmethod
    def arrivals(rate_per_s, seconds):
        step = 1e6 / rate_per_s
        return [int(i * step) for i in range(int(rate_per_s * seconds))]

    def test_steady_service_does_not_grow(self):
        due = self.arrivals(1000, 1.0)
        done = [d + 500 for d in due]  # every request takes 0.5 ms
        self.assertFalse(harness.backlog_growing(due, done, 0, 1_000_000))

    def test_overload_grows(self):
        due = self.arrivals(2000, 1.0)
        done = [(i + 1) * 1000 for i in range(len(due))]  # serves 1000/s
        self.assertTrue(harness.backlog_growing(due, done, 0, 1_000_000))

    def test_burst_that_drains_does_not_grow(self):
        due = self.arrivals(1000, 1.0)
        # A 100 ms stall early in the window; the queue drains well before the end.
        done = [200_000 + 500 if 100_000 <= d < 200_000 else d + 500 for d in due]
        self.assertFalse(harness.backlog_growing(due, done, 0, 1_000_000))

    def test_small_absolute_rise_is_noise(self):
        due = self.arrivals(100, 1.0)
        done = [d + 500 if d < 900_000 else 1_000_000 for d in due]
        self.assertFalse(harness.backlog_growing(due, done, 0, 1_000_000))


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = {"name": ["run", "a", "b", "a"],
                 "start_ns": [0, 10, 40, 60],
                 "end_ns": [100, 30, 60, 90],
                 "parent": [-1, 0, 0, 0]}
        totals = harness.self_time_by_name(spans, scale=1)
        self.assertEqual(totals["run"], 100 - 20 - 20 - 30)
        self.assertEqual(totals["a"], 50)
        self.assertEqual(totals["b"], 20)


REFS = {"fb15k-transe-cached": {
    "tolerance": {"final_loss": {"rel": 0.005}, "mrr": {"abs": 0.005}},
    "seeds": {"1": {"final_loss": 0.115, "mrr": 0.0418},
              "2": {"final_loss": 0.117, "mrr": 0.0416}}}}


class ReferenceCheck(unittest.TestCase):
    def test_matching_seed_passes(self):
        mode, failures = harness.check_reference(
            REFS, "fb15k-transe-cached", 1, {"final_loss": 0.1151, "mrr": 0.0420})
        self.assertEqual((mode, failures), ("seed", []))

    def test_corrupted_reference_fails(self):
        corrupted = copy.deepcopy(REFS)
        corrupted["fb15k-transe-cached"]["seeds"]["1"]["final_loss"] = 0.2
        mode, failures = harness.check_reference(
            corrupted, "fb15k-transe-cached", 1, {"final_loss": 0.115, "mrr": 0.0418})
        self.assertEqual(mode, "seed")
        self.assertEqual(len(failures), 1)
        self.assertIn("final_loss", failures[0])

    def test_unrecorded_seed_uses_the_envelope(self):
        mode, failures = harness.check_reference(
            REFS, "fb15k-transe-cached", 7, {"final_loss": 0.116, "mrr": 0.0417})
        self.assertEqual((mode, failures), ("envelope", []))
        # Recorded losses span [0.115, 0.117]; the range is widened by its
        # own width (0.002) and the 0.5% tolerance on each side.
        for loss, ok in ((0.1185, True), (0.1125, True), (0.1197, False), (0.3, False)):
            _, failures = harness.check_reference(
                REFS, "fb15k-transe-cached", 7, {"final_loss": loss, "mrr": 0.0417})
            self.assertEqual(failures == [], ok, loss)

    def test_missing_reference_fails(self):
        mode, failures = harness.check_reference({}, "fb15k-transe-cached", 1, {"final_loss": 0.1})
        self.assertTrue(failures)

    def test_corrupted_reference_file_fails_the_run(self):
        raw = {"workload": "fb15k-transe-cached", "seed": 1, "checks": [],
               "train": {"final_loss": 0.115}, "eval": {"mrr": 0.0418}}
        self.assertTrue(all(ok for _, ok, _ in run.output_checks(raw, REFS)))
        corrupted = copy.deepcopy(REFS)
        corrupted["fb15k-transe-cached"]["seeds"]["1"]["mrr"] = 0.5
        self.assertFalse(all(ok for _, ok, _ in run.output_checks(raw, corrupted)))


def fake_raw(workload):
    """The smallest raw document run.py derives end-to-end metrics from."""
    train = {"triples": 1000, "final_loss": 0.2,
             "runs": [{"epoch_s": [0.3, 0.1, 0.1]}, {"epoch_s": [0.3, 0.1, 0.1]}]}
    raw = {"workload": workload, "setup_s": [0.05, 0.04, 0.06], "peak_rss_mb": 100.0,
           "train": train, "publish_s": [0.01, 0.02, 0.01],
           "eval": {"mrr": 0.04, "ranks": 80, "seconds": [0.5]}}
    if workload == "wn18-transh-ddp":
        raw["ddp"] = dict(train, threads=train["runs"], procs=train["runs"])
    if workload == "fb15k-serve-openloop":
        del raw["publish_s"]
        raw["recall_at_10"] = 0.9
        raw["serve"] = {"requests": {
            "due_us": [0, 10], "sent_us": [0, 10], "start_us": [0, 10],
            "done_us": [5, 800_010], "kind": [run.KIND_TOP_TAILS, run.KIND_PUBLISH],
            "status": [run.STATUS_OK, run.STATUS_OK], "phase": [0, 0]}}
    return raw


class ResultLine(unittest.TestCase):
    def test_every_workload_measures_every_end_to_end_metric(self):
        wanted = run.manifest_metrics(0)
        for w in run.WORKLOADS:
            reported = run.select_reported(run.end_to_end(fake_raw(w)), wanted)
            self.assertEqual(sorted(reported), sorted(n for n, _ in wanted), w)
        serve = run.end_to_end(fake_raw("fb15k-serve-openloop"))
        self.assertAlmostEqual(serve["publish_s"][0], 0.8)
        self.assertAlmostEqual(serve["train_triples_per_s"][0], 10000.0)

    def test_only_manifest_metrics_are_reported(self):
        metrics = {"a": (1.0, "s"), "b": (2.0, "s")}
        self.assertEqual(run.select_reported(metrics, [("a", "s")]), {"a": (1.0, "s")})

    def test_missing_metric_or_unit_fails_the_run(self):
        with self.assertRaises(SystemExit):
            run.select_reported({"a": (1.0, "s")}, [("a", "s"), ("b", "s")])
        with self.assertRaises(SystemExit):
            run.select_reported({"a": (1.0, "ms")}, [("a", "s")])


if __name__ == "__main__":
    unittest.main()
