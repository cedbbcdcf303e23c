"""Tests of the benchmark itself: a smoke run, and one negative case per
workload showing that a wrong output is counted as a failed op.

Run from the root of a checkout (builds into .bench_build on first use):

    python3 -m unittest perfbench/test_run.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


def setUpModule():
    run.build()


class SmokeTest(unittest.TestCase):
    def test_one_unit_per_workload_passes(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--smoke", "--seed",
             str(SEED)], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual([r["workload"] for r in results],
                         sorted(run.WORKLOADS, key=list(run.WORKLOADS).index))
        for result in results:
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0, result)


class NegativeTest(unittest.TestCase):
    def workload(self, name):
        return run.WORKLOADS[name](SEED, run.describe()["workloads"],
                                   run.fresh_work_dir("test-" + name))

    def test_mutated_live_report_fails_its_op(self):
        sweep = self.workload("live-sweep")
        sweep.setup()
        index = [name for name, _, _ in sweep.ops].index("linear_regression")
        tool_run, out = sweep.run_op(index)
        with open(out) as f:
            report = json.load(f)
        for finding in report["findings"]:
            finding["predictedImprovement"] *= 1.5
        with open(out, "w") as f:
            json.dump(report, f)
        ops = run.Ops()
        sweep.account(index, tool_run, out, ops)
        self.assertEqual((len(ops.wall_ms), ops.failed), (1, 1))

    def test_truncated_trace_fails_its_op(self):
        replay = self.workload("replay-kmeans")
        replay.setup()
        with open(replay.trace, "rb") as f:
            text = f.read()
        with open(replay.trace, "wb") as f:
            f.write(text[:len(text) // 2])
        ops = run.Ops()
        replay.op_unit(ops)
        self.assertEqual((len(ops.wall_ms), ops.failed), (1, 1))

    def test_missing_epoch_fails_its_op(self):
        daemon = self.workload("daemon-numa")
        launch = daemon.run_daemon(3)
        os.remove(os.path.join(launch.directory, "epoch-1.json"))
        ops = run.Ops()
        daemon.account(launch, ops)
        self.assertEqual((len(ops.wall_ms), ops.failed), (3, 1))
        self.assertIn("missing snapshot epoch-1", ops.reasons)

    def test_oversubscribed_workload_is_refused(self):
        # Two CPUs cannot host the daemon's main thread and three ingest
        # threads without oversubscription.
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "daemon-numa",
             "--seconds", "1"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {0, 1}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("refusing to oversubscribe", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
