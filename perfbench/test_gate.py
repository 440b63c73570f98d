"""Tests of the benchmark's own machinery: the output gate, span self time
and the embedding stub.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import time
import unittest
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stub  # noqa: E402
import tracer  # noqa: E402


class OutputGateTest(unittest.TestCase):
    def setUp(self):
        parent = os.path.join(run.ROOT, ".perfbench-work")
        os.makedirs(parent, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=parent)
        self.addCleanup(run.remove_work_dir, self.work)
        self.workload = run.Workload("fever-verify", 3, self.work, None)
        self.deadline = time.perf_counter() + 120

    def test_run_that_writes_nothing_fails(self):
        # `python -m amrex.cli` exits 0 without doing anything: the gate
        # must count it as failed even though the exit code is 0.
        out = os.path.join(self.work, "nothing")
        result = run.launch([sys.executable, "-m", "amrex.cli",
                             *self.workload.argv(out)], out + ".stdout", self.deadline)
        self.assertEqual(result.code, 0)
        run.gate(result, run.read_output(out), self.workload.check, None)
        self.assertIsNotNone(result.error)

    def test_good_run_passes_and_tampered_output_fails(self):
        good = self.workload.run(self.deadline)
        self.assertIsNone(good.error, good.error)
        self.assertEqual(self.workload.failed, 0)
        rows = run.read_output(os.path.join(self.workload.dir, "out-1")).splitlines()

        row = json.loads(rows[-1])
        row["label"] = {"S": "R", "R": "N", "N": "S"}[row["label"]]
        tampered = b"\n".join(rows[:-1] + [json.dumps(row).encode()])
        self.assertIn("does not follow", self.workload.check(tampered))
        self.assertIn("verdict rows", self.workload.check(b"\n".join(rows[:-1])))

        other = run.Run(0, 1.0, None, 0.0)
        run.gate(other, b"\n".join(rows[1:] + rows[:1]), self.workload.check,
                 good.sha256)
        self.assertIsNotNone(other.error)


class SetupScalingTest(unittest.TestCase):
    def test_each_probe_is_scaled_by_the_calibration_before_it(self):
        workload = run.Workload.__new__(run.Workload)
        workload.runs = []
        ref = run.REFERENCE_CALIBRATION_S
        workload.probes = [run.Run(0, 0.8, None, 0.0), run.Run(0, 0.3, None, 0.0),
                           run.Run(0, 0.5, None, 0.0)]
        # The host ran at half, full and full reference speed.
        for probe, calibration in zip(workload.probes, (2 * ref, ref, ref)):
            probe.calibration_s = calibration
        self.assertAlmostEqual(run.end_to_end(workload)["setup_s"], 0.4)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [["cli.dispatch", 0.0, 10.0, None, 1],
                 ["smatch.align", 1.0, 4.0, 0, 2],
                 ["smatch.align", 3.0, 6.0, 0, 3],      # overlaps the first
                 ["similarity.embed", 1.5, 2.0, 1, 2],  # grandchild
                 ["ingest.join_amrs", 9.0, 11.0, 0, 1]]  # runs past the end
        self.assertAlmostEqual(tracer.self_time(spans, 0), 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(tracer.self_time(spans, 1), 2.5)


class StubTest(unittest.TestCase):
    def test_vectors_are_deterministic_and_counted(self):
        with stub.EmbeddingStub() as service:
            body = json.dumps({"texts": ["a film", "a film", "rabies"]}).encode()
            request = urllib.request.Request(f"{service.url}/embed", data=body,
                                             headers={"Content-Type": "application/json"})
            opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
            with opener.open(request, timeout=10) as response:
                vectors = json.loads(response.read())["vectors"]
            counters = service.counters.snapshot()
        self.assertEqual([len(v) for v in vectors], [stub.DIM] * 3)
        self.assertEqual(vectors[0], vectors[1])
        self.assertNotEqual(vectors[0], vectors[2])
        self.assertEqual((counters["requests"], counters["texts"]), (1, 3))
        self.assertGreater(counters["bytes"], len(body))


if __name__ == "__main__":
    unittest.main()
