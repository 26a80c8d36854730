"""Smoke tests for the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Each workload runs at a few dozen rows (a few thousand for `stages`), and
`paper` and `stages` also traced, through the same code path as a real run.
The tests also check that BENCHMARK.json names exactly the metrics the
benchmark prints, and that a directory without rigline sources is refused.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {
    "grid": {"rows": 40, "failure_fraction": 0.5, "tables": 2},
    "paper": {"rows": 60, "tables": 2},
    "stages": {"rows": 3000},
}


def tiny_run(name, trace):
    """(exit code, result object, workload) of one run at the tiny size."""
    saved = run.WORKLOADS[name]
    tiny = dataclasses.replace(saved, **TINY[name])
    run.WORKLOADS[name] = tiny
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        run.WORKLOADS[name] = saved
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), tiny


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def declared_workloads():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


class SmokeTest(unittest.TestCase):
    def check(self, name, trace, kind):
        code, result, wl = tiny_run(name, trace)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"] % wl.models, 0)
        self.assertGreaterEqual(result["attempted"], wl.models * wl.tables)
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        self.assertEqual(units, declared(kind))
        return result["metrics"]

    def test_declared_workloads_exist(self):
        self.assertLessEqual(set(declared_workloads()), set(run.WORKLOADS))

    def test_grid(self):
        m = self.check("grid", 0, "end_to_end")
        self.assertGreater(m["wall_s"]["value"], 0.0)

    def test_paper(self):
        self.check("paper", 0, "end_to_end")

    def test_stages(self):
        self.check("stages", 0, "end_to_end")

    def test_traced_stages_runs_no_tree_or_smo_code(self):
        m = self.check("stages", 1, "per_layer")
        self.assertEqual(m["baseline_learners.best_split.calls"]["value"], 0)
        self.assertEqual(m["svm_smo.smo_train.calls"]["value"], 0)
        self.assertGreater(m["labeling_em.em_fit.iters"]["value"], 0)
        self.assertGreater(m["dataset.load_csv.rows"]["value"], 0)

    def test_traced_paper_counts_smo(self):
        m = self.check("paper", 1, "per_layer")
        self.assertEqual(m["svm_smo.smo_train.calls"]["value"], 8)
        self.assertGreater(m["svm_smo.take_step.attempts"]["value"],
                           m["svm_smo.take_step.steps"]["value"])

    def test_inputs_follow_the_seed(self):
        X1, y1 = run.inputs.draw_rows(50, 0.3, 7)
        X2, y2 = run.inputs.draw_rows(50, 0.3, 7)
        X3, _ = run.inputs.draw_rows(50, 0.3, 8)
        self.assertTrue((X1 == X2).all() and (y1 == y2).all())
        self.assertFalse((X1 == X3).all())
        self.assertEqual(int((y1 == "failure").sum()), 15)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
