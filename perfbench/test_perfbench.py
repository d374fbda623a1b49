#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Builds perfbench_runner and perfbench_replay like run.py does, then checks
at small bounds that
the sequential replay reproduces the engine's suites, that the independent
sources behind reference.json agree, and that every declared name is
well formed and printed by the driver.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Largest bounds at which every workload's engine and replay finish in
# well under a second.
SMALL_BOUNDS = {
    "vm-enum-all-b8-j2": 6,
    "vm-sat-causality-b8-j1": 6,
    "mcm-spec-all-b6-j1": 4,
}


def declared():
    with open(run.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def suites(result):
    return [(s["axiom"], s["tests"], s["fingerprint"], s["key_hash"])
            for s in result["suites"]]


class Names(unittest.TestCase):
    def test_every_name_is_well_formed(self):
        spec = declared()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME.fullmatch(name), name)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
        for workload in spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)

    def test_reference_agrees_with_independent_sources(self):
        reference = run.load_reference()
        self.assertEqual(
            run.cross_check(reference["workloads"],
                            reference["builtin_x86tso"]["suites"]), [])

    def test_check_counts_each_wrong_suite(self):
        reference = run.load_reference()
        workload = "vm-enum-all-b8-j2"
        good = [dict(s, complete=True, cancelled=False, failures=0)
                for s in reference["workloads"][workload]["suites"]]
        self.assertEqual(
            run.check_suites(workload, {"mode": "engine", "suites": good},
                             reference), (5, 0, []))
        bad = [dict(s) for s in good]
        bad[0]["fingerprint"] = "0" * 16
        bad[3]["complete"] = False
        attempted, failed, problems = run.check_suites(
            workload, {"mode": "engine", "suites": bad[:4]}, reference)
        self.assertEqual((attempted, failed, len(problems)), (5, 3, 3))


class Runner(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["perfbench_runner", "perfbench_replay"])

    def engine(self, workload, *extra):
        return run.spawn([run.RUNNER, "engine", workload, "--bound",
                          SMALL_BOUNDS[workload], *extra])

    def replay(self, workload, *extra):
        return run.spawn([run.REPLAY, workload, "--bound",
                          SMALL_BOUNDS[workload], *extra])

    def test_workloads_are_declared_and_recorded(self):
        listed = subprocess.run([str(run.RUNNER), "list"], check=True,
                                capture_output=True, text=True).stdout.split()
        self.assertEqual(listed, [w["name"] for w in declared()["workloads"]])
        self.assertEqual(listed, list(run.load_reference()["workloads"]))

    def test_replay_fingerprint_equals_engine_fingerprint(self):
        spans = run.BUILD / "test-spans.json"
        for workload in SMALL_BOUNDS:
            with self.subTest(workload=workload):
                engine = self.engine(workload)
                self.assertTrue(all(s["complete"] for s in engine["suites"]))
                self.assertGreater(sum(s["tests"] for s in engine["suites"]),
                                   0)
                self.assertEqual(suites(self.replay(workload)),
                                 suites(engine))
                traced = self.replay(workload, "--spans", spans)
                self.assertEqual(suites(traced), suites(engine))
                with open(spans) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def test_independent_sources_agree_at_small_bound(self):
        enum = {s["axiom"]: s for s in
                self.engine("vm-enum-all-b8-j2")["suites"]}
        sat = self.engine("vm-sat-causality-b8-j1")["suites"]
        self.assertEqual([(s["tests"], s["key_hash"]) for s in sat],
                         [(enum["causality"]["tests"],
                           enum["causality"]["key_hash"])])
        self.assertEqual(
            suites(self.engine("mcm-spec-all-b6-j1")),
            suites(self.engine("mcm-spec-all-b6-j1", "--model", "x86tso")))

    def test_driver_reports_the_declared_metrics(self):
        workload = "mcm-spec-all-b6-j1"
        engine = self.engine(workload)
        layers = run.layer_metrics(
            engine, self.engine(workload, "--metrics"),
            self.replay(workload, "--spans", run.BUILD / "t.json"),
            self.replay(workload))
        spec = declared()
        self.assertEqual(
            [(name, unit) for name, (_, unit) in layers.items()],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])
        setup = run.spawn([run.RUNNER, "setup", workload])
        e2e = run.end_to_end_metrics(
            [engine], [(setup["ready_ns"] - setup["spawned_ns"]) * 1e-9])
        self.assertEqual(
            [(name, unit) for name, (_, unit) in e2e.items()],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]])
        for name, (value, _) in e2e.items():
            self.assertGreater(value, 0, name)


class Bare(unittest.TestCase):
    def test_fails_without_the_transform_sources(self):
        bare = run.BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "vm-enum-all-b8-j2", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
